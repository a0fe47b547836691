import contextlib
import io as stdio
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fqk import (
    OutOfRange,
    catalog,
    catalog_keys,
    catalog_kind,
    builtin,
    mckay_quiver,
    multiply,
    regular_module,
    validate,
    validate_module,
)
from fqk.io import (
    check_dot,
    dumps,
    gamma_dot,
    module_to_dict,
    quiver_dot,
    quiver_from_dict,
    quiver_to_dict,
    ring_to_dict,
    unfolded_dot,
)
from fqk.quiver import coxeter_graph
from fqk.unfold import unfold
from fqk import cli

from conftest import BUILTIN_QUIVERS


@pytest.fixture(scope="module")
def boundary_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


README = Path(__file__).resolve().parents[1] / "README.md"
# the lines of the fenced block under the README's "## CLI" heading
README_CLI = README.read_text().split("## CLI\n")[1].split("```")[1].splitlines()
# the fenced Python blocks under the README's "## Quick start" heading
README_QUICK_START = [
    b.split("```")[0]
    for b in README.read_text().split("## Quick start\n")[1].split("\n## ")[0].split("```python\n")[1:]
]


class TestCatalog:
    def test_every_entry_validates(self):
        for key in catalog_keys():
            kind = catalog_kind(key)
            params = ()
            if key in ("verlinde_sl2",):
                params = (4,)
            elif key in ("verlinde_typeD",):
                params = (4,)
            obj = builtin(key, *params)
            if kind == "ring":
                assert validate(obj).ok, key
            elif kind == "module":
                assert validate_module(obj).ok, key
            elif kind == "quiver":
                if obj.ring is not None:
                    assert validate(obj.ring).ok, key
                M = obj.resolved_module()
                if M is not None:
                    assert validate_module(M).ok, key

    @pytest.mark.parametrize("level", range(2, 41, 2))
    def test_type_d_modules_have_no_warnings(self, level):
        rep = validate_module(catalog.verlinde_typeD(level))
        assert rep.ok and rep.warnings == []

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            builtin("no_such_thing")

    def test_bad_params(self):
        with pytest.raises(OutOfRange):
            catalog.verlinde_sl2(0)
        with pytest.raises(OutOfRange):
            catalog.verlinde_typeD(3)
        with pytest.raises(OutOfRange):
            catalog.verlinde_typeD(0)

    def test_verlinde_level_one(self):
        r = catalog.verlinde_sl2(1)
        assert r.rank == 2
        v1 = r.basis("V1")
        assert multiply(r, v1, v1) == r.one

    def test_s4_standard_square(self):
        s4 = catalog.rep_s4()
        v3 = s4.basis("V3")
        prod = multiply(s4, v3, v3)
        # trivial + 2-dim + standard + twisted standard
        expect = [0] * s4.rank
        for nm in ("1", "W", "V3", "V3p"):
            expect[s4.names.index(nm)] += 1
        assert prod == tuple(expect)

    def test_json_roundtrip_bit_identical(self):
        for name, Q in BUILTIN_QUIVERS.items():
            d = quiver_to_dict(Q)
            text = dumps(d)
            back = quiver_from_dict(json.loads(text))
            assert back == Q, name
            assert dumps(quiver_to_dict(back)) == text, name

    @pytest.mark.parametrize(
        "label, text",
        [
            ({"matrix": [[0, 1], [1, 1]]}, "matrix"),
            ([1, 2], "1+2*tau"),
            ([0, 2], "2*tau"),
        ],
        ids=["matrix", "coefficients", "multiple_of_a_simple"],
    )
    def test_label_roundtrip_and_dot_text(self, label, text):
        """A matrix label and a label that is not a simple round-trip through
        JSON bit-identically, and the DOT edge shows the label."""
        d = {"vertices": ["a", "b"], "edges": [{"from": 0, "to": 1, "label": label}],
             "ring": ring_to_dict(catalog.fibonacci())}
        Q = quiver_from_dict(d)
        assert quiver_to_dict(Q) == d
        assert quiver_from_dict(json.loads(dumps(quiver_to_dict(Q)))) == Q
        assert f'"a" -> "b" [label="{text}"];' in quiver_dot(Q)

    def test_dot_output_parses(self):
        for name, Q in BUILTIN_QUIVERS.items():
            assert check_dot(quiver_dot(Q)), name
            assert check_dot(unfolded_dot(unfold(Q))), name
            if Q.ring is not None:
                assert check_dot(gamma_dot(coxeter_graph(Q))), name

    def test_check_dot_rejects_garbage(self):
        assert not check_dot("graph { a -> b }")  # wrong arrow for graph
        assert not check_dot("not dot at all")


# FP dimensions in closed form: V_j at level L has sin((j+1)pi/(L+2)) / sin(pi/(L+2))
CLOSED_FORM_DIMS = {
    f"verlinde_sl2 {L}": [math.sin((j + 1) * math.pi / (L + 2)) / math.sin(math.pi / (L + 2))
                          for j in range(L + 1)]
    for L in range(1, 31)
} | {"vect": [1], "rep_s2": [1, 1], "rep_s3": [1, 1, 2], "rep_s4": [1, 1, 2, 3, 3],
     "fibonacci": [1, (1 + math.sqrt(5)) / 2]}


class TestCLI:
    def test_catalog_list(self, capsys):
        assert cli.main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        for key in catalog_keys():
            assert key in out

    def test_validate_builtin_ring(self, capsys):
        assert cli.main(["validate", "--builtin", "fibonacci"]) == 0
        assert "valid" in capsys.readouterr().out.lower()

    @staticmethod
    def validate_counting(monkeypatch, capsys, fmt, owner, name, source):
        """`fqk validate <source>` on a file or on a freshly built catalog
        entry (`--builtin <entry> <param>`), counting the calls of the
        validator `owner.<name>`, which the catalog and the CLI import as
        well; the sizes of the validated objects."""
        import fqk.catalog

        calls, real = [], getattr(owner, name)

        def counting(obj):
            calls.append(getattr(obj, "rank", None) or obj.msize)
            return real(obj)

        for imported in (owner, fqk.catalog, cli):
            monkeypatch.setattr(imported, name, counting)
        cached = getattr(fqk.catalog, source[1], None) if source[0] == "--builtin" else None
        clear = getattr(cached, "cache_clear", lambda: None)
        clear()
        try:
            assert cli.main(["validate", *source, *fmt]) == 0
        finally:
            clear()
        out = capsys.readouterr().out
        if fmt:
            assert json.loads(out) == {"ok": True, "violations": [], "warnings": []}
        else:
            assert out == "valid\n"
        return calls

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_validate_builtin_ring_validates_once(self, monkeypatch, capsys, fmt):
        import fqk.ring

        calls = self.validate_counting(
            monkeypatch, capsys, fmt, fqk.ring, "validate", ["--builtin", "verlinde_sl2", "5"]
        )
        assert calls == [6]

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    def test_validate_builtin_module_validates_once(self, monkeypatch, capsys, fmt):
        import fqk.module

        calls = self.validate_counting(
            monkeypatch, capsys, fmt, fqk.module, "validate_module",
            ["--builtin", "verlinde_typeD", "6"],
        )
        assert calls == [5]

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
    @pytest.mark.parametrize("kind", ["ring", "module"])
    def test_validate_file_validates_once(self, monkeypatch, capsys, tmp_path, fmt, kind):
        import fqk.module
        import fqk.ring

        path = tmp_path / f"{kind}.json"
        if kind == "ring":
            owner, name, data, want = fqk.ring, "validate", ring_to_dict(catalog.verlinde_sl2(5)), [6]
        else:
            owner, name, want = fqk.module, "validate_module", [5]
            data = module_to_dict(catalog.verlinde_typeD(6))
        path.write_text(dumps(data))
        calls = self.validate_counting(
            monkeypatch, capsys, fmt, owner, name, [f"--{kind}", str(path)]
        )
        assert calls == want

    @pytest.mark.parametrize(
        "edges, ring",
        [
            ([{"from": 0, "to": 2, "label": "tau"}], True),
            ([{"from": 0, "to": 1, "label": [1]}], True),
            ([{"from": 0, "to": 1, "label": [1]}], False),
            ([{"from": 0, "to": 1, "label": "tau"},
              {"from": 0, "to": 1, "label": {"matrix": [[0, 1], [1, 1]]}}], True),
        ],
        ids=["endpoint", "label_length", "ring_label_without_ring", "mixed_parallel_labels"],
    )
    def test_bad_quiver_exit_1(self, tmp_path, capsys, edges, ring):
        path = tmp_path / "bad_quiver.json"
        data = {"vertices": ["a", "b"], "edges": edges}
        if ring:
            data["ring"] = ring_to_dict(catalog.fibonacci())
        path.write_text(dumps(data))
        assert cli.main(["classify", "--quiver", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "label, message",
        [
            ({"matrix": [[0, 0, 0], [0, 0, 1], [0, 1, 1]]}, "Coxeter numbers [2, 5]"),
            ({"matrix": [[0, 1], [0, 0]]}, "Coxeter numbers [2, 3]"),
        ],
        ids=["reducible", "nilpotent"],
    )
    def test_label_gamma_rejects_exit_1(self, tmp_path, capsys, label, message):
        """A label whose one-edge unfolding mixes Coxeter numbers gives no m."""
        path = tmp_path / "q.json"
        edge = {"from": 0, "to": 1, "label": label}
        path.write_text(dumps({"vertices": ["a", "b"], "edges": [edge]}))
        for cmd in ("classify", "gamma", "enumerate"):
            assert cli.main([cmd, "--quiver", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize(
        "extra, key",
        [({"fpdim": True}, "fpdim"), ({"fpdim": 1.618033988749895}, "fpdim"),
         ({"fpdim": 1.5}, "fpdim"), ({"fpdim": "x"}, "fpdim"), ({"Matrix": [[1]]}, "Matrix")],
        ids=["fpdim_bool", "fpdim_phi", "fpdim_1.5", "fpdim_str", "misspelled_matrix"],
    )
    def test_label_key_other_than_matrix_exit_2(self, tmp_path, capsys, extra, key):
        """A matrix label is {"matrix": [[...]]}: its FP dimension is read
        from the matrix, so any other key, a correct pin included, is a
        usage error that names the key."""
        path = tmp_path / "q.json"
        matrix = catalog.sl3at5_action().matrix
        edge = {"from": 0, "to": 1, "label": {"matrix": [list(r) for r in matrix], **extra}}
        path.write_text(dumps({"vertices": ["a", "b"], "edges": [edge]}))
        for cmd in ("classify", "gamma", "enumerate"):
            assert cli.main([cmd, "--quiver", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1
            assert captured.err.startswith("usage error: ") and repr(key) in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fpdim", "--ring", "{ring}"],
            ["rank2", "--ring", "{ring}", "--object", "tau"],
            ["qnum", "--ring", "{ring}", "--object", "tau"],
            ["classify", "--quiver", "{quiver}"],
            ["mckay", "--module", "{module}", "--label", "V1"],
            ["classify", "--builtin", "verlinde_l4_quiver", "--module", "{module}"],
        ],
        ids=["fpdim", "rank2", "qnum", "quiver_ring", "mckay", "classify_module"],
    )
    def test_invalid_file_exit_1(self, tmp_path, capsys, argv):
        ring = dict(ring_to_dict(catalog.fibonacci()), dual=[0, 5])
        module = module_to_dict(catalog.verlinde_typeD(4))
        module["act"][0][0][0] = 2  # the unit no longer acts as the identity
        quiver = {"vertices": ["a", "b"], "edges": [{"from": 0, "to": 1, "label": "tau"}], "ring": ring}
        paths = {}
        for kind, data in (("ring", ring), ("module", module), ("quiver", quiver)):
            paths[kind] = str(tmp_path / f"{kind}.json")
            (tmp_path / f"{kind}.json").write_text(dumps(data))
        argv = [a.format(**paths) for a in argv]
        assert cli.main(argv) == 1
        path = next(a for a in argv if a in paths.values())
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("cmd", ["classify", "enumerate"])
    def test_module_over_another_ring_exit_1(self, tmp_path, capsys, cmd):
        path = tmp_path / "s2.json"
        path.write_text(dumps(module_to_dict(regular_module(catalog.rep_s2()))))
        assert cli.main([cmd, "--builtin", "fib_edge_quiver", "--module", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: the module is not over the quiver's ring\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["qnum", "--builtin", "verlinde_sl2", "6", "--object", "V3", "--upto", "400"],
            ["catalog", "list"],
        ],
        ids=["qnum", "catalog"],
    )
    def test_closed_stdout_exits_1_silently(self, argv):
        import fqk

        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        env = dict(os.environ, PYTHONPATH=str(Path(fqk.__file__).parents[1]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fqk.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, b"")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--format", "json"],
            ["enumerate", "--format", "json"],
            ["unfold", "--format", "json"],
            ["dot", "--what", "unfolded"],
        ],
        ids=["classify", "enumerate", "unfold", "dot"],
    )
    def test_module_option_replaces_the_quivers_module(self, tmp_path, capsys, argv):
        path = tmp_path / "typeD4.json"
        path.write_text(dumps(module_to_dict(catalog.verlinde_typeD(4))))
        assert cli.main([*argv, "--builtin", "verlinde_l4_quiver", "--module", str(path)]) == 0
        replaced = capsys.readouterr().out
        assert cli.main([*argv, "--builtin", "verlinde_l4_typeD_quiver"]) == 0
        assert replaced == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv", [["classify"], ["enumerate", "--format", "json"]], ids=["classify", "enumerate"]
    )
    def test_nested_paths_resolve_from_their_own_file(self, tmp_path, capsys, argv):
        """q.json names sub/m.json, whose ring "r.json" is read from sub/."""
        Q = catalog.verlinde_l4_typeD_quiver()
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "r.json").write_text(dumps(ring_to_dict(Q.ring)))
        module = {**module_to_dict(Q.module), "ring": "r.json"}
        (tmp_path / "sub" / "m.json").write_text(dumps(module))
        quiver = quiver_to_dict(Q)
        del quiver["ring"]
        (tmp_path / "q.json").write_text(dumps({**quiver, "module": "sub/m.json"}))
        assert cli.main([*argv, "--quiver", str(tmp_path / "q.json")]) == 0
        from_files = capsys.readouterr().out
        assert cli.main([*argv, "--builtin", "verlinde_l4_typeD_quiver"]) == 0
        assert from_files == capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"vertices": ["a"]', "Expecting"),
            (dumps({"vertices": ["a"]}), "missing key 'edges'"),
            (
                dumps({
                    "vertices": ["a", "b"], "edges": [{"from": 0, "to": 1, "label": "sigma"}],
                    "ring": ring_to_dict(catalog.fibonacci()),
                }),
                "unknown label 'sigma'",
            ),
        ],
        ids=["malformed_json", "missing_edges", "unknown_label"],
    )
    def test_bad_quiver_file_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad_quiver.json"
        path.write_text(text)
        assert cli.main(["classify", "--quiver", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err

    def test_fpdim_table_and_json(self, capsys):
        assert cli.main(["fpdim", "--builtin", "fibonacci"]) == 0
        out = capsys.readouterr().out
        assert "1.618" in out
        assert cli.main(["fpdim", "--builtin", "fibonacci", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dims"]["tau"] == pytest.approx(1.6180339887, abs=1e-8)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "obj, text", [("tau", "1.61803399"), ("1,1", "2.61803399"), ("0 1", "1.61803399")]
    )
    def test_fpdim_of_object(self, capsys, fmt, obj, text):
        """--object is a simple's name or its coefficient vector."""
        assert cli.main(["fpdim", "--builtin", "fibonacci", "--object", obj, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "table":
            assert out == text + "\n"
        else:
            data = json.loads(out)
            assert data["object"] == obj and f"{data['fpdim']:.9g}" == text

    @pytest.mark.parametrize("key", CLOSED_FORM_DIMS)
    def test_fpdim_table_prints_the_closed_form(self, capsys, key):
        """The table shows 9 significant digits, the ones the power
        iteration's 1e-10 residual leaves exact."""
        args = key.split()
        assert cli.main(["fpdim", "--builtin", *args]) == 0
        names = builtin(args[0], *map(int, args[1:])).names
        want = "".join(f"{n}: {d:.9g}\n" for n, d in zip(names, CLOSED_FORM_DIMS[key]))
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_fpdim_of_object_of_wrong_length(self, capsys, fmt):
        argv = ["fpdim", "--builtin", "fibonacci", "--object", "1,1,1", "--format", fmt]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: object vector length 3 != rank 2\n"

    def test_gamma_s3(self, capsys):
        assert cli.main(["gamma", "--builtin", "s3_std_quiver"]) == 0
        assert "I2(inf)" in capsys.readouterr().out

    def test_gamma_names_a_looped_two_vertex_component_infinite(self, tmp_path, capsys):
        # tau from a to b and a unit loop at a: infinite through the loop, not
        # through an edge of m = INFINITY, so not I2(inf)
        path = tmp_path / "looped.json"
        edges = [{"from": 0, "to": 1, "label": "tau"}, {"from": 0, "to": 0, "label": "1"}]
        path.write_text(dumps({"vertices": ["a", "b"], "edges": edges, "ring": ring_to_dict(catalog.fibonacci())}))
        assert cli.main(["gamma", "--quiver", str(path)]) == 0
        assert capsys.readouterr().out == "infinite\n"
        assert cli.main(["classify", "--quiver", str(path)]) == 0
        assert "Gamma = infinite;" in capsys.readouterr().out

    def test_classify_fibonacci(self, capsys):
        from fqk import is_finite_type

        line = "finite; Gamma = I2(5); unfolded = A4 (h=5, 10 roots)"
        assert cli.main(["classify", "--builtin", "fib_edge_quiver"]) == 0
        assert capsys.readouterr().out == line + "\n"
        assert str(is_finite_type(catalog.fib_edge_quiver())) == line

    def test_unfold_counts(self, capsys):
        assert cli.main(
            ["unfold", "--builtin", "s4_std_quiver", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["vertices"]) == 10
        assert len(data["arrows"]) == 12

    def test_enumerate_s2(self, capsys):
        assert cli.main(
            ["enumerate", "--builtin", "s2_sign_quiver", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 6
        assert len(data["vectors"]) == 6

    def test_enumerate_infinite_fails(self, capsys):
        assert cli.main(["enumerate", "--builtin", "s3_std_quiver"]) == 1

    def test_mckay(self, capsys):
        assert cli.main(
            [
                "mckay",
                "--builtin",
                "fibonacci",
                "--label",
                "tau",
                "--separated",
                "--format",
                "json",
            ]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["vertices"]) == 4
        assert len(data["arrows"]) == 3

    def test_mckay_coefficient_label(self, capsys):
        """A coefficient vector is a label, as in quiver files."""
        argv = ["mckay", "--builtin", "rep_s3", "--label", "[0, 1, 1]", "--format", "json"]
        assert cli.main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        q = mckay_quiver(regular_module(catalog.rep_s3()), (0, 1, 1))
        assert data["arrows"] == [[q.vertices[s], q.vertices[t], m] for s, t, m in q.arrows]

    def test_qnum_free(self, capsys):
        assert cli.main(["qnum", "--free", "--upto", "4"]) == 0
        out = capsys.readouterr().out
        assert "d d' d" in out or "dd'd" in out.replace(" ", "") or "d" in out

    @pytest.mark.parametrize(
        "argv",
        [["--free"], ["--builtin", "fibonacci", "--object", "tau"]],
        ids=["free", "in_ring"],
    )
    @pytest.mark.parametrize("upto", ["0", "-3"])
    def test_qnum_upto_below_one_exit_2(self, capsys, argv, upto):
        assert cli.main(["qnum", *argv, "--upto", upto]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --upto: '{upto}' is not an integer of at least 1" in err

    def test_qnum_in_ring(self, capsys):
        assert cli.main(
            ["qnum", "--builtin", "fibonacci", "--object", "tau", "--upto", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "0" in out  # [5] vanishes

    def test_qnum_beyond_the_float_range(self, capsys):
        """[k] past k = 932 has coefficients too large for a float; the float
        cross-check of the zero test must still not raise."""
        argv = ["qnum", "--builtin", "verlinde_sl2", "6", "--object", "V3", "--upto", "1500",
                "--format", "json"]
        assert cli.main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["minimal_m"] == "inf"
        assert set(data["signs_d"]) == set(data["signs_dp"]) == {"positive"}
        assert len(data["signs_d"]) == 1500

    def test_rank2(self, capsys):
        assert cli.main(["rank2", "--builtin", "fibonacci", "--object", "tau"]) == 0
        assert "5" in capsys.readouterr().out

    def test_dot_roundtrip(self, tmp_path, capsys):
        outfile = tmp_path / "q.dot"
        assert cli.main(
            ["dot", "--builtin", "fib_edge_quiver", "--out", str(outfile)]
        ) == 0
        assert check_dot(outfile.read_text())

    def test_usage_error_exit_2(self, tmp_path, capsys):
        assert cli.main(["classify"]) == 2  # no input given
        assert cli.main(["classify", "--builtin", "nope"]) == 2
        assert cli.main(["classify", "--quiver", "/no/such/file.json"]) == 2
        assert cli.main(["classify", "--quiver", str(tmp_path)]) == 2  # a directory
        assert cli.main(["dot", "--in", "q.json"]) == 2  # --quiver is the one spelling
        assert cli.main(["unfold", "--dot", "x"]) == 2  # dot --what unfolded writes it

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["validate", "--module", "m_dual.json"], 1),
            (["validate", "--ring", "r_unit.json"], 1),
            (["fpdim", "--ring", "r_unit.json"], 1),
            (["validate", "--module", "m_unit.json"], 1),
            (["validate", "--ring", "r_unit_no_dual.json"], 2),
            (["fpdim", "--ring", "r_unit_no_dual.json"], 2),
            (["validate", "--ring", "r_ragged_no_dual.json"], 2),
            (["fpdim", "--ring", "r_ragged_no_dual.json"], 2),
            (["validate", "--ring", "r_ragged.json"], 1),
        ],
        ids=["module_dual", "validate_unit", "fpdim_unit", "module_unit",
             "validate_unit_no_dual", "fpdim_unit_no_dual", "validate_ragged_no_dual",
             "fpdim_ragged_no_dual", "validate_ragged"],
    )
    def test_bad_unit_or_dual_one_line_error(self, tmp_path, capsys, monkeypatch, argv, code):
        from fqk import regular_module

        m_dual = module_to_dict(regular_module(catalog.verlinde_sl2(4)))
        m_dual["ring"]["dual"] = [0, 1, 2, 3, 9]
        r_unit = {**ring_to_dict(catalog.fibonacci()), "unit": 7}
        m_unit = {**module_to_dict(regular_module(catalog.fibonacci())), "ring": "r_unit.json"}
        r_unit_no_dual = {k: v for k, v in r_unit.items() if k != "dual"}
        r_ragged_no_dual = {"names": ["1", "t"], "N": [[[1]], [[0]]]}  # N[i] is 1x1, not 2x2
        r_ragged = {**r_ragged_no_dual, "dual": [0, 1]}
        for name, d in [("m_dual", m_dual), ("r_unit", r_unit), ("m_unit", m_unit),
                        ("r_unit_no_dual", r_unit_no_dual), ("r_ragged_no_dual", r_ragged_no_dual),
                        ("r_ragged", r_ragged)]:
            (tmp_path / f"{name}.json").write_text(dumps(d))
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert len((captured.out + captured.err).strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, edit, code",
        [
            (["validate", "--ring"], lambda d: d.update(dual=[None, 1]), 2),
            (["enumerate", "--builtin", "verlinde_l4_quiver", "--module"],
             lambda d: d.update(mnames=[0, 1, 2, 3]), 2),
            (["validate", "--module"], lambda d: d["ring"].update(N=[[[1]]] * 5), 1),
            (["unfold", "--quiver"], lambda d: d["module"].update(act=[]), 1),
            (["classify", "--quiver"],
             lambda d: d["edges"][0].update(label={"matrix": [[1]], "fpdim": "x"}), 2),
            (["fpdim", "--ring"], lambda d: "[" * 100_000 + "]" * 100_000, 2),
            (["validate", "--ring"], lambda d: d["N"][1][1].__setitem__(1, 1.9), 2),
            (["validate", "--ring"], lambda d: d["N"][1][1].__setitem__(1, True), 2),
            (["validate", "--ring"], lambda d: d.update(unit=0.0), 2),
            (["validate", "--ring"], lambda d: d.update(dual=[0, 1.0]), 2),
            (["validate", "--module"], lambda d: d["act"][0][0].__setitem__(0, 1.0), 2),
            (["enumerate", "--quiver"], lambda d: d["edges"][0].update(label=[1.5, 0, 0, 0, 0]), 2),
            (["classify", "--quiver"], lambda d: d["edges"][0].update(label={"matrix": [[1.7]]}), 2),
            (["classify", "--quiver"], lambda d: d["edges"][0].__setitem__("from", 0.0), 2),
        ],
        ids=["dual_entry", "module_names", "module_ring_shape", "quiver_module_actions",
             "label_fpdim", "nested_too_deep", "ring_float_entry", "ring_bool_entry",
             "ring_float_unit", "dual_float_entry", "module_float_entry", "label_float_coefficient",
             "label_float_matrix_entry", "edge_float_endpoint"],
    )
    def test_malformed_file_one_line_error(self, tmp_path, capsys, argv, edit, code):
        """Names that are not strings, numbers that are not integers and a
        label's FP dimension that is not a number are usage errors; the
        validators and the quiver report the rest. An `edit` that returns
        text replaces the whole file."""
        data = {"--ring": ring_to_dict(catalog.fibonacci()),
                "--module": module_to_dict(catalog.verlinde_typeD(4)),
                "--quiver": quiver_to_dict(catalog.verlinde_l4_typeD_quiver())}[argv[-1]]
        path = tmp_path / "bad.json"
        path.write_text(edit(data) or dumps(data))
        assert cli.main([*argv, str(path)]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert len((captured.out + captured.err).splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["validate", "--builtin", "nope"], 2),
            (["validate", "--builtin", "verlinde_sl2"], 2),
            (["fpdim", "--builtin", "verlinde_sl2", "1", "2"], 2),
            (["classify", "--builtin", "verlinde_sl2", "x"], 2),
            (["qnum", "--builtin", "fibonacci"], 2),
            (["rank2", "--builtin", "fibonacci", "--object", "abc"], 2),
            (["mckay", "--builtin", "fibonacci", "--label", "nope"], 2),
            (["mckay", "--builtin", "fibonacci", "--label", "{bad"], 2),
            (["mckay", "--builtin", "fibonacci", "--label", '{"m":1}'], 2),
            (["mckay", "--builtin", "fibonacci", "--label", '{"matrix": [[1]]}'], 1),
            (["mckay", "--builtin", "fibonacci", "--label", '{"matrix": [[1,0,0],[0,1,0],[0,0,1]]}'], 1),
            (["mckay", "--builtin", "rep_s3", "--label", "[0, 1"], 2),
            (["mckay", "--builtin", "rep_s3", "--label", '[0, "x", 1]'], 2),
            (["mckay", "--builtin", "rep_s3", "--label", "[0, 1]"], 2),
            (["mckay", "--builtin", "rep_s3", "--label", "[0, -1, 1]"], 1),
            (["mckay", "--builtin", "rep_s3", "--label", "[1.5, 0, 0]"], 2),
            (["mckay", "--builtin", "rep_s3", "--label", "[true, 0, 0]"], 2),
            (["mckay", "--builtin", "rep_s3", "--label", '{"matrix": [[1.0, 0], [0, 1]]}'], 2),
        ],
        ids=["unknown_key", "missing_param", "extra_param", "bad_param", "no_object",
             "bad_object", "unknown_label", "bad_json_label", "label_without_matrix",
             "label_1x1", "label_3x3", "bad_json_list", "list_not_ints", "list_too_short",
             "list_negative", "list_float", "list_bool", "matrix_float"],
    )
    def test_malformed_argument_one_line_error(self, capsys, argv, code):
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("usage error: " if code == 2 else "error: ")

    def test_unknown_builtin_message_is_the_catalogs(self, capsys):
        want = f'usage error: "unknown builtin \'nope\'; known: {", ".join(catalog_keys())}"\n'
        for cmd in ("validate", "classify"):
            assert cli.main([cmd, "--builtin", "nope"]) == 2
            assert capsys.readouterr().err == want

    def test_parser_is_built_once(self, monkeypatch, capsys):
        import argparse

        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        try:
            for argv in (["catalog", "list"], ["qnum", "--free", "--upto", "2"], ["fpdim"]):
                cli.main(argv)
        finally:
            cli.build_parser.cache_clear()
        capsys.readouterr()
        assert built.count("fqk") == 1

    @pytest.mark.parametrize(
        "line",
        [ln for ln in README_CLI if ln.startswith("fqk ")],
    )
    def test_readme_cli_line_exits_0(self, tmp_path, monkeypatch, capsys, line):
        """Every command of the README's CLI block, as written and, where the
        line shows `[--format json]`, with it."""
        argv = shlex.split(line.split("#")[0])[1:]
        variants = [argv]
        if "[--format" in argv:
            k = argv.index("[--format")
            variants = [argv[:k], argv[:k] + ["--format", "json"]]
        monkeypatch.chdir(tmp_path)
        for a in variants:
            assert cli.main(a) == 0, a
        capsys.readouterr()

    @pytest.mark.parametrize("block", README_QUICK_START, ids=["verdict", "ring"])
    def test_readme_quick_start_prints_its_comments(self, capsys, block):
        """A Quick-start block prints, line for line, the comments of its
        `print(...)  # expected` lines."""
        want = [ln.split("#", 1)[1].strip() for ln in block.splitlines() if ln.startswith("print(")]
        assert want
        exec(block, {})
        assert capsys.readouterr().out.splitlines() == want

    def test_validation_failure_exit_1(self, tmp_path, capsys):
        # a ring violating rigidity exits 1 under validate
        from test_ring import corrupted_fibonacci
        from fqk.io import ring_to_dict

        path = tmp_path / "bad_ring.json"
        path.write_text(dumps(ring_to_dict(corrupted_fibonacci())))
        assert cli.main(["validate", "--ring", str(path)]) == 1


# ---------------------------------------------------------------------------
# The input boundary under generated arguments and files: whatever a user
# passes, `main` exits 0, 1 or 2 and prints no traceback.

BOUNDARY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
COMMANDS = (
    "validate", "fpdim", "gamma", "classify", "unfold", "enumerate", "mckay", "qnum", "rank2", "dot"
)
ELEMENTS = st.one_of(
    st.sampled_from(["1", "tau", "V0", "V1", "V2", "S", "V3", "L+", "X", ""]),
    st.lists(st.integers(-2, 3), max_size=6).flatmap(
        lambda xs: st.sampled_from([" ", ",", ", "]).map(lambda sep: sep.join(map(str, xs)))
    ),
    st.text(max_size=6),
    st.sampled_from(['{', '{"matrix": [[1]]}', '{"matrix": 1}', '{"matrix": [[1, 2]]}', '{"m": 1}',
                     '{"matrix": [[0, 1], [1, 1]], "fpdim": "x"}', '[1, 0]', "null", "{}"]),
    st.fixed_dictionaries(
        {"matrix": st.lists(st.lists(st.sampled_from([-1, 0, 1, 2, 1e400]), max_size=3),
                            max_size=3)},
        optional={"fpdim": st.sampled_from([None, 1.5, "x", -1])},
    ).map(json.dumps),
)


def _run(argv, out_dir) -> None:
    """main(argv), with `dot` writing into out_dir and the output captured:
    the exit code is 0, 1 or 2 and no traceback is printed."""
    if argv[0] == "dot":
        argv = [*argv, "--out", str(out_dir / "fuzz.dot")]
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


@st.composite
def argvs(draw):
    """A command over a catalog key (or an unknown one) with 0-2 parameters,
    and the options that command takes, each present or not."""
    cmd = draw(st.sampled_from(COMMANDS))
    argv, maybe = [cmd], lambda: draw(st.booleans())
    if maybe():
        argv += ["--builtin", draw(st.sampled_from(catalog_keys() + ("nope",)))]
        argv += draw(st.lists(st.sampled_from(["-1", "0", "2", "4", "x"]), max_size=2))
    if cmd in ("fpdim", "qnum", "rank2") and maybe():
        argv.append(f"--object={draw(ELEMENTS)}")
    if cmd == "mckay":
        argv.append(f"--label={draw(ELEMENTS)}")
        argv += ["--separated"] * maybe()
    if cmd == "qnum":
        argv += ["--free"] * maybe() + ["--upto", str(draw(st.integers(-1, 5)))]
    if cmd == "dot":
        argv += ["--what", draw(st.sampled_from(["quiver", "gamma", "unfolded"]))]
    elif maybe():
        argv += ["--format", "json"]
    return argv


JUNK = st.sampled_from([
    "null", "-1", "0", "1", "2", "7", "1.5", "1e400", '"x"', '"tau"',
    "[]", "[0]", "[[1]]", "[0, 5]", "{}", '{"matrix": [[1]]}',
]).map(json.loads)  # a fresh value each draw: later mutations may edit it


@st.composite
def mutated(draw, data):
    """`data` with one to three values replaced by junk or deleted."""
    data = json.loads(json.dumps(data))
    for _ in range(draw(st.integers(1, 3))):
        node = data
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            k = draw(st.sampled_from(keys))
            if isinstance(node[k], (dict, list)) and node[k] and draw(st.booleans()):
                node = node[k]
                continue
            if draw(st.integers(0, 3)):
                node[k] = draw(JUNK)
            else:
                del node[k]
            break
    return data


FILE_SOURCES = {
    "ring": [ring_to_dict(catalog.fibonacci())],
    "module": [module_to_dict(catalog.verlinde_typeD(2))],
    "quiver": [quiver_to_dict(catalog.builtin(k)) for k in
               ("fib_edge_quiver", "verlinde_l2_typeD_quiver", "sl3at5_x_quiver")],
}
# the partial-mode quiver once more, its label carrying a key other than
# "matrix" (a usage error), as a seed for mutations that drop or change it
FILE_SOURCES["quiver"].append(json.loads(json.dumps(FILE_SOURCES["quiver"][-1])))
FILE_SOURCES["quiver"][-1]["edges"][0]["label"]["fpdim"] = 1.618033988749895
FILE_COMMANDS = {
    "ring": [["validate"], ["fpdim"], ["qnum", "--object", "tau", "--upto", "3"],
             ["rank2", "--object", "tau"]],
    "module": [["validate"], ["mckay", "--label", "V1"],
               ["classify", "--builtin", "verlinde_l4_quiver"]],
    "quiver": [["classify"], ["enumerate"], ["unfold"], ["gamma"], ["dot", "--what", "unfolded"]],
}


@st.composite
def bad_files(draw):
    """A malformed ring, module or quiver file and a command that reads it:
    mutated JSON, or valid JSON cut short."""
    kind = draw(st.sampled_from(sorted(FILE_SOURCES)))
    data = draw(mutated(draw(st.sampled_from(FILE_SOURCES[kind]))))
    text = dumps(data)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return kind, text, draw(st.sampled_from(FILE_COMMANDS[kind]))


class TestBoundary:
    @BOUNDARY
    @given(argv=argvs())
    def test_any_arguments_exit_0_1_or_2(self, boundary_dir, argv):
        _run(argv, boundary_dir)

    @BOUNDARY
    @given(case=bad_files())
    def test_any_malformed_file_exits_0_1_or_2(self, boundary_dir, case):
        kind, text, command = case
        path = boundary_dir / f"{kind}.json"
        path.write_text(text)
        _run([*command, f"--{kind}", str(path)], boundary_dir)
