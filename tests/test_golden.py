"""Every output pinned in tests/golden/outputs.json, recomputed with the
current code (see tests/golden/make.py)."""

import json
import sys

import pytest

from golden import make

GOLDEN = json.loads(make.OUTPUTS.read_text())


def _compute(section, key):
    if section == "catalog":
        return make.catalog_record(tuple(key.split()))
    if section == "generated":
        return make.generated_record(key, GOLDEN["inputs"][key])
    return make.cli_record(key.split())


@pytest.mark.parametrize("section", ["catalog", "generated", "cli"])
def test_outputs_match_golden(section):
    want = GOLDEN[section]
    diff = {k: (v, got) for k, v in want.items() if (got := _compute(section, k)) != v}
    assert not diff, f"{len(diff)} of {len(want)} records differ; first: {next(iter(diff.items()))}"


def test_golden_covers_every_input():
    assert sorted(GOLDEN["catalog"]) == sorted(" ".join(s) for s in make.catalog_specs())
    assert sorted(GOLDEN["cli"]) == sorted(" ".join(a) for a in make.cli_argvs())
    assert sorted(GOLDEN["generated"]) == sorted(GOLDEN["inputs"])
    assert len(GOLDEN["inputs"]) == 3 * (17 + 8)  # seeds 1-3: enum_chains, reflect_oracles


def test_file_is_in_canonical_form():
    assert make.OUTPUTS.read_text() == make.dumps(GOLDEN)


def test_readme_table_is_current():
    readme = (make.HERE.parents[1] / "README.md").read_text()
    assert make.table(GOLDEN) in readme


def test_verdicts_read_no_float(monkeypatch):
    """Gamma comes from the integer actions: with the power iteration and
    angle_label raising wherever fqk imports them, every catalog quiver still
    gets its golden record (verdict, enumeration and the reflection-closure
    oracles) and its golden classify/gamma/enumerate output."""
    def no_float(*args):
        raise AssertionError("a verdict read a float")

    for name, module in list(sys.modules.items()):
        if name == "fqk" or name.startswith("fqk."):
            for fn in ("perron_eigenpair", "angle_label"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, no_float)
    keys = [k for k in GOLDEN["catalog"] if make.catalog_kind(k.split()[0]) == "quiver"]
    assert keys
    for key in keys:
        assert make.catalog_record(tuple(key.split())) == GOLDEN["catalog"][key], key
    argvs = [a for a in make.cli_argvs() if a[0] in ("classify", "gamma", "enumerate")]
    assert argvs
    for argv in argvs:
        assert make.cli_record(argv) == GOLDEN["cli"][" ".join(argv)], argv
