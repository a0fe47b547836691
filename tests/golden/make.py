"""Golden outputs: every verdict, enumeration, oracle result and CLI output
of fqk over the catalog and the generated benchmark inputs, pinned in
outputs.json next to this script.

    PYTHONPATH=src python tests/golden/make.py          # rewrite outputs.json
    PYTHONPATH=src python tests/golden/make.py --table  # print the README table

tests/test_golden.py recomputes every record with the current code and
compares it with the committed file, so a regeneration is a reviewed diff.
The generated inputs (perfbench's enum_chains and reflect_oracles items of
seeds 1-3) are stored in the file as fqk.io dicts: only regeneration reads
perfbench.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import sys
from pathlib import Path

from fqk import (
    FQKError,
    INFINITY,
    builtin,
    catalog_keys,
    catalog_kind,
    enumerate_by_closure,
    enumerate_indecomposables,
    extended_positive_roots,
    is_finite_type,
    normalize,
    rank_two_order,
    sign_coherence,
)
from fqk import io as fio
from fqk.cli import main

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE / "outputs.json"
# the two Verlinde families of the catalog, at the levels pinned here
CATALOG_PARAMS = {"verlinde_sl2": range(1, 9), "verlinde_typeD": (2, 4, 6, 8)}
SEEDS = (1, 2, 3)
# the closure oracle and the extended roots run on finite quivers of at most
# this many roots (and on every infinite one, where they stop at once)
ORACLE_MAX_ROOTS = 700
SIGN_K = 30  # sign coherence of each catalog simple, up to [30]
QUIVER_COMMANDS = ("classify", "enumerate", "unfold", "gamma")
RING_COMMANDS = ("validate", "fpdim")


def _m(m):
    """An order or a count as JSON: an int, or "inf"."""
    return "inf" if m == INFINITY else int(m)


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _attempt(fn, *args):
    """fn(*args), or the type and message of the FQKError it raises."""
    try:
        return fn(*args)
    except FQKError as e:
        return {"error": type(e).__name__, "message": str(e)}


def quiver_record(Q, extended=True) -> dict:
    """The verdict, the enumeration and the reflection oracles on Q: the
    closure and, unless `extended` is false, the extended roots."""
    v = is_finite_type(Q)
    roots = v.unfolded.total_root_count()
    vecs = _attempt(enumerate_indecomposables, Q)
    out = {
        "finite": v.finite,
        "gamma": list(v.gamma.type_names()),
        "unfolded": list(v.unfolded.type_names()),
        "roots": _m(roots),
        "indecomposables": (
            vecs if isinstance(vecs, dict) else {"count": len(vecs), "sha256": _sha(vecs)}
        ),
    }
    if v.finite and roots <= ORACLE_MAX_ROOTS:
        out["closure_agrees"] = _attempt(lambda: enumerate_by_closure(Q) == vecs)
    if extended and (not v.finite or roots <= ORACLE_MAX_ROOTS):
        rep = _attempt(extended_positive_roots, Q)
        out["extended"] = rep if isinstance(rep, dict) else {
            "phi_plus": len(rep.phi_plus), "extended": len(rep.extended)
        }
    return out


def ring_record(R, M=None, signs=None) -> dict:
    """The rank-two order of every simple of R (acting on M), and the
    sign-coherence m of each (simple name, K) in signs."""
    out = {"rank2": {nm: _attempt(lambda: _m(rank_two_order(R, R.basis(nm), M)))
                     for nm in R.names}}
    if signs is not None:
        out["sign_m"] = [
            {"label": nm, "K": K,
             "m": _attempt(lambda: _m(sign_coherence(R, R.basis(nm), K).minimal_m))}
            for nm, K in signs
        ]
    return out


def catalog_specs():
    """Every catalog key, with the pinned levels of the parametrized ones."""
    for key in catalog_keys():
        for p in CATALOG_PARAMS.get(key, (None,)):
            yield (key,) if p is None else (key, str(p))


def catalog_record(spec) -> dict:
    obj = builtin(*spec)
    kind = catalog_kind(spec[0])
    if kind == "quiver":
        return quiver_record(obj)
    if kind == "ring":
        return ring_record(obj, signs=[(nm, SIGN_K) for nm in obj.names])
    if kind == "module":
        return ring_record(obj.ring, obj)
    return {"rank2": _attempt(lambda: _m(rank_two_order(None, obj)))}  # a label


def generated_record(key: str, item: dict) -> dict:
    """The record of a stored generated item: a quiver, or a ring with the
    sign-coherence checks of its labels.  The extended roots run on the
    reflect_oracles quivers only: on enum_chains they would double the
    golden test's time."""
    if "quiver" in item:
        Q = normalize(fio.quiver_from_dict(item["quiver"]))
        return quiver_record(Q, extended=key.startswith("reflect_oracles/"))
    R = fio.ring_from_dict(item["ring"])
    return ring_record(R, signs=[tuple(s) for s in item["sign"]])


def cli_argvs():
    """Each CLI command over every catalog spec of its kind: table and JSON
    output, the three DOT views, and rank2/qnum on every simple of each
    ring."""
    for spec in catalog_specs():
        b, kind = ["--builtin", *spec], catalog_kind(spec[0])
        cmds = {"quiver": QUIVER_COMMANDS, "ring": RING_COMMANDS,
                "module": ("validate",)}.get(kind, ())
        for cmd in cmds:
            yield [cmd, *b]
            yield [cmd, *b, "--format", "json"]
        if kind == "quiver":
            for what in ("quiver", "gamma", "unfolded"):
                yield ["dot", *b, "--what", what]
        if kind == "ring":
            for nm in builtin(*spec).names:
                for cmd in ("rank2", "qnum"):
                    yield [cmd, *b, "--object", nm]
                    yield [cmd, *b, "--object", nm, "--format", "json"]
    yield ["qnum", "--free", "--upto", "6"]


def cli_record(argv) -> dict:
    """The exit code, and a sha256 of stdout and stderr joined by a NUL."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "sha256": _sha(out.getvalue() + "\0" + err.getvalue())}


def generated_inputs() -> dict:
    """perfbench's enum_chains and reflect_oracles quivers of each seed, and
    the seeded ring of its rank-two and sign items, as fqk.io dicts."""
    sys.path.insert(0, str(HERE.parents[1] / "perfbench"))
    import gen
    from workloads import build_quiver, family_ring, fusion_ring

    out = {}
    for seed in SEEDS:
        for name in ("enum_chains", "reflect_oracles"):
            items = gen.generate(name, seed)["items"]
            fams = {it["quiver"].family for it in items if "quiver" in it}
            rings = {f: family_ring(f) for f in fams}
            for i, it in enumerate(items):
                if "quiver" in it:
                    Q = build_quiver(it["quiver"], rings)
                    out[f"{name}/{seed}/{i:02d}"] = {"quiver": fio.quiver_to_dict(Q)}
            signs = [[it["label"], it["K"]] for it in items if it["kind"] == "sign"]
            if signs:
                spec = next(it["ring"] for it in items if "ring" in it)
                out[f"{name}/{seed}/ring"] = {
                    "ring": fio.ring_to_dict(fusion_ring(spec)), "sign": signs
                }
    return out


def build(inputs: dict) -> dict:
    return {
        "catalog": {" ".join(s): catalog_record(s) for s in catalog_specs()},
        "generated": {k: generated_record(k, item) for k, item in inputs.items()},
        "cli": {" ".join(a): cli_record(a) for a in cli_argvs()},
        "inputs": inputs,
    }


def table(golden: dict) -> str:
    """The README reproduction table: per catalog quiver, the verdict, the
    two sides of Gabriel's bijection and the closure oracle."""
    rows = [
        "| quiver | Γ | verdict | unfolded | indecomposables | positive roots | closure oracle |",
        "|---|---|---|---|---|---|---|",
    ]
    for key, r in golden["catalog"].items():
        if "finite" not in r:
            continue
        ca = r.get("closure_agrees")
        rows.append("| " + " | ".join((
            f"`{key}`",
            ", ".join(r["gamma"]),
            "finite" if r["finite"] else "infinite",
            ", ".join(r["unfolded"]),
            str(r["indecomposables"].get("count", "∞")),
            "∞" if r["roots"] == "inf" else str(r["roots"]),
            "—" if ca is None else "agrees" if ca is True else "differs",
        )) + " |")
    return "\n".join(rows)


def dumps(golden: dict) -> str:
    """One line per record, sorted, so a regeneration diffs record by record."""
    sections = []
    for name, recs in sorted(golden.items()):
        lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, ensure_ascii=False)}"
                 for k, v in sorted(recs.items())]
        sections.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--table"]:
        print(table(json.loads(OUTPUTS.read_text())))
    else:
        OUTPUTS.write_text(dumps(build(generated_inputs())))
