"""Command-line interface.

Exit codes: 0 success, 1 validation/domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import catalog as cat
from . import io as fio
from .errors import FQKError
from .module import ActionLabel, ModuleCategory, mckay_quiver, regular_module, validate_module
from .quiver import FusionQuiver, coxeter_graph, classify_coxeter, labeled_graph, normalize
from .ring import FusionRing, ValidationReport, fmt_m, fpdim, fpdim_of, validate
from .reflect import qnum_free, qnum_in_ring, rank_two_order, sign_coherence
from .unfold import enumerate_indecomposables, is_finite_type, unfold


class UsageError(Exception):
    pass


def _builtin(args, kind):
    spec = args.builtin
    key, params = spec[0], spec[1:]
    try:
        obj = cat.builtin(key, *params)
    except KeyError as e:
        raise UsageError(str(e))
    want = {"ring": FusionRing, "module": ModuleCategory, "quiver": FusionQuiver}
    if kind in want and not isinstance(obj, want[kind]):
        raise UsageError(f"builtin {key!r} is not a {kind}")
    return obj


def _load(loader, path, checked=True):
    """A fio.load_* call on a user's file: malformed content is a usage error.
    Unless `checked` is false, each ring and module in the file is validated
    once, ring first, and the first violation is a domain error."""
    try:
        obj = loader(path)
    except KeyError as e:
        raise UsageError(f"{path}: missing key {e}")
    except (ValueError, TypeError) as e:  # json.JSONDecodeError is a ValueError
        raise UsageError(f"{path}: {e}")
    except FQKError as e:
        raise type(e)(f"{path}: {e}")
    M = obj if isinstance(obj, ModuleCategory) else getattr(obj, "module", None)
    parts = [getattr(obj, "ring", obj), M and M.ring, M] if checked else []
    for k, part in enumerate(parts):
        if part is None or any(part is p for p in parts[:k]):
            continue
        rep = (validate_module if part is M else validate)(part)
        if not rep.ok:
            raise FQKError(f"{path}: {rep.violations[0]}")
    return obj


def _get_ring(args, checked=True) -> FusionRing:
    if getattr(args, "builtin", None):
        return _builtin(args, "ring")
    if getattr(args, "ring", None):
        return _load(fio.load_ring, args.ring, checked)
    raise UsageError("a ring is required (--ring or --builtin)")


def _get_module(args, required=True, checked=True):
    if getattr(args, "module", None):
        return _load(fio.load_module, args.module, checked)
    if getattr(args, "builtin", None):
        obj = _builtin(args, "any")
        if isinstance(obj, ModuleCategory):
            return obj
        if isinstance(obj, FusionRing):
            return regular_module(obj)
    if required:
        raise UsageError("a module is required (--module or --builtin)")
    return None


def _get_quiver(args) -> FusionQuiver:
    """The quiver of --builtin or --quiver, normalized, acting on the module
    of --module when one is given."""
    if getattr(args, "builtin", None):
        Q = _builtin(args, "quiver")
    elif getattr(args, "quiver", None):
        Q = _load(fio.load_quiver, args.quiver)
    else:
        raise UsageError("a quiver is required (--quiver or --builtin)")
    if getattr(args, "module", None):
        Q = replace(Q, module=_get_module(args))
    return normalize(Q)


def _parse_object(ring: FusionRing, spec: str):
    if spec in ring.names:
        return ring.basis(spec)
    coeffs = tuple(int(x) for x in spec.replace(",", " ").split())
    if len(coeffs) != ring.rank:
        raise UsageError(f"object vector length {len(coeffs)} != rank {ring.rank}")
    return coeffs


def _emit(args, data: dict, text: str) -> None:
    if getattr(args, "format", "table") == "json":
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def cmd_validate(args) -> int:
    builtin = getattr(args, "builtin", None)
    if getattr(args, "module", None) or (
        builtin and cat.catalog_kind(builtin[0]) == "module"
    ):
        check, obj = validate_module, _get_module(args, checked=False)
        builtin = builtin and not args.module  # a module file comes first
    else:
        check, obj = validate, _get_ring(args, checked=False)
    # a catalog ring or module was validated when it was built, which raises
    # on any violation or warning
    rep = ValidationReport() if builtin else check(obj)
    _emit(
        args,
        {"ok": rep.ok, "violations": rep.violations, "warnings": rep.warnings},
        str(rep),
    )
    return 0 if rep.ok else 1


def cmd_fpdim(args) -> int:
    ring = _get_ring(args)
    fpv = fpdim(ring)
    if args.object:
        x = _parse_object(ring, args.object)
        val = fpdim_of(ring, x, fpv)
        _emit(args, {"object": args.object, "fpdim": val}, f"{val:.12g}")
    else:
        rows = [f"{nm}: {d:.12g}" for nm, d in zip(ring.names, fpv.dims)]
        _emit(
            args,
            {"dims": dict(zip(ring.names, fpv.dims))},
            "\n".join(rows),
        )
    return 0


def cmd_gamma(args) -> int:
    Q = _get_quiver(args)
    cls = classify_coxeter(labeled_graph(Q))
    names = ", ".join(
        c.type_name if c.finite else "I2(inf)" if len(c.vertices) == 2 else "infinite"
        for c in cls.components
    )
    _emit(
        args,
        {
            "components": [
                {
                    "vertices": list(c.vertices),
                    "type": c.type_name,
                    "finite": c.finite,
                    "coxeter_number": fmt_m(c.coxeter_number),
                }
                for c in cls.components
            ]
        },
        names,
    )
    return 0


def cmd_classify(args) -> int:
    Q = _get_quiver(args)
    verdict = is_finite_type(Q)
    _emit(
        args,
        {
            "finite": verdict.finite,
            "gamma": list(verdict.gamma.type_names()),
            "components": [
                {
                    "type": c.type_name,
                    "coxeter_number": fmt_m(c.coxeter_number),
                    "roots": fmt_m(c.positive_root_count),
                }
                for c in verdict.unfolded.components
            ],
        },
        str(verdict),
    )
    return 0


def cmd_unfold(args) -> int:
    U = unfold(_get_quiver(args))
    names = U.vertex_names()
    lines = [f"{len(U.vertices)} vertices, {len(U.arrows)} arrows"]
    lines += [f"{names[s]} -> {names[t]} x{m}" for s, t, m in U.arrows]
    _emit(
        args,
        {
            "vertices": list(names),
            "arrows": [[names[s], names[t], m] for s, t, m in U.arrows],
        },
        "\n".join(lines),
    )
    return 0


def cmd_enumerate(args) -> int:
    Q = _get_quiver(args)
    vecs = enumerate_indecomposables(Q)
    mnames = Q.module_names()

    def pretty(x):
        parts = []
        for v, coeff in enumerate(x):
            terms = "+".join(
                (nm if c == 1 else f"{c}*{nm}")
                for nm, c in zip(mnames, coeff)
                if c
            )
            if terms:
                parts.append(f"[{terms}]a_{Q.vertices[v]}")
        return " + ".join(parts)

    _emit(
        args,
        {"count": len(vecs), "vectors": [[list(a) for a in x] for x in vecs]},
        "\n".join([f"{len(vecs)} indecomposables"] + [pretty(x) for x in vecs]),
    )
    return 0


def cmd_mckay(args) -> int:
    M = _get_module(args, required=False)
    if M is None:
        raise UsageError("mckay needs a module (--module or --builtin)")
    if args.label.startswith("{"):
        spec = json.loads(args.label)
        label = ActionLabel.from_rows(spec["matrix"], spec.get("fpdim"))
    else:
        label = M.ring.basis(args.label)
    q = mckay_quiver(M, label, separated=args.separated)
    lines = [f"{len(q.vertices)} vertices, {len(q.arrows)} arrows"]
    lines += [
        f"{q.vertices[s]} -> {q.vertices[t]} x{m}" for s, t, m in q.arrows
    ]
    _emit(
        args,
        {
            "vertices": list(q.vertices),
            "arrows": [[q.vertices[s], q.vertices[t], m] for s, t, m in q.arrows],
        },
        "\n".join(lines),
    )
    return 0


def cmd_qnum(args) -> int:
    if args.free:
        rows = []
        for k in range(1, args.upto + 1):
            rows.append(f"[{k}]_d = {qnum_free(k, 'd').pretty()}")
            pretty_dp = qnum_free(k, "d'").pretty()
            rows.append(f"[{k}]_d' = {pretty_dp}")
        _emit(args, {"upto": args.upto, "rows": rows}, "\n".join(rows))
        return 0
    ring = _get_ring(args)
    pi = _parse_object(ring, args.object)
    report = sign_coherence(ring, pi, args.upto)
    rows = [f"minimal m: {fmt_m(report.minimal_m)}"]
    for k in range(1, args.upto + 1):
        vd = qnum_in_ring(ring, pi, k, "d")
        rows.append(f"[{k}]_d = {list(vd)} ({report.signs_d[k-1]})")
    _emit(
        args,
        {
            "minimal_m": fmt_m(report.minimal_m),
            "signs_d": list(report.signs_d),
            "signs_dp": list(report.signs_dp),
        },
        "\n".join(rows),
    )
    return 0


def cmd_rank2(args) -> int:
    ring = _get_ring(args)
    pi = _parse_object(ring, args.object)
    m = rank_two_order(ring, pi)
    _emit(args, {"order": fmt_m(m)}, fmt_m(m))
    return 0


def cmd_dot(args) -> int:
    Q = _get_quiver(args)
    if args.what == "quiver":
        text = fio.quiver_dot(Q)
    elif args.what == "gamma":
        text = fio.gamma_dot(coxeter_graph(Q))
    else:
        text = fio.unfolded_dot(unfold(Q))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        for key in cat.catalog_keys():
            print(f"{key} ({cat.catalog_kind(key)})")
        return 0
    raise UsageError(f"unknown catalog action {args.action!r}")


def _add_common(p, ring=False, quiver=False, module=False, fmt=True):
    p.add_argument("--builtin", nargs="+", metavar=("KEY", "PARAM"), default=None)
    if ring:
        p.add_argument("--ring")
    if quiver:
        p.add_argument("--quiver")
    if module:
        p.add_argument("--module")
    if fmt:
        p.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fqk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check fusion-ring or module axioms")
    _add_common(p, ring=True, module=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("fpdim", help="Frobenius-Perron dimensions")
    _add_common(p, ring=True)
    p.add_argument("--object", default=None)
    p.set_defaults(fn=cmd_fpdim)

    p = sub.add_parser("gamma", help="Coxeter graph classification")
    _add_common(p, quiver=True)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("classify", help="finite-type verdict with components")
    _add_common(p, quiver=True, module=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("unfold", help="unfolded ordinary quiver")
    _add_common(p, quiver=True, module=True)
    p.set_defaults(fn=cmd_unfold)

    p = sub.add_parser("enumerate", help="indecomposable dimension vectors")
    _add_common(p, quiver=True, module=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("mckay", help="McKay quiver of a module")
    _add_common(p, module=True)
    p.add_argument("--label", required=True)
    p.add_argument("--separated", action="store_true")
    p.set_defaults(fn=cmd_mckay)

    p = sub.add_parser("qnum", help="two-colored quantum numbers")
    _add_common(p, ring=True)
    p.add_argument("--object", default=None)
    p.add_argument("--upto", type=int, default=10)
    p.add_argument("--free", action="store_true")
    p.set_defaults(fn=cmd_qnum)

    p = sub.add_parser("rank2", help="order of the rank-two Coxeter element")
    _add_common(p, ring=True)
    p.add_argument("--object", required=True)
    p.set_defaults(fn=cmd_rank2)

    p = sub.add_parser("dot", help="DOT export")
    _add_common(p, quiver=True, module=True, fmt=False)
    p.add_argument("--what", choices=("quiver", "gamma", "unfolded"), default="quiver")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser("catalog", help="list builtin data")
    p.add_argument("action", choices=("list",))
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except FQKError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
