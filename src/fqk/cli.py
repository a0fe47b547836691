"""Command-line interface.

Exit codes: 0 success, 1 validation/domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from functools import cache

from . import catalog as cat
from . import io as fio
from .errors import FQKError
from .module import ModuleCategory, mckay_quiver, regular_module, validate_module
from .quiver import FusionQuiver, coxeter_graph, classify_coxeter, normalize
from .ring import FusionRing, ValidationReport, fmt_m, fpdim, fpdim_of, validate
from .reflect import qnum_free, rank_two_order, sign_coherence
from .unfold import enumerate_indecomposables, is_finite_type, unfold


class UsageError(Exception):
    pass


def _user_input(fn, *args, source=None):
    """fn(*args) on a value the user supplied, the one place user input is
    converted: a KeyError, ValueError, TypeError, OverflowError (int() of an
    infinite float) or RecursionError (JSON nested too deep) is a usage error,
    and a domain error keeps its type. Both messages name `source` (a file or
    an option) when there is one."""
    at = f"{source}: " if source else ""
    try:
        return fn(*args)
    except KeyError as e:
        raise UsageError(f"{at}missing key {e}" if source else str(e))
    except (ValueError, TypeError, OverflowError, RecursionError) as e:  # and JSONDecodeError
        raise UsageError(f"{at}{e}")
    except FQKError as e:
        raise type(e)(f"{at}{e}")


_KIND = {FusionRing: "ring", ModuleCategory: "module", FusionQuiver: "quiver"}


def _builtin(args, *kinds):
    """The catalog object --builtin names; with `kinds`, one of those types."""
    obj = _user_input(cat.builtin, *args.builtin)
    if kinds and not isinstance(obj, kinds):
        raise UsageError(f"builtin {args.builtin[0]!r} is not a {_KIND[kinds[0]]}")
    return obj


def _load(args, loader, path):
    """The object a user's file holds, read by a fio.load_* call. Except under
    `validate`, which reports on them instead, each ring and module in it is
    validated once, ring first, and the first violation is a domain error."""
    obj = _user_input(loader, path, source=path)
    M = obj if isinstance(obj, ModuleCategory) else getattr(obj, "module", None)
    parts = [] if args.command == "validate" else [getattr(obj, "ring", obj), M and M.ring, M]
    for k, part in enumerate(parts):
        if part is None or any(part is p for p in parts[:k]):
            continue
        rep = (validate_module if part is M else validate)(part)
        if not rep.ok:
            raise FQKError(f"{path}: {rep.violations[0]}")
    return obj


def _ring(args) -> FusionRing:
    if args.builtin:
        return _builtin(args, FusionRing)
    if args.ring:
        return _load(args, fio.load_ring, args.ring)
    raise UsageError("a ring is required (--ring or --builtin)")


def _quiver(args) -> FusionQuiver:
    """The quiver of --builtin or --quiver, normalized, acting on the module
    of --module when one is given."""
    if args.builtin:
        Q = _builtin(args, FusionQuiver)
    elif args.quiver:
        Q = _load(args, fio.load_quiver, args.quiver)
    else:
        raise UsageError("a quiver is required (--quiver or --builtin)")
    if args.module:
        M = _load(args, fio.load_module, args.module)
        Q = _user_input(lambda: replace(Q, module=M), source=args.module)
    return _user_input(normalize, Q, source=args.quiver)


def _object(args, ring: FusionRing):
    """The ring element --object names: a simple, or its coefficients."""
    if args.object in ring.names:
        return ring.basis(args.object)
    coeffs = args.object.replace(",", " ").split()
    x = _user_input(lambda: tuple(map(int, coeffs)), source="--object")
    if len(x) != ring.rank:
        raise UsageError(f"object vector length {len(x)} != rank {ring.rank}")
    return x


def _emit(args, data: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True, default=str))
    else:
        print(text)


def _emit_arrows(args, names, arrows) -> int:
    """The vertices and the (source, target, multiplicity) arrows of an
    ordinary quiver."""
    lines = [f"{len(names)} vertices, {len(arrows)} arrows"]
    lines += [f"{names[s]} -> {names[t]} x{m}" for s, t, m in arrows]
    _emit(
        args,
        {"vertices": list(names), "arrows": [[names[s], names[t], m] for s, t, m in arrows]},
        "\n".join(lines),
    )
    return 0


def cmd_validate(args) -> int:
    if args.module:
        rep = validate_module(_load(args, fio.load_module, args.module))
    elif args.builtin:
        # a catalog ring or module was validated when it was built, which
        # raises on any violation or warning
        _builtin(args, FusionRing, ModuleCategory)
        rep = ValidationReport()
    else:
        rep = validate(_ring(args))
    _emit(
        args,
        {"ok": rep.ok, "violations": rep.violations, "warnings": rep.warnings},
        str(rep),
    )
    return 0 if rep.ok else 1


def cmd_fpdim(args) -> int:
    ring = _ring(args)
    fpv = fpdim(ring)
    # the power iteration stops at a 1e-10 residual: the text shows the
    # digits that holds, JSON the whole float
    if args.object:
        val = fpdim_of(ring, _object(args, ring), fpv)
        _emit(args, {"object": args.object, "fpdim": val}, f"{val:.9g}")
    else:
        rows = "\n".join(f"{nm}: {d:.9g}" for nm, d in zip(ring.names, fpv.dims))
        _emit(args, {"dims": dict(zip(ring.names, fpv.dims))}, rows)
    return 0


def cmd_gamma(args) -> int:
    G = coxeter_graph(_quiver(args))
    cls = classify_coxeter(G)
    loops = {u for u, v, _ in G.edges if u == v}
    # two vertices and no loop: the one edge between them has m = INFINITY
    names = ", ".join(
        "I2(inf)" if not c.finite and len(c.vertices) == 2 and not loops & set(c.vertices) else c.type_name
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
    Q = _quiver(args)
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
    U = unfold(_quiver(args))
    return _emit_arrows(args, U.vertex_names(), U.arrows)


def cmd_enumerate(args) -> int:
    Q = _quiver(args)
    vecs = enumerate_indecomposables(Q)
    mnames = Q.module_names()

    def pretty(x):
        terms = ((v, fio.terms_text(mnames, a)) for v, a in zip(Q.vertices, x))
        return " + ".join(f"[{t}]a_{v}" for v, t in terms if t)

    _emit(
        args,
        {"count": len(vecs), "vectors": [[list(a) for a in x] for x in vecs]},
        "\n".join([f"{len(vecs)} indecomposables"] + [pretty(x) for x in vecs]),
    )
    return 0


def cmd_mckay(args) -> int:
    if args.module:
        M = _load(args, fio.load_module, args.module)
    else:
        M = args.builtin and _builtin(args)
        M = regular_module(M) if isinstance(M, FusionRing) else M
    if not isinstance(M, ModuleCategory):
        raise UsageError("mckay needs a module (--module or --builtin)")
    spec = args.label
    label = _user_input(  # JSON: a {"matrix": ...} object or a coefficient list
        lambda: fio.label_from_json(M.ring, json.loads(spec) if spec[:1] in "{[" else spec),
        source="--label",
    )
    q = _user_input(mckay_quiver, M, label, args.separated, source="--label")
    return _emit_arrows(args, q.vertices, q.arrows)


def cmd_qnum(args) -> int:
    if args.free:
        ks = range(1, args.upto + 1)
        rows = [f"[{k}]_{c} = {qnum_free(k, c).pretty()}" for k in ks for c in ("d", "d'")]
        _emit(args, {"upto": args.upto, "rows": rows}, "\n".join(rows))
        return 0
    if args.object is None:
        raise UsageError("qnum needs --object or --free")
    ring = _ring(args)
    pi = _object(args, ring)
    report = sign_coherence(ring, pi, args.upto)
    rows = [f"minimal m: {fmt_m(report.minimal_m)}"]
    for k, (vd, sign) in enumerate(zip(report.values_d, report.signs_d), 1):
        rows.append(f"[{k}]_d = {list(vd)} ({sign})")
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
    ring = _ring(args)
    m = rank_two_order(ring, _object(args, ring))
    _emit(args, {"order": fmt_m(m)}, fmt_m(m))
    return 0


def cmd_dot(args) -> int:
    Q = _quiver(args)
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
    for key in cat.catalog_keys():
        print(f"{key} ({cat.catalog_kind(key)})")
    return 0


def _positive_int(text: str) -> int:
    """The value of an option that counts: an integer of at least 1."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return k


def _command(sub, name, fn, help, *files, fmt=True):
    """The subparser of one command: --builtin, a --<kind> option for each
    kind of file in `files`, and --format unless `fmt` is false."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(fn=fn)
    p.add_argument("--builtin", nargs="+", metavar=("KEY", "PARAM"))
    for kind in files:
        p.add_argument(f"--{kind}")
    if fmt:
        p.add_argument("--format", choices=("table", "json"), default="table")
    return p


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process, on the first call."""
    ap = argparse.ArgumentParser(prog="fqk", description=__doc__)
    # every option a command reads but does not take is None (table output)
    ap.set_defaults(builtin=None, ring=None, module=None, quiver=None, object=None, format="table")
    sub = ap.add_subparsers(dest="command", required=True)
    _command(sub, "validate", cmd_validate, "check fusion-ring or module axioms", "ring", "module")
    p = _command(sub, "fpdim", cmd_fpdim, "Frobenius-Perron dimensions", "ring")
    p.add_argument("--object")
    _command(sub, "gamma", cmd_gamma, "Coxeter graph classification", "quiver")
    _command(
        sub, "classify", cmd_classify, "finite-type verdict with components", "quiver", "module"
    )
    _command(sub, "unfold", cmd_unfold, "unfolded ordinary quiver", "quiver", "module")
    _command(
        sub, "enumerate", cmd_enumerate, "indecomposable dimension vectors", "quiver", "module"
    )

    p = _command(sub, "mckay", cmd_mckay, "McKay quiver of a module", "module")
    p.add_argument("--label", required=True)
    p.add_argument("--separated", action="store_true")

    p = _command(sub, "qnum", cmd_qnum, "two-colored quantum numbers", "ring")
    p.add_argument("--object")
    p.add_argument("--upto", type=_positive_int, default=10)
    p.add_argument("--free", action="store_true")

    p = _command(sub, "rank2", cmd_rank2, "order of the rank-two Coxeter element", "ring")
    p.add_argument("--object", required=True)

    p = _command(sub, "dot", cmd_dot, "DOT export", "quiver", "module", fmt=False)
    p.add_argument("--what", choices=("quiver", "gamma", "unfolded"), default="quiver")
    p.add_argument("--out")

    p = sub.add_parser("catalog", help="list builtin data")
    p.add_argument("action", choices=("list",))
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly, with stdout on devnull so
        # the flush at exit cannot fail again (the signal module's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, OSError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except FQKError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
