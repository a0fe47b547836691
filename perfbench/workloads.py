"""The four benchmark workloads.

Each workload is a cycle of items built from seeded inputs (see gen.py).
For every item it provides:

- ``run(i)``: the untraced top-level request, as a user would make it;
- ``replay(i, t)``: the same request as the sequence of public layer calls
  that its top-level entry makes, one span per call;
- ``view(i, out)``: the part of ``run``'s output that the replay must
  reproduce exactly;
- ``check(i, out)``: ``None`` or a message saying how the output disagrees
  with the known answer of the item's family.

Only public fqk functions are called; nothing in fqk is patched.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from fqk import (
    ActionLabel,
    Edge,
    FusionQuiver,
    FusionRing,
    ModuleCategory,
    catalog,
    classify_coxeter,
    components,
    coxeter_graph,
    enumerate_by_closure,
    enumerate_indecomposables,
    extended_positive_roots,
    fold_root,
    fpdim,
    is_finite_type,
    labeled_graph,
    mckay_quiver,
    module_fpdims,
    normalize,
    positive_roots_simply_laced,
    qnum_in_ring,
    rank_two_order,
    regular_module,
    sign_coherence,
    unfold,
    validate,
    validate_module,
)
from fqk import io as fio
from fqk.cli import main as cli_main
from fqk.errors import InfiniteType

import gen
from spans import Tracer

DIM_RTOL = 1e-6  # FP dimensions come from a power iteration stopped at 1e-10
CLOSURE_SAMPLE = 2  # enum_chains items re-checked against the closure oracle
SAMPLE_MAX_ROOTS = 700  # keeps that post-run check to a few seconds
PROBES = 5  # repeats of the interpreter and import probes of a traced cycle


def fusion_ring(spec: gen.RingSpec) -> FusionRing:
    return FusionRing.from_data(spec.names, spec.unit, spec.N.tolist())


def family_ring(fam: str) -> FusionRing | None:
    """The (unpermuted) ring a quiver family lives over; None in partial mode."""
    if fam == "sl3at5":
        return None
    if fam == "fibonacci":
        return FusionRing.from_data(("1", "tau"), 0, gen.FIBONACCI)
    L = gen.verlinde_level(fam)
    return FusionRing.from_data([f"V{j}" for j in range(L + 1)], 0, gen.verlinde_tensor(L).tolist())


def build_quiver(spec: gen.QuiverSpec, rings: dict) -> FusionQuiver:
    edges = tuple(
        Edge(s, t, ActionLabel.from_rows(lab[1]) if lab[0] == "matrix" else lab)
        for s, t, lab in spec.edges
    )
    return FusionQuiver(
        vertices=tuple(f"v{k}" for k in range(spec.nv)), edges=edges, ring=rings[spec.family]
    )


def fmt_m(m) -> str:
    return "inf" if m == math.inf else str(int(m))


def dims_error(got, want, scale=1.0) -> str | None:
    bad = [k for k, (g, w) in enumerate(zip(got, want)) if abs(g - w / scale) > DIM_RTOL * abs(w / scale)]
    if len(got) != len(want) or bad:
        return f"FP dimensions differ from the closed form at simples {bad[:5]}"
    return None


# ---------------------------------------------------------------------------
# the finite-type pipeline, replayed layer by layer


def replay_decide(t, Q, M=None):
    """is_finite_type(Q, M) as public calls (its Gamma/unfolded cross-check
    is private glue and is not replayed)."""
    G = t.call("quiver.labeled_graph", labeled_graph, Q)
    cls = t.call("quiver.classify_coxeter", classify_coxeter, G)
    t.add("quiver.classify_coxeter.components", len(cls.components))
    U = t.call("unfold.unfold", unfold, Q, M)
    t.add("unfold.unfold.vertices", U.nv)
    t.add("unfold.unfold.arrows", len(U.arrows))
    rep = t.call("unfold.components", components, U)
    t.add("unfold.components.count", len(rep.components))
    return cls, rep


def replay_enumerate(t, Q, M=None):
    """enumerate_indecomposables(Q, M) as public calls."""
    cls, rep = replay_decide(t, Q, M)
    if not cls.finite:
        raise InfiniteType("quiver is of infinite representation type")
    U = t.call("unfold.unfold", unfold, Q, M)
    t.add("unfold.unfold.vertices", U.nv)
    t.add("unfold.unfold.arrows", len(U.arrows))
    roots = t.call("unfold.positive_roots", positive_roots_simply_laced, U)
    t.add("unfold.positive_roots.roots", len(roots))
    t.maximum("unfold.positive_roots.largest_component", max(len(c.vertices) for c in rep.components))
    return sorted(t.call("reflect.fold_root", fold_root, U, r) for r in roots)


def verdict_view(finite, gamma, unfolded):
    return (finite, tuple(gamma.type_names()), tuple(unfolded.type_names()))


def enumeration_error(vecs, want: int) -> str | None:
    if len(vecs) != want:
        return f"{len(vecs)} indecomposables, Gabriel's table gives {want}"
    if len(set(vecs)) != len(vecs) or any(
        min(min(a) for a in x) < 0 or not any(any(a) for a in x) for x in vecs
    ):
        return "enumeration has a repeated or non-positive dimension vector"
    return None


# ---------------------------------------------------------------------------


class Workload:
    """Holds one seed's inputs and the fqk objects built from them."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.inputs = gen.generate(self.name, seed)
        self.items = self.inputs["items"]

    def setup(self, t) -> None:
        raise NotImplementedError

    def view(self, i, out):
        return out

    def post_checks(self) -> list:
        return []

    def trace_counters(self, t, latencies) -> None:
        """Counters a traced cycle reads from set-up or from whole runs."""

    def close(self) -> None:
        pass


class RingLadder(Workload):
    name = "ring_ladder"

    def setup(self, t):
        self.rings = [fusion_ring(it["ring"]) for it in self.items]
        self.run(0)  # warm-up on the smallest ring

    def run(self, i):
        R = self.rings[i]
        if self.items[i]["kind"] == "fpdim":
            return fpdim(R).dims
        rep = validate(R)
        M = regular_module(R)
        mrep = validate_module(M)
        return (rep.ok, tuple(rep.violations), mrep.ok, tuple(mrep.violations),
                tuple(mrep.warnings), fpdim(R).dims, module_fpdims(M))

    def replay(self, i, t):
        R = self.rings[i]
        r = R.rank
        t.maximum("ring.fpdim.rank_max", r)
        if self.items[i]["kind"] == "fpdim":
            return t.call("ring.fpdim", fpdim, R).dims
        rep = t.call("ring.validate", validate, R)
        t.add("ring.validate.assoc_equations", r**4)
        M = t.call("module.regular_module", regular_module, R)
        mrep = t.call("module.validate_module", validate_module, M)
        t.add("module.validate_module.axiom_products", r * r)
        dims = t.call("ring.fpdim", fpdim, R).dims
        mdims = t.call("module.module_fpdims", module_fpdims, M)
        return (rep.ok, tuple(rep.violations), mrep.ok, tuple(mrep.violations),
                tuple(mrep.warnings), dims, mdims)

    def check(self, i, out):
        want = self.items[i]["ring"].dims
        if self.items[i]["kind"] == "fpdim":
            return dims_error(out, want)
        ok, viol, mok, mviol, mwarn, dims, mdims = out
        if not (ok and mok) or mwarn:
            return f"valid ring reported invalid: {(viol + mviol + mwarn)[:3]}"
        return dims_error(dims, want) or dims_error(mdims, want, min(want))


class EnumChains(Workload):
    name = "enum_chains"

    def setup(self, t):
        fams = sorted({it["quiver"].family for it in self.items})
        self.rings = {f: family_ring(f) for f in fams}
        for f, R in self.rings.items():
            if R is not None and not t.call("ring.validate", validate, R).ok:
                raise RuntimeError(f"generated {f} ring fails validation")
        self.quivers = [build_quiver(it["quiver"], self.rings) for it in self.items]
        self.run(min(range(len(self.items)), key=lambda i: self.items[i]["quiver"].nv))

    def run(self, i):
        Q = normalize(self.quivers[i])
        if self.items[i]["kind"] == "enumerate":
            return enumerate_indecomposables(Q)
        v = is_finite_type(Q)
        return verdict_view(v.finite, v.gamma, v.unfolded)

    def replay(self, i, t):
        Q = t.call("quiver.normalize", normalize, self.quivers[i])
        if self.items[i]["kind"] == "enumerate":
            return replay_enumerate(t, Q)
        cls, rep = replay_decide(t, Q)
        return verdict_view(cls.finite, cls, rep)

    def check(self, i, out):
        q = self.items[i]["quiver"]
        if self.items[i]["kind"] == "enumerate":
            return enumeration_error(out, q.roots)
        if out[0] or tuple(sorted(out[1])) != q.gamma:
            return f"verdict {out[:2]} != known infinite Gamma {q.gamma}"
        return None

    def post_checks(self):
        """enumerate_indecomposables == enumerate_by_closure on a seeded
        sample of finite items."""
        pool = [i for i, it in enumerate(self.items)
                if it["kind"] == "enumerate" and it["quiver"].roots <= SAMPLE_MAX_ROOTS]
        out = []
        for i in random.Random(f"sample/{self.seed}").sample(pool, CLOSURE_SAMPLE):
            Q = normalize(self.quivers[i])
            try:
                same = enumerate_indecomposables(Q) == enumerate_by_closure(Q)
            except Exception as e:  # counted as a failed check, never raised
                out.append(f"item {i}: {type(e).__name__}: {e}")
                continue
            out.append(None if same else f"item {i}: enumeration and closure oracle differ")
        return out


class ReflectOracles(Workload):
    name = "reflect_oracles"

    def setup(self, t):
        fams = sorted({it["quiver"].family for it in self.items if "quiver" in it})
        rings = {f: family_ring(f) for f in fams}
        self.quivers = {i: normalize(build_quiver(it["quiver"], rings))
                        for i, it in enumerate(self.items) if "quiver" in it}
        # every rank-two and sign item shares one seeded Verlinde ring
        spec = next(it["ring"] for it in self.items if "ring" in it)
        self.ring = fusion_ring(spec)
        self.max_coeff_bits = max(
            max(abs(c).bit_length() for c in qnum_in_ring(self.ring, self.ring.basis(it["label"]), it["K"]))
            for it in self.items if it["kind"] == "sign"
        )
        self.run(next(i for i, it in enumerate(self.items) if it["kind"] == "rank2"))

    def run(self, i):
        it = self.items[i]
        if it["kind"] == "closure":
            return enumerate_by_closure(self.quivers[i])
        if it["kind"] == "extended":
            rep = extended_positive_roots(self.quivers[i])
            return rep.phi_plus, rep.extended
        pi = self.ring.basis(it["label"])
        if it["kind"] == "rank2":
            return rank_two_order(self.ring, pi)
        rep = sign_coherence(self.ring, pi, it["K"])
        return rep.minimal_m, rep.signs_d, rep.signs_dp

    def replay(self, i, t):
        it = self.items[i]
        if it["kind"] == "closure":
            Q = self.quivers[i]
            M = None if Q.ring is None else t.call("module.regular_module", regular_module, Q.ring)
            out = t.call("reflect.enumerate_by_closure", enumerate_by_closure, Q, M)
            t.add("reflect.enumerate_by_closure.vectors", len(out))
            t.add("reflect.enumerate_by_closure.reflections", len(out) * Q.nv)
            t.add("reflect.enumerate_by_closure.seeds", Q.nv * it["quiver"].msize)
            return out
        if it["kind"] == "extended":
            rep = t.call("reflect.extended_positive_roots", extended_positive_roots, self.quivers[i])
            return rep.phi_plus, rep.extended
        pi = self.ring.basis(it["label"])
        if it["kind"] == "rank2":
            return t.call("reflect.rank_two_order", rank_two_order, self.ring, pi)
        rep = t.call("reflect.sign_coherence", sign_coherence, self.ring, pi, it["K"])
        return rep.minimal_m, rep.signs_d, rep.signs_dp

    def trace_counters(self, t, latencies):
        c = t.counters
        c["reflect.qnum.max_coeff_bits"] = self.max_coeff_bits
        c["reflect.enumerate_by_closure.useful_ratio"] = (
            (c["reflect.enumerate_by_closure.vectors"] - c["reflect.enumerate_by_closure.seeds"])
            / c["reflect.enumerate_by_closure.reflections"])

    def check(self, i, out):
        it = self.items[i]
        if it["kind"] == "closure":
            return enumeration_error(out, it["quiver"].roots)
        if it["kind"] == "extended":
            return enumeration_error(list(out[1]), it["quiver"].roots)
        if it["kind"] == "rank2":
            return None if out == it["order"] else f"order {out} != closed form {it['order']}"
        m, sd, sdp = out
        if m != math.inf or set(sd) | set(sdp) != {"positive"}:
            return f"infinite-type label gave minimal m {m}"
        return None


def _cli_args(argv):
    """Split a CLI argv into its command and option values."""
    cmd, opts, key = argv[0], {}, None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            opts[key] = []
        elif key is not None:
            opts[key].append(tok)
    return cmd, {k: (v if k == "builtin" else (v[0] if v else True)) for k, v in opts.items()}


def _cold_builtin(t, spec):
    """catalog.builtin with every catalog cache emptied first, as in a fresh
    CLI process."""
    for key in catalog.catalog_keys():
        getattr(getattr(catalog, key), "cache_clear", lambda: None)()
    return t.call("catalog.builtin", catalog.builtin, *spec)


def _load(t, fn, path):
    t.add("io.load.bytes", os.path.getsize(path))
    return t.call("io.load", fn, path)


def _dump(to_dict, obj):
    return fio.dumps(to_dict(obj))


class CliMix(Workload):
    name = "cli_mix"

    def setup(self, t):
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{self.seed}-", dir=self.scratch))
        rings = {}
        for fname, (kind, spec) in self.inputs["files"].items():
            if kind == "quiver":
                rings.setdefault(spec.family, family_ring(spec.family))
                obj, to_dict = build_quiver(spec, rings), fio.quiver_to_dict
            elif kind == "ring":
                obj, to_dict = fusion_ring(spec), fio.ring_to_dict
            else:
                obj, to_dict = regular_module(fusion_ring(spec)), fio.module_to_dict
            text = t.call("io.dump", _dump, to_dict, obj)
            t.add("io.dump.bytes", len(text.encode()))
            (self.dir / fname).write_text(text)
        local = set(self.inputs["files"]) | {"q_enum.dot", "h4.dot"}
        self.argvs = [[str(self.dir / a) if a in local else a for a in it["argv"]] for it in self.items]
        src = str(Path(fio.__file__).resolve().parents[1])
        self.env = dict(os.environ, PYTHONPATH=src)
        self.expected = {}
        self.run(next(i for i, it in enumerate(self.items) if it["cls"] == "catalog"))

    def run(self, i):
        argv = self.argvs[i]
        proc = subprocess.run(
            [sys.executable, "-m", "fqk.cli", *argv], cwd=self.dir, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        dot = Path(argv[argv.index("--out") + 1]).read_text() if argv[0] == "dot" else None
        return proc.returncode, proc.stdout, proc.stderr, dot

    def main_inprocess(self, i) -> str:
        """fqk.cli.main(argv) in this process; its captured standard output."""
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            cli_main(self.argvs[i])
        return buf.getvalue()

    def view(self, i, out):
        rc, stdout, _, dot = out
        cmd = self.argvs[i][0]
        if cmd == "dot":
            return dot
        if cmd == "catalog":
            return stdout.splitlines()
        return json.loads(stdout)

    def replay(self, i, t):
        cmd, o = _cli_args(self.argvs[i])
        if cmd == "catalog":
            return [f"{k} ({catalog.catalog_kind(k)})" for k in catalog.catalog_keys()]
        if "builtin" in o:
            obj = _cold_builtin(t, o["builtin"])
        elif "module" in o:
            obj = _load(t, fio.load_module, o["module"])
        elif "ring" in o:
            obj = _load(t, fio.load_ring, o["ring"])
        else:
            obj = _load(t, fio.load_quiver, o["quiver"])
        if cmd == "validate":
            if isinstance(obj, ModuleCategory):
                rep = t.call("module.validate_module", validate_module, obj)
            else:
                rep = t.call("ring.validate", validate, obj)
            return {"ok": rep.ok, "violations": rep.violations, "warnings": rep.warnings}
        if cmd == "fpdim":
            return {"dims": dict(zip(obj.names, t.call("ring.fpdim", fpdim, obj).dims))}
        if cmd == "rank2":
            return {"order": fmt_m(t.call("reflect.rank_two_order", rank_two_order, obj, obj.basis(o["object"])))}
        if cmd == "qnum":
            rep = t.call("reflect.sign_coherence", sign_coherence, obj, obj.basis(o["object"]), int(o["upto"]))
            return {"minimal_m": fmt_m(rep.minimal_m), "signs_d": list(rep.signs_d),
                    "signs_dp": list(rep.signs_dp)}
        if cmd == "mckay":
            M = obj if isinstance(obj, ModuleCategory) else regular_module(obj)
            q = t.call("module.mckay_quiver", mckay_quiver, M, M.ring.basis(o["label"]))
            return {"vertices": list(q.vertices),
                    "arrows": [[q.vertices[s], q.vertices[d], m] for s, d, m in q.arrows]}
        Q = t.call("quiver.normalize", normalize, obj)
        M = t.call("quiver.resolved_module", Q.resolved_module)
        if cmd == "gamma":
            cls = t.call("quiver.classify_coxeter", classify_coxeter, t.call("quiver.labeled_graph", labeled_graph, Q))
            return {"components": [{"vertices": list(c.vertices), "type": c.type_name, "finite": c.finite,
                                    "coxeter_number": fmt_m(c.coxeter_number)} for c in cls.components]}
        if cmd == "classify":
            cls, rep = replay_decide(t, Q, M)
            return {"finite": cls.finite, "gamma": list(cls.type_names()),
                    "components": [{"type": c.type_name, "coxeter_number": fmt_m(c.coxeter_number),
                                    "roots": fmt_m(c.positive_root_count)} for c in rep.components]}
        if cmd == "enumerate":
            vecs = replay_enumerate(t, Q, M)
            return {"count": len(vecs), "vectors": [[list(a) for a in x] for x in vecs]}
        if cmd == "unfold" or o.get("what") == "unfolded":
            U = t.call("unfold.unfold", unfold, Q, M)
            if cmd == "dot":
                return t.call("io.dot", fio.unfolded_dot, U)
            names = U.vertex_names()
            return {"vertices": list(names), "arrows": [[names[s], names[d], m] for s, d, m in U.arrows]}
        return t.call("io.dot", fio.gamma_dot, t.call("quiver.coxeter_graph", coxeter_graph, Q))

    def check(self, i, out):
        rc, stdout, stderr, dot = out
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[-200:]}"
        try:
            got = self.view(i, out)
        except ValueError as e:
            return f"output does not parse: {e}"
        if i not in self.expected:
            self.expected[i] = self.replay(i, Tracer())
        if got != self.expected[i]:
            return "CLI output disagrees with the in-process result"
        return self.known_answer_error(i, got)

    def known_answer_error(self, i, got) -> str | None:
        it, argv = self.items[i], self.argvs[i]
        files = self.inputs["files"]
        name = Path(argv[argv.index("--quiver") + 1]).name if "--quiver" in argv else None
        if it["cls"] == "validate" and not got["ok"]:
            return "a valid input reported invalid"
        if it["cls"] == "rank2" and got["order"] != fmt_m(it["order"]):
            return f"order {got['order']} != closed form {fmt_m(it['order'])}"
        if it["cls"] == "enumerate" and name and got["count"] != files[name][1].roots:
            return f"{got['count']} indecomposables, Gabriel's table gives {files[name][1].roots}"
        if it["cls"] == "classify" and name and got["finite"] != files[name][1].finite:
            return "finite-type verdict differs from the known answer"
        if it["cls"] == "dot" and not fio.check_dot(got):
            return "DOT output is not well formed"
        return None

    def trace_counters(self, t, latencies):
        interpreter = statistics.median(self.wall(["-c", "pass"]) for _ in range(PROBES))
        imports = statistics.median(self.wall(["-c", "import fqk.cli"]) for _ in range(PROBES))
        t.counters["cli.interpreter_s"] = interpreter
        t.counters["cli.import_s"] = imports - interpreter
        t.counters["cli.process_s"] = statistics.median(latencies)

    def wall(self, argv) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *argv], env=self.env, check=True, capture_output=True, timeout=60)
        return time.perf_counter() - t0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RingLadder, EnumChains, ReflectOracles, CliMix)}
