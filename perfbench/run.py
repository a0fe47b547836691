"""Benchmark of the fqk pipeline: four seeded, closed-loop workloads driven
by one client (one process, one thread).

    python3 perfbench/run.py --workload enum_chains --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; fqk is imported from its ``src/``.

``--trace 0`` runs the workload untraced, in whole cycles, until
``--seconds`` of item time have passed, and reports the end-to-end metrics.
An item's latency is the fastest execution of its slot in the run: host
interference only ever slows an item down.

``--trace 1`` replays one cycle of every workload layer by layer with spans
and reports the per-layer metrics, each read from the workload it is meant
to move on (see README.md).

The last line of standard output is the JSON result; details go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer

# One client, one thread: keep numpy's BLAS from starting a thread pool on
# the few shared cores (read when numpy is first imported, below).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
TAIL_P = 0.9  # over the slots of a cycle
WORKLOAD_ORDER = ("ring_ladder", "enum_chains", "reflect_oracles", "cli_mix")

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("correct_ratio", "1"),
)

# (metric, unit, workload it is read from, source): source is
# ("self", span) for summed self time, ("calls", span) for the span count,
# ("counter", name) for a counter the replay computed from inputs/outputs.
PER_LAYER = (
    ("ring.validate.busy_s", "s", "ring_ladder", ("self", "ring.validate")),
    ("ring.validate.calls", "count", "ring_ladder", ("calls", "ring.validate")),
    ("ring.validate.assoc_equations", "count", "ring_ladder", ("counter", "ring.validate.assoc_equations")),
    ("ring.fpdim.busy_s", "s", "ring_ladder", ("self", "ring.fpdim")),
    ("ring.fpdim.calls", "count", "ring_ladder", ("calls", "ring.fpdim")),
    ("ring.fpdim.rank_max", "count", "ring_ladder", ("counter", "ring.fpdim.rank_max")),
    ("module.validate_module.busy_s", "s", "ring_ladder", ("self", "module.validate_module")),
    ("module.validate_module.axiom_products", "count", "ring_ladder",
     ("counter", "module.validate_module.axiom_products")),
    ("module.regular_module.busy_s", "s", "ring_ladder", ("self", "module.regular_module")),
    ("module.module_fpdims.busy_s", "s", "ring_ladder", ("self", "module.module_fpdims")),
    ("quiver.labeled_graph.busy_s", "s", "enum_chains", ("self", "quiver.labeled_graph")),
    ("quiver.classify_coxeter.busy_s", "s", "enum_chains", ("self", "quiver.classify_coxeter")),
    ("quiver.classify_coxeter.components", "count", "enum_chains", ("counter", "quiver.classify_coxeter.components")),
    ("quiver.normalize.busy_s", "s", "enum_chains", ("self", "quiver.normalize")),
    ("unfold.unfold.busy_s", "s", "enum_chains", ("self", "unfold.unfold")),
    ("unfold.unfold.calls", "count", "enum_chains", ("calls", "unfold.unfold")),
    ("unfold.unfold.vertices", "count", "enum_chains", ("counter", "unfold.unfold.vertices")),
    ("unfold.unfold.arrows", "count", "enum_chains", ("counter", "unfold.unfold.arrows")),
    ("unfold.components.busy_s", "s", "enum_chains", ("self", "unfold.components")),
    ("unfold.components.count", "count", "enum_chains", ("counter", "unfold.components.count")),
    ("unfold.positive_roots.busy_s", "s", "enum_chains", ("self", "unfold.positive_roots")),
    ("unfold.positive_roots.roots", "count", "enum_chains", ("counter", "unfold.positive_roots.roots")),
    ("unfold.positive_roots.largest_component", "count", "enum_chains",
     ("counter", "unfold.positive_roots.largest_component")),
    ("reflect.fold_root.busy_s", "s", "enum_chains", ("self", "reflect.fold_root")),
    ("reflect.enumerate_by_closure.busy_s", "s", "reflect_oracles", ("self", "reflect.enumerate_by_closure")),
    ("reflect.enumerate_by_closure.vectors", "count", "reflect_oracles",
     ("counter", "reflect.enumerate_by_closure.vectors")),
    ("reflect.enumerate_by_closure.reflections", "count", "reflect_oracles",
     ("counter", "reflect.enumerate_by_closure.reflections")),
    ("reflect.enumerate_by_closure.useful_ratio", "1", "reflect_oracles",
     ("counter", "reflect.enumerate_by_closure.useful_ratio")),
    ("reflect.rank_two_order.busy_s", "s", "reflect_oracles", ("self", "reflect.rank_two_order")),
    ("reflect.sign_coherence.busy_s", "s", "reflect_oracles", ("self", "reflect.sign_coherence")),
    ("reflect.qnum.max_coeff_bits", "bits", "reflect_oracles", ("counter", "reflect.qnum.max_coeff_bits")),
    ("reflect.extended_positive_roots.busy_s", "s", "reflect_oracles", ("self", "reflect.extended_positive_roots")),
    ("catalog.builtin.busy_s", "s", "cli_mix", ("self", "catalog.builtin")),
    ("catalog.builtin.calls", "count", "cli_mix", ("calls", "catalog.builtin")),
    ("io.load.busy_s", "s", "cli_mix", ("self", "io.load")),
    ("io.load.bytes", "B", "cli_mix", ("counter", "io.load.bytes")),
    ("io.dump.busy_s", "s", "cli_mix", ("self", "io.dump")),
    ("io.dump.bytes", "B", "cli_mix", ("counter", "io.dump.bytes")),
    ("io.dot.busy_s", "s", "cli_mix", ("self", "io.dot")),
    ("cli.interpreter_s", "s", "cli_mix", ("counter", "cli.interpreter_s")),
    ("cli.import_s", "s", "cli_mix", ("counter", "cli.import_s")),
    ("cli.main.busy_s", "s", "cli_mix", ("self", "cli.main")),
    ("cli.process_s", "s", "cli_mix", ("counter", "cli.process_s")),
    ("trace.overhead_ratio", "1", None, ("counter", "trace.overhead_ratio")),
    ("trace.replay_gap_s", "s", None, ("counter", "trace.replay_gap_s")),
)


def nearest_rank(xs, p):
    xs = sorted(xs)
    return xs[max(0, math.ceil(p * len(xs)) - 1)]


def peak_rss_mb() -> float:
    ru = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return ru / 1024.0


def run_item(w, i):
    """One untimed-check execution: (latency, output, failure message)."""
    t0 = time.perf_counter()
    try:
        out = w.run(i)
    except Exception as e:  # a failing item is counted, never raised
        return time.perf_counter() - t0, None, f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    try:
        return dt, out, w.check(i, out)
    except Exception as e:
        return dt, out, f"check raised {type(e).__name__}: {e}"


def import_time() -> float:
    """Seconds a fresh interpreter spends importing fqk.cli (and numpy)."""
    proc = subprocess.run(
        [sys.executable, "-c", "import time; t = time.perf_counter(); import fqk.cli;"
         " print(time.perf_counter() - t)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(proc.stdout)


def set_up(W, seed):
    """One set-up: (the workload, its set-up seconds, the import part)."""
    imported = import_time()
    t0 = time.perf_counter()
    w = W(seed, OUT)
    w.setup(Tracer())
    return w, imported + time.perf_counter() - t0, imported


def untraced(W, seed, seconds):
    w, took, imported = set_up(W, seed)
    setups, imports = [took], [imported]

    def extra_setup():
        spare, took, imported = set_up(W, seed)
        spare.close()
        setups.append(took)
        imports.append(imported)

    latencies, failures, per_slot = [], [], [[] for _ in w.items]
    busy, deadline = 0.0, time.monotonic() + max(3 * seconds, seconds + 60)
    gc.collect()
    try:
        while busy < seconds and time.monotonic() < deadline:
            for i, it in enumerate(w.items):
                dt, _, err = run_item(w, i)
                busy += dt
                latencies.append(dt)
                per_slot[i].append(dt)
                if err:
                    failures.append(f"item {i} ({it['cls']}): {err}")
            # the other set-ups are spread over the run, so that their
            # median spans the same stretch of time as the item latencies
            if len(setups) < SETUP_REPEATS and busy >= seconds * len(setups) / SETUP_REPEATS:
                extra_setup()
        while len(setups) < SETUP_REPEATS:
            extra_setup()
        post = w.post_checks()
    finally:
        w.close()
    failures += [f"post-check: {e}" for e in post if e]
    attempted = len(latencies) + len(post)
    # an item's latency is the fastest execution of its timing slot
    groups = {}
    for i, it in enumerate(w.items):
        groups.setdefault(it.get("slot", i), []).extend(per_slot[i])
    lat = [min(groups[it.get("slot", i)]) for i, it in enumerate(w.items)]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(lat) / sum(lat),
        "item_p50_s": statistics.median(lat),
        "item_tail_s": nearest_rank(lat, TAIL_P),
        "peak_rss_mb": peak_rss_mb(),
        "correct_ratio": 1 - len(failures) / attempted,
    }
    raw_p = next((p for p in (0.99, 0.95, 0.9, 0.75) if len(latencies) * (1 - p) >= 10), 0.5)
    details = {
        "items": len(latencies), "item_time_s": busy, "cycles": len(per_slot[0]),
        "import_s": imports, "setup_repeats_s": setups, "post_checks": len(post),
        "failed_ratio": len(failures) / attempted,
        "raw": {"items_per_s": len(latencies) / busy, "item_p50_s": statistics.median(latencies),
                "tail_percentile": raw_p * 100, "item_tail_s": nearest_rank(latencies, raw_p)},
        "per_slot": [{"cls": it["cls"], "n": len(x), "p50_s": statistics.median(x), "min_s": min(x)}
                     for it, x in zip(w.items, per_slot)],
        "latencies_s": latencies,
    }
    return metrics, attempted, failures, details


def trace_workload(W, seed):
    """Replay one cycle of a workload with spans; every item runs untraced
    first, and its replay must reproduce the untraced output."""
    t = Tracer()
    t.item = "setup"
    w = W(seed, OUT)
    w.setup(t)
    failures, base, replay, gaps, lat, per_class = [], 0.0, 0.0, [], [], {}
    try:
        for i, it in enumerate(w.items):
            dt, out, err = run_item(w, i)
            lat.append(dt)
            per_class.setdefault(it["cls"], []).append(dt)
            t.item = i
            r0 = time.perf_counter()
            try:
                rout = w.replay(i, t)
            except Exception as e:
                rout, err = None, err or f"replay raised {type(e).__name__}: {e}"
            rdt = time.perf_counter() - r0
            if out is not None and rout is not None and w.view(i, out) != rout:
                err = err or "replay does not reproduce the top-level output"
            if W.name == "cli_mix":
                # the in-process, untraced counterpart of a CLI item is main(argv)
                m0 = time.perf_counter()
                stdout = t.call("cli.main", w.main_inprocess, i)
                dt = time.perf_counter() - m0
                if out is not None and stdout != out[1]:
                    err = err or "in-process main(argv) output differs from the subprocess"
            base += dt
            replay += rdt
            spans_s = sum(e - s for n, s, e, p, item in t.spans if p is None and item == i and n != "cli.main")
            gaps.append(dt - spans_s)
            if err:
                failures.append(f"item {i} ({it['cls']}): {err}")
        w.trace_counters(t, lat)
    finally:
        w.close()
    t.counters["trace.overhead_ratio"] = replay / base
    t.counters["trace.replay_gap_s"] = statistics.mean(gaps)
    return t, failures, {
        "items": len(w.items),
        "layers": {n: {"calls": c, "self_s": s} for n, (c, s) in sorted(t.self_times().items())},
        "counters": dict(sorted(t.counters.items())),
        "per_class": {c: {"n": len(v), "p50_s": statistics.median(v)} for c, v in sorted(per_class.items())},
        "failures": failures,
    }


def traced(name, seed):
    from workloads import WORKLOADS

    tracers, failures, report = {}, [], {}
    for wname in WORKLOAD_ORDER:
        t, fails, rep = trace_workload(WORKLOADS[wname], seed)
        tracers[wname], report[wname] = t, rep
        failures += [f"{wname}: {f}" for f in fails]
    metrics = {}
    for metric, _, home, (kind, key) in PER_LAYER:
        t = tracers[home or name]
        if kind == "counter":
            metrics[metric] = t.counters[key]
        else:
            calls, self_s = t.self_times().get(key, (0, 0.0))
            metrics[metric] = self_s if kind == "self" else calls
    attempted = sum(r["items"] for r in report.values())
    report["spans"] = {w: t.records() for w, t in tracers.items()}
    return metrics, attempted, failures, report


def environment() -> dict:
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": cpus, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_ORDER)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fqk" / "__init__.py").is_file():
        print(f"error: no fqk sources at {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import fqk
    import workloads

    if Path(fqk.__file__).resolve().parent != (src / "fqk").resolve():
        print(f"error: fqk imported from {fqk.__file__}, not {src}", file=sys.stderr)
        return 2
    import gen

    digest = gen.digest(gen.generate(args.workload, args.seed))
    if args.trace:
        metrics, attempted, failures, details = traced(args.workload, args.seed)
        units = {m: u for m, u, _, _ in PER_LAYER}
    else:
        W = workloads.WORKLOADS[args.workload]
        metrics, attempted, failures, details = untraced(W, args.seed, args.seconds)
        units = dict(END_TO_END)

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": digest, "environment": environment(), "metrics": metrics,
        "attempted": attempted, "failures": failures, "details": details,
    }, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs sha256 {digest}")
    for m, v in metrics.items():
        print(f"  {m:<44} {v:>14.6g} {units[m]}")
    if not args.trace:
        print(f"  {'failed_ratio':<44} {details['failed_ratio']:>14.6g} 1"
              f"   ({len(failures)} of {attempted} attempted)")
        raw = details["raw"]
        print(f"  {details['items']} items in {details['cycles']} cycles, {details['item_time_s']:.2f} s of"
              f" item time; over all executions: {raw['items_per_s']:.6g} items/s,"
              f" p50 {raw['item_p50_s']:.6g} s,"
              f" p{raw['tail_percentile']:g} {raw['item_tail_s']:.6g} s")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print(f"  details: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
