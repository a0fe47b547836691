"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import gen
import run
import workloads
from fqk import catalog
from fqk.unfold import ADE_ROOT_COUNTS

WORKLOADS = run.WORKLOAD_ORDER


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_per_seed_and_varies_across_seeds(name):
    a, b, c = (gen.digest(gen.generate(name, s)) for s in (7, 7, 8))
    assert a == b
    assert a != c


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeds_keep_the_size_class_of_every_slot(name):
    classes = [[it["cls"] for it in gen.generate(name, s)["items"]] for s in (1, 2)]
    assert sorted(classes[0]) == sorted(classes[1])


def test_known_answers_match_independent_tables():
    for t in ("A1", "A7", "D4", "D12", "E6", "E7", "E8"):
        want = ADE_ROOT_COUNTS[t] if t[0] == "E" else ADE_ROOT_COUNTS[t[0]](int(t[1:]))
        assert gen.ade_roots(t) == want
    for L in (1, 2, 5):
        assert gen.verlinde_tensor(L).tolist() == [[list(r) for r in m] for m in catalog.verlinde_sl2(L).N]
    assert gen.sl3at5_rows() == catalog.sl3at5_action().matrix


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_replay_reproduces_its_top_level_output(name):
    tracer, failures, report = run.trace_workload(workloads.WORKLOADS[name], seed=3)
    assert failures == []
    assert report["items"] == len(gen.generate(name, 3)["items"])
    assert tracer.spans


def test_a_wrong_expected_answer_is_counted_not_raised():
    class Miscounted(workloads.EnumChains):
        def __init__(self, seed, scratch):
            super().__init__(seed, scratch)
            i = next(k for k, it in enumerate(self.items) if it["kind"] == "enumerate")
            q = self.items[i]["quiver"]
            self.items[i] = dict(self.items[i], quiver=dataclasses.replace(q, roots=q.roots + 1))

    metrics, attempted, failures, details = run.untraced(Miscounted, 5, 0.2)
    assert failures and all("Gabriel" in f for f in failures)
    assert 0 < metrics["correct_ratio"] < 1
    assert details["failed_ratio"] == pytest.approx(len(failures) / attempted)


def test_metric_tables_match_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(n, u) for n, u, _, _ in run.PER_LAYER]
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)


def test_without_sources_the_benchmark_fails_without_a_result():
    lonely = run.OUT / "lonely"
    shutil.rmtree(lonely, ignore_errors=True)
    (lonely / "perfbench").mkdir(parents=True)
    for f in run.HERE.glob("*.py"):
        (lonely / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum_chains", "--seed", "1", "--seconds", "1"],
        cwd=lonely, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(lonely)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
