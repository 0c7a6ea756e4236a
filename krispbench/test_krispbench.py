"""The benchmark's own tests, on small workloads.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest krispbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import layers
import run as bench_run
import workloads
from ab import verdict

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "dense-cell": {"workers": 4, "requests_scale": 0.1},
    "fleet-observed": {"duration": 0.6},
    "sweep-cache": {"models": ("alexnet",), "workers": (1, 2)},
}


@pytest.fixture
def state(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def small(name: str, state: Path):
    workload = workloads.WORKLOADS[name](3, ROOT, state, **SMALL[name])
    workload.build()
    workload.prepare()
    return workload


def repetition(workload, tracer=None):
    _run_s, _rss, raw, setups = bench_run._repetition(workload, tracer)
    return workload.check(raw, setups)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_runs_give_identical_hashes_and_counts(name, state):
    workload = small(name, state)
    first, second = repetition(workload), repetition(workload)
    assert first.errors == {} and second.errors == {}
    assert first.ops == second.ops
    assert first.counts == second.counts
    assert first.counts["sim.events.n"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrappers_change_no_hash_and_counts_repeat(name, state):
    workload = small(name, state)
    plain = repetition(workload)
    tracers = [layers.Tracer(), layers.Tracer()]
    traced = [repetition(workload, tracer) for tracer in tracers]
    for out in traced:
        assert out.errors == {}
        assert out.ops == plain.ops
        assert out.counts == plain.counts
    assert tracers[0].calls() == tracers[1].calls()
    assert tracers[0].calls()["sim.run"] > 0


def test_sweep_runs_only_the_fresh_cells(state):
    workload = small("sweep-cache", state)
    out = repetition(workload)
    cells = len(workload.sweep.cells)
    fresh = sum(map(workload.is_fresh, workload.sweep.cells))
    assert fresh == len(SMALL["sweep-cache"]["models"])
    assert out.counts["exp.sweep.ran.n"] == fresh
    assert out.counts["exp.sweep.cells.n"] == cells * workloads.SWEEP_PASSES
    assert out.counts["exp.cache.hits"] == \
        cells * workloads.SWEEP_PASSES - fresh


def test_self_times_plus_other_sum_to_traced_run_s(state):
    workload = small("fleet-observed", state)
    workload.reset()
    tracer = layers.Tracer()
    with layers.installed(tracer):
        start = perf_counter()
        workload.run()
        run_s = perf_counter() - start
    self_times = tracer.self_times()
    other = run_s - tracer.covered_s()
    assert other >= 0
    assert all(seconds >= 0 for seconds in self_times.values())
    assert sum(self_times.values()) + other == pytest.approx(run_s,
                                                             rel=1e-9)
    assert {"sim.run", "gpu.launch", "obs.sample", "cluster.route",
            "obs.attribution"} <= set(self_times)
    rep = {"run_s": run_s, "calls": tracer.calls(), "self_s": self_times,
           "covered_s": tracer.covered_s(), "counts": {}}
    metrics = bench_run._layer_metrics(
        [{"import_s": 0.2, "parser_s": 0.1}], layers.Tracer(), 0.0, [rep],
        [run_s])
    assert list(metrics) == bench_run.per_layer_names()
    layer_self = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k != "other.self_s")
    assert layer_self + metrics["other.self_s"] == pytest.approx(
        metrics["trace.setup_s"] + metrics["trace.run_s"], rel=1e-9)


def _current(target):
    _name, module, path = target
    owner, attr = layers._resolve(module, path)
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_installed_restores_every_entry_point():
    targets = layers.SPAN_TARGETS + layers.COUNT_TARGETS
    before = [_current(target) for target in targets]
    with layers.installed(layers.Tracer()):
        assert all(_current(t) is not b for t, b in zip(targets, before))
    assert all(_current(t) is b for t, b in zip(targets, before))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        bench_run.per_layer_names()
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == bench_run.metric_unit(metric["name"])
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_fixed_count_trace_keeps_work_and_mix_across_seeds():
    from repro.workload import load_workload

    spec = load_workload(ROOT / "examples/workloads/bursty-mix.yaml")
    traces = [workloads.fixed_count_trace(spec, 1.5, seed)
              for seed in range(4)]
    mixes = [sorted(e.model for e in trace.entries) for trace in traces]
    assert all(mix == mixes[0] for mix in mixes)
    assert mixes[0].count("squeezenet") == round(0.75 * len(mixes[0]))
    assert len({trace.entries[0].time for trace in traces}) == 4


def test_verdict():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert verdict(parent, [v * 1.002 for v in parent], 0.05,
                   "lower") == "unchanged"
    assert verdict(parent, [v * 0.80 for v in parent], 0.05,
                   "lower") == "better"
    assert verdict(parent, [v * 1.30 for v in parent], 0.05,
                   "lower") == "worse"
    noisy = [1.0, 1.3, 0.7, 1.2, 0.8, 1.1, 0.9, 1.0, 1.25, 0.75]
    assert verdict(parent, noisy, 0.05, "lower") == "unresolved"


def test_exits_nonzero_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "krispbench" / "run.py"),
         "--workload", "dense-cell", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
