"""The repository benchmark: one workload, one process, one thread.

Usage::

    python3 krispbench/run.py --workload dense-cell --seed 0 \\
        --seconds 30 --trace 0

run from the root of a checkout, whose ``src/`` holds the program.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``run_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones.

A run, in order:

1. resets the benchmark-owned state directory, compiles the program's
   bytecode, and warms the on-disk right-size profile store with one
   untimed set-up in a fresh interpreter;
2. times :data:`SETUP_PROBES` more set-ups, each in a fresh interpreter
   (``probe.py``), and reports their median as ``setup_s``;
3. builds the inputs in this process (traced when ``--trace 1``);
4. repeats the workload body until ``--seconds`` have passed, at least
   :data:`MIN_REPS` times, and reports the median repetition as
   ``run_s`` and ``peak_rss_mb``.  With ``--trace 1`` every other
   repetition is traced.

Every repetition's outputs are checked after its clock stops: output
hashes against ``pins.json`` and against the run's earlier repetitions,
``GpuDevice.audit_state`` on every simulated device, the fleet
conservation audit, and exact counts.  See ``BENCHMARK.md``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = BENCH_DIR / "_state"
PINS_PATH = BENCH_DIR / "pins.json"

#: Timed fresh-interpreter set-ups per run (after one untimed warm one).
SETUP_PROBES = 5
#: Fewest repetitions of the body, even past ``--seconds``.
MIN_REPS = 4

#: Exact per-repetition outputs reported as per-layer counts.
OUTPUT_COUNTS = ("sim.events.n", "sim.batches.n", "workload.requests.n",
                 "cluster.scale_events.n", "exp.sweep.cells.n",
                 "exp.sweep.ran.n", "server.completed.n", "server.shed.n")


def per_layer_names() -> list[str]:
    """Every ``--trace 1`` metric name, in report order."""
    from layers import SPAN_LAYERS

    names = ["cli.import_s", "cli.parser_s"]
    for layer in SPAN_LAYERS:
        names += [f"{layer}.n", f"{layer}.self_s"]
    names += ["sim.schedule.n", "gpu.counters.n", "core.perfdb.hit_ratio",
              "exp.cache.hit_ratio", *OUTPUT_COUNTS, "other.self_s",
              "trace.setup_s", "trace.run_s", "trace.overhead_frac"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(".n"):
        return "count"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "s"


# -- process-level measurements ---------------------------------------------

def _reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux).

    Raises ``OSError`` where it cannot be reset: ``peak_rss_mb`` would
    then silently mean the whole process's peak instead.
    """
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    """Resident-set high-water mark since the last reset, in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def _host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic.

    Printed beside the results so a reader can see how fast the host was
    during the run; it is never folded into a metric.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


def _probe(workload: str, seed: int, root: Path, env: dict) -> dict:
    """One set-up in a fresh interpreter; its JSON timing line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed),
         str(root), str(STATE_DIR)],
        env=env, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- verification -----------------------------------------------------------

class Verifier:
    """Counts operations and failures across one run's repetitions.

    An operation (a run, or one sweep cell) fails when its repetition
    raised, when it failed an audit, or when an output hash differs from
    its pin or from the same operation earlier in this run.
    """

    def __init__(self, pins: dict[str, Any]) -> None:
        self.pins = pins
        self.seen: dict[str, dict[str, str]] = {}
        self.counts: Optional[dict[str, int]] = None
        self.attempted = 0
        self.failed = 0
        #: Set when exact counts differ between repetitions.
        self.inconsistent = False

    def fail(self, message: str, operations: int) -> None:
        print(f"krispbench: FAILED {message}", file=sys.stderr)
        self.attempted += operations
        self.failed += operations

    def mismatch(self, message: str) -> None:
        print(f"krispbench: INCONSISTENT {message}", file=sys.stderr)
        self.inconsistent = True

    def check(self, out: Any, *, repeat_counts: bool = True) -> None:
        for label, hashes in out.ops.items():
            problems = list(out.errors.get(label, ()))
            pinned = self.pins.get(label)
            if pinned is not None and pinned != hashes:
                problems.append(f"hashes {hashes} differ from pin {pinned}")
            first = self.seen.setdefault(label, hashes)
            if first != hashes:
                problems.append(f"hashes {hashes} differ from an earlier "
                                f"repetition's {first}")
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"krispbench: FAILED {label}: {'; '.join(problems)}",
                      file=sys.stderr)
        if repeat_counts:
            if self.counts is None:
                self.counts = dict(out.counts)
            elif self.counts != out.counts:
                self.mismatch(f"counts {out.counts} differ from an earlier "
                              f"repetition's {self.counts}")

    @property
    def expected_ops(self) -> int:
        return max(1, len(self.seen), len(self.pins))


# -- the run ----------------------------------------------------------------

def _repetition(workload: Any, tracer: Any = None) -> tuple[float, float,
                                                              Any, list]:
    """One timed body: (run_s, peak RSS MiB, raw output, built setups)."""
    import layers

    workload.reset()
    gc.collect()
    _reset_peak_rss()
    with layers.capture_setups() as setups:
        if tracer is None:
            start = time.perf_counter()
            raw = workload.run()
            elapsed = time.perf_counter() - start
        else:
            with layers.installed(tracer):
                start = time.perf_counter()
                raw = workload.run()
                elapsed = time.perf_counter() - start
    return elapsed, _peak_rss_mb(), raw, setups


def _layer_metrics(probes: list[dict], setup_trace: Any, build_s: float,
                   traced: list[dict], untraced_s: list[float]
                   ) -> dict[str, float]:
    """Per-layer report: the traced set-up plus the median traced rep."""
    from layers import SPAN_LAYERS

    rep = sorted(traced, key=lambda r: r["run_s"])[(len(traced) - 1) // 2]
    metrics: dict[str, float] = {
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "cli.parser_s": statistics.median(p["parser_s"] for p in probes),
    }
    calls = setup_trace.calls() + rep["calls"]
    self_s = setup_trace.self_times()
    for layer, seconds in rep["self_s"].items():
        self_s[layer] = self_s.get(layer, 0.0) + seconds
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.n"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    metrics["sim.schedule.n"] = calls["sim.schedule"]
    metrics["gpu.counters.n"] = calls["gpu.counters"]
    counts = rep["counts"]
    lookups = counts.get("core.perfdb.lookups", 0)
    misses = counts.get("core.perfdb.misses", 0)
    metrics["core.perfdb.hit_ratio"] = 1 - misses / lookups if lookups else 0
    gets = calls["exp.cache.get"]
    metrics["exp.cache.hit_ratio"] = (counts.get("exp.cache.hits", 0) / gets
                                      if gets else 0)
    for name in OUTPUT_COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["other.self_s"] = ((build_s - setup_trace.covered_s())
                               + (rep["run_s"] - rep["covered_s"]))
    metrics["trace.setup_s"] = build_s
    metrics["trace.run_s"] = rep["run_s"]
    metrics["trace.overhead_frac"] = (
        statistics.median(r["run_s"] for r in traced)
        / statistics.median(untraced_s) - 1)
    return metrics


def run(args: argparse.Namespace) -> dict[str, Any]:
    src = Path("src").resolve()
    root = src.parent
    # Fails here, before any work, where peak RSS cannot be measured.
    _reset_peak_rss()
    _peak_rss_mb()
    shutil.rmtree(STATE_DIR, ignore_errors=True)
    STATE_DIR.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src),
               REPRO_CACHE_DIR=str(STATE_DIR / "cache"))
    os.environ.update(REPRO_CACHE_DIR=env["REPRO_CACHE_DIR"])
    compileall.compile_dir(str(src), quiet=1)

    # Set-up: one warm-up probe fills the right-size store, then timed.
    probes = [_probe(args.workload, args.seed, root, env)
              for _ in range(1 + SETUP_PROBES)][1:]

    sys.path.insert(0, str(src))
    import repro.cli

    import layers
    import workloads

    repro.cli.build_parser()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, root, STATE_DIR)
    setup_trace = layers.Tracer()
    start = time.perf_counter()
    if args.trace:
        with layers.installed(setup_trace):
            workload.build()
    else:
        workload.build()
    build_s = time.perf_counter() - start

    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    verifier = Verifier(pins.get(args.workload, {}).get(
        str(args.seed % workloads.VARIANTS), {}))
    reference = workload.prepare()
    if reference is not None:
        verifier.check(reference, repeat_counts=False)

    untraced: list[tuple[float, float]] = []
    traced: list[dict] = []
    last_tracer = None
    events: list[int] = []
    host: list[float] = []
    deadline = time.perf_counter() + args.seconds
    rep = 0
    while rep < MIN_REPS or time.perf_counter() < deadline:
        tracer = layers.Tracer() if args.trace and rep % 2 else None
        rep += 1
        host.append(_host_probe())
        try:
            run_s, rss, raw, setups = _repetition(workload, tracer)
            out = workload.check(raw, setups)
        except Exception:  # noqa: BLE001 - a failed operation, reported
            traceback.print_exc()
            verifier.fail(f"repetition {rep} raised",
                          verifier.expected_ops)
            continue
        del raw, setups
        verifier.check(out)
        events.append(out.counts.get("sim.events.n", 0))
        if tracer is None:
            untraced.append((run_s, rss))
        else:
            # Keep a summary per traced repetition, spans of the last one.
            calls = tracer.calls()
            if traced and calls != traced[0]["calls"]:
                verifier.mismatch("traced call counts differ between "
                                  "repetitions")
            traced.append({"run_s": run_s, "calls": calls,
                           "self_s": tracer.self_times(),
                           "covered_s": tracer.covered_s(),
                           "counts": out.counts})
            last_tracer = tracer

    print(f"krispbench: {args.workload} seed={args.seed} "
          f"variant={args.seed % workloads.VARIANTS} "
          f"repetitions={len(untraced)} untraced + {len(traced)} traced, "
          f"simulated events per repetition={events[:1]}, "
          f"host probe median={statistics.median(host) * 1e3:.1f} ms")
    if args.trace:
        if not traced or not untraced:
            raise RuntimeError("no successful traced/untraced repetition")
        trace_file = STATE_DIR / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({
            "setup": setup_trace.to_json(),
            "run": last_tracer.to_json()}))
        metrics = _layer_metrics(probes, setup_trace, build_s, traced,
                                 [t for t, _rss in untraced])
    else:
        if not untraced:
            raise RuntimeError("no successful repetition")
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "run_s": statistics.median(t for t, _rss in untraced),
            "peak_rss_mb": statistics.median(r for _t, r in untraced),
        }
    return {
        "correct": (verifier.failed == 0 and verifier.attempted > 0
                    and not verifier.inconsistent),
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("krispbench: no repro package under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
