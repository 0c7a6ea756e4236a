"""The benchmark's three workloads.

Each workload turns a seed into inputs with the program's public
builders and then drives only public runners.  The steps, in the order
the runner (``run.py``) calls them:

``build()``
    What a CLI call pays before any simulation: configs and specs made
    from the seed, plus the ``ServingSetup`` / ``ClusterSetup`` builds and
    profile lookups the run needs.  Timed as ``setup_s``.
``prepare()``
    Untimed, once.  Only ``sweep-cache`` uses it: a cold sweep that
    computes every cell fresh, which gives the reference hash of each cell
    and the entries that seed the result store before each repetition.
``reset()``
    Untimed, before each repetition: restores benchmark-owned state.
``run()``
    The timed body: public runner calls only.
``check(raw, setups)``
    Untimed, after the clock stops: output hashes per operation, audits
    of every simulated device built during the repetition, and exact
    counts.

The seed selects one of :data:`VARIANTS` input variants (``seed %
VARIANTS``), so every seed's outputs can be pinned in ``pins.json``.  The
seed shapes timings and random draws, never the amount of work: the dense
cell is closed-loop over a fixed window, the fleet replays a fixed number
of requests in a fixed model mix, and the sweep has a fixed grid, fresh
set and pass count.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

__all__ = ["VARIANTS", "RepOutput", "DenseCell", "FleetObserved",
           "SweepCache", "WORKLOADS"]

#: Distinct input variants; ``--seed`` picks ``seed % VARIANTS``.
VARIANTS = 32
#: The fleet guard's per-request deadline, simulated seconds.
GUARD_DEADLINE = 0.05
#: Sweeps over the grid per ``sweep-cache`` repetition: one per Fig. 13
#: panel (throughput, tail latency, energy), each reading the same store.
SWEEP_PASSES = 3


@dataclass
class RepOutput:
    """What one repetition produced, for the runner to verify."""

    #: Operation label -> named output hashes (compared with the pins).
    ops: dict[str, dict[str, str]] = field(default_factory=dict)
    #: Operation label -> audit failures (an operation with any fails).
    errors: dict[str, list[str]] = field(default_factory=dict)
    #: Exact per-repetition model outputs and work counts.
    counts: dict[str, int] = field(default_factory=dict)


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _device_counts(setups: list) -> dict[str, int]:
    """Events, batches and perf-DB lookups over the built setups."""
    sims = {id(s.sim): s.sim for s in setups}
    databases = {}
    for setup in setups:
        for stream in setup.streams:
            sizer = getattr(stream, "rightsizer", None) \
                or getattr(stream, "sizer", None)
            database = getattr(sizer, "database", None)
            if database is not None:
                databases[id(database)] = database
    return {
        "sim.events.n": sum(s.events_executed for s in sims.values()),
        "sim.batches.n": sum(s.batches_drained for s in sims.values()),
        "core.perfdb.lookups": sum(d.lookups for d in databases.values()),
        "core.perfdb.misses": sum(d.misses for d in databases.values()),
    }


def _audit(setups: list) -> list[str]:
    """``GpuDevice.audit_state`` over every device, prefixed by node."""
    errors = []
    for index, setup in enumerate(setups):
        errors.extend(f"device {index}: {violation}"
                      for violation in setup.device.audit_state())
    return errors


@dataclass
class DenseCell:
    """Many batch-1 squeezenet workers under KRISP-I, closed loop.

    The shape of ``repro.bench.scenarios.DENSE_CONFIG`` sized down: the
    warm-up window grows with the worker count, so the 48-worker cell
    costs about 40 s per run on a 2-core host; ten workers keep a run
    at 1–2 s while still holding about ten kernels resident.
    """

    seed: int
    root: Path
    state: Path
    workers: int = 10
    requests_scale: float = 0.02
    name: ClassVar[str] = "dense-cell"

    def build(self) -> None:
        from repro.server.experiment import ExperimentConfig
        from repro.server.setup import ServingSetup

        self.config = ExperimentConfig(
            ("squeezenet",) * self.workers, policy="krisp-i", batch_size=1,
            seed=self.seed % VARIANTS, requests_scale=self.requests_scale)
        # Pays the right-size and perf-DB lookups the run needs.
        ServingSetup.build(self.config, rng_label="krispbench/setup")

    def prepare(self) -> None:
        return None

    def reset(self) -> None:
        pass

    def run(self) -> Any:
        from repro.server import experiment

        return experiment.run_experiment(self.config)

    def check(self, result: Any, setups: list) -> RepOutput:
        from repro.exp.cache import result_hash

        out = RepOutput()
        out.ops["run"] = {"result_hash": result_hash(result)}
        errors = _audit(setups)
        if errors:
            out.errors["run"] = errors
        out.counts = {
            **_device_counts(setups),
            "server.completed.n": sum(w.requests_completed
                                      for w in result.workers),
            "server.shed.n": result.shed_requests,
        }
        return out


def fixed_count_trace(spec: Any, duration: float, seed: int) -> Any:
    """A trace with ``spec``'s ON/OFF shape and mix, but fixed work.

    Each ON and OFF phase receives exactly ``rate × phase length``
    arrivals at seeded uniform times inside the phase, and the request
    classes are assigned in exact proportion to their weights in a seeded
    order.  The seed moves arrival times and the class order; the request
    count and the mix are the same for every seed.
    """
    from repro.workload.spec import TraceEntry, TraceWorkloadSpec

    arrivals = spec.arrivals
    rng = random.Random(seed)
    phases = ((arrivals.on_rate, arrivals.on_duration),
              (arrivals.off_rate, arrivals.off_duration))
    times: list[float] = []
    start = 0.0
    while start < duration:
        for rate, length in phases:
            end = min(start + length, duration)
            count = round(rate * (end - start))
            times.extend(start + rng.random() * (end - start)
                         for _ in range(count))
            start = end
    times.sort()
    classes = spec.request_classes()
    total = sum(c.weight for c in classes)
    counts = [round(len(times) * c.weight / total) for c in classes]
    counts[-1] = len(times) - sum(counts[:-1])
    mix = [cls for cls, count in zip(classes, counts) for _ in range(count)]
    rng.shuffle(mix)
    return TraceWorkloadSpec(tuple(
        TraceEntry(time=t, model=cls.model, batch_size=cls.batch_size)
        for t, cls in zip(times, mix)))


@dataclass
class FleetObserved:
    """``bursty-mix.yaml`` over a 2-device KRISP-I fleet, fully observed.

    Open loop in simulated time, with the router, autoscaler, samplers,
    flight recorder, metrics registry, a deadline guard and one node
    crash; attribution is summarised after the run.
    """

    seed: int
    root: Path
    state: Path
    duration: float = 1.5
    name: ClassVar[str] = "fleet-observed"

    def build(self) -> None:
        from repro.cluster import ClusterConfig, ClusterSetup
        from repro.faults.schedule import FaultSchedule, NodeCrash
        from repro.server.slo import SloGuard
        from repro.workload import load_workload

        variant = self.seed % VARIANTS
        spec = load_workload(
            self.root / "examples" / "workloads" / "bursty-mix.yaml")
        self.spec = fixed_count_trace(spec, self.duration, variant)
        self.config = ClusterConfig(
            devices=2, model_names=tuple(spec.models()), policy="krisp-i",
            batch_size=spec.request_batch_size(), seed=variant)
        self.guard = SloGuard(deadline=GUARD_DEADLINE)
        self.faults = FaultSchedule(
            (NodeCrash(time=self.duration / 2, node=1),))
        # Pays every node's build and the profile lookups the run needs.
        ClusterSetup.build(self.config)

    def prepare(self) -> None:
        return None

    def reset(self) -> None:
        pass

    def run(self) -> Any:
        from repro.cluster import AutoscalerConfig, experiment
        from repro.obs import attribution
        from repro.obs.flight import FlightRecorder
        from repro.obs.metrics import MetricsRegistry
        from repro.server.options import RunOptions

        recorder = FlightRecorder()
        result = experiment.run_cluster_experiment(
            self.config, self.spec, duration=self.duration,
            autoscaler=AutoscalerConfig(),
            options=RunOptions(recorder=recorder, metrics=MetricsRegistry(),
                               guard=self.guard, faults=self.faults))
        return result, attribution.summarize(recorder.flights())

    def check(self, raw: Any, setups: list) -> RepOutput:
        from repro.cluster.experiment import cluster_result_hash

        result, summary = raw
        out = RepOutput()
        out.ops["run"] = {"cluster_result_hash": cluster_result_hash(result),
                          "attribution_hash": _digest(summary)}
        errors = _audit(setups)
        if not result.conservation_ok:
            errors.append("fleet request conservation violated")
        if errors:
            out.errors["run"] = errors
        out.counts = {
            **_device_counts(setups),
            "server.completed.n": result.completed,
            "server.shed.n": result.shed,
            "workload.requests.n": result.issued,
            "cluster.scale_events.n": len(result.scale_events),
        }
        return out


def cell_label(config: Any) -> str:
    """``model/policy/xN`` for one sweep cell."""
    return (f"{config.model_names[0]}/{config.policy}"
            f"/x{len(config.model_names)}")


@dataclass
class SweepCache:
    """A Fig. 13-shaped grid read from its result store, three times over.

    A repetition is what regenerating the three Fig. 13 panels costs once
    a grid is mostly cached: one ``run_sweep(jobs=1)`` per panel over the
    same grid and store.  The store holds every cell but the *fresh* ones
    (``krisp-i`` with the fewest workers, one per model), so the first
    sweep runs and writes those and reads the rest, and the later sweeps
    read every cell.  The fresh set and the pass count are fixed, so the
    work does not depend on the seed.
    """

    seed: int
    root: Path
    state: Path
    models: tuple[str, ...] = ("alexnet", "vgg19")
    workers: tuple[int, ...] = (1, 2, 4)
    name: ClassVar[str] = "sweep-cache"

    def build(self) -> None:
        from repro.exp.cache import ResultCache
        from repro.exp.sweep import Sweep
        from repro.server.experiment import ExperimentConfig
        from repro.server.policies import POLICY_NAMES
        from repro.server.setup import ServingSetup

        variant = self.seed % VARIANTS
        self.sweep = Sweep().add_grid(
            self.models, POLICY_NAMES, self.workers, batch_size=1,
            seed=variant, requests_scale=0.1)
        self.store_dir = self.state / "store"
        self.store = ResultCache(root=self.store_dir)
        # Pays the right-size and perf-DB lookups every cell needs.
        for model in self.models:
            for policy in POLICY_NAMES:
                ServingSetup.build(
                    ExperimentConfig((model,), policy=policy, batch_size=1,
                                     seed=variant),
                    rng_label="krispbench/setup")

    def is_fresh(self, config: Any) -> bool:
        """Whether a repetition runs ``config`` instead of reading it."""
        return (config.policy == "krisp-i"
                and len(config.model_names) == self.workers[0])

    def prepare(self) -> RepOutput:
        """Cold sweep: reference hashes and the stored entries' bytes."""
        from repro.exp.sweep import run_sweep

        import layers

        shutil.rmtree(self.store_dir, ignore_errors=True)
        with layers.capture_setups() as setups:
            report = run_sweep(self.sweep, jobs=1, cache_store=self.store)
        out = self._ops([report], setups)
        self.reference = {label: hashes["result_hash"]
                          for label, hashes in out.ops.items()}
        self.stored = {}
        for config in self.sweep.cells:
            if not self.is_fresh(config):
                path = self.store.path_for(config)
                self.stored[path] = path.read_bytes()
        return out

    def reset(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)
        for path, payload in self.stored.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload)

    def run(self) -> Any:
        from repro.exp import sweep

        return [sweep.run_sweep(self.sweep, jobs=1, cache_store=self.store)
                for _ in range(SWEEP_PASSES)]

    def _ops(self, reports: list, setups: list) -> RepOutput:
        """Per-cell hashes, sweep counts and the audit of every device.

        A cell's hash must agree across the passes; its first pass's hash
        is the one compared with the pin.
        """
        from repro.exp.cache import result_hash

        out = RepOutput()
        for report in reports:
            failures = {cell_label(f.config): f.error for f in report.failed}
            for config in report.cells:
                label = cell_label(config)
                if label in failures:
                    out.errors.setdefault(label, []).append(failures[label])
                    hashes = {"result_hash": "failed"}
                else:
                    hashes = {
                        "result_hash": result_hash(report.results[config])}
                first = out.ops.setdefault(label, hashes)
                if first != hashes:
                    out.errors.setdefault(label, []).append(
                        f"pass hashes {hashes} differ from {first}")
        results = [r for report in reports for r in report.results.values()]
        out.counts = {
            "exp.sweep.cells.n": sum(len(r.cells) for r in reports),
            "exp.sweep.ran.n": sum(r.ran for r in reports),
            "exp.cache.hits": sum(r.cached for r in reports),
            "server.completed.n": sum(
                w.requests_completed for r in results for w in r.workers),
            "server.shed.n": sum(r.shed_requests for r in results),
            **_device_counts(setups),
        }
        for setup in setups:
            errors = _audit([setup])
            if errors:
                out.errors.setdefault(cell_label(setup.config),
                                      []).extend(errors)
        return out

    def check(self, reports: list, setups: list) -> RepOutput:
        out = self._ops(reports, setups)
        for label, hashes in out.ops.items():
            if hashes["result_hash"] != self.reference.get(label):
                out.errors.setdefault(label, []).append(
                    "differs from the fresh run of the same cell")
        return out


WORKLOADS = {cls.name: cls for cls in (DenseCell, FleetObserved, SweepCache)}
