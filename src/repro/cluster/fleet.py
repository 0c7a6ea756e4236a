"""The fleet grid: devices × placement policy × offered rate.

:func:`run_fleet` sweeps :func:`~repro.cluster.experiment
.run_cluster_experiment` over a grid of fleet sizes, router policies,
and offered rates, producing a :class:`FleetReport` with one row per
cell plus a per-(devices, policy) capacity knee.  Cells are pure
functions of their inputs, so the grid parallelises across a process
pool exactly like :func:`~repro.exp.sweep.run_sweep` — serial and
pooled execution assemble bit-identical reports — and caches through
the content-addressed cluster store, read and written in the calling
process only.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.cluster.config import AutoscalerConfig, ClusterConfig
from repro.cluster.experiment import (
    ClusterResult,
    ClusterResultCache,
    cluster_inputs,
    default_cluster_cache,
    run_cluster_experiment,
)
from repro.server.options import RunOptions
from repro.workload.spec import WorkloadSpec, workload_from_dict

__all__ = ["DEFAULT_FLEET_SCALES", "FleetCell", "FleetReport", "run_fleet"]

#: Default offered-rate multiples of the spec's native rate.
DEFAULT_FLEET_SCALES: tuple[float, ...] = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class FleetCell:
    """One (devices, policy, rate) grid cell and its outcome."""

    devices: int
    router: str
    offered_rps: float
    result: ClusterResult


@dataclass(frozen=True)
class FleetReport:
    """A full fleet grid plus its provenance."""

    base: ClusterConfig
    workload: Any
    duration: float
    autoscaler: Optional[AutoscalerConfig]
    cells: tuple[FleetCell, ...]
    cache_hits: int = 0

    def curve(self, devices: int, router: str) -> list[FleetCell]:
        """One (devices, policy) curve in offered-rate order."""
        return sorted((c for c in self.cells
                       if c.devices == devices and c.router == router),
                      key=lambda c: c.offered_rps)

    def knee_rps(self, devices: int, router: str,
                 factor: float = 3.0) -> Optional[float]:
        """Highest offered rate of the (devices, policy) curve whose p95
        stays within ``factor`` of its lightest point's p95 and whose
        queues drained; ``None`` when even the lightest point blew up."""
        curve = self.curve(devices, router)
        if not curve:
            return None
        base = curve[0].result.latency.p95
        knee = None
        for cell in curve:
            result = cell.result
            if result.queue_residue > 2 * cell.devices \
                    or result.latency.p95 > factor * base:
                break
            knee = cell.offered_rps
        return knee

    def to_rows(self) -> list[dict[str, Any]]:
        """JSON-native rows, one per cell, in grid order."""
        rows = []
        for cell in self.cells:
            r = cell.result
            rows.append({
                "devices": cell.devices,
                "router": cell.router,
                "offered_rps": r.offered_rps,
                "achieved_rps": r.achieved_rps,
                "goodput_rps": r.goodput_rps,
                "p50_ms": r.latency.p50 * 1e3,
                "p95_ms": r.latency.p95 * 1e3,
                "shed": r.shed,
                "queue_residue": r.queue_residue,
                "scale_ups": r.scale_ups,
                "scale_downs": r.scale_downs,
                "crashes": r.crashes,
                "restarts": r.restarts,
                "conservation_ok": r.conservation_ok,
                "node_utilization": [n.gpu_utilization for n in r.nodes],
                "node_completed": [n.completed for n in r.nodes],
            })
        return rows

    def to_payload(self) -> dict[str, Any]:
        """The deterministic JSON document the ``fleet`` CLI emits."""
        knees = [
            {"devices": d, "router": p, "knee_rps": self.knee_rps(d, p)}
            for d in sorted({c.devices for c in self.cells})
            for p in sorted({c.router for c in self.cells})
        ]
        payload: dict[str, Any] = {
            "schema": 1,
            "base": self.base.to_dict(),
            "workload": self.workload.to_dict(),
            "duration": self.duration,
            "rows": self.to_rows(),
            "knees": knees,
            "scale_events": {
                f"{c.devices}x/{c.router}/{c.offered_rps:g}": [
                    e.to_dict() for e in c.result.scale_events]
                for c in self.cells if c.result.scale_events
            },
        }
        if self.autoscaler is not None:
            payload["autoscaler"] = self.autoscaler.to_dict()
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        from repro.analysis.tables import format_table
        rows = [
            [f"{c.devices}", c.router, f"{r.offered_rps:.0f}",
             f"{r.achieved_rps:.0f}", f"{r.goodput_rps:.0f}",
             f"{r.latency.p95 * 1e3:.2f}", r.shed,
             f"+{r.scale_ups}/-{r.scale_downs}",
             "ok" if r.conservation_ok else "VIOLATED"]
            for c in self.cells for r in (c.result,)
        ]
        table = format_table(
            ["devices", "router", "offered", "achieved", "goodput",
             "p95 (ms)", "shed", "scaled", "conserved"],
            rows,
            title=f"fleet grid over {len(self.cells)} cells "
                  f"({self.duration:.2f} s per cell)")
        lines = [table]
        for d in sorted({c.devices for c in self.cells}):
            for p in sorted({c.router for c in self.cells}):
                knee = self.knee_rps(d, p)
                lines.append(f"knee {d}x {p}: "
                             + (f"{knee:.0f} rps" if knee else "none"))
        return "\n".join(lines)


def _run_cell(base_payload: dict, workload_payload: dict, devices: int,
              router: str, offered_rps: float, duration: float,
              autoscaler_payload: Optional[dict],
              faults_payload: Optional[dict],
              guard_payload: Optional[dict]):
    """One pooled fleet cell; exceptions cross the pool as strings."""
    try:
        from repro.faults.schedule import FaultSchedule
        from repro.server.slo import SloGuard

        config = ClusterConfig.from_dict(
            {**base_payload, "devices": devices, "router": router})
        workload = workload_from_dict(workload_payload)
        autoscaler = (AutoscalerConfig.from_dict(autoscaler_payload)
                      if autoscaler_payload is not None else None)
        faults = (FaultSchedule.from_dict(faults_payload)
                  if faults_payload is not None else None)
        guard = (SloGuard.from_dict(guard_payload)
                 if guard_payload is not None else None)
        result = run_cluster_experiment(
            config, workload.at_rate(offered_rps), duration=duration,
            autoscaler=autoscaler,
            options=RunOptions(faults=faults, guard=guard))
        return devices, router, offered_rps, result, None
    except Exception as exc:  # noqa: BLE001 - report, don't hang the pool
        return devices, router, offered_rps, None, f"{type(exc).__name__}: {exc}"


def run_fleet(
    base: ClusterConfig,
    workload: WorkloadSpec,
    *,
    devices: tuple[int, ...] = (1, 2, 4),
    routers: Optional[tuple[str, ...]] = None,
    scales: tuple[float, ...] = DEFAULT_FLEET_SCALES,
    duration: Optional[float] = None,
    autoscaler: Optional[AutoscalerConfig] = AutoscalerConfig(),
    faults=None,
    guard=None,
    jobs: int = 1,
    use_cache: bool = True,
    cache: Optional[ClusterResultCache] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FleetReport:
    """Sweep the fleet grid; deterministic across ``jobs`` settings.

    ``routers=None`` runs only the base config's policy; pass a tuple
    to compare policies.  Rates are ``scales`` multiples of the spec's
    native offered rate.  ``faults`` (NodeCrash-only) and ``guard``
    apply to every cell.  Grid order (devices-major, router, then rate)
    is the report's cell order regardless of pool scheduling.

    Every cache read and write happens in this process, against
    ``cache`` (default: the process-wide cluster store), so
    ``report.cache_hits`` counts hits whatever ``jobs`` is; ``jobs > 1``
    fans only the misses out over a process pool.  ``use_cache=False``
    neither reads nor writes the store.
    """
    from repro.cluster.experiment import DEFAULT_FLEET_DURATION

    if duration is None:
        duration = DEFAULT_FLEET_DURATION
    policies = routers if routers is not None else (base.router,)
    native = workload.offered_rps()
    grid = [(d, p, native * s)
            for d in devices for p in policies for s in scales]
    store = (cache if cache is not None else default_cluster_cache()) \
        if use_cache else None
    base_payload = base.to_dict()

    def cell_config(d: int, p: str) -> ClusterConfig:
        return ClusterConfig.from_dict(
            {**base_payload, "devices": d, "router": p})

    results: dict[tuple[int, str, float], ClusterResult] = {}
    inputs: dict[tuple[int, str, float], dict] = {}
    if store is not None:
        for d, p, rate in grid:
            spec = workload.at_rate(rate)
            inputs[(d, p, rate)] = cluster_inputs(
                cell_config(d, p), spec.offered_rps(), duration,
                workload=spec, autoscaler=autoscaler, faults=faults,
                guard=guard)
            hit = store.get(inputs[(d, p, rate)])
            if hit is not None:
                results[(d, p, rate)] = hit
    hits = done = len(results)
    if progress:
        progress(done, len(grid))

    def record(key, result, error):
        nonlocal done
        if error is not None:
            raise RuntimeError(f"fleet cell {key} failed: {error}")
        results[key] = result
        if store is not None:
            store.put(inputs[key], result)
        done += 1
        if progress:
            progress(done, len(grid))

    todo = [cell for cell in grid if cell not in results]
    if jobs > 1 and len(todo) > 1:
        workload_payload = workload.to_dict()
        autoscaler_payload = autoscaler.to_dict() \
            if autoscaler is not None else None
        faults_payload = faults.to_dict() if faults is not None else None
        guard_payload = guard.to_dict() if guard is not None else None
        with ProcessPoolExecutor(max_workers=min(jobs, len(todo))) as pool:
            futures = [
                pool.submit(_run_cell, base_payload, workload_payload,
                            d, p, rate, duration, autoscaler_payload,
                            faults_payload, guard_payload)
                for d, p, rate in todo
            ]
            for future in futures:
                d, p, rate, result, error = future.result()
                record((d, p, rate), result, error)
    else:
        for d, p, rate in todo:
            result = run_cluster_experiment(
                cell_config(d, p), workload.at_rate(rate),
                duration=duration, autoscaler=autoscaler,
                options=RunOptions(faults=faults, guard=guard))
            record((d, p, rate), result, None)

    cells = tuple(FleetCell(devices=d, router=p, offered_rps=rate,
                            result=results[(d, p, rate)])
                  for d, p, rate in grid)
    return FleetReport(base=base, workload=workload, duration=duration,
                       autoscaler=autoscaler, cells=cells, cache_hits=hits)
