"""Parallel experiment-grid orchestration.

Every evaluation grid of the paper is a set of independent
:class:`~repro.server.experiment.ExperimentConfig` cells, so the sweep
layer is deliberately simple: :class:`Sweep` builds a deduplicated cell
list (cartesian grids, mixed-model pairs, or explicit cells) and
:func:`run_sweep` executes it —

* consulting the content-addressed :mod:`result cache <repro.exp.cache>`
  first (a warm re-run computes nothing);
* fanning the remaining cells out over a ``ProcessPoolExecutor`` sized
  by ``REPRO_JOBS`` (default ``os.cpu_count() - 1``), with a serial
  in-process fallback for ``jobs=1``;
* retrying failed cells and capturing their tracebacks, so one bad cell
  degrades the grid gracefully instead of killing it.

The returned :class:`SweepReport` carries every result keyed by its
config plus run/cached/failed accounting, wall time, and the aggregate
speedup over the serial cell time.

Determinism: cells are seed-deterministic and RNG streams are derived
via SHA-256 (never the process-randomised ``hash``), so the serial path,
the pool path, and a cache hit all yield bit-identical results —
``tests/test_exp_sweep.py`` pins this.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from repro.exp.cache import ResultCache, default_cache
from repro.server.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.server.options import RunOptions, reject_unsupported

__all__ = [
    "CellFailure",
    "Sweep",
    "SweepReport",
    "default_jobs",
    "run_sweep",
]

ProgressFn = Callable[[int, int, str], None]


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` or ``os.cpu_count() - 1`` (min 1)."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS={env!r} is not an integer") from None
    return max(1, (os.cpu_count() or 2) - 1)


def _cell_label(config: ExperimentConfig) -> str:
    """Short human-readable tag for progress lines."""
    models = "+".join(config.model_names)
    return f"{models}/{config.policy}/b{config.batch_size}"


class Sweep:
    """An ordered, deduplicated collection of experiment cells."""

    def __init__(self, cells: Iterable[ExperimentConfig] = ()) -> None:
        self._cells: dict[ExperimentConfig, None] = {}
        for cell in cells:
            self.add(cell)

    def add(self, config: ExperimentConfig) -> "Sweep":
        """Add one cell (duplicates collapse); returns self for chaining."""
        self._cells[config] = None
        return self

    def add_grid(
        self,
        models: Sequence[str],
        policies: Sequence[str],
        worker_counts: Sequence[int] = (1,),
        **config_kwargs,
    ) -> "Sweep":
        """Cartesian self-co-location grid: each model replicated
        ``workers`` times under each policy (the Fig. 13/14 shape)."""
        for model, policy, workers in itertools.product(
                models, policies, worker_counts):
            self.add(ExperimentConfig(
                model_names=(model,) * workers, policy=policy,
                **config_kwargs))
        return self

    def add_pairs(
        self,
        models: Sequence[str],
        policies: Sequence[str],
        **config_kwargs,
    ) -> "Sweep":
        """Every unordered pair of distinct models under each policy
        (the Fig. 15 shape)."""
        for (a, b), policy in itertools.product(
                itertools.combinations(models, 2), policies):
            self.add(ExperimentConfig(
                model_names=(a, b), policy=policy, **config_kwargs))
        return self

    @property
    def cells(self) -> tuple[ExperimentConfig, ...]:
        return tuple(self._cells)

    def __iter__(self) -> Iterator[ExperimentConfig]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


@dataclass(frozen=True)
class CellFailure:
    """One cell that kept failing after every retry."""

    config: ExperimentConfig
    error: str
    traceback: str
    attempts: int


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one :func:`run_sweep` call."""

    cells: tuple[ExperimentConfig, ...]
    results: dict[ExperimentConfig, ExperimentResult]
    failed: tuple[CellFailure, ...]
    #: Cells actually executed this run (misses) vs. served from cache.
    ran: int
    cached: int
    jobs: int
    wall_time: float
    #: Sum of per-cell execution times (the serial-equivalent cost).
    cell_time: float

    @property
    def ok(self) -> bool:
        """True when every cell produced a result."""
        return not self.failed

    @property
    def speedup(self) -> float:
        """Serial-equivalent cell time over wall time (>=1 when the pool
        or the cache paid off; 0.0 for an all-cached instant run)."""
        if self.wall_time <= 0.0:
            return 0.0
        return self.cell_time / self.wall_time

    def result(self, config: ExperimentConfig) -> ExperimentResult:
        """Result for one cell; raises with the failure detail if it died."""
        try:
            return self.results[config]
        except KeyError:
            for failure in self.failed:
                if failure.config == config:
                    raise RuntimeError(
                        f"cell {_cell_label(config)} failed after "
                        f"{failure.attempts} attempts:\n{failure.traceback}"
                    ) from None
            raise KeyError(f"{config} was not part of this sweep") from None

    def raise_failures(self) -> None:
        """Raise a summary ``RuntimeError`` if any cell failed."""
        if not self.failed:
            return
        detail = "\n".join(
            f"- {_cell_label(f.config)} ({f.attempts} attempts): "
            f"{f.error}\n{f.traceback}"
            for f in self.failed
        )
        raise RuntimeError(
            f"{len(self.failed)}/{len(self.cells)} sweep cells failed:\n"
            f"{detail}"
        )

    def summary(self) -> str:
        """One-line accounting string for logs and the CLI."""
        return (
            f"{len(self.cells)} cells: {self.ran} run, {self.cached} cached, "
            f"{len(self.failed)} failed in {self.wall_time:.1f}s "
            f"({self.jobs} jobs, {self.speedup:.1f}x vs serial)"
        )


def _run_cell(config: ExperimentConfig, faults=None, guard=None):
    """Pool worker: run one cell, trapping the exception *in the child*
    so only plain strings cross the process boundary."""
    start = time.perf_counter()
    try:
        result = run_experiment(
            config, RunOptions(faults=faults, guard=guard))
        return result, time.perf_counter() - start, None, None
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return (None, time.perf_counter() - start,
                f"{type(exc).__name__}: {exc}", traceback.format_exc())


def run_sweep(
    sweep: Union[Sweep, Iterable[ExperimentConfig]],
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_store: Optional[ResultCache] = None,
    retries: int = 1,
    progress: Optional[ProgressFn] = None,
    options: Optional[RunOptions] = None,
) -> SweepReport:
    """Run every cell of ``sweep``; never raises for individual cells.

    ``jobs=None`` reads ``REPRO_JOBS`` (default ``cpu_count - 1``);
    ``jobs=1`` runs serially in-process.  ``cache=False`` bypasses the
    result store entirely (no reads, no writes).  Each failing cell is
    retried ``retries`` more times before landing in ``report.failed``.

    Harness options arrive via ``options=``
    (:class:`~repro.server.options.RunOptions`).  Fields a
    process-pooled sweep cannot honour (``tracer``, ``recorder``,
    ``audit``, ``workload``) are rejected.

    ``options.faults`` (a :class:`~repro.faults.FaultSchedule`) and
    ``options.guard`` (a :class:`~repro.server.slo.SloGuard`) apply to
    **every** cell; the cache keys them separately from fault-free
    cells, and schedules pickle cleanly across the process pool, so
    fault-injected sweeps are exactly as parallel and cacheable as
    fault-free ones.

    ``options.metrics`` (a :class:`repro.obs.MetricsRegistry`) receives
    live ``sweep_cache_hits_total`` / ``sweep_cache_misses_total``
    counters, a ``sweep_last_cell_seconds`` gauge, and a
    ``sweep_cell_seconds`` histogram — updated as cells resolve so a
    progress callback can read them mid-sweep.
    """
    opts = options if options is not None else RunOptions()
    reject_unsupported("run_sweep", opts, "tracer", "recorder", "audit",
                       "workload")
    metrics, faults, guard = opts.metrics, opts.faults, opts.guard
    cells = Sweep(sweep).cells if not isinstance(sweep, Sweep) \
        else sweep.cells
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    store = (cache_store if cache_store is not None else default_cache()) \
        if cache else None

    m_hits = m_misses = m_last = m_hist = None
    if metrics is not None:
        m_hits = metrics.counter(
            "sweep_cache_hits_total", "Result-cache hits during the sweep")
        m_misses = metrics.counter(
            "sweep_cache_misses_total", "Result-cache misses during the sweep")
        m_last = metrics.gauge(
            "sweep_last_cell_seconds",
            "Wall time of the most recently executed cell")
        m_hist = metrics.histogram(
            "sweep_cell_seconds", "Per-cell execution wall time")

    start = time.perf_counter()
    results: dict[ExperimentConfig, ExperimentResult] = {}
    cached = 0
    cell_time = 0.0
    done = 0
    total = len(cells)

    def tick(config: ExperimentConfig) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, _cell_label(config))

    if store is not None:
        for config in cells:
            hit = store.get(config, faults=faults, guard=guard)
            if hit is not None:
                results[config] = hit
                cached += 1
                if m_hits is not None:
                    m_hits.inc()
                tick(config)
            elif m_misses is not None:
                m_misses.inc()
    elif m_misses is not None:
        m_misses.inc(len(cells))

    pending = [c for c in cells if c not in results]
    attempts = {c: 0 for c in pending}
    last_error: dict[ExperimentConfig, tuple[str, str]] = {}

    def record(config: ExperimentConfig, outcome) -> None:
        nonlocal cell_time
        result, duration, error, tb = outcome
        cell_time += duration
        attempts[config] += 1
        if m_last is not None:
            m_last.set(duration)
            m_hist.observe(duration)
        if result is not None:
            results[config] = result
            if store is not None:
                store.put(config, result, faults=faults, guard=guard)
            tick(config)
        else:
            last_error[config] = (error, tb)

    for round_index in range(retries + 1):
        pending = [c for c in cells
                   if c not in results and attempts[c] == round_index]
        if not pending:
            break
        # Sized per round: a retry round usually has far fewer cells
        # than the first pass, so it should not spawn the full pool.
        workers = min(jobs, len(pending))
        if workers == 1:
            for config in pending:
                record(config, _run_cell(config, faults, guard))
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {pool.submit(_run_cell, c, faults, guard): c
                           for c in pending}
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(
                        remaining, return_when=FIRST_COMPLETED)
                    for future in finished:
                        config = futures[future]
                        try:
                            outcome = future.result()
                        except Exception as exc:  # pool/pickle breakage
                            outcome = (None, 0.0,
                                       f"{type(exc).__name__}: {exc}",
                                       traceback.format_exc())
                        record(config, outcome)

    failed = tuple(
        CellFailure(config=c, error=last_error[c][0],
                    traceback=last_error[c][1], attempts=attempts[c])
        for c in cells if c not in results
    )
    for failure in failed:
        tick(failure.config)

    return SweepReport(
        cells=cells,
        results=results,
        failed=failed,
        ran=len(results) - cached,
        cached=cached,
        jobs=jobs,
        wall_time=time.perf_counter() - start,
        cell_time=cell_time,
    )
