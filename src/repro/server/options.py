"""The shared harness-option surface for every experiment runner.

Every runner grew the same observability and resilience keywords one PR
at a time — ``tracer=``, ``recorder=``, ``metrics=``, ``sample_interval=``,
``faults=``, ``guard=``, ``audit=``, ``workload=`` — and a second device
would have doubled the sprawl.  :class:`RunOptions` is the one frozen
carrier for all of them, and the only way to pass them: build it once
and hand it to :func:`~repro.server.experiment.run_experiment`,
:func:`~repro.server.rate_experiment.run_rate_experiment`,
:func:`~repro.exp.sweep.run_sweep`,
:func:`~repro.exp.load.run_load_curve` or
:func:`~repro.cluster.experiment.run_cluster_experiment` as ``options=``.

Each runner supports a subset of the fields (``run_experiment`` has no
``workload``; ``run_sweep`` cannot carry a live ``tracer`` across a
process pool) and rejects the rest via :func:`reject_unsupported` so a
misdirected option fails loudly instead of being silently dropped.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional

__all__ = ["RunOptions", "reject_unsupported"]

#: Sample interval threaded to :class:`~repro.obs.sampler.SimSampler`
#: when ``metrics`` is given (matches the sampler's own default).
DEFAULT_SAMPLE_INTERVAL = 250e-6


@dataclass(frozen=True)
class RunOptions:
    """Shared harness options accepted by every experiment runner.

    All fields default to "off", so ``RunOptions()`` (or
    ``options=None``) runs with no harness hooks at all.  The dataclass is
    frozen: derive variants with :meth:`replace`.
    """

    #: Event tracer (:class:`~repro.obs.tracer.EventTracer`) attached to
    #: the simulator; pure observation, never perturbs results.
    tracer: Any = None
    #: Flight recorder (:class:`~repro.obs.flight.FlightRecorder`) for
    #: per-request latency attribution.
    recorder: Any = None
    #: Metrics registry (:class:`~repro.obs.metrics.MetricsRegistry`);
    #: when given, a :class:`~repro.obs.sampler.SimSampler` runs at
    #: ``sample_interval``.
    metrics: Any = None
    #: Seconds between metric samples (used only with ``metrics``).
    sample_interval: float = DEFAULT_SAMPLE_INTERVAL
    #: Fault schedule (:class:`~repro.faults.schedule.FaultSchedule`)
    #: armed against the run.
    faults: Any = None
    #: SLO guard (:class:`~repro.server.slo.SloGuard`) for admission
    #: control, deadline shedding and retry budgets.
    guard: Any = None
    #: Post-run audit hook ``audit(setup, injector)`` (see
    #: :mod:`repro.check`): runs before teardown, may raise.
    audit: Optional[Callable[..., Any]] = None
    #: Workload spec (open-loop runners only).
    workload: Any = None

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be > 0, got {self.sample_interval}")

    def replace(self, **changes: Any) -> "RunOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)


def reject_unsupported(caller: str, options: RunOptions,
                       *fields: str) -> None:
    """Raise if ``options`` sets a field ``caller`` cannot honour.

    A silently-ignored tracer or workload would corrupt an analysis
    without a trace; unsupported fields are a hard error instead.
    """
    defaults = RunOptions()
    offending = [name for name in fields
                 if getattr(options, name) != getattr(defaults, name)]
    if offending:
        raise ValueError(
            f"{caller}() does not support RunOptions field(s) "
            f"{', '.join(sorted(offending))}")
