"""Kernel descriptors and launches.

A :class:`KernelDescriptor` carries everything the dispatcher-level timing
model needs about a GPU kernel: its workgroup count and shape, how long one
workgroup wave takes on an uncontended CU, how many of its workgroups fit
concurrently on one CU (occupancy), and how memory-bound it is.  These are
the same quantities the paper's profiler observes per kernel (kernel size,
input size, behaviour class).

A :class:`KernelLaunch` is one dynamic instance of a descriptor flowing
through a queue, optionally tagged with KRISP's requested partition size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["KernelDescriptor", "KernelLaunch"]

_launch_ids = itertools.count()


@dataclass(frozen=True)
class KernelDescriptor:
    """Static properties of a GPU kernel, as seen by the dispatcher.

    Attributes
    ----------
    name:
        Kernel symbol name (e.g. ``miopenSp3AsmConv_v21_1_2``).  Kernels
        with the same name share behaviour class, mirroring how the paper's
        performance database is keyed.
    workgroups:
        Number of workgroups (thread blocks) in the grid.
    threads_per_wg:
        Threads per workgroup; ``kernel_size`` is the product.
    wg_duration:
        Seconds for one *wave* of workgroups to retire on an uncontended CU.
    occupancy:
        Workgroups of this kernel concurrently resident per CU.
    mem_intensity:
        Fraction of execution bound by global memory bandwidth, in [0, 1].
        0 is pure compute; 1 is a pure streaming kernel.
    flat_time:
        CU-count-independent latency component in seconds — the
        memory-bandwidth / launch / serial portion of the kernel that
        does not speed up with more CUs.  Total isolated latency is
        ``flat_time + waves(mask) * wg_duration``.  A large flat share is
        what makes real GPU kernels tolerate CU restriction far below
        their grid size (the paper's Fig. 6a kernels above the thread
        limit with small minimum-CU requirements) while still exhibiting
        a sharp profiler kneepoint.
    bytes_in:
        Input data size in bytes (the x-axis of paper Fig. 6b).
    """

    name: str
    workgroups: int
    threads_per_wg: int = 256
    wg_duration: float = 5e-6
    occupancy: int = 4
    mem_intensity: float = 0.3
    flat_time: float = 0.0
    bytes_in: int = 0

    def __hash__(self) -> int:
        # Hash by (name, workgroups) alone — equality still compares
        # every field, but the generated dataclass hash re-tuples eight
        # fields per call and descriptors key the device's
        # launch-invariant memo on the hot path.  Same-named descriptors
        # differing only in batch scaling land in different buckets via
        # the workgroup count.
        return hash((self.name, self.workgroups))

    def __post_init__(self) -> None:
        if self.workgroups < 1:
            raise ValueError(f"{self.name}: workgroups must be >= 1")
        if self.threads_per_wg < 1:
            raise ValueError(f"{self.name}: threads_per_wg must be >= 1")
        if self.wg_duration <= 0:
            raise ValueError(f"{self.name}: wg_duration must be > 0")
        if self.occupancy < 1:
            raise ValueError(f"{self.name}: occupancy must be >= 1")
        if not 0.0 <= self.mem_intensity <= 1.0:
            raise ValueError(f"{self.name}: mem_intensity must be in [0, 1]")
        if self.flat_time < 0:
            raise ValueError(f"{self.name}: flat_time must be >= 0")
        if self.bytes_in < 0:
            raise ValueError(f"{self.name}: bytes_in must be >= 0")

    @property
    def kernel_size(self) -> int:
        """Total threads in the grid (paper Fig. 6a x-axis)."""
        return self.workgroups * self.threads_per_wg

    def scaled(self, factor: float) -> "KernelDescriptor":
        """A copy with the workgroup count scaled (used for batch sizing)."""
        return replace(
            self,
            workgroups=max(1, round(self.workgroups * factor)),
            bytes_in=max(0, round(self.bytes_in * factor)),
        )


@dataclass
class KernelLaunch:
    """One dynamic kernel invocation travelling through the stack.

    Attributes
    ----------
    descriptor:
        The kernel being launched.
    requested_cus:
        KRISP's injected partition size: the number of CUs this kernel was
        right-sized to, or ``None`` when no sizing information was attached
        (baseline behaviour — the kernel inherits its queue's mask).
    launch_id:
        Unique monotonically increasing id, for traces and metrics.
    tag:
        Free-form owner tag (worker name, model name) for bookkeeping.
    """

    descriptor: KernelDescriptor
    requested_cus: Optional[int] = None
    launch_id: int = field(default_factory=_launch_ids.__next__)
    tag: str = ""

    def __post_init__(self) -> None:
        if self.requested_cus is not None and self.requested_cus < 1:
            raise ValueError("requested_cus must be >= 1 when given")
