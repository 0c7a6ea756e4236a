"""Architected Queuing Language (AQL) packets.

ROCm submits work to the GPU as AQL packets in software HSA queues (paper
Section IV-D1): kernel-dispatch packets, and barrier-AND packets that hold
the queue until their dependency signals fire.  KRISP's hardware proposal
extends the kernel-dispatch packet with a *partition size* field (carried
here by :attr:`KernelLaunch.requested_cus`); the emulation methodology
relies on barrier packets with runtime callbacks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.gpu.kernel import KernelLaunch
from repro.sim.process import Signal

__all__ = ["AqlPacket", "KernelDispatchPacket", "BarrierAndPacket"]

_packet_ids = itertools.count()


@dataclass
class AqlPacket:
    """Common base: every packet gets an id and a completion signal."""

    completion_signal: Optional[Signal] = None
    packet_id: int = field(default_factory=_packet_ids.__next__)


@dataclass
class KernelDispatchPacket(AqlPacket):
    """Launches a kernel.

    ``barrier`` mirrors the AQL barrier bit: when set (HIP stream
    semantics, the default) the packet processor waits for all prior
    packets in the queue to complete before launching, serialising the
    stream.  The KRISP partition-size extension rides along in
    ``launch.requested_cus``.
    """

    launch: KernelLaunch = None  # type: ignore[assignment]
    barrier: bool = True

    def __post_init__(self) -> None:
        if self.launch is None:
            raise ValueError("KernelDispatchPacket requires a launch")


@dataclass
class BarrierAndPacket(AqlPacket):
    """Blocks the queue until every dependency signal has fired.

    ``on_consumed`` models the runtime callback hook the emulation uses:
    it runs when the hardware consumes the packet (after the dependencies
    resolve), *before* the completion signal fires.
    """

    dep_signals: Sequence[Signal] = ()
    on_consumed: Optional[Callable[[], None]] = None
