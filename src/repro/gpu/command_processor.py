"""GPU command processor (packet processor + dispatcher front end).

The command processor drains AQL packets from every registered HSA queue
in order.  For kernel-dispatch packets it decides the kernel's CU mask:

* **Baseline** — the kernel inherits its queue's stream-scoped CU mask
  (AMD CU-masking API semantics, paper Fig. 10a).
* **Kernel-scoped partition instances (KRISP)** — when a packet carries a
  partition size (``launch.requested_cus``) and a kernel-scoped allocator
  is installed, the packet processor runs resource-mask generation
  (Algorithm 1) against the live per-CU kernel counters, paying a small
  firmware latency (the paper measured a 1 microsecond tail), and tags the
  kernel with the generated mask (paper Fig. 10b).

Packets with the AQL barrier bit wait for the previous packet in their
queue to complete before being consumed — this is how HIP streams
serialise kernels.  Barrier-AND packets wait on their dependency signals
and may invoke a runtime callback when consumed, which is the hook the
emulation methodology (Section V) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Protocol

from repro.gpu.aql import AqlPacket, BarrierAndPacket, KernelDispatchPacket
from repro.gpu.cu_mask import CUMask
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import KernelLaunch
from repro.gpu.queue import HsaQueue
from repro.sim.engine import Simulator
from repro.sim.process import Signal

__all__ = ["CommandProcessor", "CommandProcessorConfig", "KernelScopedAllocator"]


class KernelScopedAllocator(Protocol):
    """Interface the packet processor calls to right-size a kernel.

    Implemented by :class:`repro.core.krisp.KrispAllocator`; kept as a
    protocol so the GPU substrate does not depend on the KRISP core.
    """

    def allocate(self, launch: KernelLaunch, device: GpuDevice) -> CUMask:
        """Return the CU mask to enforce for this kernel."""
        ...


@dataclass(frozen=True)
class CommandProcessorConfig:
    """Firmware timing constants.

    ``packet_process_latency`` is the cost of consuming any AQL packet;
    ``mask_gen_latency`` is the extra firmware cost of running KRISP's
    resource-mask generation (the paper profiled a ~1 microsecond tail).
    """

    packet_process_latency: float = 0.5e-6
    mask_gen_latency: float = 1.0e-6

    def __post_init__(self) -> None:
        if self.packet_process_latency < 0 or self.mask_gen_latency < 0:
            raise ValueError("latencies must be >= 0")


class _QueueState:
    """Per-queue in-order processing state."""

    def __init__(self, queue: HsaQueue) -> None:
        self.queue = queue
        self.consuming = False
        self.last_completion: Optional[Signal] = None


class CommandProcessor:
    """Drains registered HSA queues into the device."""

    def __init__(
        self,
        sim: Simulator,
        device: GpuDevice,
        config: Optional[CommandProcessorConfig] = None,
        allocator: Optional[KernelScopedAllocator] = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.config = config or CommandProcessorConfig()
        self.allocator = allocator
        self._states: dict[int, _QueueState] = {}
        self.packets_consumed = 0
        self.masks_generated = 0

    def register_queue(self, queue: HsaQueue) -> None:
        """Attach a queue; its doorbell now drives packet processing."""
        if queue.queue_id in self._states:
            raise ValueError(f"queue {queue.name} already registered")
        if queue.topology != self.device.topology:
            raise ValueError("queue topology does not match device")
        state = _QueueState(queue)
        self._states[queue.queue_id] = state
        # The doorbell passes the queue; _drive ignores it.
        queue.attach_doorbell(partial(self._drive, state))

    # -- per-queue state machine --------------------------------------------
    def _drive(self, state: _QueueState, _unused: object = None) -> None:
        if state.consuming:
            return
        packet = state.queue.peek()
        if packet is None:
            return
        # A barrier-bit kernel waits for the previous packet to retire.
        previous = state.last_completion
        if (previous is not None and not previous.fired
                and isinstance(packet, KernelDispatchPacket)
                and packet.barrier):
            state.consuming = True
            previous.on_fire(partial(self._resume_after_wait, state))
            return
        self._consume(state)

    def _resume_after_wait(self, state: _QueueState,
                           _value: object = None) -> None:
        state.consuming = False
        self._drive(state)

    def _consume(self, state: _QueueState) -> None:
        packet = state.queue.pop()
        assert packet is not None
        state.consuming = True
        sim = self.sim
        sim.schedule(sim._now + self.config.packet_process_latency,
                     partial(self._process, state, packet))

    def _process(self, state: _QueueState, packet: AqlPacket) -> None:
        self.packets_consumed += 1
        if isinstance(packet, KernelDispatchPacket):
            use_allocator = (self.allocator is not None
                             and packet.launch.requested_cus is not None)
            # Resource-mask generation costs its firmware latency first.
            delay = self.config.mask_gen_latency if use_allocator else 0.0
            if delay > 0:
                sim = self.sim
                sim.schedule(sim._now + delay,
                             partial(self._dispatch, state, packet, True))
            else:
                self._dispatch(state, packet, use_allocator)
        elif isinstance(packet, BarrierAndPacket):
            self._process_barrier(state, packet)
        else:
            raise TypeError(f"unknown packet type {type(packet).__name__}")

    def _dispatch(self, state: _QueueState, packet: KernelDispatchPacket,
                  use_allocator: bool) -> None:
        launch = packet.launch
        if use_allocator:
            mask = self.allocator.allocate(launch, self.device)
            self.masks_generated += 1
            tracer = self.sim.tracer
            if tracer.enabled:
                tracer.mask_decision(launch, mask, self.device)
        else:
            mask = state.queue.cu_mask
        record = self.device.launch(launch, mask)
        if packet.completion_signal is not None:
            record.done.on_fire(packet.completion_signal.fire)
        state.last_completion = record.done
        state.consuming = False
        self._drive(state)

    def _process_barrier(
        self, state: _QueueState, packet: BarrierAndPacket
    ) -> None:
        pending = [s for s in packet.dep_signals if not s.fired]

        def finish() -> None:
            if packet.on_consumed is not None:
                packet.on_consumed()
            if packet.completion_signal is not None:
                packet.completion_signal.fire(None)
            state.last_completion = packet.completion_signal
            state.consuming = False
            self._drive(state)

        if not pending:
            finish()
            return
        remaining = len(pending)

        def one_fired(_value: object) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                finish()

        for signal in pending:
            signal.on_fire(one_fired)
