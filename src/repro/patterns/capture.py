"""Hypervisor-level traffic capture (the paper's §III-C framework).

    "...a transparent framework using network packet capture at the
    hypervisor level in order to infer communication patterns in a
    virtual cluster."

The :class:`HypervisorSniffer` taps the flow scheduler's completion
records — the simulation equivalent of running libpcap on each host's
virtual NICs.  It is *transparent*: it needs no guest cooperation, sees
only what crosses the (virtual) wire, and attributes bytes to VM pairs
from packet headers (flow metadata here).  What it measures differs
from application truth exactly the way a real capture does:

* it sees **wire volume** (payload + protocol framing), not app bytes;
* optional **packet sampling** (capture 1 packet in N, scale up) adds
  estimation noise;
* it only observes VMs on *monitored* hosts.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

import numpy as np

from ..network.flows import FlowRecord, FlowScheduler
from ..network.packets import record_packets
from .matrix import TrafficMatrix


class HypervisorSniffer:
    """Passive per-VM traffic observer built on scheduler taps.

    It taps the :class:`~repro.network.flows.FlowScheduler` itself, so it
    sees every transfer regardless of which layer started it."""

    def __init__(self, scheduler: FlowScheduler,
                 monitored_vms: Optional[Iterable[str]] = None,
                 sampling_rate: float = 1.0,
                 rng: Optional[np.random.Generator] = None,
                 tags: Optional[Set[str]] = None):
        if not 0 < sampling_rate <= 1:
            raise ValueError("sampling_rate must be in (0, 1]")
        self.scheduler = scheduler
        #: VM names to observe (None = every VM-attributed flow).
        self.monitored: Optional[Set[str]] = (
            set(monitored_vms) if monitored_vms is not None else None
        )
        self.sampling_rate = sampling_rate
        self.rng = rng or np.random.default_rng(0)
        #: Restrict to flow tags (e.g. {"mr-shuffle"}); None = all.
        self.tags = tags
        self.matrix = TrafficMatrix()
        self.packets_seen = 0
        self.flows_seen = 0
        self.scheduler.taps.append(self._observe)

    def detach(self) -> None:
        """Stop capturing."""
        try:
            self.scheduler.taps.remove(self._observe)
        except ValueError:
            pass

    def _observe(self, record: FlowRecord) -> None:
        src = record.meta.get("src_vm")
        dst = record.meta.get("dst_vm")
        if src is None or dst is None:
            return  # not VM traffic (infrastructure transfer)
        if self.tags is not None and record.tag not in self.tags:
            return
        if self.monitored is not None and (src not in self.monitored
                                           and dst not in self.monitored):
            return
        self.flows_seen += 1
        packets = record_packets(record)
        if self.sampling_rate >= 1.0:
            seen = packets
            estimate = float(record.size)
        else:
            # Sampled capture: observe a binomial subset of packets,
            # scale the volume estimate back up.
            seen = int(self.rng.binomial(packets, self.sampling_rate))
            estimate = (seen / self.sampling_rate) * (
                record.size / packets if packets else 0.0
            )
        self.packets_seen += seen
        if estimate > 0:
            self.matrix.record(src, dst, estimate)
