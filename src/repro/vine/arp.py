"""ARP-level mechanics of migration detection (paper §III-B).

    "Our approach is based on standard networking techniques such as
    ARP proxy and gratuitous ARP messages."

Two mechanisms, both modeled explicitly:

* **Gratuitous ARP** — when a migrated guest resumes, it broadcasts an
  ARP announcement on its new LAN (standard guest behavior after
  migration).  The local ViNe router hears it after the LAN's latency
  plus a processing delay: that is the *detection* event that starts
  reconfiguration.
* **ARP proxy** — at the *source* site, the ViNe router answers ARP
  queries for the departed VM with its own MAC, so same-LAN peers keep
  a next hop and hand their packets to the router instead of failing
  hard on ARP timeout.  The proxy entry is withdrawn once the router
  learns the VM's new location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..network.topology import Topology
from ..simkernel.core import Simulator
from ..simkernel.process import Process


@dataclass(frozen=True)
class GratuitousArp:
    """One gratuitous ARP announcement as observed by a router."""

    vm_name: str
    overlay_host: int
    site: str
    emitted_at: float
    observed_at: float

    @property
    def detection_latency(self) -> float:
        return self.observed_at - self.emitted_at


def emit_gratuitous_arp(sim: Simulator, topology: Topology, vm_name: str,
                        overlay_host: int, site: str,
                        router_pickup: float = 0.05) -> Process:
    """Broadcast a gratuitous ARP at ``site``; yields the
    :class:`GratuitousArp` once the local ViNe router has observed it
    (LAN propagation + router pickup)."""

    def _emit():
        emitted = sim.now
        lan = topology.lan(site)
        yield sim.timeout(lan.latency + router_pickup)
        return GratuitousArp(
            vm_name=vm_name,
            overlay_host=overlay_host,
            site=site,
            emitted_at=emitted,
            observed_at=sim.now,
        )

    return sim.process(_emit(), name=f"garp-{vm_name}")


class ArpProxyTable:
    """Per-router proxy-ARP entries for departed VMs."""

    def __init__(self, site: str):
        self.site = site
        self._entries: Dict[int, float] = {}
        self.engaged_total = 0

    def engage(self, overlay_host: int, at: float) -> None:
        """Start answering ARP for a departed VM."""
        if overlay_host not in self._entries:
            self._entries[overlay_host] = at
            self.engaged_total += 1

    def release(self, overlay_host: int) -> Optional[float]:
        """Withdraw the proxy entry; returns how long it was engaged."""
        since = self._entries.pop(overlay_host, None)
        return since

    def is_proxying(self, overlay_host: int) -> bool:
        return overlay_host in self._entries

    def __len__(self) -> int:
        return len(self._entries)
