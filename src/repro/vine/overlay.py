"""The ViNe virtual network overlay.

Provides what the paper uses ViNe for (§II): **all-to-all connectivity**
between VMs spread over clouds with firewalls, NAT and private
addressing — plus what the thesis *adds* to ViNe (§III-B): transparent
reconfiguration when a VM migrates between clouds, so its overlay
address (and therefore its TCP connections) survives.

Model:

* one :class:`~repro.vine.router.ViNeRouter` per participating site;
* VMs join the overlay and receive a location-independent overlay
  address in the ``vine0`` network;
* the overlay's :meth:`ViNeOverlay.resolve` implements the
  :class:`repro.network.nat.Resolver` protocol: it consults the *source
  site's* router table.  A stale entry (the VM migrated, the update has
  not reached this router yet — or reconfiguration is disabled) routes
  packets to the wrong site, observed by the sender as packet loss, i.e.
  ``resolve`` returns ``None``;
* tunnels to NATed/firewalled sites detour through a public relay
  router, adding the triangle latency — ViNe's queue-based traversal.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..network.nat import Address, AddressPool, Endpoint, Route
from ..network.topology import Topology
from ..simkernel.core import Simulator
from .router import ViNeRouter

#: Overlay network id used in VM addresses.
VINE_NETWORK = "vine0"

#: IP-in-UDP encapsulation overhead of the overlay datapath.
ENCAPSULATION_OVERHEAD = 1.05


class OverlayError(Exception):
    """Misuse of the overlay (unknown site, unregistered VM, ...)."""


class ViNeOverlay:
    """A deployed ViNe overlay across a set of sites."""

    def __init__(self, sim: Simulator, topology: Topology,
                 sites: Iterable[str],
                 router_throughput: Optional[float] = None,
                 relay_site: Optional[str] = None):
        self.sim = sim
        self.topology = topology
        self.routers: Dict[str, ViNeRouter] = {}
        for name in sites:
            topology.site(name)  # validate
            self.routers[name] = ViNeRouter(name)
        if not self.routers:
            raise OverlayError("an overlay needs at least one site")
        #: Cap imposed by the user-level router datapath (bytes/s).
        self.router_throughput = router_throughput
        #: Site used to relay tunnels towards NATed/firewalled sites.
        self.relay_site = relay_site or self._pick_relay()
        #: VMs currently joined, by overlay host id.
        self.members: Dict[int, Endpoint] = {}
        self._pool = AddressPool(VINE_NETWORK)

    def _pick_relay(self) -> Optional[str]:
        for name, router in self.routers.items():
            site = self.topology.site(name)
            if site.public_addresses and site.firewall_inbound_open:
                return name
        return None

    # -- membership ----------------------------------------------------------

    def register(self, vm: Endpoint) -> Address:
        """Join a VM: allocate its overlay address, announce its location."""
        if vm.site not in self.routers:
            raise OverlayError(f"site {vm.site!r} is not part of this overlay")
        address = self._pool.allocate(vm.name)
        vm.address = address
        self.members[address.host] = vm
        # Join-time configuration reaches every router (it is part of
        # the virtual network descriptor distributed by ViNe).
        for router in self.routers.values():
            router.update(address.host, vm.site)
        return address

    def unregister(self, vm: Endpoint) -> None:
        """Remove a VM from the overlay."""
        host = vm.address.host
        self.members.pop(host, None)
        for router in self.routers.values():
            router.forget(host)
        self._pool.release(vm.address)

    def router_of(self, site: str) -> ViNeRouter:
        try:
            return self.routers[site]
        except KeyError:
            raise OverlayError(f"no ViNe router at site {site!r}") from None

    # -- Resolver protocol ---------------------------------------------------

    def resolve(self, src: Endpoint, dst: Endpoint) -> Optional[Route]:
        """Route ``src -> dst`` through the overlay, or ``None`` if the
        source-side router's location entry is stale/missing."""
        if src.site not in self.routers:
            return None
        src_router = self.routers[src.site]
        if dst.address.network != VINE_NETWORK:
            return None
        believed = src_router.lookup(dst.address.host)
        if believed is None or believed != dst.site:
            # Stale location: packets chase the old site and are lost.
            return None
        extra = 2 * src_router.processing_delay
        dst_site_obj = self.topology.site(dst.site)
        needs_relay = not (dst_site_obj.public_addresses
                           and dst_site_obj.firewall_inbound_open)
        if needs_relay and src.site != dst.site:
            if self.relay_site is None:
                return None
            # Queue-based traversal: triangle detour via the relay.
            direct = self.topology.path_latency(src.site, dst.site)
            detour = (self.topology.path_latency(src.site, self.relay_site)
                      + self.topology.path_latency(self.relay_site, dst.site))
            extra += max(0.0, detour - direct)
        return Route(
            src.site, dst.site,
            overhead_factor=ENCAPSULATION_OVERHEAD,
            extra_latency=extra,
            rate_cap=self.router_throughput,
        )

    # -- queries -------------------------------------------------------------

    def stale_routers(self, vm: Endpoint) -> List[str]:
        """Sites whose routers still hold an outdated location for ``vm``."""
        host = vm.address.host
        return [
            name for name, router in self.routers.items()
            if router.lookup(host) != vm.site
        ]

    def __repr__(self):
        return (f"<ViNeOverlay sites={sorted(self.routers)} "
                f"members={len(self.members)}>")
