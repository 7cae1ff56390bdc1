"""Addressing, NAT and plain-IP reachability.

Every network endpoint (a VM) carries an :class:`Address` of the network
it currently lives in.  Under plain IP, the address is tied to the site's
network — so a VM migrated to another site *must* change address, which
is precisely why classic live migration cannot cross LAN boundaries
(paper §III, reason 1).  The ViNe overlay assigns location-independent
overlay addresses instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Protocol

from .topology import Topology


@dataclass(frozen=True)
class Address:
    """A network address: (network id, host id).

    For plain IP the network id is the site name; for ViNe it is the
    overlay network id.
    """

    network: str
    host: int

    def __str__(self):
        return f"{self.network}/{self.host}"


class Endpoint(Protocol):
    """What the connection layer needs from a communication endpoint."""

    name: str

    @property
    def site(self) -> str:
        """Name of the site where the endpoint currently runs."""
        ...  # pragma: no cover

    @property
    def address(self) -> Address:
        """The endpoint's current address."""
        ...  # pragma: no cover


class AddressPool:
    """Allocates host ids within one network, never reusing them."""

    def __init__(self, network: str):
        self.network = network
        self._next = 1
        self._allocated: Dict[int, str] = {}

    def allocate(self, owner: str = "") -> Address:
        """Hand out the next free address in this network."""
        host = self._next
        self._next += 1
        self._allocated[host] = owner
        return Address(self.network, host)

    def release(self, address: Address) -> None:
        """Return an address to the pool (id is retired, not reused)."""
        if address.network != self.network:
            raise ValueError(f"{address} does not belong to network {self.network!r}")
        self._allocated.pop(address.host, None)

    @property
    def in_use(self) -> int:
        return len(self._allocated)


class Route:
    """The outcome of resolving a connection's path at one instant."""

    __slots__ = ("src_site", "dst_site", "overhead_factor", "extra_latency",
                 "rate_cap")

    def __init__(self, src_site: str, dst_site: str,
                 overhead_factor: float = 1.0, extra_latency: float = 0.0,
                 rate_cap: Optional[float] = None):
        self.src_site = src_site
        self.dst_site = dst_site
        #: Multiplier on payload bytes (e.g. overlay encapsulation).
        self.overhead_factor = overhead_factor
        #: Additional latency (e.g. a relay through overlay routers).
        self.extra_latency = extra_latency
        #: Throughput ceiling (e.g. a user-level overlay router).
        self.rate_cap = rate_cap


class Resolver(Protocol):
    """Maps (src endpoint, dst endpoint) to a momentary route or None."""

    def resolve(self, src: Endpoint, dst: Endpoint) -> Optional[Route]:
        ...  # pragma: no cover


class PlainIPResolver:
    """Direct site-to-site routing with NAT/firewall semantics.

    A route exists only if the destination site is directly reachable
    (public addresses, open firewall) — and, crucially, only while both
    endpoints still hold the addresses they had when the connection was
    established.  Address changes are detected by the connection layer.
    """

    def __init__(self, topology: Topology):
        self.topology = topology

    def resolve(self, src: Endpoint, dst: Endpoint) -> Optional[Route]:
        if not self.topology.reachable_directly(src.site, dst.site):
            return None
        # Plain IP addresses are site-bound: an endpoint whose address
        # network no longer matches where it runs is unreachable.
        if dst.address.network != dst.site or src.address.network != src.site:
            return None
        return Route(src.site, dst.site)
