"""Sites, links and the multi-cloud topology graph.

A :class:`Site` models one data center / cloud region: it has a LAN
(bandwidth + latency), an addressing regime (public or private/NATed) and
an optional firewall that blocks unsolicited inbound connections —
exactly the obstacles the paper's ViNe overlay exists to overcome.

Sites are connected by full-duplex :class:`Link` objects (one
:class:`DirectedLink` per direction) arranged in a
:class:`Topology`, a dict-of-dicts digraph.  Paths are shortest-latency
(bidirectional Dijkstra) and cached until the topology changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Tuple

from .units import Gbit


class NetworkError(Exception):
    """Base class for network-substrate errors."""


class NoRoute(NetworkError):
    """There is no path between the requested endpoints."""


@dataclass(eq=False)
class DirectedLink:
    """One direction of a physical link: a shared-bandwidth pipe.

    Links are unique objects owned by their :class:`Topology`, so they
    compare and hash by identity: the allocator's link-keyed dicts and
    sets then hash in C, and a capacity change (``bandwidth`` is
    mutable) never changes what a link equals.
    """

    src: str
    dst: str
    bandwidth: float  # bytes/second
    latency: float  # seconds (one-way)

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    def __repr__(self):
        return f"<Link {self.src}->{self.dst} {self.bandwidth:.3g} B/s>"


@dataclass
class Site:
    """A cloud site (data center): LAN characteristics and reachability.

    Parameters
    ----------
    name:
        Unique site identifier, e.g. ``"rennes"``.
    lan_bandwidth, lan_latency:
        Capacity and one-way latency of the internal LAN, shared by all
        intra-site flows.
    public_addresses:
        True if VMs at this site receive publicly routable addresses.
        Private sites sit behind NAT and cannot accept unsolicited
        inbound traffic without an overlay.
    firewall_inbound_open:
        True if the site firewall accepts unsolicited inbound
        connections from other sites.
    """

    name: str
    lan_bandwidth: float = 1 * Gbit
    lan_latency: float = 0.0005
    public_addresses: bool = True
    firewall_inbound_open: bool = True
    #: Free-form annotations (provider, country, ...).
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.lan_bandwidth <= 0:
            raise ValueError("lan_bandwidth must be positive")

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<Site {self.name}>"


class Topology:
    """The inter-site network graph.

    Examples
    --------
    >>> from repro.network.units import Mbit
    >>> topo = Topology()
    >>> a = topo.add_site(Site("a"))
    >>> b = topo.add_site(Site("b"))
    >>> topo.connect("a", "b", bandwidth=100 * Mbit, latency=0.05)
    >>> [l.dst for l in topo.path("a", "b")]
    ['b']
    """

    def __init__(self):
        #: site -> neighbour -> link, neighbours in link insertion order
        #: (re-adding a link keeps its slot; removing it gives it up).
        self._succ: Dict[str, Dict[str, DirectedLink]] = {}
        self._sites: Dict[str, Site] = {}
        self._lan_links: Dict[str, DirectedLink] = {}
        self._path_cache: Dict[Tuple[str, str], List[DirectedLink]] = {}
        self._listeners: List = []

    # -- change notification -------------------------------------------------

    def attach(self, listener) -> None:
        """Register an object whose ``links_changed(links)`` method is
        called whenever link capacities change at runtime
        (:class:`~repro.network.flows.FlowScheduler` attaches itself)."""
        if not any(l is listener for l in self._listeners):
            self._listeners.append(listener)

    def detach(self, listener) -> None:
        """Stop notifying ``listener`` of capacity changes."""
        self._listeners = [l for l in self._listeners if l is not listener]

    # -- construction ------------------------------------------------------

    def add_site(self, site: Site) -> Site:
        """Register a site; returns it for chaining."""
        if site.name in self._sites:
            raise ValueError(f"site {site.name!r} already exists")
        self._sites[site.name] = site
        self._succ[site.name] = {}
        # The LAN is modeled as a single shared pipe within the site.
        self._lan_links[site.name] = DirectedLink(
            src=site.name, dst=site.name,
            bandwidth=site.lan_bandwidth, latency=site.lan_latency,
        )
        self._path_cache.clear()
        return site

    def connect(self, a: str, b: str, bandwidth: float, latency: float,
                bandwidth_reverse: Optional[float] = None) -> None:
        """Create a full-duplex WAN link between sites ``a`` and ``b``."""
        for name in (a, b):
            if name not in self._sites:
                raise KeyError(f"unknown site {name!r}")
        if a == b:
            raise ValueError("cannot connect a site to itself (LAN is implicit)")
        fwd = DirectedLink(a, b, bandwidth, latency)
        if bandwidth_reverse is None:
            bandwidth_reverse = bandwidth
        rev = DirectedLink(b, a, bandwidth_reverse, latency)
        self._succ[a][b] = fwd
        self._succ[b][a] = rev
        self._path_cache.clear()

    def disconnect(self, a: str, b: str) -> None:
        """Remove the link between ``a`` and ``b`` (both directions)."""
        if b not in self._succ.get(a, ()):
            raise KeyError(f"no link between {a!r} and {b!r}")
        del self._succ[a][b]
        del self._succ[b][a]
        self._path_cache.clear()

    def set_bandwidth(self, a: str, b: str, bandwidth: float,
                      both_directions: bool = True) -> None:
        """Change a link's capacity at runtime (WAN congestion, QoS
        re-provisioning).  Attached schedulers are notified, so
        in-flight flows are re-rated at once."""
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        try:
            fwd = self._succ[a][b]
            rev = self._succ[b][a] if both_directions else None
        except KeyError:
            raise KeyError(f"no link between {a!r} and {b!r}") from None
        fwd.bandwidth = bandwidth
        changed = [fwd]
        if rev is not None:
            rev.bandwidth = bandwidth
            changed.append(rev)
        for listener in list(self._listeners):
            listener.links_changed(changed)

    # -- queries -------------------------------------------------------------

    @property
    def sites(self) -> Dict[str, Site]:
        """Mapping of site name to :class:`Site` (read-only by convention)."""
        return self._sites

    def site(self, name: str) -> Site:
        """Look up a site by name."""
        try:
            return self._sites[name]
        except KeyError:
            raise KeyError(f"unknown site {name!r}") from None

    def lan(self, name: str) -> DirectedLink:
        """The LAN pipe of a site."""
        return self._lan_links[name]

    def path(self, src: str, dst: str) -> List[DirectedLink]:
        """Shortest-latency directed path ``src -> dst`` as link objects.

        For ``src == dst`` the path is the site's LAN pipe.  Raises
        :class:`NoRoute` when the sites are disconnected.
        """
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            path = [self._lan_links[src]]
        else:
            nodes = self._shortest(src, dst)
            path = [self._succ[u][v] for u, v in zip(nodes, nodes[1:])]
        self._path_cache[key] = path
        return path

    def _shortest(self, src: str, dst: str) -> List[str]:
        """Sites on a least-latency route: bidirectional Dijkstra.

        Ties are broken as ``tests/golden/topology_paths.json`` pins
        them: the two searches take turns, each popping a heap of
        ``(dist, counter, site)``; relaxation is strict, neighbours are
        visited in link insertion order, and the first cheapest meeting
        site wins.  Links come in pairs of equal latency, so the
        backward search walks ``_succ`` too.
        """
        succ = self._succ
        if src not in succ or dst not in succ:
            raise NoRoute(f"no route from {src!r} to {dst!r}")
        done: List[set] = [set(), set()]
        seen: List[Dict[str, float]] = [{src: 0}, {dst: 0}]
        pred: List[Dict[str, Optional[str]]] = [{src: None}, {dst: None}]
        tick = count()

        def chain(node, way):
            out = []
            while node is not None:
                out.append(node)
                node = pred[way][node]
            return out

        fringe = [[(0, next(tick), src)], [(0, next(tick), dst)]]
        best = meet = None
        side = 1
        while fringe[0] and fringe[1]:
            side = 1 - side
            dist, _, v = heappop(fringe[side])
            if v in done[side]:
                continue
            done[side].add(v)
            if v in done[1 - side]:
                return chain(meet, 0)[::-1] + chain(pred[1][meet], 1)
            for w, link in succ[v].items():
                d = dist + link.latency
                if w in done[side] or (w in seen[side] and d >= seen[side][w]):
                    continue
                seen[side][w] = d
                heappush(fringe[side], (d, next(tick), w))
                pred[side][w] = v
                if w in seen[1 - side]:
                    total = d + seen[1 - side][w]
                    if best is None or best > total:
                        best, meet = total, w
        raise NoRoute(f"no route from {src!r} to {dst!r}")

    def path_latency(self, src: str, dst: str) -> float:
        """One-way latency along the chosen path."""
        return sum(link.latency for link in self.path(src, dst))

    def reachable_directly(self, src: str, dst: str) -> bool:
        """Can ``src`` open an unsolicited connection straight to ``dst``?

        Cross-site traffic requires the destination to have public
        addresses and an open firewall; this is the connectivity gap the
        ViNe overlay fills.
        """
        if src == dst:
            return True
        try:
            self.path(src, dst)
        except NoRoute:
            return False
        dst_site = self.site(dst)
        return dst_site.public_addresses and dst_site.firewall_inbound_open

    def __repr__(self):
        return (f"<Topology sites={len(self._sites)} "
                f"links={sum(map(len, self._succ.values())) // 2}>")
