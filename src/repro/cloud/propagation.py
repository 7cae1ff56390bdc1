"""VM image propagation strategies (the paper's fast-instantiation work).

Deploying a virtual cluster means getting the image's data onto many
physical hosts.  The paper (§II) contributes two mechanisms on top of
the naive baseline, both reproduced here:

* :class:`UnicastPropagation` — the baseline: the repository node copies
  the full image to every host; the repository uplink is the bottleneck
  and deployment time grows **linearly** with cluster size.
* :class:`BroadcastChainPropagation` — Kastafior-style: hosts form a
  pipeline and the image streams through all of them at once; time is
  roughly **flat** in cluster size (one image transfer plus per-hop
  setup).
* :class:`CowPropagation` — copy-on-write backing images: if a host
  already caches the base image, instance creation moves (almost) no
  data — "near-instant virtual machine creation".  Cache misses fall
  back to the chained transfer of the base, so chain+CoW compose.

Each strategy implements ``deploy(image, hosts) -> process`` returning a
:class:`DeploymentStats`, a thin process over the ``propagate``
generator that provisioning runs inside its own batch; the per-host
:class:`HostImageCache` records which bases are already present.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from ..hypervisor.host import PhysicalHost
from ..network.flows import FlowScheduler
from ..network.transport import Transport
from ..obs.trace import tracer_of
from ..simkernel.core import Simulator
from ..simkernel.process import Process
from .images import VMImage


@dataclass
class DeploymentStats:
    """Outcome of propagating one image to a set of hosts."""

    image: str
    n_hosts: int
    bytes_moved: float
    started_at: float
    finished_at: float
    strategy: str
    cache_hits: int = 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class HostImageCache:
    """Which base images each host already holds."""

    def __init__(self):
        self._cache: Dict[str, Set[str]] = {}

    def has(self, host: PhysicalHost, image: str) -> bool:
        return image in self._cache.get(host.name, ())

    def put(self, host: PhysicalHost, image: str) -> None:
        self._cache.setdefault(host.name, set()).add(image)

    def evict(self, host: PhysicalHost, image: str) -> None:
        self._cache.get(host.name, set()).discard(image)


class _PropagationBase:
    """Common plumbing: simulator, flows, repository uplink cap."""

    #: Human-readable strategy id (overridden).
    name = "base"

    def __init__(self, sim: Simulator, scheduler: FlowScheduler,
                 cache: HostImageCache,
                 repo_uplink: float = 125e6):
        self.sim = sim
        self.transport = Transport.of(scheduler)
        self.scheduler = self.transport.scheduler
        self.cache = cache
        #: The repository node's NIC (bytes/s): the unicast bottleneck.
        self.repo_uplink = repo_uplink

    def deploy(self, image: VMImage, hosts: Sequence[PhysicalHost],
               span=None) -> Process:
        """Propagate ``image`` so that every host in ``hosts`` holds it,
        in a process of its own (yields the :class:`DeploymentStats`).
        ``span`` optionally parents the deployment's trace span."""
        if not hosts:
            raise ValueError("no hosts to deploy to")
        sites = {h.site for h in hosts}
        if len(sites) != 1:
            raise ValueError(
                "one deployment targets one site; split per-site first"
            )
        return self.sim.process(self.propagate(image, list(hosts), span),
                                name=f"deploy-{image.name}")

    def propagate(self, image: VMImage, hosts: List[PhysicalHost],
                  parent_span=None):
        """The deployment itself, as a generator for ``yield from``
        inside the caller's process (a provisioning batch, or a
        copy-on-write deploy chaining in its cache misses).  ``hosts``
        must be non-empty and at one site, as :meth:`deploy` checks."""
        dspan = tracer_of(self.sim).start(
            f"propagate:{image.name}", parent=parent_span,
            track=f"propagate:{hosts[0].site}",
            image=image.name, strategy=self.name, hosts=len(hosts),
        )
        stats = yield from self._deploy(image, hosts, dspan)
        dspan.set(bytes_moved=stats.bytes_moved,
                  cache_hits=stats.cache_hits).end()
        return stats

    def _deploy(self, image, hosts, span):  # pragma: no cover - abstract
        raise NotImplementedError
        yield


class UnicastPropagation(_PropagationBase):
    """Baseline: one full copy per host, all from the repository node.

    The copies run concurrently but share the repository uplink, so the
    aggregate time scales linearly with the number of cache-miss hosts.
    """

    name = "unicast"

    def _deploy(self, image: VMImage, hosts: List[PhysicalHost], span=None):
        started = self.sim.now
        site = hosts[0].site
        misses = [h for h in hosts if not self.cache.has(h, image.name)]
        hits = len(hosts) - len(misses)
        moved = 0.0
        if misses:
            # All copies leave the repository at once and share its
            # uplink; each is additionally a LAN flow.
            per_host_cap = self.repo_uplink / len(misses)
            flows = [
                self.transport.propagation(
                    site, site, image.size_bytes,
                    rate_cap=per_host_cap, tag="image-unicast",
                    image=image.name, host=h.name, span=span,
                )
                for h in misses
            ]
            yield self.sim.all_of([f.done for f in flows])
            moved = image.size_bytes * len(misses)
            for h in misses:
                self.cache.put(h, image.name)
        return DeploymentStats(image.name, len(hosts), moved, started,
                               self.sim.now, self.name, cache_hits=hits)


class BroadcastChainPropagation(_PropagationBase):
    """Kastafior-style pipelined broadcast: repo -> h1 -> h2 -> ... -> hN.

    Every byte traverses each hop once, but hops run concurrently, so
    total time ~= one image transfer + per-hop pipeline setup.
    """

    name = "broadcast-chain"

    def __init__(self, *args, hop_setup: float = 0.02, **kwargs):
        super().__init__(*args, **kwargs)
        #: Connection-establishment cost added per chain hop.
        self.hop_setup = hop_setup

    def _deploy(self, image: VMImage, hosts: List[PhysicalHost], span=None):
        started = self.sim.now
        site = hosts[0].site
        misses = [h for h in hosts if not self.cache.has(h, image.name)]
        hits = len(hosts) - len(misses)
        moved = 0.0
        if misses:
            # The chain is throughput-bound by the slowest hop (the repo
            # uplink or the LAN); pipelining makes the stream cross all
            # hosts in (almost) the time of a single transfer.
            setup = self.hop_setup * len(misses)
            sspan = tracer_of(self.sim).start(
                "chain-setup", parent=span, hops=len(misses))
            yield self.sim.timeout(setup)
            sspan.end()
            flow = self.transport.propagation(
                site, site, image.size_bytes,
                rate_cap=self.repo_uplink, tag="image-chain",
                image=image.name, chain_length=len(misses), span=span,
            )
            yield flow.done
            moved = image.size_bytes * len(misses)  # bytes over the LAN
            for h in misses:
                self.cache.put(h, image.name)
        return DeploymentStats(image.name, len(hosts), moved, started,
                               self.sim.now, self.name, cache_hits=hits)


class CowPropagation(_PropagationBase):
    """Copy-on-write instantiation over cached (or chained-in) bases.

    Hosts holding the base pay only overlay creation (milliseconds);
    missing bases are first brought in with the chained broadcast, then
    cached for every later deployment — so the second cluster on the
    same hosts starts near-instantly.
    """

    name = "cow"

    def __init__(self, *args, overlay_setup: float = 0.05,
                 chain: BroadcastChainPropagation = None, **kwargs):
        super().__init__(*args, **kwargs)
        #: qcow2-style overlay-file creation time per host (parallel).
        self.overlay_setup = overlay_setup
        self._chain = chain or BroadcastChainPropagation(
            self.sim, self.scheduler, self.cache,
            repo_uplink=self.repo_uplink,
        )

    def _deploy(self, image: VMImage, hosts: List[PhysicalHost], span=None):
        started = self.sim.now
        misses = [h for h in hosts if not self.cache.has(h, image.name)]
        hits = len(hosts) - len(misses)
        moved = 0.0
        if misses:
            stats = yield from self._chain.propagate(image, misses, span)
            moved = stats.bytes_moved
        # Overlay creation on all hosts happens in parallel.
        ospan = tracer_of(self.sim).start(
            "overlay-setup", parent=span, hosts=len(hosts))
        yield self.sim.timeout(self.overlay_setup)
        ospan.end()
        return DeploymentStats(image.name, len(hosts), moved, started,
                               self.sim.now, self.name, cache_hits=hits)


#: Strategy name -> class, for configuration and the startup bench.
STRATEGIES = {
    cls.name: cls
    for cls in (UnicastPropagation, BroadcastChainPropagation, CowPropagation)
}
