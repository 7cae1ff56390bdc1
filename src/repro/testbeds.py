"""Ready-made simulated testbeds.

The paper's experiments ran on FutureGrid (three US sites) and
Grid'5000 (French sites) federated into one sky-computing platform.
:func:`sky_testbed` builds the simulation equivalent: a configurable set
of cloud sites with realistic WAN links (transatlantic ~90 ms RTT,
intra-continent ~20 ms), a shared flow scheduler with billing, and a
:class:`~repro.sky.federation.Federation` with one image registered
everywhere.  Every experiment and example builds on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cloud.images import make_image
from .cloud.pricing import InstancePricing
from .cloud.provider import Cloud
from .hypervisor.host import PhysicalHost
from .network.billing import BillingMeter
from .network.flows import FlowScheduler
from .network.topology import Site, Topology
from .network.transport import Transport
from .network.units import Gbit, Mbit
from .simkernel.core import Simulator
from .sky.federation import Federation


@dataclass
class SiteSpec:
    """One cloud site of a testbed."""

    name: str
    n_hosts: int = 8
    cores_per_host: int = 16
    ram_per_host: int = 256 * 2**30
    lan_bandwidth: float = 10 * Gbit
    public_addresses: bool = True
    firewall_inbound_open: bool = True
    on_demand_hourly: float = 0.10
    #: Geographic group; links within a region are faster/shorter.
    region: str = "eu"


@dataclass
class Testbed:
    """Everything a scenario needs, wired together."""

    sim: Simulator
    topology: Topology
    scheduler: FlowScheduler
    transport: Transport
    billing: BillingMeter
    clouds: Dict[str, Cloud]
    federation: Federation
    image_name: str
    rng: np.random.Generator

    def cloud(self, name: str) -> Cloud:
        return self.clouds[name]


#: The default six-site layout mirroring the paper's platforms.
PAPER_SITES: Tuple[SiteSpec, ...] = (
    SiteSpec("rennes", region="eu"),           # Grid'5000
    SiteSpec("sophia", region="eu"),           # Grid'5000
    SiteSpec("chicago", region="us"),          # FutureGrid (UC)
    SiteSpec("sandiego", region="us"),         # FutureGrid (SDSC)
)

#: One-way latencies by region pair (seconds).
REGION_LATENCY = {
    ("eu", "eu"): 0.010,
    ("us", "us"): 0.020,
    ("eu", "us"): 0.045,
    ("us", "eu"): 0.045,
}


def sky_testbed(sites: Optional[Sequence[SiteSpec]] = None,
                wan_bandwidth: float = 500 * Mbit,
                transatlantic_bandwidth: Optional[float] = None,
                image_blocks: int = 65536,
                memory_pages: int = 16384,
                seed: int = 42,
                use_shrinker: bool = True,
                queue=None) -> Testbed:
    """Build a federated multi-cloud testbed.

    Parameters
    ----------
    sites:
        Site specs (default: the four-site FutureGrid + Grid'5000
        layout).
    wan_bandwidth:
        Capacity of intra-region WAN links; ``transatlantic_bandwidth``
        (default: half of it) applies between regions.
    image_blocks, memory_pages:
        Size of the shared ``debian`` image (4 KiB blocks) and default
        instance memory.
    queue:
        Kernel queue backend spec forwarded to :class:`Simulator`
        (``None`` for the reference heap, ``"calendar"`` for the
        bucketed backend, or a backend instance).
    """
    sites = list(sites if sites is not None else PAPER_SITES)
    if not sites:
        raise ValueError("a testbed needs at least one site")
    trans_bw = (transatlantic_bandwidth if transatlantic_bandwidth is not None
                else wan_bandwidth / 2)
    sim = Simulator(queue=queue)
    topology = Topology()
    billing = BillingMeter()
    scheduler = FlowScheduler(sim, topology, billing=billing)
    transport = Transport.of(scheduler)
    rng = np.random.default_rng(seed)

    clouds: Dict[str, Cloud] = {}
    for spec in sites:
        site = topology.add_site(Site(
            spec.name,
            lan_bandwidth=spec.lan_bandwidth,
            public_addresses=spec.public_addresses,
            firewall_inbound_open=spec.firewall_inbound_open,
            tags={"region": spec.region},
        ))
        hosts = [
            PhysicalHost(f"{spec.name}-h{i}", spec.name,
                         cores=spec.cores_per_host,
                         ram_bytes=spec.ram_per_host)
            for i in range(spec.n_hosts)
        ]
        cloud = Cloud(
            sim, scheduler, site, hosts,
            pricing=InstancePricing(on_demand_hourly=spec.on_demand_hourly),
        )
        clouds[spec.name] = cloud

    # Full WAN mesh with region-aware latency and bandwidth.
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            latency = REGION_LATENCY.get((a.region, b.region), 0.045)
            bw = wan_bandwidth if a.region == b.region else trans_bw
            topology.connect(a.name, b.name, bandwidth=bw, latency=latency)

    # The same customized execution environment everywhere (paper §II).
    image_name = "debian"
    for cloud in clouds.values():
        cloud.repository.register(make_image(
            image_name, rng, n_blocks=image_blocks,
            default_memory_pages=memory_pages,
        ))

    federation = Federation(sim, topology, scheduler,
                            list(clouds.values()),
                            use_shrinker=use_shrinker, billing=billing)
    return Testbed(
        sim=sim, topology=topology, scheduler=scheduler,
        transport=transport, billing=billing, clouds=clouds,
        federation=federation, image_name=image_name, rng=rng,
    )


def two_cloud_testbed(**kwargs) -> Testbed:
    """A minimal two-site testbed (one EU, one US), for quick runs."""
    sites = [
        SiteSpec("rennes", region="eu"),
        SiteSpec("chicago", region="us"),
    ]
    return sky_testbed(sites=sites, **kwargs)
