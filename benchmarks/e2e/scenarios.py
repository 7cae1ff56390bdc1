"""The four paper experiments the end-to-end benchmark runs.

Each scenario is built here, from the benchmark's own tables, so edits to
the ``benchmarks/bench_*.py`` experiment tables cannot shift it.  The
constructor is the set-up phase (testbed, federation, plane, generated
inputs, submission); :meth:`run` is the run phase.  After the run,
:meth:`outputs` gives the simulated results that are pinned at seed 0,
:meth:`problems` the invariants that must hold at any seed, and
:meth:`counters` the per-layer counters read from public attributes.

Every RNG seed derives from the benchmark seed through :func:`sub_seed`;
the ``src/`` code only ever receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
from statistics import NormalDist

import numpy as np

from repro.cloud import SpotMarket
from repro.controlplane import ControlPlane, SchedulerConfig, SpotPolicy
from repro.hypervisor import (
    Dirtier,
    DiskImage,
    LiveMigrator,
    MigrationConfig,
    VirtualMachine,
)
from repro.mapreduce import JobTracker, MapReduceJob
from repro.network.units import Mbit
from repro.obs import Tracer
from repro.shrinker import (
    ClusterMigrationCoordinator,
    RegistryDirectory,
    shrinker_codec_factory,
)
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import (
    SpotPriceProcess,
    generate_disk_fingerprints,
    spot_price_trace,
    web_server,
)

TENANTS = (("alice", 1.0), ("bob", 2.0), ("carol", 1.0))


def sub_seed(seed: int, stream: int) -> int:
    """An independent 32-bit seed for one RNG stream of one run."""
    return int(np.random.SeedSequence(
        [seed % 2**64, stream]).generate_state(1)[0])


def job_table(n: int, runtimes: tuple) -> list:
    """``n`` jobs as ``(tenant, width, runtime, priority)``: a fixed,
    balanced mix.  Every tenant gets every width (1, 1, 2, 2, 4, 8) and
    priority in equal shares; runtimes are evenly spaced over the range
    and spread over the mix by a stride coprime with ``n``.  Seeds only
    permute the submission order, so every seed does the same work."""
    tenants = [name for name, _ in TENANTS]
    widths = (1, 1, 2, 2, 4, 8)
    spaced = np.rint(np.linspace(runtimes[0], runtimes[1], n))
    return [(tenants[k % 3], widths[(k // 3) % 6],
             float(spaced[(k * 193) % n]), (k // 18) % 3)
            for k in range(n)]


def plain(value):
    """``value`` with NumPy scalars turned into Python numbers, so the
    outputs serialise to JSON exactly."""
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def spiky_prices(sim, seed: int) -> SpotPriceProcess:
    """A 48 h spot price trace (300 s ticks, mean-reverting around
    $0.03/h) with one x6 spike at a seeded tick of every 20-minute
    window, so every seed sees the same number of reclamation waves."""
    rng = np.random.default_rng(seed)
    times, prices = spot_price_trace(rng, duration=48 * 3600, tick=300,
                                     base=0.03, spike_prob=0.0)
    window = 4
    spikes = np.arange(0, len(prices), window)
    spikes = spikes + rng.integers(window, size=len(spikes))
    prices[spikes[spikes < len(prices)]] *= 6.0
    return SpotPriceProcess(sim, times, prices)


class Scenario:
    """One paper experiment: constructor = set-up, :meth:`run` = run.

    Subclasses take ``(seed, smoke=False, queue=None)``: ``smoke``
    shrinks the sizes for the self-test and ``queue`` names the kernel
    queue backend (``None`` for the default heap).
    """

    #: Attempted operations (BLAST batches, VM migrations or jobs).
    ops = 0
    #: Control-plane jobs submitted (0 outside the plane workloads).
    n_jobs = 0

    def __init__(self, seed: int):
        self.seed = seed

    def run(self) -> None:
        raise NotImplementedError

    def completed(self) -> int:
        """Operations that finished."""
        raise NotImplementedError

    def outputs(self) -> dict:
        raise NotImplementedError

    def problems(self) -> list:
        """Invariant violations beyond unfinished operations."""
        return []

    def counters(self) -> dict:
        """Per-layer counters read from public attributes after the run."""
        tb = self.tb
        stats = tb.scheduler.stats
        return {
            "network.alloc_batches": stats["batches"],
            "network.flows_rerated": stats["flows_rerated"],
            "network.wan_bytes": float(tb.billing.total_cross_site_bytes),
        }


class SkyBlast(Scenario):
    """Paper SCALE: chain+CoW provisioning of a 512-VM virtual cluster on
    four clouds, then a 2048-batch BLAST job on it."""

    def __init__(self, seed, smoke=False, queue=None):
        super().__init__(seed)
        n_vms = 32 if smoke else 512
        self.n_vms = n_vms
        self.tb = sky_testbed(
            sites=[SiteSpec(f"c{i}", n_hosts=n_vms // 32 + 2,
                            cores_per_host=16,
                            region="eu" if i < 2 else "us")
                   for i in range(4)],
            memory_pages=256, image_blocks=1024,
            seed=sub_seed(seed, 0), queue=queue,
        )
        # BLAST query batches: lognormal alignment times (mean 60 s,
        # sigma 0.25) taken at evenly spaced quantiles, in seeded order.
        n_batches = self.ops = 4 * n_vms
        sigma = 0.25
        z = [NormalDist().inv_cdf((i + 0.5) / n_batches)
             for i in range(n_batches)]
        map_cpu = np.exp(np.log(60.0) - sigma ** 2 / 2 + sigma * np.array(z))
        rng = np.random.default_rng(sub_seed(seed, 1))
        self.job = MapReduceJob(
            "blast", rng.permutation(map_cpu), np.full(1, 5.0),
            split_bytes=1e6, map_output_bytes=256 * 1024)

    def run(self):
        sim = self.tb.sim
        start = sim.now
        cluster = sim.run(until=self.tb.federation.create_virtual_cluster(
            self.tb.image_name, self.n_vms))
        self.provision_s = sim.now - start
        jt = JobTracker(sim, self.tb.scheduler,
                        rng=np.random.default_rng(sub_seed(self.seed, 2)))
        for vm in cluster:
            jt.add_tracker(vm)
        self.result = sim.run(until=jt.submit(self.job))

    def completed(self):
        r = self.result
        return min(self.ops, r.local_maps + r.remote_maps)

    def outputs(self):
        r = self.result
        return plain({
            "provision_s": self.provision_s,
            "makespan": r.makespan,
            "final_now": self.tb.sim.now,
            "locality": r.locality_rate,
            "wan_bytes": self.tb.billing.total_cross_site_bytes,
        })

    def counters(self):
        r = self.result
        return {**super().counters(),
                "mapreduce.tasks": r.map_attempts + r.reduce_attempts,
                "mapreduce.locality": float(r.locality_rate)}


class ShrinkerWan(Scenario):
    """Paper E1/E2: memory+storage live migration of a 16-VM web-server
    cluster between two EU sites over a 1 Gbit/s WAN with Shrinker."""

    PAGES = 8192          # 32 MiB guests
    DISK_BLOCKS = 16384   # 64 MiB disks

    def __init__(self, seed, smoke=False, queue=None):
        super().__init__(seed)
        n_vms = 4 if smoke else 16
        pages = self.PAGES // 4 if smoke else self.PAGES
        blocks = self.DISK_BLOCKS // 4 if smoke else self.DISK_BLOCKS
        tb = self.tb = sky_testbed(
            sites=[SiteSpec("src", n_hosts=n_vms, region="eu"),
                   SiteSpec("dst", n_hosts=n_vms, region="eu")],
            wan_bandwidth=1000 * Mbit, seed=sub_seed(seed, 0), queue=queue,
        )
        sim = tb.sim
        profile = web_server()
        rng = np.random.default_rng(sub_seed(seed, 1))
        self.vms, self.dst_hosts = [], []
        for i in range(n_vms):
            disk = DiskImage(f"d{i}", blocks,
                             fingerprints=generate_disk_fingerprints(
                                 rng, blocks))
            vm = VirtualMachine(sim, f"vm{i}",
                                profile.generate_memory(rng, pages),
                                disk=disk)
            tb.clouds["src"].hosts[i].place(vm)
            vm.boot()
            Dirtier(sim, vm, profile, rng)
            self.vms.append(vm)
            self.dst_hosts.append(tb.clouds["dst"].hosts[i])
        self.registries = RegistryDirectory()
        migrator = LiveMigrator(sim, tb.scheduler,
                                shrinker_codec_factory(self.registries))
        self.coordinator = ClusterMigrationCoordinator(sim, migrator)
        self.ops = n_vms

    def run(self):
        self.stats = self.tb.sim.run(until=self.coordinator.migrate_cluster(
            self.vms, self.dst_hosts, MigrationConfig(migrate_storage=True),
            wave_size=1))
        for vm in self.vms:
            vm.stop()

    def completed(self):
        return sum(1 for vm in self.vms if vm.host.site == "dst")

    def outputs(self):
        s = self.stats
        return plain({
            "duration": s.duration,
            "wire_bytes": s.total_wire_bytes,
            "payload_bytes": s.total_payload_bytes,
            "max_downtime": s.max_downtime,
        })

    def counters(self):
        s = self.stats
        registry = self.registries.for_site("dst")
        return {**super().counters(),
                "hypervisor.precopy_rounds": sum(m.rounds for m in s.per_vm),
                "hypervisor.pages_sent": sum(m.pages_sent for m in s.per_vm),
                "shrinker.registry_queries": registry.queries,
                "shrinker.registry_hit_rate": registry.hit_rate,
                "shrinker.wan_saving": float(s.bandwidth_saving)}


class PlaneScenario(Scenario):
    """The multi-tenant control plane on a 3-cloud federation."""

    N_JOBS = 1000
    RUNTIMES = (30, 120)
    SPOT = False

    def __init__(self, seed, smoke=False, queue=None):
        super().__init__(seed)
        tb = self.tb = sky_testbed(
            sites=[SiteSpec(f"c{i}", n_hosts=4, cores_per_host=16,
                            on_demand_hourly=0.10 + 0.02 * i,
                            region="eu" if i < 2 else "us")
                   for i in range(3)],
            memory_pages=256, image_blocks=512,
            seed=sub_seed(seed, 0), queue=queue,
        )
        markets = None
        self.tracer = None
        if self.SPOT:
            markets = {
                name: SpotMarket(tb.sim, cloud,
                                 spiky_prices(tb.sim, sub_seed(seed, 10 + k)),
                                 reclaim_grace=120.0)
                for k, (name, cloud) in enumerate(sorted(tb.clouds.items()))
            }
            self.tracer = Tracer(tb.sim)
        self.plane = ControlPlane(
            tb.sim, tb.federation, tb.image_name,
            config=SchedulerConfig(interval=10.0, lease_term=600.0,
                                   max_attempts=10),
            spot_markets=markets,
            # Grace-window rescue stays off: a rescue whose lease ends
            # during its authentication phase raises (see README.md).
            spot_policy=(SpotPolicy(starvation_patience=1200.0,
                                    rescue=False)
                         if self.SPOT else None),
            tracer=self.tracer,
        ).start()
        for name, weight in TENANTS:
            self.plane.register_tenant(name, weight=weight)
        n_jobs = self.N_JOBS // 10 if smoke else self.N_JOBS
        table = job_table(n_jobs, self.RUNTIMES)
        order = np.random.default_rng(sub_seed(seed, 1)).permutation(n_jobs)
        self.jobs = []
        for i, k in enumerate(order):
            tenant, width, runtime, priority = table[k]
            self.jobs.append(self.plane.submit(
                tenant, n_nodes=width, runtime=runtime, priority=priority,
                name=f"w{i}"))
        self.ops = self.n_jobs = n_jobs

    def run(self):
        self.tb.sim.run(until=self.plane.all_done(self.jobs))
        self.summary = plain(self.plane.summary())

    def completed(self):
        return self.summary["completed"]

    def cost(self):
        now = self.tb.sim.now
        return sum(c.meter.cost(now) for c in self.tb.clouds.values())

    def problems(self):
        out = []
        leaked = self.plane.leases.leaked()
        if leaked:
            out.append(f"{len(leaked)} leaked leases")
        stranded = sum(len(c.instances) for c in self.tb.clouds.values())
        if stranded:
            out.append(f"{stranded} stranded instances")
        return out

    def counters(self):
        s = self.summary
        spot = s.get("spot", {})
        spans = self.tracer.stats() if self.tracer is not None else {}
        return {**super().counters(),
                "controlplane.jobs_completed": s["completed"],
                "controlplane.requeued": s["requeued"],
                "controlplane.preemptions": self.plane.scheduler.preemptions,
                "controlplane.events_logged": s["last_seq"],
                "controlplane.spot_reclaims": spot.get("reclaim_events", 0),
                "obs.spans_started": spans.get("started", 0),
                "obs.spans_resident_peak": spans.get("resident_peak", 0)}


class ControlPlane1000(PlaneScenario):
    """The 1000-job run: 3 weighted tenants, on demand, no tracer."""

    def outputs(self):
        order = [(j.name, j.started_at, j.finished_at) for j in self.jobs]
        digest = hashlib.sha256(
            json.dumps(plain(order)).encode()).hexdigest()
        return plain({"schedule_sha256": digest,
                      "makespan": self.tb.sim.now,
                      "summary": self.summary, "cost": self.cost()})


class SpotChurn500(PlaneScenario):
    """500 jobs on spot-backed leases under three volatile markets."""

    N_JOBS = 500
    RUNTIMES = (60, 600)
    SPOT = True

    def outputs(self):
        spot = self.summary["spot"]
        return plain({"makespan": self.tb.sim.now, "cost": self.cost(),
                      "outcomes": spot["outcomes"],
                      "enrolled": spot["enrolled"],
                      "spans_started": self.tracer.stats()["started"]})


SCENARIOS = {
    "sky_blast_512": SkyBlast,
    "shrinker_wan_16": ShrinkerWan,
    "controlplane_1000": ControlPlane1000,
    "spot_churn_500": SpotChurn500,
}
