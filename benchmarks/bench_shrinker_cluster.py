"""E2 — dedup savings vs cluster size, memory-only vs memory+disk.

Paper §III-A: "Data similarity is exploited throughout all virtual
machines of the migrated virtual cluster, both in memory and on disk.
Since many or all nodes composing a virtual cluster are usually based on
the same operating system and run similar applications, high inter-VM
data similarity can be found."

Expected shape: savings grow with cluster size (the shared OS/app
content crosses the WAN once, amortized over more VMs) and approach the
ideal redundancy bound; disk dedup starts below memory for a lone VM
(no self-duplication) and overtakes it once the 75%-shared base image
amortizes over the cluster.
"""

import numpy as np
import pytest

from repro.hypervisor import (
    Dirtier,
    DiskImage,
    LiveMigrator,
    MigrationConfig,
    VirtualMachine,
)
from repro.network.units import Mbit
from repro.shrinker import (
    ClusterMigrationCoordinator,
    RegistryDirectory,
    ideal_dedup_saving,
    shrinker_codec_factory,
)
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import generate_disk_fingerprints, web_server

from _tables import pct, print_table

PAGES = 8192  # 32 MiB guests
DISK_BLOCKS = 16384  # 64 MiB disks


def migrate(n_vms: int, use_shrinker: bool, with_disk: bool, seed=5):
    tb = sky_testbed(
        sites=[SiteSpec("src", n_hosts=max(8, n_vms), region="eu"),
               SiteSpec("dst", n_hosts=max(8, n_vms), region="eu")],
        wan_bandwidth=1000 * Mbit,
    )
    sim = tb.sim
    profile = web_server()
    rng = np.random.default_rng(seed)
    vms, dst_hosts = [], []
    for i in range(n_vms):
        mem = profile.generate_memory(rng, PAGES)
        disk = None
        if with_disk:
            disk = DiskImage(
                f"d{i}", DISK_BLOCKS,
                fingerprints=generate_disk_fingerprints(rng, DISK_BLOCKS))
        vm = VirtualMachine(sim, f"vm{i}", mem, disk=disk)
        tb.clouds["src"].hosts[i % len(tb.clouds["src"].hosts)].place(vm)
        vm.boot()
        Dirtier(sim, vm, profile, rng)
        vms.append(vm)
        dst_hosts.append(
            tb.clouds["dst"].hosts[i % len(tb.clouds["dst"].hosts)])
    if use_shrinker:
        migrator = LiveMigrator(
            sim, tb.scheduler, shrinker_codec_factory(RegistryDirectory()))
    else:
        migrator = LiveMigrator(sim, tb.scheduler)
    coord = ClusterMigrationCoordinator(sim, migrator)
    config = MigrationConfig(migrate_storage=with_disk)
    stats = sim.run(until=coord.migrate_cluster(vms, dst_hosts, config,
                                                wave_size=1))
    for vm in vms:
        vm.stop()
    ideal = ideal_dedup_saving([vm.memory.pages for vm in vms])
    return stats, ideal


@pytest.mark.parametrize("n_vms", [1, 2, 4, 8])
def test_e2_savings_grow_with_cluster_size(benchmark, n_vms):
    raw, _ = migrate(n_vms, use_shrinker=False, with_disk=False)
    shr, ideal = benchmark.pedantic(
        migrate, args=(n_vms, True, False), rounds=1, iterations=1)
    raw_mem = sum(s.wire_bytes for s in raw.per_vm)
    shr_mem = sum(s.wire_bytes for s in shr.per_vm)
    saving = 1 - shr_mem / raw_mem
    benchmark.extra_info.update({
        "n_vms": n_vms, "saving": round(saving, 4),
        "ideal": round(ideal, 4),
    })
    assert saving <= ideal + 0.02  # never beats the redundancy bound
    if n_vms >= 4:
        assert saving > 0.35


def test_e2_summary_table(benchmark):
    def sweep():
        out = []
        for n in (1, 2, 4, 8, 16, 32):
            raw_m, _ = migrate(n, False, False)
            shr_m, ideal = migrate(n, True, False)
            raw_d, _ = migrate(n, False, True)
            shr_d, _ = migrate(n, True, True)
            out.append((n, raw_m, shr_m, raw_d, shr_d, ideal))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    prev_saving = -1.0
    for n, raw_m, shr_m, raw_d, shr_d, ideal in results:
        mem_saving = 1 - (sum(s.wire_bytes for s in shr_m.per_vm)
                          / sum(s.wire_bytes for s in raw_m.per_vm))
        disk_saving = 1 - (shr_d.total_wire_bytes / raw_d.total_wire_bytes)
        rows.append((
            n, pct(mem_saving), pct(disk_saving), pct(ideal),
            f"{shr_m.duration:.1f}", f"{raw_m.duration:.1f}",
        ))
        assert mem_saving >= prev_saving - 0.03  # monotone-ish growth
        prev_saving = mem_saving
    print_table(
        "E2: Shrinker saving vs cluster size (web-server VMs, 32 MiB RAM"
        " + 64 MiB disk)",
        ["n_vms", "mem_saving", "mem+disk_saving", "ideal_mem",
         "t_shr(s)", "t_raw(s)"],
        rows,
    )
    print("shape: savings grow with cluster size toward the redundancy "
          "bound;\ndisk dedup starts below memory (no self-duplication) "
          "and overtakes it\nonce the shared base image amortizes over "
          "the cluster")
