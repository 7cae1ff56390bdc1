#!/usr/bin/env python3
"""Trace a Shrinker cluster migration and analyze its critical path.

Re-runs the §III-A scenario — a 4-VM web-server cluster live-migrated
from Rennes to Chicago with content-based addressing and ViNe overlay
reconfiguration — with the causal tracer installed.  Produces:

* ``trace.json`` — Chrome trace-event JSON; open it at
  https://ui.perfetto.dev (or chrome://tracing) to see every migration
  phase, pre-copy round, dedup lookup and WAN transfer on a timeline;
* ``spans.jsonl`` — one structured span per line for offline analysis;
* a critical-path report on stdout: the dominant chain of spans that
  determined the end-to-end time, attributed per phase.

Run:  python examples/trace_critical_path.py [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro.hypervisor import (
    Dirtier,
    LiveMigrator,
    MigrationConfig,
    VirtualMachine,
)
from repro.network.units import Mbit
from repro.obs import Tracer, critical_path
from repro.shrinker import (
    ClusterMigrationCoordinator,
    RegistryDirectory,
    shrinker_codec_factory,
)
from repro.testbeds import two_cloud_testbed
from repro.workloads import web_server

CLUSTER_SIZE = 4
PAGES = 4096  # 16 MiB per VM
LOOKUP_RTT = 0.02  # WAN round-trip per batched dedup digest query


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    tb = two_cloud_testbed(wan_bandwidth=500 * Mbit,
                           transatlantic_bandwidth=500 * Mbit,
                           memory_pages=PAGES)
    sim = tb.sim
    tracer = Tracer(sim).install()
    profile = web_server()
    rng = np.random.default_rng(7)

    vms, dst_hosts = [], []
    for i in range(CLUSTER_SIZE):
        vm = VirtualMachine(sim, f"web{i}",
                            profile.generate_memory(rng, PAGES))
        tb.clouds["rennes"].hosts[i].place(vm)
        vm.boot()
        Dirtier(sim, vm, profile, rng)
        tb.federation.overlay.register(vm)
        vms.append(vm)
        dst_hosts.append(tb.clouds["chicago"].hosts[i])

    codec_factory = shrinker_codec_factory(RegistryDirectory(),
                                           lookup_rtt=LOOKUP_RTT)
    migrator = LiveMigrator(sim, tb.scheduler, codec_factory)
    coordinator = ClusterMigrationCoordinator(
        sim, migrator, reconfigurator=tb.federation.reconfigurator)
    stats = sim.run(until=coordinator.migrate_cluster(
        vms, dst_hosts, MigrationConfig()))

    chrome_path = f"{out_dir}/trace.json"
    jsonl_path = f"{out_dir}/spans.jsonl"
    tracer.dump_chrome_trace(chrome_path)
    tracer.dump_jsonl(jsonl_path)

    report = critical_path(tracer)
    print(f"{CLUSTER_SIZE}-VM cluster migration: {stats.duration:.2f} s, "
          f"{stats.total_wire_bytes / 2**20:.1f} MiB on the wire, "
          f"{stats.bandwidth_saving:.0%} dedup saving")
    print(f"{len(tracer.spans)} spans -> {chrome_path} "
          f"(open in https://ui.perfetto.dev) and {jsonl_path}\n")

    print("critical path by phase:")
    for phase, seconds in sorted(report.by_attribute("phase").items(),
                                 key=lambda kv: -kv[1]):
        print(f"  {phase:16}{seconds:8.3f} s"
              f"  ({seconds / report.total:6.1%})")
    print(f"  {'total':16}{report.total:8.3f} s\n")

    print("dominant chain (top spans):")
    for name, seconds in list(report.by_name().items())[:8]:
        print(f"  {name:24}{seconds:8.3f} s")


if __name__ == "__main__":
    main()
