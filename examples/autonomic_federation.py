#!/usr/bin/env python3
"""The full autonomic loop (paper §III-B + §III-C).

A 16-VM virtual cluster spans two clouds with its communication groups
interleaved (the worst placement).  The hypervisor-level sniffer infers
the traffic matrix transparently — validated against library-level
ground truth — the communication-aware planner computes a better
placement, and the adaptation engine executes it with inter-cloud live
migrations (Shrinker + ViNe reconfiguration), while a TCP connection
between two VMs survives the move.

Run:  python examples/autonomic_federation.py
"""

from repro.autonomic import AdaptationEngine, cross_traffic
from repro.network import Connection
from repro.patterns import (
    GroundTruthRecorder,
    HypervisorSniffer,
    cosine_similarity,
)
from repro.testbeds import SiteSpec, sky_testbed
from repro.workloads import run_pattern


def main():
    tb = sky_testbed(
        sites=[SiteSpec("rennes", region="eu", n_hosts=12),
               SiteSpec("chicago", region="us", n_hosts=12)],
        memory_pages=2048, image_blocks=8192,
    )
    sim, fed = tb.sim, tb.federation

    cluster = sim.run(until=fed.create_virtual_cluster(tb.image_name, 16))
    vms = cluster.vms
    print(f"cluster up: {cluster.site_distribution()}")

    # Interleaved communication groups: evens chat with evens, odds with
    # odds — Balanced placement split both groups across the Atlantic.
    pattern = [
        (i, j, 4e6 if (i % 2) == (j % 2) else 1e5)
        for i in range(16) for j in range(16) if i != j
    ]

    # Transparent detection vs invasive ground truth (SIII-C).
    truth = GroundTruthRecorder()
    sniffer = HypervisorSniffer(tb.scheduler, tags={"app"})
    sim.run(until=run_pattern(sim, tb.scheduler, vms, pattern, rounds=5,
                              recorder=truth))
    sim_cos = cosine_similarity(sniffer.matrix, truth.matrix)
    print(f"traffic matrix detected at the hypervisor: cosine similarity "
          f"to instrumented ground truth = {sim_cos:.3f}")

    # A long-lived TCP connection that must survive the adaptation.
    conn = Connection(sim, tb.scheduler, fed.overlay, vms[0], vms[2],
                      rto_budget=60.0)

    engine = AdaptationEngine(fed)
    before = cross_traffic(engine.current_assignment(vms), sniffer.matrix)
    report = sim.run(until=engine.adapt(vms, sniffer.matrix))
    print(f"\nadaptation: {report.migrations} inter-cloud live migrations")
    print(f"  cross-cloud traffic over the observation window: "
          f"{report.cut_before / 2**20:.1f} MiB -> "
          f"{report.cut_after / 2**20:.1f} MiB "
          f"({1 - report.cut_after / max(report.cut_before, 1):.0%} less)")
    print(f"  new placement: {cluster.site_distribution()}")

    # Prove the connection survived the migrations (ViNe reconfig).
    done = []

    def talk(sim):
        n = yield conn.send(1e6)
        done.append(n)

    sim.process(talk(sim))
    sim.run()
    print(f"\nTCP connection vm0->vm2 across the adaptation: "
          f"{'ALIVE' if conn.alive and done else 'BROKEN'} "
          f"(max stall {conn.max_stall * 1000:.0f} ms)")

    # Re-measure actual traffic after adaptation.
    sniffer2 = HypervisorSniffer(tb.scheduler, tags={"app"})
    billed_before = tb.billing.total_cross_site_bytes
    sim.run(until=run_pattern(sim, tb.scheduler, vms, pattern, rounds=5))
    billed = tb.billing.total_cross_site_bytes - billed_before
    print(f"re-ran the workload (5 rounds): {billed / 2**20:.1f} MiB "
          f"billed cross-cloud (was {before / 2**20:.1f} MiB)")


if __name__ == "__main__":
    main()
