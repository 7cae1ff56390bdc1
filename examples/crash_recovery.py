#!/usr/bin/env python3
"""Kill the control plane mid-flight and rebuild it from its event log.

The control plane is event-sourced: every state change — job and lease
transitions, tenant charges, spot enrollments — commits one structured
event to a durable log before anything observes it.  This demo

1. runs a two-tenant workload over a three-cloud federation and
   **crashes the control plane** while jobs are queued, provisioning
   and running (every loop and runner process dies where it stands,
   leases and VMs left dangling);
2. snapshots the event log to ``events.jsonl`` (the only thing a real
   deployment needs to persist) and prints the per-entity tally;
3. **recovers** a fresh plane from the log alone — tenants with their
   exact usage accounting, jobs at their last durable progress, live
   clusters re-attached to new leases — and lets the **reconciler**
   diff desired against observed state to requeue whatever the crash
   stranded;
4. runs the recovered plane to completion and proves the invariants:
   every job COMPLETED, zero leaked leases, and a log that still
   validates (strictly increasing seq, monotone time) across the
   crash boundary.

Run:  python examples/crash_recovery.py [output-dir]
"""

import sys
from collections import Counter
from pathlib import Path

from repro.controlplane import (
    ControlPlane,
    JobState,
    eventlog_of,
    rebuild,
    recover,
    validate_events,
)
from repro.testbeds import SiteSpec, sky_testbed

CRASH_AT = 150.0


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    tb = sky_testbed(
        sites=[SiteSpec(f"c{i}", n_hosts=1, cores_per_host=8,
                        on_demand_hourly=0.10 + 0.02 * i)
               for i in range(3)],
        memory_pages=256, image_blocks=512, seed=11,
    )
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name).start()
    plane.register_tenant("alice", weight=2.0)
    plane.register_tenant("bob")
    jobs = [plane.submit(t, n_nodes=2, runtime=240.0)
            for t in ("alice", "bob") for _ in range(8)]

    tb.sim.run(until=CRASH_AT)
    log = plane.crash()
    by_state = Counter(j.state.value for j in jobs)
    print(f"t={tb.sim.now:.0f}s  CRASH with jobs {dict(by_state)}, "
          f"{len(plane.leases.active_leases())} active leases, "
          f"{len(log)} events committed")

    log_path = f"{out_dir}/events.jsonl"
    log.dump_jsonl(log_path)
    tally = Counter(e.kind for e in log)
    print(f"snapshot -> {log_path}  "
          f"({', '.join(f'{k}:{n}' for k, n in sorted(tally.items()))})")

    state = rebuild(log)
    print(f"replayed seq {state.last_seq}: "
          f"{len(state.jobs)} jobs {state.jobs_by_state()}, "
          f"{len(state.leases)} leases, usage " +
          str({n: round(t.usage, 1) for n, t in state.tenants.items()}))

    plane2 = recover(tb.sim, tb.federation, tb.image_name, log,
                     reconcile_interval=30.0).start()
    healed = plane2.reconciler.reconcile(force=True)
    print(f"t={tb.sim.now:.0f}s  RECOVERED; reconciler healed "
          f"{[f'{d.kind}:{d.entity}' for d in healed] or 'nothing'}")

    jobs2 = list(plane2.queue.jobs.values())
    tb.sim.run(until=plane2.all_done(jobs2))
    final = eventlog_of(tb.sim)
    final.dump_jsonl(log_path)  # full history across the crash boundary
    validate_events(final.events)

    summary = plane2.summary()
    print(f"t={tb.sim.now:.0f}s  DONE  jobs_by_state="
          f"{summary['jobs_by_state']}  last_seq={summary['last_seq']}  "
          f"leaked={summary['leases_leaked']}")
    assert all(j.state is JobState.COMPLETED for j in jobs2)
    assert summary["leases_leaked"] == 0
    print(f"all {len(jobs2)} jobs completed after the crash; "
          f"event log validates end to end ({len(final)} events)")


if __name__ == "__main__":
    main()
