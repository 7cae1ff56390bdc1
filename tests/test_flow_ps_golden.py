"""Golden flow completions of weighted processor-sharing components.

Every flow here crosses exactly one link and carries no rate cap, so
each bottleneck component is a weighted processor-sharing queue: the
shape of SCALE's contextualization flows, with non-unit weights.  Two
such components run side by side (the two directions of one WAN link).
Flows arrive on an irregular clock with weights 0.5, 1.5 and 3.0, every
fifth one is cancelled mid-transfer, and the link's capacity changes
twice mid-run.

``golden/flow_ps.json`` holds every completed flow as a
:class:`~repro.network.flows.FlowRecord` row ``[src, dst, size,
started_at, finished_at, tag]`` in completion order, the billed bytes
per site pair, the final clock and the number of events the kernel
dispatched.  The run must match it bit for bit on the heap and the
calendar queue.  Regenerate it only for an intended change to the flow
model::

    PYTHONPATH=src python -m tests.test_flow_ps_golden
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.network import BillingMeter, FlowScheduler, Site, Topology
from repro.obs import kernel_stats
from repro.simkernel import Simulator

from tests.flow_oracle import FlowLog, rel_err, replay

GOLDEN = Path(__file__).resolve().parent / "golden" / "flow_ps.json"

N_FLOWS = 120
WEIGHTS = (0.5, 1.5, 3.0)
CANCEL_EVERY = 5
#: (time, bandwidth) of the mid-run capacity changes of the a<->b link.
CAPACITY = ((21.0, 4e5), (47.5, 1.3e6))

#: Worst relative distance of a completion time from the exact fluid
#: replay (x86_64, CPython 3.11; the floats are deterministic); a re-pin
#: must not exceed it.  101 of the 120 flows finish.
ORACLE_BAR = 3.168310568319077e-16


def ps_run(queue):
    """Run the scenario; returns ``(sim, billing, log)``."""
    rng = np.random.default_rng(11)
    sim = Simulator(queue=queue)
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=1e6, latency=0.005)
    billing = BillingMeter()
    sched = FlowScheduler(sim, topo, billing=billing)
    log = FlowLog(sched)
    starts = np.cumsum(rng.exponential(0.6, N_FLOWS))
    arrivals = [(float(at), ("a", "b") if rng.random() < 0.7 else ("b", "a"),
                 float(rng.uniform(1e5, 2e6)),
                 float(rng.choice(WEIGHTS)),
                 float(rng.uniform(0.1, 4.0)))
                for at in starts]

    def cancel_later(flow, delay):
        yield sim.timeout(delay)
        sched.cancel(flow)

    def capacity():
        for at, bandwidth in CAPACITY:
            yield sim.timeout(at - sim.now)
            topo.set_bandwidth("a", "b", bandwidth)

    def driver():
        for k, (at, (src, dst), size, weight, cancel_after) in \
                enumerate(arrivals):
            yield sim.timeout(at - sim.now)
            flow = sched.start_flow(src, dst, size, weight=weight,
                                    tag=f"w{weight}")
            if k % CANCEL_EVERY == 0:
                sim.process(cancel_later(flow, cancel_after))

    sim.process(capacity())
    sim.process(driver())
    sim.run()
    return sim, billing, log


def payload(queue="heap"):
    sim, billing, log = ps_run(queue)
    return {
        "records": [[r.src, r.dst, r.size, r.started_at, r.finished_at,
                     r.tag] for r in log.records],
        "pair_bytes": {f"{src}->{dst}": nbytes for (src, dst), nbytes
                       in sorted(billing.pair_bytes.items())},
        "now": sim.now,
        "events_dispatched": kernel_stats(sim).events_dispatched,
    }


@pytest.mark.parametrize("queue", ["heap", "calendar"])
def test_ps_completions_match_golden(queue):
    got = json.loads(json.dumps(payload(queue)))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert got["events_dispatched"] == want["events_dispatched"]
    assert got["now"] == want["now"]
    assert got["pair_bytes"] == want["pair_bytes"]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"record {i}"


def test_ps_completions_within_oracle_bar():
    _sim, billing, log = ps_run("heap")
    finished = replay(log)
    assert [f for f in log.flows if f.finished_at is not None] \
        == [f for f in log.flows if f in finished]
    assert log.cancelled
    worst = max(rel_err(f.finished_at, at) for f, at in finished.items())
    assert worst <= ORACLE_BAR
    delivered = (sum(r.size for r in log.records)
                 + sum(f.transferred for f in log.cancelled))
    billed = billing.total_cross_site_bytes
    assert abs(billed - delivered) <= 1e-9 * delivered


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(payload(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
