"""Golden flow completions of same-instant processor-sharing cascades.

A processor-sharing (PS) link carries only single-link, uncapped flows
of weight 1.0, so every change on it re-rates all of its flows to the
same fill.  Cascades are runs of such changes in one instant: flows
started one by one by separate timers (each arrival re-rates 1, 2, ...,
n flows), and equal flows that finish together (each departure re-rates
the rest).  The scenario builds them on purpose:

* ``a->b`` (2^20 B/s, no latency) gets twelve ``ctx`` flows of 2^16 B
  started by twelve timers at t=0, then four ``small`` flows of 2^15 B
  in one call.  The small ones finish together at 0.5 s and leave the
  others with exactly ``remaining == 0.0``; the twelve ``ctx`` flows
  then finish together.  Inside that cascade, taps on the ``ctx``
  completions cancel one ``ctx`` flow (3rd completion), halve the link
  (5th, both directions), start a two-link ``cross`` flow a->c that
  joins the component (6th) and finishes later, and start one more
  single-link ``late`` flow (8th).
* ``d->e`` (1.25e9 B/s) gets two groups of flows whose sizes differ by
  fractions of a byte, started by separate timers at t=3600 and
  t=3700.  At that clock one ulp of time is ~2e-4 B at the fill, so arm
  times tie across different remainders: a lower-id flow with a larger
  remainder ties a higher-id one with a tiny positive remainder.

``golden/flow_cascades.json`` holds every completed flow as a
:class:`~repro.network.flows.FlowRecord` row ``[src, dst, size,
started_at, finished_at, tag]`` in completion order, the billed bytes
per site pair, the final clock, the number of events the kernel
dispatched and the final kernel sequence number.  The run must match
it bit for bit on the heap and the calendar queue.  Regenerate it only
for an intended change to the flow model::

    PYTHONPATH=src python -m tests.test_flow_cascades_golden
"""

import json
from pathlib import Path

import pytest

from repro.network import BillingMeter, FlowScheduler, Site, Topology
from repro.obs import kernel_stats
from repro.simkernel import Simulator

from tests.flow_oracle import FlowLog

GOLDEN = Path(__file__).resolve().parent / "golden" / "flow_cascades.json"

N_CTX = 12
#: Sizes of the d->e groups and the clock each group starts at.
TIE_GROUPS = (
    (3600.0, (2097152.0, 2097152.0006, 2097152.0003, 2097152.0004,
              2097152.0005)),
    (3700.0, (1048576.0003, 1048576.0005, 1048576.0002, 1048576.0001)),
)


def cascade_run(queue, observe=None):
    """Run the scenario; returns ``(sim, billing, log)``.

    ``observe(sched)``, if given, is called after every batched
    recompute of the scheduler.
    """
    sim = Simulator(queue=queue)
    topo = Topology()
    for name in "abcde":
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=2.0 ** 20, latency=0.0)
    topo.connect("b", "c", bandwidth=2.0 ** 21, latency=0.002)
    topo.connect("d", "e", bandwidth=1.25e9, latency=0.0)
    billing = BillingMeter()
    sched = FlowScheduler(sim, topo, billing=billing)
    log = FlowLog(sched)
    if observe is not None:
        run_batch = sched._run_batch

        def observed(event):
            run_batch(event)
            observe(sched)

        sched._run_batch = observed
    ctx = []

    def start(src, dst, size, tag):
        def fire(_ev):
            flow = sched.start_flow(src, dst, size, tag=tag)
            if tag == "ctx":
                ctx.append(flow)
        return fire

    for _ in range(N_CTX):
        sim.call_in(0.0, start("a", "b", 2.0 ** 16, "ctx"))

    def small(_ev):
        for _ in range(4):
            sched.start_flow("a", "b", 2.0 ** 15, tag="small")

    sim.call_in(0.0, small)
    done = []

    def mid_cascade(record):
        if record.tag != "ctx":
            return
        done.append(record)
        if len(done) == 3:
            sched.cancel(ctx[8])
        elif len(done) == 5:
            topo.set_bandwidth("a", "b", 2.0 ** 19)
        elif len(done) == 6:
            sched.start_flow("a", "c", 2.0 ** 18, tag="cross")
        elif len(done) == 8:
            sched.start_flow("a", "b", 2.0 ** 14, tag="late")

    sched.taps.append(mid_cascade)
    for at, sizes in TIE_GROUPS:
        for k, size in enumerate(sizes):
            sim.call_in(at, start("d", "e", size, f"tie{k}"))
    sim.run()
    return sim, billing, log


def payload(queue="heap"):
    sim, billing, log = cascade_run(queue)
    return {
        "records": [[r.src, r.dst, r.size, r.started_at, r.finished_at,
                     r.tag] for r in log.records],
        "pair_bytes": {f"{src}->{dst}": nbytes for (src, dst), nbytes
                       in sorted(billing.pair_bytes.items())},
        "now": sim.now,
        "events_dispatched": kernel_stats(sim).events_dispatched,
        "seq": sim._seq,
    }


@pytest.mark.parametrize("queue", ["heap", "calendar"])
def test_cascade_completions_match_golden(queue):
    got = json.loads(json.dumps(payload(queue)))
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert got["events_dispatched"] == want["events_dispatched"]
    assert got["seq"] == want["seq"]
    assert got["now"] == want["now"]
    assert got["pair_bytes"] == want["pair_bytes"]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"record {i}"


def test_cascade_scenario_covers_its_cases():
    """The scenario really holds the shapes the golden is meant to pin,
    read from flow state after every batch."""
    seen = {"batches_at": {}, "zero": 0, "tiny_tie": 0}

    def observe(sched):
        now = sched.sim.now
        seen["batches_at"][now] = seen["batches_at"].get(now, 0) + 1
        armed = sorted((f.id, f.remaining, now + f.remaining / f.rate)
                       for f in sched.active_flows
                       if f._last_settled == now and f.rate > 0)
        seen["zero"] += sum(1 for _, rem, _ in armed if rem == 0.0)
        for i, (_, rem_lo, at_lo) in enumerate(armed):
            for _, rem_hi, at_hi in armed[i + 1:]:
                if at_lo == at_hi and rem_lo > rem_hi > 0.0:
                    seen["tiny_tie"] += 1

    _sim, _billing, log = cascade_run("heap", observe)
    batches_at = seen["batches_at"]
    assert batches_at[0.0] == N_CTX + 1  # one per ctx timer + the smalls
    assert batches_at[0.5] == 4  # the smalls leave one by one
    assert max(batches_at.values()) >= N_CTX
    assert seen["zero"] and seen["tiny_tie"]
    tags = [r.tag for r in log.records]
    assert "cross" in tags and "late" in tags
    assert [f.tag for f in log.cancelled] == ["ctx"]
    cascade = [r.finished_at for r in log.records if r.tag == "ctx"]
    assert len(set(cascade)) == 1 and len(cascade) == N_CTX - 1


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(payload(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
