"""Property: lazily armed processor-sharing links complete every flow
exactly as per-flow timers do.

Random worlds put flows on one WAN link pair, mostly single-link,
uncapped and of weight 1.0 (processor-sharing), on a coarse clock and a
binary size grid so that arrivals, completions, cancellations and
capacity changes coincide: same-instant arrival cascades (one timer per
flow), departure cascades of equal flows, and, at a large clock, copies
whose sizes shrink by a fraction of a byte from one to the next, so a
lower-id flow with a larger remainder ties the arm time of a later one.
A few flows are capped, weighted or cross a second link, which takes
their link off the lazy path and back.  Each world runs with
:class:`~repro.network.FlowScheduler` and with
:class:`tests.flow_reference.EagerFlowScheduler`; the completion rows,
every flow's rate after each batch, the billed bytes, the events
dispatched and the kernel's sequence number must all agree, on either
queue backend.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import BillingMeter, FlowScheduler, Site, Topology
from repro.obs import kernel_stats
from repro.simkernel import Simulator

from tests.flow_reference import EagerFlowScheduler

STEP = 0.125  # the clock grid every operation lands on

starts = st.lists(st.fixed_dictionaries({
    "at": st.integers(0, 12),
    "route": st.sampled_from([("a", "b")] * 4 + [("b", "a"), ("a", "c")]),
    "size": st.sampled_from([2.0 ** 14, 2.0 ** 15, 2.0 ** 16, 3 * 2.0 ** 14]),
    "nudge": st.sampled_from([0.0, 0.0, 1e-5, 1e-4]),
    "copies": st.integers(1, 5),
    "one_call": st.booleans(),
    "shape": st.sampled_from(["ps"] * 8 + ["cap", "weight"]),
}), min_size=1, max_size=8)

controls = st.lists(st.fixed_dictionaries({
    "at": st.integers(0, 16),
    "action": st.sampled_from(["cancel", "cancel", "capacity"]),
    "pick": st.integers(0, 40),
    "bandwidth": st.sampled_from([2.0 ** 19, 2.0 ** 20, 1e6]),
    "both": st.booleans(),
}), max_size=6)


def world(plan, make):
    """Run ``plan`` with scheduler class ``make``; returns what must agree."""
    sim = Simulator(initial_time=plan["t0"], queue=plan["queue"])
    topo = Topology()
    for name in "abc":
        topo.add_site(Site(name))
    topo.connect("a", "b", bandwidth=plan["bandwidth"], latency=0.0)
    topo.connect("b", "c", bandwidth=2.0 ** 21, latency=0.001)
    billing = BillingMeter()
    sched = make(sim, topo, billing=billing)
    flows, rows, rates = [], [], []
    sched.taps.append(lambda r: rows.append((r.meta["idx"], r.finished_at)))
    run_batch = sched._run_batch

    def observed(event):
        run_batch(event)
        rates.append((sim.now, sorted((f.meta["idx"], f.rate)
                                      for f in sched.active_flows)))

    sched._run_batch = observed

    def start(spec, copy):
        src, dst = spec["route"]
        kwargs = {"rate_cap": 2.0 ** 17} if spec["shape"] == "cap" else (
            {"weight": 2.0} if spec["shape"] == "weight" else {})
        size = spec["size"] + spec["nudge"] * (spec["copies"] - copy)
        flows.append(sched.start_flow(src, dst, size, idx=len(flows),
                                      **kwargs))

    def at(k):
        return plan["t0"] + k * STEP - sim.now

    for spec in plan["starts"]:
        if spec["one_call"]:
            def fire(_ev, spec=spec):
                for copy in range(spec["copies"]):
                    start(spec, copy)
            sim.call_in(at(spec["at"]), fire)
        else:
            for copy in range(spec["copies"]):
                sim.call_in(at(spec["at"]), lambda _ev, spec=spec, copy=copy:
                            start(spec, copy))

    def control(_ev, spec):
        if spec["action"] == "cancel":
            if flows:
                sched.cancel(flows[spec["pick"] % len(flows)])
        else:
            topo.set_bandwidth("a", "b", spec["bandwidth"],
                               both_directions=spec["both"])

    for spec in plan["controls"]:
        sim.call_in(at(spec["at"]), lambda _ev, spec=spec: control(_ev, spec))
    sim.run()
    return {
        "rows": rows,
        "rates": rates,
        "billed": sorted(billing.pair_bytes.items()),
        "now": sim.now,
        "events": kernel_stats(sim).events_dispatched,
        "seq": sim._seq,
        "stats": (sched.stats["batches"], sched.stats["flows_rerated"]),
    }


@settings(max_examples=60, deadline=None)
@given(starts=starts, controls=controls,
       t0=st.sampled_from([0.0, 3600.0]),
       bandwidth=st.sampled_from([2.0 ** 20, 1e6, 1.25e9]),
       queue=st.sampled_from(["heap", "calendar"]))
def test_lanes_complete_flows_as_per_flow_timers_do(starts, controls, t0,
                                                    bandwidth, queue):
    plan = {"starts": starts, "controls": controls, "t0": t0,
            "bandwidth": bandwidth, "queue": queue}
    got = world(plan, FlowScheduler)
    want = world(plan, EagerFlowScheduler)
    assert got["rates"] == want["rates"]
    assert got["rows"] == want["rows"]
    assert got == want
