"""Golden flow completions of a churn storm and of the smoke SCALE run.

``golden/flow_completions.json`` holds, for two scenarios, every
completed flow as a :class:`~repro.network.flows.FlowRecord` row
``[src, dst, size, started_at, finished_at, tag]`` in completion order,
the billing meter's per-site-pair bytes, the final clock and the number
of events the kernel dispatched:

* ``storm`` — a reduced ``benchmarks/bench_flows.py`` storm: 210 flows
  over a 5-site mesh, a fifth of them rate-capped, every 7th cancelled
  mid-transfer, arriving in groups of equal-size flows on one site pair
  so that their completions coincide, on a time and size grid that
  makes completions coincide with arrivals and cancellations too;
* ``sky_blast`` — the smoke ``SkyBlast`` of ``benchmarks/e2e/scenarios.py``
  (32-VM chain+CoW cluster on four clouds, then BLAST), seed 0.

Both run on the heap and the calendar queue and must match the same
golden bit for bit, so any change to when the flow scheduler arms,
re-arms or fires a completion shows up as a diff.  Regenerate it only
for an intended change to the flow model::

    PYTHONPATH=src python -m tests.test_flow_completions_golden

Both scenarios are also replayed through the exact fluid oracle
(:mod:`tests.flow_oracle`): :data:`ORACLE_BAR` is each one's worst
relative distance of a completion time from the oracle, and a re-pin
must not move any scenario further from it.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.network import BillingMeter, FlowScheduler, Site, Topology
from repro.obs import kernel_stats
from repro.simkernel import Simulator

from tests.flow_oracle import FlowLog, rel_err, replay

_SPEC = importlib.util.spec_from_file_location(
    "e2e_scenarios",
    Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "scenarios.py")
scenarios = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scenarios)

GOLDEN = Path(__file__).resolve().parent / "golden" / "flow_completions.json"

N_SITES = 5
N_GROUPS = 70
GROUP = 3  # equal-size flows per group, started together
CANCEL_EVERY = 7

#: Worst relative distance of a completion time from the exact fluid
#: replay, per scenario (x86_64, CPython 3.11; the floats are
#: deterministic).  180 of the storm's 210 flows finish, 107 of SCALE's.
ORACLE_BAR = {"storm": 1.839796528374176e-16,
              "sky_blast": 1.220077647415582e-16}


def storm(queue):
    """The reduced churn storm; returns ``(sim, billing, log)`` after the
    run, ``log`` the :class:`FlowLog` of its scheduler."""
    rng = np.random.default_rng(7)
    sim = Simulator(queue=queue)
    topo = Topology()
    for i in range(N_SITES):
        topo.add_site(Site(f"s{i}"))
    for i in range(N_SITES):
        for j in range(i + 1, N_SITES):
            topo.connect(f"s{i}", f"s{j}", bandwidth=1e6,
                         latency=0.01 * ((i + j) % 2))
    billing = BillingMeter()
    sched = FlowScheduler(sim, topo, billing=billing)
    log = FlowLog(sched)
    # Arrivals on a half-second grid and sizes, caps and cancellation
    # delays in binary fractions of the link rate: many completions land
    # exactly on an arrival, a cancellation or another completion, so
    # the same-instant order of the kernel's entries shows in the output.
    groups = []
    for _ in range(N_GROUPS):
        src, dst = rng.choice(N_SITES, size=2, replace=False)
        groups.append((0.5 * float(rng.integers(0, 60)), f"s{src}", f"s{dst}",
                       2.5e5 * float(rng.integers(2, 12)),
                       [None if rng.random() < 0.8
                        else float(rng.choice([6.25e4, 1.25e5, 2.5e5]))
                        for _ in range(GROUP)],
                       0.25 * float(rng.integers(1, 12))))
    groups.sort()

    def cancel_later(flow, delay):
        yield sim.timeout(delay)
        sched.cancel(flow)

    def driver():
        now, k = 0.0, 0
        for at, src, dst, size, caps, cancel_after in groups:
            if at > now:
                yield sim.timeout(at - now)
                now = at
            for cap in caps:
                flow = sched.start_flow(src, dst, size, rate_cap=cap,
                                        tag=f"g{k // GROUP}")
                if k % CANCEL_EVERY == 0:
                    sim.process(cancel_later(flow, cancel_after))
                k += 1

    sim.process(driver())
    sim.run()
    return sim, billing, log


def sky_blast(queue):
    """The smoke SCALE scenario at seed 0, observed the same way."""
    scenario = scenarios.SkyBlast(0, smoke=True, queue=queue)
    log = FlowLog(scenario.tb.scheduler)
    scenario.run()
    return scenario.tb.sim, scenario.tb.billing, log


SCENARIOS = {"storm": storm, "sky_blast": sky_blast}


def completions(name, queue="heap"):
    """The pinned payload of one scenario, plus its conservation terms."""
    sim, billing, log = SCENARIOS[name](queue)
    records, cancelled = log.records, log.cancelled
    payload = {
        "records": [[r.src, r.dst, r.size, r.started_at, r.finished_at,
                     r.tag] for r in records],
        "pair_bytes": {f"{src}->{dst}": nbytes for (src, dst), nbytes
                       in sorted(billing.pair_bytes.items())},
        "now": sim.now,
        "events_dispatched": kernel_stats(sim).events_dispatched,
    }
    delivered = (sum(r.size for r in records if r.src != r.dst)
                 + sum(f.transferred for f in cancelled if f.src != f.dst))
    return payload, billing.total_cross_site_bytes, delivered, cancelled


@pytest.mark.parametrize("queue", ["heap", "calendar"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flow_completions_match_golden(name, queue):
    got, billed, delivered, cancelled = completions(name, queue)
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = json.loads(json.dumps(got))
    assert got["events_dispatched"] == want["events_dispatched"]
    assert got["now"] == want["now"]
    assert got["pair_bytes"] == want["pair_bytes"]
    assert len(got["records"]) == len(want["records"])
    for i, (g, w) in enumerate(zip(got["records"], want["records"])):
        assert g == w, f"record {i}"
    if name == "storm":
        assert cancelled
    # Bytes billed equal bytes delivered: every completed cross-site
    # flow's size plus what each cancelled one moved before it stopped.
    # The residue is a completed flow's final sub-EPSILON remainder,
    # which is zeroed at completion and never billed; it is why SCALE's
    # wan_bytes ends in ...7.9999754 rather than on a whole byte.
    assert abs(billed - delivered) <= 1e-9 * delivered


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_flow_completions_within_oracle_bar(name):
    _sim, _billing, log = SCENARIOS[name]("heap")
    finished = replay(log)
    assert [f for f in log.flows if f.finished_at is not None] \
        == [f for f in log.flows if f in finished]
    worst = max(rel_err(f.finished_at, at) for f, at in finished.items())
    assert worst <= ORACLE_BAR[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: completions(name)[0] for name in sorted(SCENARIOS)},
                   indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
