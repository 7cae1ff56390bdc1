"""Property-based tests for simulation-kernel invariants."""

from hypothesis import given, settings, strategies as st

from repro.simkernel import Simulator


@given(
    delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=50),
)
@settings(max_examples=60, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        t = sim.timeout(d, value=d)
        t.callbacks.append(lambda ev: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(
    delays=st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=20),
)
@settings(max_examples=40, deadline=None)
def test_same_delay_events_fire_fifo(delays):
    """Ties break by creation order — determinism guarantee."""
    sim = Simulator()
    order = []
    for i, d in enumerate(delays):
        t = sim.timeout(round(d, 1), value=i)
        t.callbacks.append(lambda ev: order.append(ev.value))
    sim.run()
    # Stable sort by (time, creation index) must match.
    expected = [i for _, i in sorted(
        ((round(d, 1), i) for i, d in enumerate(delays)))]
    assert order == expected


@given(
    seeds=st.integers(min_value=0, max_value=2**31),
    n_procs=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_simulation_is_deterministic(seeds, n_procs):
    """Two identical runs produce identical traces."""
    import numpy as np

    def trace():
        sim = Simulator()
        rng = np.random.default_rng(seeds)
        log = []

        def proc(sim, i):
            for _ in range(5):
                yield sim.timeout(float(rng.random()))
                log.append((i, sim.now))

        for i in range(n_procs):
            sim.process(proc(sim, i))
        sim.run()
        return log

    assert trace() == trace()
