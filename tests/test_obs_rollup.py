"""Health rollups pivot labeled series without merging any of them."""

from repro.metrics import MetricsRecorder
from repro.obs import health_rollups, rollup
from repro.simkernel import Simulator


def _recorder():
    rec = MetricsRecorder(Simulator())
    reclaims = {("alice", "c0"): 3, ("alice", "c1"): 2, ("bob", "c0"): 1}
    for (tenant, cloud), n in reclaims.items():
        counter = rec.counter("spot.reclaims",
                              labels={"tenant": tenant, "cloud": cloud})
        for _ in range(n):
            counter.inc()
    rec.histogram("queue.wait", labels={"tenant": "alice"}).observe(4.0)
    rec.record("queue.depth", 7)  # flat: in no rollup
    return rec


def test_series_sharing_base_and_pivot_value_keep_their_own_entries():
    by_tenant = rollup(_recorder(), "tenant")
    alice = by_tenant["alice"]
    assert sorted(alice) == ["queue.wait", "spot.reclaims{cloud=c0}",
                             "spot.reclaims{cloud=c1}"]
    assert (alice["spot.reclaims{cloud=c0}"].count,
            alice["spot.reclaims{cloud=c0}"].last) == (3, 3.0)
    assert (alice["spot.reclaims{cloud=c1}"].count,
            alice["spot.reclaims{cloud=c1}"].last) == (2, 2.0)
    assert sorted(by_tenant["bob"]) == ["spot.reclaims{cloud=c0}"]


def test_every_labeled_series_lands_in_each_of_its_dimensions():
    rec = _recorder()
    rollups = health_rollups(rec)
    assert sorted(rollups) == ["cloud", "tenant"]
    for dim, groups in rollups.items():
        carriers = [n for n in rec.names() if dim in rec.get(n).labels]
        assert sum(len(entries) for entries in groups.values()) \
            == len(carriers)
    assert sorted(rollups["cloud"]["c0"]) == ["spot.reclaims{tenant=alice}",
                                              "spot.reclaims{tenant=bob}"]
