"""Unit tests for small supporting modules: packet estimation, usage
metering, unit helpers, EMR policy arithmetic."""

import numpy as np
import pytest

from repro.cloud import InstancePricing, UsageMeter
from repro.controlplane.jobs import JobState
from repro.controlplane.statemachine import LeaseState
from repro.mapreduce.job import TaskKind
from repro.network import (
    MTU,
    TransferClass,
    record_packets,
    segments,
    wire_bytes,
)
from repro.network.units import (
    GB,
    Gbit,
    KB,
    MB,
    Mbit,
    PAGE_SIZE,
    gbit_per_s,
    mbit_per_s,
)


# -- units ---------------------------------------------------------------


def test_unit_constants_consistent():
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert PAGE_SIZE == 4096
    assert mbit_per_s(8) == 1e6  # 8 Mbit/s == 1 MB/s
    assert gbit_per_s(1) == 1000 * Mbit
    assert Gbit == 1000 * Mbit


# -- packet estimation ------------------------------------------------------


def test_segments_zero_and_rounding():
    assert segments(0) == 0
    assert segments(1) == 1
    payload = MTU - 40
    assert segments(payload) == 1
    assert segments(payload + 1) == 2


def test_segments_negative_rejected():
    with pytest.raises(ValueError):
        segments(-1)


def test_wire_bytes_exceeds_payload():
    assert wire_bytes(10_000) > 10_000


def test_record_packets_counts_acks():
    from repro.network.flows import Flow, FlowRecord
    from repro.network.topology import DirectedLink
    from repro.simkernel import Simulator

    sim = Simulator()
    link = DirectedLink("a", "b", 1e6, 0.0)
    flow = Flow(sim, "a", "b", 1_000_000, [link], None, "t", {})
    flow.finished_at = 1.0
    record = FlowRecord(flow)
    n_data = segments(1_000_000)
    assert record_packets(record) == n_data + n_data // 2


# -- usage metering ---------------------------------------------------------


def test_usage_meter_lifecycle():
    # (rebills before the stop at t=3600, cost of the whole run): a
    # spot re-pricing mid-run must not drop the earlier segment.
    for rebills, expected in [((), 0.10), (((1800.0, 0.03),), 0.065)]:
        meter = UsageMeter(InstancePricing(on_demand_hourly=0.10))
        meter.start("vm1", at=0.0)
        assert meter.running_count == 1
        for at, rate in rebills:
            meter.rebill("vm1", at=at, hourly_rate=rate)
        cost = meter.stop("vm1", at=3600.0)
        assert cost == pytest.approx(expected)
        assert cost == pytest.approx(
            sum(c for _, _, c in meter.segments("vm1")))
        assert meter.running_count == 0


def test_usage_meter_double_start_rejected():
    meter = UsageMeter(InstancePricing())
    meter.start("vm1", at=0.0)
    with pytest.raises(ValueError):
        meter.start("vm1", at=1.0)


def test_usage_meter_stop_unknown_rejected():
    meter = UsageMeter(InstancePricing())
    with pytest.raises(ValueError):
        meter.stop("ghost", at=1.0)


def test_usage_meter_stop_before_start_rejected():
    meter = UsageMeter(InstancePricing())
    meter.start("vm1", at=100.0)
    with pytest.raises(ValueError):
        meter.stop("vm1", at=50.0)


def test_usage_meter_custom_rate_and_running_cost():
    meter = UsageMeter(InstancePricing(on_demand_hourly=0.10))
    meter.start("cheap", at=0.0, hourly_rate=0.02)
    meter.start("normal", at=0.0)
    assert meter.cost(now=3600.0) == pytest.approx(0.12)
    meter.stop("cheap", at=3600.0)
    assert meter.cost(now=7200.0) == pytest.approx(0.02 + 0.20)


# -- EMR policy arithmetic ----------------------------------------------------


def test_deadline_policy_returns_step_when_late():
    from repro.emr.policies import DeadlineScalePolicy

    class FakeRun:
        def __init__(self, job):
            self.job = job
            self.finished = False
            self.pending_maps = job.make_tasks()[:4]
            self.pending_reduces = []
            self.running = {}

    from repro.mapreduce import MapReduceJob

    job = MapReduceJob("j", np.full(4, 100.0), np.array([]))

    class FakeJT:
        total_slots = 2
        trackers = {"a": None, "b": None}

        def __init__(self):
            self.current = FakeRun(job)

    policy = DeadlineScalePolicy(step=3)
    # Deadline already passed: add the step anyway.
    assert policy.decide(FakeJT(), job, deadline=-10.0, now=0.0) == 3


def test_estimate_remaining_counts_running_at_half():
    from repro.emr.policies import estimate_remaining_seconds
    from repro.mapreduce import MapReduceJob
    from repro.mapreduce.job import Task, TaskKind

    job = MapReduceJob("j", np.array([100.0, 100.0]), np.array([]))

    class FakeRun:
        def __init__(self):
            self.job = job
            self.finished = False
            self.pending_maps = [Task(job, TaskKind.MAP, 0)]
            self.pending_reduces = []
            self.running = {Task(job, TaskKind.MAP, 1): None}

    class FakeJT:
        total_slots = 2
        current = FakeRun()

    # 100 pending + 50 running-residual over 2 slots = 75 s.
    assert estimate_remaining_seconds(FakeJT(), job) == pytest.approx(75.0)


def test_estimate_infinite_without_slots():
    from repro.emr.policies import estimate_remaining_seconds
    from repro.mapreduce import MapReduceJob

    job = MapReduceJob("j", np.array([10.0]), np.array([]))

    class FakeRun:
        job = None
        finished = False

    class FakeJT:
        total_slots = 0
        current = FakeRun()

    FakeJT.current.job = job
    FakeJT.current.pending_maps = []
    FakeJT.current.pending_reduces = []
    FakeJT.current.running = {}
    # No remaining work: zero regardless of slots.
    assert estimate_remaining_seconds(FakeJT(), job) == 0.0
    # Remaining work but no slots: unbounded projection.
    from repro.mapreduce.job import Task, TaskKind
    FakeJT.current.pending_maps = [Task(job, TaskKind.MAP, 0)]
    assert estimate_remaining_seconds(FakeJT(), job) == float("inf")


# -- enum keys -------------------------------------------------------------


@pytest.mark.parametrize("enum_cls",
                         [TaskKind, TransferClass, JobState, LeaseState],
                         ids=lambda cls: cls.__name__)
def test_hot_key_enums_hash_by_identity(enum_cls):
    # Dict keys on hot paths: the C-level identity hash, which agrees
    # with Enum equality because members are singletons.
    assert enum_cls.__hash__ is object.__hash__
    table = {member: i for i, member in enumerate(enum_cls)}
    for i, member in enumerate(enum_cls):
        assert hash(member) == object.__hash__(member)
        assert enum_cls(member.value) is member
        assert table[enum_cls(member.value)] == i
    assert list(table) == list(enum_cls)
