"""Tests for the event-sourced control plane: typed state machines,
the durable event log, kill-and-replay recovery, and reconciliation."""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.controlplane import (
    ControlPlane,
    EventLog,
    EventLogError,
    FailureInjector,
    JOB_MACHINE,
    Job,
    JobState,
    LEASE_MACHINE,
    LeaseState,
    SchedulerConfig,
    StateEvent,
    TransitionError,
    eventlog_of,
    machine_for,
    rebuild,
    recover,
    state_dict,
    transition,
    validate_events,
)
from repro.obs import Tracer
from repro.simkernel import Simulator
from repro.testbeds import SiteSpec, sky_testbed


def small_testbed(n_clouds=3, n_hosts=2, cores=8, seed=7):
    sites = [SiteSpec(f"c{i}", n_hosts=n_hosts, cores_per_host=cores,
                      on_demand_hourly=0.10 + 0.02 * i,
                      region="eu" if i < 2 else "us")
             for i in range(n_clouds)]
    return sky_testbed(sites=sites, memory_pages=256, image_blocks=512,
                       seed=seed)


def make_plane(tb=None, **kwargs):
    tb = tb or small_testbed()
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name,
                         **kwargs).start()
    return tb, plane


def run_workload(tb, plane, n_jobs=6, runtime=60.0):
    plane.register_tenant("alice", weight=2.0)
    plane.register_tenant("bob")
    jobs = [plane.submit(t, n_nodes=2, runtime=runtime)
            for t in ("alice", "bob") for _ in range(n_jobs // 2)]
    tb.sim.run(until=plane.all_done(jobs))
    return jobs


# -- state machines ------------------------------------------------------


def test_job_machine_declares_the_paper_lifecycle():
    m = JOB_MACHINE
    assert m.allowed(JobState.PENDING, JobState.QUEUED)
    assert m.allowed(JobState.QUEUED, JobState.PROVISIONING)
    assert m.allowed(JobState.PROVISIONING, JobState.RUNNING)
    assert m.allowed(JobState.PROVISIONING, JobState.QUEUED)
    assert m.allowed(JobState.RUNNING, JobState.COMPLETED)
    # Terminal states are sinks; queue-jumping is illegal.
    assert not m.allowed(JobState.COMPLETED, JobState.RUNNING)
    assert not m.allowed(JobState.PENDING, JobState.RUNNING)
    assert not m.allowed(JobState.QUEUED, JobState.RUNNING)


def test_illegal_transition_raises_and_leaves_state_untouched():
    sim = Simulator()
    job = Job(sim, "alice", 1, 10.0)
    assert job.state is JobState.PENDING
    with pytest.raises(TransitionError, match="illegal job transition"):
        transition(job, JobState.RUNNING)
    assert job.state is JobState.PENDING  # unchanged on failure
    with pytest.raises(TransitionError):
        transition(job, JobState.COMPLETED)


def test_lease_machine_single_ended_lifecycle():
    assert LEASE_MACHINE.allowed(LeaseState.ACTIVE, LeaseState.RELEASED)
    assert LEASE_MACHINE.allowed(LeaseState.ACTIVE, LeaseState.EXPIRED)
    assert not LEASE_MACHINE.allowed(LeaseState.RELEASED,
                                     LeaseState.EXPIRED)
    assert machine_for(JobState) is JOB_MACHINE
    assert machine_for(LeaseState) is LEASE_MACHINE
    with pytest.raises(TransitionError):
        machine_for(str)


def test_every_transition_commits_one_event():
    sim = Simulator()
    log = EventLog(sim).install()
    job = Job(sim, "alice", 1, 10.0)
    transition(job, JobState.QUEUED, cause="submit")
    transition(job, JobState.PROVISIONING, cause="dispatch")
    transition(job, JobState.RUNNING, cause="provisioned")
    transition(job, JobState.COMPLETED, cause="work-done")
    kinds = [(e.frm, e.to) for e in log]
    assert kinds == [("pending", "queued"), ("queued", "provisioning"),
                     ("provisioning", "running"),
                     ("running", "completed")]
    assert [e.seq for e in log] == [1, 2, 3, 4]
    assert all(e.entity == job.id for e in log)
    # Enrichment carries the replay facts.
    assert log.events[-1].detail["tenant"] == "alice"
    assert log.events[-1].detail["work"] == job.work_remaining


# -- the event log -------------------------------------------------------


def test_eventlog_appends_monotone_and_jsonl_round_trips(tmp_path):
    sim = Simulator()
    log = EventLog(sim)
    log.append("tenant", "alice", to="registered", weight=2.0)
    sim.run(until=10.0)
    log.append("job", 1, to="queued", frm="pending", cause="submit",
               work=60.0)
    assert log.last_seq == 2
    path = tmp_path / "events.jsonl"
    assert log.dump_jsonl(path) == 2
    loaded = EventLog.load_jsonl(path)
    assert loaded == log.events  # frozen dataclass equality, exact floats
    # Each line is one sorted-key JSON object (the CI contract).
    doc = json.loads(path.read_text().splitlines()[0])
    assert list(doc) == sorted(doc)
    assert doc["seq"] == 1 and doc["kind"] == "tenant"


def test_eventlog_write_through_survives_without_dump(tmp_path):
    sim = Simulator()
    path = tmp_path / "wal.jsonl"
    log = EventLog(sim, path=path).install()
    log.append("tenant", "alice", to="registered")
    log.append("job", 1, to="queued", frm="pending")
    log.close()
    assert len(EventLog.load_jsonl(path)) == 2


def test_validate_events_rejects_disorder():
    ev = lambda seq, time: StateEvent(seq=seq, time=time, kind="job",
                                      entity=1, frm=None, to="queued")
    validate_events([ev(1, 0.0), ev(2, 0.0), ev(3, 5.0)])
    with pytest.raises(EventLogError, match="duplicate or"):
        validate_events([ev(1, 0.0), ev(1, 1.0)])
    with pytest.raises(EventLogError, match="precedes"):
        validate_events([ev(1, 5.0), ev(2, 1.0)])
    with pytest.raises(EventLogError):
        EventLog(Simulator(), events=[ev(2, 0.0), ev(1, 1.0)])


def test_primed_log_continues_the_sequence():
    sim = Simulator()
    history = [StateEvent(seq=i, time=0.0, kind="job", entity=1,
                          frm=None, to="queued") for i in (1, 2, 3)]
    log = EventLog(sim, events=history)
    ev = log.append("job", 1, to="provisioning", frm="queued")
    assert ev.seq == 4
    assert log.since(2) == [history[2], ev]


# -- full-run event sourcing --------------------------------------------


def test_workload_log_is_replayable_and_complete():
    tb, plane = make_plane()
    jobs = run_workload(tb, plane)
    log = eventlog_of(tb.sim)
    validate_events(log.events)
    assert len(log) > 0
    state = rebuild(log)
    assert state.state_dict() == state_dict(plane)
    assert all(state.jobs[j.id].state == "completed" for j in jobs)
    # Usage folded from charge details equals the live books exactly.
    for name, tenant in plane.queue.tenants.items():
        assert state.tenants[name].usage == tenant.usage
        assert state.tenants[name].reserved == tenant.reserved == 0.0


def test_rebuild_tolerates_duplicate_delivery():
    tb, plane = make_plane()
    run_workload(tb, plane)
    events = list(eventlog_of(tb.sim))
    k = len(events) // 2
    # At-least-once delivery: a replayed overlap must change nothing.
    duplicated = events[:k] + events[k // 2:k] + events[k:]
    assert rebuild(duplicated).state_dict() == rebuild(events).state_dict()
    assert rebuild(events + events).state_dict() == \
        rebuild(events).state_dict()


def test_kill_and_replay_matches_live_state_at_every_event():
    """The tentpole invariant: for *every* prefix of the log, replaying
    it reconstructs exactly the state the plane had when that prefix
    ended (snapshot taken at append time via the subscriber hook)."""
    tb, plane = make_plane()
    log = eventlog_of(tb.sim)
    snapshots = {}
    log.subscribe(
        lambda ev: snapshots.__setitem__(
            ev.seq, copy.deepcopy(state_dict(plane))))
    run_workload(tb, plane, n_jobs=4, runtime=45.0)
    events = list(log)
    assert len(events) >= 20
    for k in range(1, len(events) + 1):
        assert rebuild(events[:k]).state_dict() == snapshots[k], \
            f"replay diverged at seq {k}: {events[k - 1]}"


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_crash_at_random_event_replays_exactly(data):
    """Property form: crash the plane at a random point in its history;
    the replayed prefix equals the state snapshot taken at that event."""
    seed = data.draw(st.integers(min_value=0, max_value=2**16),
                     label="seed")
    tb, plane = make_plane(small_testbed(seed=seed))
    log = eventlog_of(tb.sim)
    snapshots = {}
    log.subscribe(
        lambda ev: snapshots.__setitem__(
            ev.seq, copy.deepcopy(state_dict(plane))))
    run_workload(tb, plane, n_jobs=4, runtime=30.0)
    events = list(log)
    crash_at = data.draw(st.integers(min_value=1,
                                     max_value=len(events)),
                         label="crash_at")
    replayed = rebuild(events[:crash_at]).state_dict()
    assert replayed == snapshots[crash_at]


# -- crash recovery ------------------------------------------------------


def test_recover_restarts_queued_jobs_to_completion():
    tb, plane = make_plane()
    plane.register_tenant("alice")
    jobs = [plane.submit("alice", n_nodes=2, runtime=120.0)
            for _ in range(4)]
    tb.sim.run(until=40.0)  # some running, some queued
    log = plane.crash()
    mid_states = {j.state for j in jobs}
    assert JobState.COMPLETED not in mid_states  # crashed mid-flight

    plane2 = recover(tb.sim, tb.federation, tb.image_name, log).start()
    plane2.reconciler = None  # exercised separately below
    # Recovered books match the log exactly.
    assert state_dict(plane2)["tenants"] == \
        rebuild(log).state_dict()["tenants"]
    from repro.controlplane.recovery import Reconciler
    Reconciler(tb.sim, plane2).reconcile(force=True)
    jobs2 = list(plane2.queue.jobs.values())
    tb.sim.run(until=plane2.all_done(jobs2))
    assert all(j.state is JobState.COMPLETED for j in jobs2)
    assert plane2.leases.leaked() == []
    validate_events(eventlog_of(tb.sim).events)


def test_crash_mid_provision_is_healed_by_reconciler():
    tb, plane = make_plane(small_testbed(n_clouds=1, n_hosts=1))
    plane.register_tenant("alice")
    job = plane.submit("alice", n_nodes=2, runtime=60.0)
    # Run just into the provisioning window: dispatch is immediate on
    # arrival, the cluster boot takes ~10 simulated seconds.
    tb.sim.run(until=5.0)
    assert job.state is JobState.PROVISIONING
    log = plane.crash()

    plane2 = recover(tb.sim, tb.federation, tb.image_name, log,
                     reconcile_interval=30.0).start()
    job2 = plane2.queue.jobs[job.id]
    assert job2.state is JobState.PROVISIONING  # as the log last knew
    drifts = plane2.reconciler.reconcile(force=True)
    assert any(d.kind == "stuck-job" and d.entity == job.id
               for d in drifts)
    tb.sim.run(until=plane2.all_done([job2]))
    assert job2.state is JobState.COMPLETED
    # Orphaned boot-time VMs were terminated, capacity returned.
    assert plane2.leases.leaked() == []


def test_recovered_completed_jobs_stay_done_and_counted():
    tb, plane = make_plane()
    jobs = run_workload(tb, plane, n_jobs=4)
    log = plane.crash()
    plane2 = recover(tb.sim, tb.federation, tb.image_name, log)
    assert plane2.scheduler.jobs_completed == len(jobs)
    for j in jobs:
        j2 = plane2.queue.jobs[j.id]
        assert j2.state is JobState.COMPLETED
        assert j2.done.triggered
    # Usage survived the crash to the float.
    assert {n: t.usage for n, t in plane2.queue.tenants.items()} == \
        {n: t.usage for n, t in plane.queue.tenants.items()}


def _live_index_holds(leases):
    """The live-lease index is exactly the active leases, in grant
    order — what a scan of every lease ever granted would return."""
    assert leases.active_leases() == [l for l in leases.leases if l.active]


def _watch_live_index(sim, leases, every=5.0):
    def watch():
        while True:
            _live_index_holds(leases)
            yield sim.timeout(every)
    return sim.process(watch())


def test_live_lease_index_tracks_expiry_requeue_and_recovery():
    cfg = SchedulerConfig(interval=5.0, max_attempts=10)
    tb, plane = make_plane(config=cfg, heal_policy="requeue",
                           health_interval=10.0)
    sim = tb.sim
    plane.register_tenant("alice")
    plane.register_tenant("bob", weight=2.0)

    def stray(term):
        # A holder that never renews: the sweeper expires it.
        cluster = yield tb.federation.create_virtual_cluster(
            tb.image_name, 1)
        plane.leases.grant("alice", cluster, term=term)

    sim.process(stray(40.0))
    sim.process(stray(90.0))
    jobs = [plane.submit(t, n_nodes=2, runtime=90.0)
            for t in ("alice", "bob") for _ in range(6)]
    injector = FailureInjector(sim, plane.leases, np.random.default_rng(3),
                               rate=1 / 300.0, tick=20.0)
    _watch_live_index(sim, plane.leases)
    sim.run(until=plane.all_done(jobs))
    injector.stop()
    assert plane.leases.expired_count >= 2
    assert plane.scheduler.jobs_requeued >= 1
    _live_index_holds(plane.leases)

    # Crash with leases live, then recover: restored leases re-enter
    # the index through the lease manager, in the log's order.
    more = [plane.submit(t, n_nodes=2, runtime=120.0)
            for t in ("alice", "bob") for _ in range(3)]
    sim.run(until=sim.now + 40.0)
    assert any(j.state is JobState.RUNNING for j in more)
    log = plane.crash()
    plane2 = recover(sim, tb.federation, tb.image_name, log,
                     reconcile_interval=30.0).start()
    assert plane2.leases.active_leases()
    _live_index_holds(plane2.leases)
    _watch_live_index(sim, plane2.leases)
    plane2.reconciler.reconcile(force=True)
    jobs2 = [plane2.queue.jobs[j.id] for j in more]
    sim.run(until=plane2.all_done(jobs2))
    assert all(j.state is JobState.COMPLETED for j in jobs2)
    _live_index_holds(plane2.leases)
    assert plane2.leases.leaked() == []


def test_cross_simulation_recovery_from_jsonl_snapshot(tmp_path):
    """The stronger durability story: a *new* process (fresh simulator)
    loads the JSONL snapshot and carries on the same sequence."""
    tb, plane = make_plane()
    run_workload(tb, plane, n_jobs=4)
    path = tmp_path / "events.jsonl"
    eventlog_of(tb.sim).dump_jsonl(path)

    events = EventLog.load_jsonl(path)
    tb2 = small_testbed()
    tb2.sim.run(until=plane.sim.now)  # clocks must not run backwards
    plane2 = recover(tb2.sim, tb2.federation, tb2.image_name, events)
    assert eventlog_of(tb2.sim).last_seq >= events[-1].seq
    assert plane2.scheduler.jobs_completed == 4
    jobs = [plane2.submit("alice", n_nodes=2, runtime=30.0)]
    plane2.start()
    tb2.sim.run(until=plane2.all_done(jobs))
    assert jobs[0].state is JobState.COMPLETED
    validate_events(eventlog_of(tb2.sim).events)


# -- reconciler ----------------------------------------------------------


def test_reconciler_debounces_first_sighting():
    tb, plane = make_plane()
    cloud = next(iter(tb.clouds.values()))
    tb.sim.run(until=cloud.run_instances(tb.image_name, 1,
                                         spec=plane.config.spec))
    from repro.controlplane.recovery import Reconciler
    rec = Reconciler(tb.sim, plane)
    assert [d.kind for d in rec.diff()] == ["orphan-vm"]
    # First sight of a drift is never healed without confirmation: an
    # in-flight grant looks exactly like this for one round.
    assert rec.reconcile() == []
    assert len(cloud.instances) == 1


def test_reconciler_heals_orphan_vms():
    tb, plane = make_plane()
    cloud = next(iter(tb.clouds.values()))
    vms = tb.sim.run(until=cloud.run_instances(
        tb.image_name, 1, spec=plane.config.spec))
    assert len(cloud.instances) == 1
    from repro.controlplane.recovery import Reconciler
    rec = Reconciler(tb.sim, plane)
    rec.reconcile()                     # round 1: observed
    healed = rec.reconcile()            # round 2: confirmed, healed
    assert [d.kind for d in healed] == ["orphan-vm"]
    assert healed[0].entity == vms[0].name
    assert cloud.instances == []


def test_partitioned_cloud_is_never_judged():
    tb, plane = make_plane()
    cloud_name = next(iter(tb.clouds))
    cloud = tb.clouds[cloud_name]
    tb.sim.run(until=cloud.run_instances(tb.image_name, 1,
                                         spec=plane.config.spec))
    from repro.controlplane.recovery import Reconciler
    rec = Reconciler(tb.sim, plane)
    rec.partition(cloud_name)
    assert rec.reconcile(force=True) == []  # unobservable: untouched
    assert len(cloud.instances) == 1
    rec.heal_partition(cloud_name)
    healed = rec.reconcile(force=True)
    assert [d.kind for d in healed] == ["orphan-vm"]
    assert cloud.instances == []


def test_split_brain_partition_then_heal_end_to_end():
    """Split brain: the plane crashes while a partition hides one
    cloud; the restarted plane must not touch the hidden region until
    the partition heals, then reconcile it away."""
    tb, plane = make_plane()
    plane.register_tenant("alice")
    jobs = [plane.submit("alice", n_nodes=2, runtime=300.0)
            for _ in range(2)]
    tb.sim.run(until=90.0)
    running = [j for j in jobs if j.state is JobState.RUNNING]
    assert running
    log = plane.crash()
    lost_sites = {vm.site
                  for lease in plane.leases.active_leases()
                  for vm in lease.cluster.vms}
    assert lost_sites
    hidden = sorted(lost_sites)[0]

    plane2 = recover(tb.sim, tb.federation, tb.image_name, log,
                     reconcile_interval=30.0).start()
    plane2.reconciler.partition(hidden)
    healed = plane2.reconciler.reconcile(force=True)
    # Nothing behind the partition was healed.
    assert all(
        not (d.kind == "lease-lost" and any(
            vm.site == hidden for l in plane2.leases.leases
            if l.id == d.entity for vm in l.cluster.vms))
        for d in healed)
    plane2.reconciler.heal_partition(hidden)
    plane2.reconciler.reconcile(force=True)
    jobs2 = list(plane2.queue.jobs.values())
    tb.sim.run(until=plane2.all_done(jobs2))
    assert all(j.state is JobState.COMPLETED for j in jobs2)
    assert plane2.leases.leaked() == []


# -- observability wiring ------------------------------------------------


def test_transitions_counter_and_eventlog_track():
    tb = small_testbed()
    tracer = Tracer(tb.sim)
    plane = ControlPlane(tb.sim, tb.federation, tb.image_name,
                         tracer=tracer).start()
    run_workload(tb, plane, n_jobs=2)
    labeled = plane.metrics.counter(
        "controlplane.transitions",
        labels={"entity": "job", "from": "queued",
                "to": "provisioning"})
    assert labeled.value >= 2
    granted = plane.metrics.counter(
        "controlplane.transitions",
        labels={"entity": "lease", "from": "-", "to": "active"})
    assert granted.value >= 2
    log_spans = [s for s in tracer.spans if s.track == "eventlog"]
    assert len(log_spans) == len(eventlog_of(tb.sim))
    assert all(s.attributes["seq"] for s in log_spans)
    names = {s.name.split(":")[0] for s in log_spans}
    assert {"job", "lease", "tenant"} <= names


def test_summary_reports_per_state_counts_and_last_seq():
    tb, plane = make_plane()
    jobs = run_workload(tb, plane, n_jobs=4)
    summary = plane.summary()
    assert summary["jobs_by_state"] == {"completed": len(jobs)}
    assert summary["last_seq"] == eventlog_of(tb.sim).last_seq > 0
    plane.register_tenant("carol")
    with pytest.raises(Exception):
        plane.submit("carol", n_nodes=10_000, runtime=1.0)
    assert plane.summary()["jobs_by_state"]["rejected"] == 1


# -- the grep lint -------------------------------------------------------


def test_no_bare_state_assignment_outside_statemachine():
    """Satellite (a): every job/lease state mutation in the control
    plane goes through ``transition()`` (or ``restore_state`` /
    ``StateMachine.init`` inside statemachine.py itself)."""
    pkg = Path(__file__).resolve().parent.parent / \
        "src" / "repro" / "controlplane"
    bare = re.compile(
        r"(?<!\w)(?:\w+\.)*state\s*=\s*(?:JobState|LeaseState)\.\w+"
        r"|(?<!\w)(?:job|lease|entity|self)\.state\s*=\s*[^=]")
    offenders = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "statemachine.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            stripped = line.split("#", 1)[0]
            if bare.search(stripped):
                # Class-level *initial* state declarations are the one
                # sanctioned form (annotated, at class scope).
                if re.match(r"\s+state:\s*(JobState|LeaseState)\s*=",
                            line):
                    continue
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == [], \
        "bare state assignments outside statemachine.py:\n" + \
        "\n".join(offenders)
