"""Reference for the MapReduce engine's task dispatch and split placement.

A standalone copy of the engine as it was when every task-tracker slot
was a simulation process: a slot loop asks the job tracker for work
with a fresh request event, waits on it, runs the attempt as a
generator and asks again; kills and forced decommissions interrupt the
slot's process.  Work is handed out by a full pass: every request joins
the waiter line and runs a dispatch, a dispatch walks the line from the
head (answering retired trackers with ``None`` wherever it meets them),
and once it finds no work it copies the rest of the line in one idle
pass.  The speculative pick recomputes the straggler median for every
waiter, and pending maps are a plain list scanned for a local split.
:class:`ReferenceBlockStore` draws each split's extra replicas with one
``rng.choice(n - 1, size=reps - 1, replace=False)`` call per split.

Nothing here subclasses the library: only its job model, the flow
network and the kernel are shared.  A world run on both must give the
same task starts, job results, drain times and clock as the library
engine.  The kernel sequence number differs only by what the slot
processes cost: each answer ``None`` to a retired tracker's request
(:attr:`ReferenceJobTracker.noop_wakeups`) and each slot-process exit
(:attr:`ReferenceJobTracker.slot_exits`) draws one sequence number.
"""

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mapreduce.job import JobResult, Task, TaskKind, TaskState
from repro.network.transport import Transport
from repro.simkernel import Interrupt


class ReferenceBlockStore:
    """Replica placement with one ``choice`` draw per split."""

    def __init__(self, replication: int = 2):
        self.replication = replication
        self.nodes = []
        self._placement: Dict[Tuple[int, int], List[str]] = {}

    def add_node(self, vm):
        if vm not in self.nodes:
            self.nodes.append(vm)

    def remove_node(self, vm):
        if vm in self.nodes:
            self.nodes.remove(vm)
        for locs in self._placement.values():
            if vm.name in locs:
                locs.remove(vm.name)

    def load_input(self, job, rng):
        if not self.nodes:
            raise RuntimeError("cannot load input: no data nodes")
        names = [vm.name for vm in self.nodes]
        n = len(names)
        reps = min(self.replication, n)
        for split in range(job.n_maps):
            primary = split % n
            chosen = [names[primary]]
            if reps > 1:
                for i in rng.choice(n - 1, size=reps - 1,
                                    replace=False).tolist():
                    chosen.append(names[i + (i >= primary)])
            self._placement[(job.id, split)] = chosen

    def is_local(self, vm, job, split) -> bool:
        return vm.name in self._placement.get((job.id, split), ())

    def any_replica_node(self, job, split):
        for name in self._placement.get((job.id, split), ()):
            for vm in self.nodes:
                if vm.name == name:
                    return vm
        return None


class _Run:
    """Mutable state of one executing job."""

    def __init__(self, sim, job):
        self.job = job
        self.result = JobResult(job.name, started_at=sim.now,
                                finished_at=sim.now)
        tasks = job.make_tasks()
        self.pending_maps = [t for t in tasks if t.kind is TaskKind.MAP]
        self.pending_reduces = [t for t in tasks
                                if t.kind is TaskKind.REDUCE]
        self.running: Dict[Task, "ReferenceTaskTracker"] = {}
        self.maps_done = 0
        self.reduces_done = 0
        self.map_outputs: Dict[int, Tuple[str, str]] = {}
        self.completed = sim.event()
        self.done_keys: set = set()
        self.backup_keys: set = set()
        self.task_start: Dict[Task, float] = {}
        self.completed_durations: List[float] = []

    @property
    def all_maps_done(self) -> bool:
        return self.maps_done == self.job.n_maps

    @property
    def finished(self) -> bool:
        return (self.all_maps_done
                and self.reduces_done == self.job.n_reduces)


class ReferenceTaskTracker:
    """A worker VM with one process per slot."""

    def __init__(self, sim, jobtracker, vm, slots=None, speed=1.0):
        self.sim = sim
        self.jt = jobtracker
        self.vm = vm
        self.slots = vm.vcpus if slots is None else slots
        self.speed = speed
        self.active = True
        self.current_tasks: Dict[int, Optional[Task]] = {}
        self._slot_procs = [
            sim.process(self._slot_loop(i), name=f"tt-{vm.name}-s{i}")
            for i in range(self.slots)
        ]

    @property
    def name(self) -> str:
        return self.vm.name

    def kill_task(self, task) -> bool:
        for slot, current in self.current_tasks.items():
            if current is task:
                proc = self._slot_procs[slot]
                if proc.is_alive:
                    proc.interrupt("kill-task")
                    return True
        return False

    def _slot_loop(self, slot):
        self.current_tasks[slot] = None
        while True:
            try:
                # The slot holds its task from hand-out, before this
                # resumes.
                task = yield self.jt._request_task(self, slot)
                if task is None:
                    self.jt.slot_exits += 1
                    return
                yield from self._execute(task)
                self.current_tasks[slot] = None
                self.jt._task_done(self, task)
            except Interrupt as intr:
                task = self.current_tasks.get(slot)
                self.current_tasks[slot] = None
                if intr.cause == "kill-task":
                    self.jt._finish_drain(self)
                    continue
                if task is not None:
                    self.jt._requeue(task)
                self.jt.slot_exits += 1
                return

    def _execute(self, task):
        run = self.jt._run_of(task)
        if run is None:
            return
        job = task.job
        task.attempts += 1
        vm = self.vm
        if task.kind is TaskKind.MAP:
            if self.jt.hdfs.is_local(vm, job, task.index):
                run.result.local_maps += 1
            else:
                run.result.remote_maps += 1
                src = self.jt.hdfs.any_replica_node(job, task.index)
                if src is not None and job.split_bytes > 0:
                    run.result.input_fetch_bytes += job.split_bytes
                    flow = self.jt.transport.shuffle(
                        src.site, vm.site, job.split_bytes, tag="mr-input",
                        src_vm=src.name, dst_vm=vm.name)
                    yield flow.done
            yield self.sim.timeout(job.map_cpu[task.index] / self.speed)
            run.map_outputs[task.index] = (vm.name, vm.site)
            return
        per_map = (job.map_output_bytes / job.n_reduces
                   if job.n_reduces else 0.0)
        by_source: Dict[Tuple[str, str], float] = defaultdict(float)
        for src_name, src_site in run.map_outputs.values():
            if src_name != vm.name:
                by_source[(src_name, src_site)] += per_map
        waits = []
        for (src_name, src_site), nbytes in by_source.items():
            if nbytes <= 0:
                continue
            run.result.shuffle_bytes += nbytes
            flow = self.jt.transport.shuffle(
                src_site, vm.site, nbytes, tag="mr-shuffle",
                src_vm=src_name, dst_vm=vm.name)
            waits.append(flow.done)
        if waits:
            yield self.sim.all_of(waits)
        yield self.sim.timeout(job.reduce_cpu[task.index] / self.speed)


class ReferenceJobTracker:
    """The job tracker with a full dispatch on every request."""

    def __init__(self, sim, scheduler, hdfs, rng, speculative=False,
                 speculative_slowdown=2.0, speculative_min_samples=3):
        self.sim = sim
        self.transport = Transport.of(scheduler)
        self.hdfs = hdfs
        self.rng = rng
        self.speculative = speculative
        self.speculative_slowdown = speculative_slowdown
        self.speculative_min_samples = speculative_min_samples
        self.trackers: Dict[str, ReferenceTaskTracker] = {}
        self.current: Optional[_Run] = None
        self._waiters: List[Tuple] = []
        self._turns: List = []
        self._draining: Dict[ReferenceTaskTracker, object] = {}
        #: Requests answered ``None`` (a retired tracker's slot).
        self.noop_wakeups = 0
        #: Slot processes that ended.
        self.slot_exits = 0

    # -- membership ----------------------------------------------------

    def add_tracker(self, vm, slots=None, speed=1.0):
        if vm.name in self.trackers:
            raise ValueError(f"{vm.name!r} already has a tracker")
        tracker = ReferenceTaskTracker(self.sim, self, vm, slots, speed)
        self.trackers[vm.name] = tracker
        self.hdfs.add_node(vm)
        self._dispatch()
        return tracker

    def remove_tracker(self, vm, graceful=True):
        tracker = self.trackers.pop(vm.name)
        tracker.active = False
        self.hdfs.remove_node(vm)
        still = []
        for waiter in self._waiters:
            if waiter[0] is tracker:
                self._answer(waiter[2], None)
            else:
                still.append(waiter)
        self._waiters = still
        if not graceful:
            for slot, task in tracker.current_tasks.items():
                proc = tracker._slot_procs[slot]
                if task is not None and proc.is_alive:
                    proc.interrupt("decommission")
        self._invalidate_outputs(vm)
        self._dispatch()
        drained = self.sim.event()
        busy = any(t is not None for t in tracker.current_tasks.values())
        if graceful and busy:
            self._draining[tracker] = drained
        else:
            drained.succeed()
        return drained

    # -- state transitions ---------------------------------------------

    def _answer(self, ev, task):
        if task is None:
            self.noop_wakeups += 1
        ev.succeed(task)

    def _run_of(self, task):
        run = self.current
        if run is None or task.job is not run.job:
            return None
        return run

    def _invalidate_outputs(self, vm):
        run = self.current
        if run is None or run.finished or run.job.n_reduces == 0:
            return
        if run.reduces_done == run.job.n_reduces:
            return
        lost = [idx for idx, (holder, _site) in run.map_outputs.items()
                if holder == vm.name]
        for idx in lost:
            del run.map_outputs[idx]
            run.done_keys.discard((TaskKind.MAP, idx))
            run.backup_keys.discard((TaskKind.MAP, idx))
            run.pending_maps.append(Task(run.job, TaskKind.MAP, idx))
            run.maps_done -= 1
            run.result.reexecuted_tasks += 1

    def _request_task(self, tracker, slot):
        ev = self.sim.event()
        self._waiters.append((tracker, slot, ev))
        self._dispatch()
        return ev

    def _requeue(self, task):
        run = self.current
        if run is None or task.job is not run.job:
            return
        run.running.pop(task, None)
        run.task_start.pop(task, None)
        if (task.kind, task.index) in run.done_keys:
            return
        task.state = TaskState.PENDING
        if task.kind is TaskKind.MAP:
            run.pending_maps.append(task)
        else:
            run.pending_reduces.append(task)
        run.result.reexecuted_tasks += 1
        self._dispatch()

    def _task_done(self, tracker, task):
        run = self.current
        if run is None or task.job is not run.job:
            self._finish_drain(tracker)
            return
        run.running.pop(task, None)
        started = run.task_start.pop(task, None)
        key = (task.kind, task.index)
        if key in run.done_keys:
            run.result.wasted_attempts += 1
            self._finish_drain(tracker)
            self._dispatch()
            return
        run.done_keys.add(key)
        if started is not None:
            run.completed_durations.append(self.sim.now - started)
        for other, owner in list(run.running.items()):
            if (other.kind, other.index) == key:
                run.running.pop(other, None)
                run.task_start.pop(other, None)
                run.result.wasted_attempts += 1
                owner.kill_task(other)
        task.state = TaskState.DONE
        task.executed_on = tracker.name
        task.finished_at = self.sim.now
        run.result.tasks_per_node[tracker.name] = (
            run.result.tasks_per_node.get(tracker.name, 0) + 1)
        if task.kind is TaskKind.MAP:
            run.maps_done += 1
            run.result.map_attempts += task.attempts
        else:
            run.reduces_done += 1
            run.result.reduce_attempts += task.attempts
        if run.finished:
            run.result.finished_at = self.sim.now
            self.current = None
            run.completed.succeed(run.result)
        self._finish_drain(tracker)
        self._dispatch()

    def _finish_drain(self, tracker):
        if tracker in self._draining and not any(
            t is not None for t in tracker.current_tasks.values()
        ):
            self._draining.pop(tracker).succeed()
            self._invalidate_outputs(tracker.vm)
            self._dispatch()

    def _pick(self, run, tracker) -> Optional[Task]:
        for i, task in enumerate(run.pending_maps):
            if self.hdfs.is_local(tracker.vm, run.job, task.index):
                return run.pending_maps.pop(i)
        if run.pending_maps:
            return run.pending_maps.pop(0)
        if run.all_maps_done and run.pending_reduces:
            return run.pending_reduces.pop(0)
        if self.speculative:
            return self._pick_speculative(run, tracker)
        return None

    def _pick_speculative(self, run, tracker) -> Optional[Task]:
        if len(run.completed_durations) < self.speculative_min_samples:
            return None
        median = float(np.median(run.completed_durations))
        threshold = self.speculative_slowdown * median
        now = self.sim.now
        best, best_elapsed = None, 0.0
        for task, owner in run.running.items():
            key = (task.kind, task.index)
            if key in run.done_keys or key in run.backup_keys:
                continue
            if owner is tracker:
                continue
            if task.kind is TaskKind.REDUCE and not run.all_maps_done:
                continue
            started = run.task_start.get(task)
            if started is None:
                continue
            elapsed = now - started
            if elapsed > threshold and elapsed > best_elapsed:
                best, best_elapsed = task, elapsed
        if best is None:
            return None
        run.backup_keys.add((best.kind, best.index))
        run.result.speculative_launched += 1
        return Task(run.job, best.kind, best.index)

    def _dispatch(self):
        run = self.current
        idle = run is None or run.finished
        waiters = self._waiters
        still: List[Tuple] = []
        rest: List[Tuple] = []
        for k, (tracker, slot, ev) in enumerate(waiters):
            if idle:
                rest = waiters[k:]
                break
            if not tracker.active:
                self._answer(ev, None)
                continue
            task = self._pick(run, tracker)
            if task is not None:
                task.state = TaskState.RUNNING
                run.running[task] = tracker
                run.task_start[task] = self.sim.now
                tracker.current_tasks[slot] = task
                self._answer(ev, task)
            else:
                still.append((tracker, slot, ev))
                idle = not self.speculative
        kept = [waiter for waiter in rest if waiter[0].active]
        if len(kept) < len(rest):
            for tracker, _slot, ev in rest:
                if not tracker.active:
                    self._answer(ev, None)
        still.extend(kept)
        self._waiters = still

    # -- jobs ----------------------------------------------------------

    def submit(self, job):
        if not self.trackers:
            raise RuntimeError("no task trackers registered")
        return self.sim.process(self._submit(job), name=f"job-{job.name}")

    def _submit(self, job):
        turns = self._turns
        turn = self.sim.event()
        turns.append(turn)
        if len(turns) == 1:
            turn.succeed()
        try:
            yield turn
            self.hdfs.load_input(job, self.rng)
            run = _Run(self.sim, job)
            self.current = run
            self._dispatch()
            return (yield run.completed)
        finally:
            was_head = turns[0] is turn
            turns.remove(turn)
            if was_head and turns:
                turns[0].succeed()
