"""The MapReduce execution engine (JobTracker / TaskTrackers).

A Hadoop-like engine over simulated VMs and the flow network:

* one :class:`TaskTracker` per worker VM, with ``vcpus`` execution
  slots.  A slot is no process: a free slot waits in the
  :class:`JobTracker`'s idle line, an attempt handed to it runs as a
  chain of kernel callbacks (input fetch or shuffle flows, then a
  compute timer), and its completion calls back into the job tracker;
* **data-local scheduling**: map tasks prefer nodes holding a replica of
  their input split; remote maps fetch their split over the network
  (possibly across clouds — the cost the paper's §III-C planner
  minimizes);
* **shuffle**: each reduce task fetches its partition of every map
  output from the node that produced it;
* **elasticity and fault tolerance** (paper §II: "execution frameworks
  supporting resource addition and removal at run time"): trackers can
  join mid-job and immediately receive work; a departing tracker's
  running tasks — and its completed map outputs, if reducers still need
  them — are re-executed elsewhere.

All application-level transfers are reported to an optional traffic
recorder (the pattern-detection ground truth) and flow through the
shared scheduler with ``src_vm``/``dst_vm`` metadata (what the
hypervisor-level sniffer sees).
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..hypervisor.vm import VirtualMachine
from ..network.flows import FlowScheduler
from ..network.transport import Transport
from ..obs.trace import NULL_SPAN, tracer_of
from ..simkernel.core import Simulator
from ..simkernel.events import URGENT, Event
from ..simkernel.process import Process
from .hdfs import BlockStore
from .job import JobResult, MapReduceJob, Task, TaskKind, TaskState

#: Signature of the ground-truth traffic recorder.
TrafficRecorder = Callable[[str, str, float, str], None]


class _JobRun:
    """Mutable state of one executing job.

    Pending map tasks are kept by pending position (``None`` once taken)
    with a per-node index over them, Hadoop's per-node non-running map
    cache: each node's positions of the pending maps that had a replica
    there when queued, in pending order.  Replicas are only ever
    removed, so a node's list holds every pending map local to it, and
    taken or no-longer-local positions are pruned as picks meet them.
    """

    def __init__(self, sim: Simulator, job: MapReduceJob, hdfs: BlockStore):
        self.job = job
        self.hdfs = hdfs
        self.result = JobResult(job.name, started_at=sim.now,
                                finished_at=sim.now)
        tasks = job.make_tasks()
        self._maps: List[Optional[Task]] = []
        self._maps_head = 0  # every position before it is taken
        self._maps_pending = 0
        self._local_maps: Dict[str, Deque[int]] = {}
        for task in tasks:
            if task.kind is TaskKind.MAP:
                self.push_map(task)
        self.pending_reduces: List[Task] = [
            t for t in tasks if t.kind is TaskKind.REDUCE
        ]
        self.running: Dict[Task, "TaskTracker"] = {}
        self.maps_done = 0
        self.reduces_done = 0
        #: map index -> (vm name, site) holding the map's output,
        #: snapshotted at completion (the VM may later move or die).
        self.map_outputs: Dict[int, Tuple[str, str]] = {}
        self.completed: Event = sim.event()
        #: Logical tasks already completed (speculation dedup).
        self.done_keys: set = set()
        #: Logical tasks that already have a backup attempt running.
        self.backup_keys: set = set()
        #: Start time of each running attempt (straggler detection).
        self.task_start: Dict[Task, float] = {}
        #: Durations of completed attempts (straggler baseline).
        self.completed_durations: List[float] = []
        #: Root trace span for the job's whole run.
        self.span = NULL_SPAN

    @property
    def pending_maps(self) -> List[Task]:
        """The pending map tasks in pending order (a fresh list)."""
        return [t for t in self._maps[self._maps_head:] if t is not None]

    def push_map(self, task: Task) -> None:
        """Queue a map task at the end of the pending order."""
        pos = len(self._maps)
        self._maps.append(task)
        self._maps_pending += 1
        for name in self.hdfs.locations(self.job, task.index):
            local = self._local_maps.get(name)
            if local is None:
                local = self._local_maps[name] = deque()
            local.append(pos)

    def take_map(self, vm: VirtualMachine) -> Optional[Task]:
        """Dequeue the first pending map whose split is local to ``vm``,
        else the first pending map; None if no map is pending."""
        if not self._maps_pending:
            return None
        maps = self._maps
        local = self._local_maps.get(vm.name)
        while local:
            pos = local.popleft()
            task = maps[pos]
            if task is not None and self.hdfs.is_local(vm, self.job,
                                                       task.index):
                break
        else:  # no pending map is local to vm: take the pending head
            pos = self._maps_head
            while maps[pos] is None:
                pos += 1
            self._maps_head = pos + 1
            task = maps[pos]
        maps[pos] = None
        self._maps_pending -= 1
        return task

    @property
    def all_maps_done(self) -> bool:
        return self.maps_done == self.job.n_maps

    @property
    def finished(self) -> bool:
        return (self.all_maps_done
                and self.reduces_done == self.job.n_reduces)


class TaskTracker:
    """A worker VM's execution agent (its slots are no processes)."""

    def __init__(self, sim: Simulator, jobtracker: "JobTracker",
                 vm: VirtualMachine, slots: Optional[int] = None,
                 speed: float = 1.0):
        if slots is not None and slots < 1:
            raise ValueError("slots must be at least 1")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.sim = sim
        self.jt = jobtracker
        self.vm = vm
        self.slots = vm.vcpus if slots is None else slots
        self.speed = speed
        self.active = True
        #: The attempt each slot holds, from hand-out until it ends.
        self.current_tasks: Dict[int, Optional[Task]] = dict.fromkeys(
            range(self.slots))
        #: Trace span of each started attempt.
        self._spans: Dict[Task, Any] = {}
        for slot in self.current_tasks:
            # Each slot joins the idle line at an URGENT entry of its own.
            sim.call_in(0, lambda _ev, slot=slot:
                        jobtracker._slot_idle(self, slot), URGENT)

    @property
    def name(self) -> str:
        return self.vm.name

    def kill_task(self, task: Task) -> bool:
        """Abort a running attempt (its slot then takes new work)."""
        running = self._slot_of(task) is not None
        if running:
            self._interrupt(task, "kill-task")
        return running

    def _slot_of(self, task: Task) -> Optional[int]:
        """The slot holding attempt ``task``, or None once it ended."""
        for slot, current in self.current_tasks.items():
            if current is task:
                return slot
        return None

    def _interrupt(self, task: Task, cause: str) -> None:
        """End attempt ``task`` at an URGENT entry of this instant."""
        self.sim.call_in(0, lambda _ev: self._end(task, cause), URGENT)

    def _end(self, task: Task, cause: Optional[str] = None) -> None:
        """Free attempt ``task``'s slot: the attempt completed (no
        ``cause``), a sibling won (``"kill-task"``) or its node left
        (``"decommission"``, which re-queues it).  The first end wins;
        the slot then rejoins the idle line if its tracker is active."""
        slot = self._slot_of(task)
        if slot is None:
            return
        self.current_tasks[slot] = None
        self._spans.pop(task, NULL_SPAN).end(cause and "interrupted")
        if cause == "decommission":
            self.jt._requeue(task)
        elif cause is None:
            self.jt._task_done(self, task)
        else:
            self.jt._finish_drain(self)
        self.jt._slot_idle(self, slot)

    # -- task execution ---------------------------------------------------

    def _after(self, wait, task: Task, step: Callable[[], None]) -> None:
        """Run ``step()`` after ``wait`` (an event, a delay, or None for
        at once), unless attempt ``task`` has ended by then."""
        def resume(event):
            if self._slot_of(task) is None:
                return
            if not event.ok:
                raise event.value  # a cancelled flow crashes the run
            step()

        if wait is None:
            step()
        elif isinstance(wait, Event):
            wait.callbacks.append(resume)
        else:
            self.sim.call_in(wait, resume)

    def _compute(self, task: Task, cpu: float) -> None:
        """Run ``cpu`` seconds of work at this tracker's speed, then end."""
        self._after(cpu / self.speed, task, lambda: self._end(task))

    def _execute(self, task: Task) -> None:
        """Start attempt ``task`` in the slot holding it: a remote map
        fetches its split, a reduce its shuffle, then both compute."""
        run = self.jt._run_of(task)
        if run is None:  # the job ended while this attempt was queued
            self._end(task)
            return
        job, vm = task.job, self.vm
        task.attempts += 1
        span = self._spans[task] = tracer_of(self.sim).start(
            f"{task.kind.value}:{task.index}", parent=run.span,
            track=f"tt:{vm.name}", vm=vm.name, attempt=task.attempts,
        )
        if task.kind is TaskKind.MAP:
            local = self.jt.hdfs.is_local(vm, job, task.index)
            span.set(local=local)
            fetch = None
            if local:
                run.result.local_maps += 1
            else:
                run.result.remote_maps += 1
                src = self.jt.hdfs.any_replica_node(job, task.index)
                if src is not None and job.split_bytes > 0:
                    run.result.input_fetch_bytes += job.split_bytes
                    self.jt._record_traffic(src.name, vm.name,
                                            job.split_bytes, "mr-input")
                    fetch = self.jt.transport.shuffle(
                        src.site, vm.site, job.split_bytes, tag="mr-input",
                        src_vm=src.name, dst_vm=vm.name, span=span).done
            self._after(fetch, task,
                        lambda: self._compute(task, job.map_cpu[task.index]))
            return
        # Shuffle: this reducer's partition of every map output,
        # aggregated into one flow per source node.
        per_map = job.map_output_bytes / job.n_reduces
        by_source: Dict[Tuple[str, str], float] = defaultdict(float)
        for src_name, src_site in run.map_outputs.values():
            if src_name != vm.name:  # else a local read
                by_source[(src_name, src_site)] += per_map
        waits = []
        for (src_name, src_site), nbytes in by_source.items():
            if nbytes <= 0:
                continue
            run.result.shuffle_bytes += nbytes
            self.jt._record_traffic(src_name, vm.name, nbytes, "mr-shuffle")
            waits.append(self.jt.transport.shuffle(
                src_site, vm.site, nbytes, tag="mr-shuffle",
                src_vm=src_name, dst_vm=vm.name, span=span).done)

        def compute():
            if waits:
                span.event("shuffle-complete", sources=len(waits))
            self._compute(task, job.reduce_cpu[task.index])

        self._after(self.sim.all_of(waits) if waits else None, task, compute)

    def __repr__(self):
        return (f"<TaskTracker {self.name!r} slots={self.slots} "
                f"{'active' if self.active else 'retired'}>")


class JobTracker:
    """Central scheduler: one per (possibly cross-cloud) cluster."""

    def __init__(self, sim: Simulator, scheduler: FlowScheduler,
                 hdfs: Optional[BlockStore] = None,
                 rng: Optional[np.random.Generator] = None,
                 traffic_recorder: Optional[TrafficRecorder] = None,
                 speculative: bool = False,
                 speculative_slowdown: float = 2.0,
                 speculative_min_samples: int = 3):
        #: Launch backup attempts for straggling tasks (Hadoop's
        #: speculative execution); the first attempt to finish wins and
        #: the loser is killed.
        self.speculative = speculative
        self.speculative_slowdown = speculative_slowdown
        self.speculative_min_samples = speculative_min_samples
        self.sim = sim
        self.transport = Transport.of(scheduler)
        self.scheduler = self.transport.scheduler
        self.hdfs = hdfs or BlockStore()
        self.rng = rng or np.random.default_rng(0)
        self.trackers: Dict[str, TaskTracker] = {}
        self.traffic_recorder = traffic_recorder
        self.current: Optional[_JobRun] = None
        #: Idle slots ``(tracker, slot)`` of active trackers, in the
        #: order they became free.
        self._waiters: Deque[Tuple[TaskTracker, int]] = deque()
        #: One turn event per submitted job, in submission order; the
        #: head's job runs and the rest wait (FIFO, one job at a time).
        self._turns: List[Event] = []
        self._draining: Dict[TaskTracker, Event] = {}

    # -- membership ----------------------------------------------------------

    def add_tracker(self, vm: VirtualMachine, slots: Optional[int] = None,
                    speed: float = 1.0) -> TaskTracker:
        """Bring a worker online (usable mid-job: paper §II elasticity)."""
        if vm.name in self.trackers:
            raise ValueError(f"{vm.name!r} already has a tracker")
        tracker = TaskTracker(self.sim, self, vm, slots, speed)
        self.trackers[vm.name] = tracker
        self.hdfs.add_node(vm)
        self._dispatch()
        return tracker

    def remove_tracker(self, vm: VirtualMachine,
                       graceful: bool = True) -> Event:
        """Take a worker offline.

        ``graceful`` lets in-flight tasks finish (no new ones are
        assigned); otherwise running tasks are abandoned and re-queued.
        Either way, completed map outputs held by the node are
        re-executed if reducers still need them.

        Returns an event that fires once the tracker is fully drained
        (immediately for forced removals or idle trackers) — wait on it
        before terminating the underlying VM.
        """
        tracker = self.trackers.pop(vm.name, None)
        if tracker is None:
            raise ValueError(f"{vm.name!r} has no tracker")
        tracker.active = False
        self.hdfs.remove_node(vm)
        self._waiters = deque(waiter for waiter in self._waiters
                              if waiter[0] is not tracker)
        if not graceful:
            for task in tracker.current_tasks.values():
                if task is not None:
                    tracker._interrupt(task, "decommission")
        self._invalidate_outputs(vm)
        self._dispatch()
        drained = self.sim.event()
        if graceful and any(tracker.current_tasks.values()):
            self._draining[tracker] = drained
        else:
            drained.succeed()
        return drained

    # -- internal state transitions -----------------------------------------

    def _run_of(self, task: Task) -> Optional[_JobRun]:
        """The active run this task belongs to, or None if it is stale
        (e.g. a speculative attempt outliving its job)."""
        run = self.current
        if run is None or task.job is not run.job:
            return None
        return run

    def _record_traffic(self, src: str, dst: str, nbytes: float,
                        tag: str) -> None:
        if self.traffic_recorder is not None:
            self.traffic_recorder(src, dst, nbytes, tag)

    def _invalidate_outputs(self, vm: VirtualMachine) -> None:
        """Re-execute completed maps whose output died with ``vm``.

        Only matters while reducers still need the intermediate data;
        map-only jobs write final output (to the DFS), which survives
        node departure.
        """
        run = self.current
        if run is None or run.reduces_done == run.job.n_reduces:
            return  # no job, or no reducer left to read map outputs
        lost = [idx for idx, (holder, _site) in run.map_outputs.items()
                if holder == vm.name]
        for idx in lost:
            del run.map_outputs[idx]
            run.done_keys.discard((TaskKind.MAP, idx))
            run.backup_keys.discard((TaskKind.MAP, idx))
            run.push_map(Task(run.job, TaskKind.MAP, idx))
            run.maps_done -= 1
            run.result.reexecuted_tasks += 1

    def _slot_idle(self, tracker: TaskTracker, slot: int) -> None:
        """Park a free slot at the back of the idle line and dispatch (a
        retired tracker's slot just drops out: it gets no more work)."""
        if tracker.active:
            self._waiters.append((tracker, slot))
            self._dispatch()

    def _requeue(self, task: Task) -> None:
        run = self.current
        if run is None or task.job is not run.job:
            return
        run.running.pop(task, None)
        run.task_start.pop(task, None)
        if (task.kind, task.index) in run.done_keys:
            return  # a sibling attempt already completed this work
        task.state = TaskState.PENDING
        if task.kind is TaskKind.MAP:
            run.push_map(task)
        else:
            run.pending_reduces.append(task)
        run.result.reexecuted_tasks += 1
        self._dispatch()

    def _task_done(self, tracker: TaskTracker, task: Task) -> None:
        run = self.current
        if run is None or task.job is not run.job:
            # Stale completion from a removed job.
            self._finish_drain(tracker)
            return
        if task.kind is TaskKind.MAP:  # the last attempt to finish holds it
            run.map_outputs[task.index] = (tracker.vm.name, tracker.vm.site)
        run.running.pop(task, None)
        started = run.task_start.pop(task, None)
        key = (task.kind, task.index)
        if key in run.done_keys:
            # A sibling attempt won; this one was wasted work.
            run.result.wasted_attempts += 1
            self._finish_drain(tracker)
            self._dispatch()
            return
        run.done_keys.add(key)
        if started is not None:
            run.completed_durations.append(self.sim.now - started)
        # Kill the losing speculative sibling, if one is still running
        # (only a task that got a backup attempt can have one).
        if key in run.backup_keys:
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
            run.result.tasks_per_node.get(tracker.name, 0) + 1
        )
        if task.kind is TaskKind.MAP:
            run.maps_done += 1
            run.result.map_attempts += task.attempts
        else:
            run.reduces_done += 1
            run.result.reduce_attempts += task.attempts
        if run.finished:
            run.result.finished_at = self.sim.now
            run.span.set(shuffle_bytes=run.result.shuffle_bytes,
                         local_maps=run.result.local_maps).end()
            self.current = None
            run.completed.succeed(run.result)
        self._finish_drain(tracker)
        self._dispatch()

    def _finish_drain(self, tracker: TaskTracker) -> None:
        """Fire a draining tracker's drain event once none of its slots
        holds an attempt (finished, stale or killed by a sibling)."""
        if tracker in self._draining and not any(
                tracker.current_tasks.values()):
            # The node leaves for good now: outputs it produced while
            # draining disappear with it and must be re-executed if
            # reducers still need them.
            self._draining.pop(tracker).succeed()
            self._invalidate_outputs(tracker.vm)
            self._dispatch()

    def _pick(self, run: _JobRun, tracker: TaskTracker) -> Optional[Task]:
        """A pending map (local to ``tracker`` if any is) or reduce."""
        task = run.take_map(tracker.vm)
        if task is not None:
            return task
        if run.all_maps_done and run.pending_reduces:
            return run.pending_reduces.pop(0)
        return None

    def _straggler_threshold(self, run: _JobRun) -> Optional[float]:
        """The elapsed time past which a running attempt is a straggler
        (None until enough attempts have completed)."""
        if len(run.completed_durations) < self.speculative_min_samples:
            return None
        median = float(np.median(run.completed_durations))
        return self.speculative_slowdown * median

    def _pick_speculative(self, run: _JobRun, tracker: TaskTracker,
                          threshold: float) -> Optional[Task]:
        """A backup attempt for the slowest eligible straggler."""
        now = self.sim.now
        best, best_elapsed = None, 0.0
        for task, owner in run.running.items():
            key = (task.kind, task.index)
            if key in run.done_keys or key in run.backup_keys:
                continue
            if owner is tracker:
                continue  # backing up your own task helps nobody
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

    def _dispatch(self) -> None:
        """Hand pending work to the idle slots, in the line's order.

        A slot holds its task from hand-out; the attempt starts at a
        NORMAL entry of this instant, so a removal, a drain check or a
        sibling's kill in between sees the task (and a kill or a
        decommission, URGENT, ends it before it starts).

        Without speculation the work on offer does not depend on who
        asks, so the first slot that finds none ends the pass and the
        rest stay idle untouched.  A backup attempt does depend on who
        asks, so speculative dispatch tries every idle slot, against one
        straggler bar (it cannot move within a dispatch).
        """
        run = self.current
        if run is None or run.finished:
            return
        waiters = self._waiters
        missed: Deque[Tuple[TaskTracker, int]] = deque()
        bar = unset = object()
        while waiters:
            tracker, slot = waiters[0]
            task = self._pick(run, tracker)
            if task is None:
                if not self.speculative:
                    break
                if bar is unset:
                    bar = self._straggler_threshold(run)
                if bar is not None:
                    task = self._pick_speculative(run, tracker, bar)
            waiters.popleft()
            if task is None:
                missed.append((tracker, slot))
                continue
            task.state = TaskState.RUNNING
            run.running[task] = tracker
            run.task_start[task] = self.sim.now
            tracker.current_tasks[slot] = task
            tracker._after(0.0, task, partial(tracker._execute, task))
        if missed:  # only a speculative pass misses and goes on
            self._waiters = missed

    # -- public API ----------------------------------------------------

    def submit(self, job: MapReduceJob) -> Process:
        """Run ``job``; yields a :class:`JobResult`.  Jobs queue FIFO."""
        if not self.trackers:
            raise RuntimeError("no task trackers registered")
        return self.sim.process(self._submit(job), name=f"job-{job.name}")

    def _submit(self, job: MapReduceJob):
        turns = self._turns
        turn = Event(self.sim)
        turns.append(turn)
        if len(turns) == 1:
            turn.succeed()
        try:
            yield turn
            self.hdfs.load_input(job, self.rng)
            run = _JobRun(self.sim, job, self.hdfs)
            run.span = tracer_of(self.sim).start(
                f"mr:{job.name}", track=f"mr:{job.name}",
                maps=job.n_maps, reduces=job.n_reduces,
            )
            self.current = run
            self._dispatch()
            return (yield run.completed)
        finally:
            # Leave the line (also when withdrawn while waiting); the
            # head hands its turn to the next job.
            was_head = turns[0] is turn
            turns.remove(turn)
            if was_head and turns:
                turns[0].succeed()

    @property
    def total_slots(self) -> int:
        return sum(t.slots for t in self.trackers.values())
