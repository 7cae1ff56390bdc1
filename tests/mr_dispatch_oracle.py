"""Reference for the MapReduce engine's task dispatch and split placement.

:class:`ReferenceJobTracker` hands out work the way the engine did
before its dispatch became head-first: every request joins the waiter
line and runs a full dispatch, a dispatch walks the line from the head
(answering retired trackers with ``None`` wherever it meets them), and
once it finds no work it copies the rest of the line in one idle pass.
The speculative pick recomputes the straggler median for every waiter.
:class:`ReferenceBlockStore` draws each split's extra replicas with one
``rng.choice(n - 1, size=reps - 1, replace=False)`` call per split.

A world run on both must give the same task starts, job results, drain
times and kernel sequence number as the same world on the library
engine.  Build the reference world by passing
``hdfs=ReferenceBlockStore(...)`` to :class:`ReferenceJobTracker`.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.mapreduce import BlockStore, JobTracker
from repro.mapreduce.job import Task, TaskKind, TaskState


class ReferenceBlockStore(BlockStore):
    """Replica placement with one ``choice`` draw per split."""

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


class ReferenceJobTracker(JobTracker):
    """The job tracker with a full dispatch on every request."""

    def _request_task(self, tracker):
        ev = self.sim.event()
        self._waiters.append((tracker, ev))
        self._dispatch()
        return ev

    def _pick(self, run, tracker) -> Optional[Task]:
        task = run.take_map(tracker.vm)
        if task is not None:
            return task
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
        # A plain list, whatever container the library keeps its line in.
        waiters = list(self._waiters)
        still: List[Tuple] = []
        rest: List[Tuple] = []
        for k, (tracker, ev) in enumerate(waiters):
            if idle:
                rest = waiters[k:]
                break
            if not tracker.active:
                ev.succeed(None)
                continue
            task = self._pick(run, tracker)
            if task is not None:
                task.state = TaskState.RUNNING
                run.running[task] = tracker
                run.task_start[task] = self.sim.now
                ev.succeed(task)
            else:
                still.append((tracker, ev))
                idle = not self.speculative
        kept = [waiter for waiter in rest if waiter[0].active]
        if len(kept) < len(rest):
            for tracker, ev in rest:
                if not tracker.active:
                    ev.succeed(None)
        still.extend(kept)
        self._waiters = type(self._waiters)(still)
