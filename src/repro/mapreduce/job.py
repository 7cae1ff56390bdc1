"""MapReduce jobs and tasks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np


class TaskKind(Enum):
    MAP = "map"
    REDUCE = "reduce"

    # Members are singletons, so identity hashing agrees with Enum
    # equality and skips the Python-level ``Enum.__hash__`` on every
    # ``(kind, index)`` key probe.
    __hash__ = object.__hash__


class TaskState(Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"


@dataclass(eq=False)
class Task:
    """One map or reduce task (re-queued on node loss).

    Identity semantics (``eq=False``): two attempts of the same logical
    task are distinct objects, and tasks are used as dict keys.
    """

    job: "MapReduceJob"
    kind: TaskKind
    index: int
    state: TaskState = TaskState.PENDING
    attempts: int = 0
    #: Name of the VM whose execution completed the task.
    executed_on: Optional[str] = None
    finished_at: Optional[float] = None

    def __repr__(self):
        return (f"<Task {self.job.name}:{self.kind.value}{self.index} "
                f"{self.state.value}>")


class MapReduceJob:
    """A job: input splits, map/reduce costs and data volumes.

    Parameters
    ----------
    name:
        Job identifier.
    map_cpu_seconds, reduce_cpu_seconds:
        Per-task CPU cost arrays; their lengths define the task counts.
    split_bytes:
        Input split size (bytes) fetched by each non-local map task.
    map_output_bytes:
        Total intermediate output of each map task, shuffled uniformly
        to the reducers.
    """

    _ids = itertools.count(1)

    def __init__(self, name: str, map_cpu_seconds: np.ndarray,
                 reduce_cpu_seconds: np.ndarray,
                 split_bytes: float = 64 * 2**20,
                 map_output_bytes: float = 2 * 2**20):
        self.id = next(MapReduceJob._ids)
        self.name = name
        self.map_cpu = np.asarray(map_cpu_seconds, dtype=float)
        self.reduce_cpu = np.asarray(reduce_cpu_seconds, dtype=float)
        if len(self.map_cpu) == 0:
            raise ValueError("a job needs at least one map task")
        if np.any(self.map_cpu < 0) or np.any(self.reduce_cpu < 0):
            raise ValueError("task costs must be >= 0")
        if split_bytes < 0 or map_output_bytes < 0:
            raise ValueError("data volumes must be >= 0")
        self.split_bytes = float(split_bytes)
        self.map_output_bytes = float(map_output_bytes)

    @property
    def n_maps(self) -> int:
        return len(self.map_cpu)

    @property
    def n_reduces(self) -> int:
        return len(self.reduce_cpu)

    @property
    def total_cpu_seconds(self) -> float:
        return float(self.map_cpu.sum() + self.reduce_cpu.sum())

    def make_tasks(self) -> List[Task]:
        """Fresh task objects for one execution."""
        maps = [Task(self, TaskKind.MAP, i) for i in range(self.n_maps)]
        reduces = [Task(self, TaskKind.REDUCE, i)
                   for i in range(self.n_reduces)]
        return maps + reduces

    def __repr__(self):
        return (f"<MapReduceJob {self.name!r} maps={self.n_maps} "
                f"reduces={self.n_reduces}>")


@dataclass
class JobResult:
    """What one job execution reports."""

    job_name: str
    started_at: float
    finished_at: float
    map_attempts: int = 0
    reduce_attempts: int = 0
    local_maps: int = 0
    remote_maps: int = 0
    shuffle_bytes: float = 0.0
    input_fetch_bytes: float = 0.0
    reexecuted_tasks: int = 0
    #: Backup attempts launched for stragglers (speculative execution).
    speculative_launched: int = 0
    #: Attempts whose work a sibling had already completed.
    wasted_attempts: int = 0
    #: VM name -> tasks it completed.
    tasks_per_node: Dict[str, int] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at

    @property
    def locality_rate(self) -> float:
        executed = self.local_maps + self.remote_maps
        return self.local_maps / executed if executed else 0.0
