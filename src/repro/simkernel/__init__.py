"""Discrete-event simulation kernel underlying the whole reproduction.

This package provides a self-contained, generator-based discrete-event
simulator (events, processes, interrupts and conditions) with two
interchangeable event-queue backends.  Every higher-level subsystem —
the network substrate, the hypervisor model, clouds, MapReduce — is
built as processes on this kernel.
"""

from .core import Infinity, NULL_PROFILER, Simulator
from .errors import EmptySchedule, Interrupt, SimulationError, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    NORMAL,
    Timeout,
    URGENT,
)
from .process import Process
from .queues import BACKENDS, CalendarQueue, HeapQueue, make_queue

__all__ = [
    "AllOf",
    "AnyOf",
    "BACKENDS",
    "CalendarQueue",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Event",
    "HeapQueue",
    "Infinity",
    "Interrupt",
    "NORMAL",
    "NULL_PROFILER",
    "Process",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Timeout",
    "URGENT",
    "make_queue",
]
