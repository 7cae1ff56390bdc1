"""Discrete-event simulation kernel underlying the whole reproduction.

This package provides a self-contained, generator-based discrete-event
simulator (events, processes, interrupts and conditions) with two
interchangeable event-queue backends.  Every higher-level subsystem —
the network substrate, the hypervisor model, clouds, MapReduce — is
built as processes on this kernel.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "core": ("Infinity", "NULL_PROFILER", "Simulator"),
    "errors": (
        "EmptySchedule", "Interrupt", "SimulationError", "StopSimulation",
    ),
    "events": (
        "AllOf", "AnyOf", "Condition", "ConditionValue", "Event", "NORMAL",
        "Timeout", "URGENT",
    ),
    "process": ("Process",),
    "queues": ("BACKENDS", "CalendarQueue", "HeapQueue", "make_queue"),
})
