"""The traced rep: cProfile plus the callback profiler around a run.

:class:`Probe` wraps the run phase.  It is started from the benchmark's
own file, so the only code it observes is the scenario's ``run()``.
Every workload reports all of :data:`layers.PER_LAYER` (0 where a
layer has no such work).
"""

from __future__ import annotations

import cProfile
import time
from pathlib import Path

import repro
from repro.cloud import Cloud
from repro.hypervisor import LiveMigrator, PhysicalHost
from repro.metrics import MetricsRecorder
from repro.network import FlowScheduler
from repro.obs import CallbackProfiler, kernel_stats

from layers import PER_LAYER, Fold, calls

REPRO_DIR = str(Path(repro.__file__).resolve().parent)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Probe:
    """Profiles one scenario's run phase (use as a context manager)."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.sim = scenario.tb.sim

    def __enter__(self):
        self.before = kernel_stats(self.sim)
        self.callbacks = CallbackProfiler(self.sim)
        self.profile = cProfile.Profile()
        self.t0 = time.perf_counter()
        self.profile.enable()
        return self

    def __exit__(self, *exc):
        self.profile.disable()
        self.wall = time.perf_counter() - self.t0
        self.callbacks.disable()
        self.after = kernel_stats(self.sim)
        self.profile.create_stats()
        self.fold = Fold(self.profile.stats, REPRO_DIR)
        return False

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead_x``, which
        needs an untraced rep (the runner fills it in)."""
        stats = self.profile.stats
        snap = self.callbacks.snapshot()
        before, after = self.before, self.after
        reported = after.events_dispatched - before.events_dispatched
        out = {f"{b}.self_s": secs for b, secs in self.fold.by_layer().items()}
        out.update(self.scenario.counters())
        flows = calls(stats, FlowScheduler.start_flow.__code__)
        capacity = calls(stats, Cloud.capacity.__code__)
        out.update({
            "trace.total_s": self.wall,
            "simkernel.batches": (after.batches_dispatched
                                  - before.batches_dispatched),
            "simkernel.preemptions": after.preemptions - before.preemptions,
            "simkernel.preempted_entries": snap.preempted_entries,
            "simkernel.events_run": snap.events,
            "simkernel.events_reported": reported,
            "simkernel.events_reported_per_run": _ratio(reported,
                                                        snap.events),
            "simkernel.clock_is_float": float(type(self.sim.now) is float),
            "network.flows_started": flows,
            "network.alloc_batches_per_flow": _ratio(
                out.get("network.alloc_batches", 0), flows),
            "hypervisor.host_queries": (
                calls(stats, PhysicalHost.free_cores.fget.__code__)
                + calls(stats, PhysicalHost.free_ram.fget.__code__)),
            "cloud.capacity_calls": capacity,
            "cloud.capacity_calls_per_job": _ratio(capacity,
                                                   self.scenario.n_jobs),
            "hypervisor.migrations": calls(stats,
                                           LiveMigrator.migrate.__code__),
            "metrics.records": calls(stats,
                                     MetricsRecorder.record.__code__),
        })
        names = [name for name, _, _ in PER_LAYER]
        return {name: out.get(name, 0) for name in names
                if name != "trace.overhead_x"}

    def artifacts(self) -> dict:
        """The fold's collapsed layer stacks and hottest functions."""
        return {"collapsed": self.fold.collapsed(),
                "top": self.fold.top(20)}
