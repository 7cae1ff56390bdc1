"""Fold a cProfile run into this repo's layers.

A layer is a subpackage of ``src/repro/`` (``metrics.py`` counts as the
layer ``metrics``); every other module under ``src/repro/`` is
``other``.  The callback profiler's own module (``obs/profile.py``) is
charged to ``trace``, so observing the run does not inflate ``obs``.

Self-time of code outside ``repro`` (NumPy, builtins, the stdlib) is
charged to the nearest ``repro`` caller along cProfile's caller edges,
split by the time each edge carried: ``np.unique`` called from
``ContentRegistry`` counts as ``shrinker``.  A generator's body is its
own cProfile entry, so time spent after a ``Process._resume`` lands in
the layer that defines the generator.
"""

from __future__ import annotations

import os

LAYERS = ("simkernel", "network", "hypervisor", "shrinker", "cloud", "sky",
          "vine", "mapreduce", "controlplane", "obs", "metrics",
          "workloads")
#: Every bucket a fold can charge, in report order.
BUCKETS = LAYERS + ("other", "trace")

_ROOT = "root"

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    [(f"{b}.self_s", "s", "lower") for b in BUCKETS]
    + [
        ("trace.total_s", "s", "lower"),
        ("trace.overhead_x", "x", "lower"),
        ("simkernel.batches", "count", "lower"),
        ("simkernel.preemptions", "count", "lower"),
        ("simkernel.preempted_entries", "count", "lower"),
        ("simkernel.events_run", "count", "lower"),
        ("simkernel.events_reported", "count", "lower"),
        ("simkernel.events_reported_per_run", "ratio", "lower"),
        ("simkernel.clock_is_float", "flag", "higher"),
        ("network.flows_started", "count", "lower"),
        ("network.alloc_batches", "count", "lower"),
        ("network.flows_rerated", "count", "lower"),
        ("network.alloc_batches_per_flow", "ratio", "lower"),
        ("network.wan_bytes", "bytes", "lower"),
        ("hypervisor.host_queries", "count", "lower"),
        ("cloud.capacity_calls", "count", "lower"),
        ("cloud.capacity_calls_per_job", "ratio", "lower"),
        ("hypervisor.migrations", "count", "lower"),
        ("hypervisor.precopy_rounds", "count", "lower"),
        ("hypervisor.pages_sent", "count", "lower"),
        ("shrinker.registry_queries", "count", "lower"),
        ("shrinker.registry_hit_rate", "ratio", "higher"),
        ("shrinker.wan_saving", "ratio", "higher"),
        ("mapreduce.tasks", "count", "lower"),
        ("mapreduce.locality", "ratio", "higher"),
        ("controlplane.jobs_completed", "count", "higher"),
        ("controlplane.requeued", "count", "lower"),
        ("controlplane.preemptions", "count", "lower"),
        ("controlplane.events_logged", "count", "lower"),
        ("controlplane.spot_reclaims", "count", "lower"),
        ("metrics.records", "count", "lower"),
        ("obs.spans_started", "count", "lower"),
        ("obs.spans_resident_peak", "count", "lower"),
    ]
)


def layer_of_file(filename: str, repro_dir: str):
    """The bucket of a source file, or ``None`` outside ``repro``."""
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):].split(os.sep)
    if rel[:2] == ["obs", "profile.py"]:
        return "trace"
    head = rel[0][:-3] if rel[0].endswith(".py") else rel[0]
    return head if head in LAYERS else "other"


class Fold:
    """Per-layer self-time of one profile.

    ``stats`` is ``cProfile.Profile().stats`` after ``create_stats()``:
    ``{func: (cc, nc, tt, ct, callers)}`` with ``callers`` mapping each
    caller to its edge's ``(nc, cc, tt, ct)``.
    """

    def __init__(self, stats: dict, repro_dir: str):
        self.stats = stats
        self.repro_dir = repro_dir
        self._charged_memo = {}
        self._split_memo = {}
        #: (caller layer, layer) -> seconds of self-time.
        self.stacks = {}
        for func, (_, _, tt, _, _) in stats.items():
            if tt <= 0:
                continue
            for pair, share in self._split(func, 2, frozenset()).items():
                self.stacks[pair] = self.stacks.get(pair, 0.0) + tt * share

    def layer(self, func):
        return layer_of_file(func[0], self.repro_dir)

    def _callers(self, func) -> dict:
        entry = self.stats.get(func)
        return entry[4] if entry is not None else {}

    def _charged(self, func, seen: frozenset) -> dict:
        """Layer -> share of the time spent at ``func``: its own layer
        for repro code, else its callers' layers, weighted by the
        cumulative time each caller edge carried."""
        layer = self.layer(func)
        if layer is not None:
            return {layer: 1.0}
        memo = self._charged_memo.get(func)
        if memo is not None:
            return memo
        edges = _weights(self._callers(func), index=3)
        if not edges or func in seen:
            return {"other": 1.0}
        out = {}
        for caller, w in edges.items():
            for layer, share in self._charged(caller, seen | {func}).items():
                out[layer] = out.get(layer, 0.0) + w * share
        self._charged_memo[func] = out
        return out

    def _split(self, func, index: int, seen: frozenset) -> dict:
        """(caller layer, layer) -> share of the time at ``func``.  Edges
        are weighted by self-time (``index`` 2) for the function's own
        time and by cumulative time (3) further up the stack."""
        memo = self._split_memo.get(func) if index == 3 else None
        if memo is not None:
            return memo
        layer = self.layer(func)
        edges = _weights(self._callers(func), index)
        if not edges or func in seen:
            return {(_ROOT, layer or "other"): 1.0}
        out = {}
        for caller, w in edges.items():
            if layer is not None:
                # Repro code keeps its layer and records who called it.
                above = {(up, layer): share for up, share
                         in self._charged(caller, frozenset()).items()}
            else:
                # Foreign code is charged as if it were its caller.
                above = self._split(caller, 3, seen | {func})
            for pair, share in above.items():
                out[pair] = out.get(pair, 0.0) + w * share
        if index == 3:
            self._split_memo[func] = out
        return out

    def by_layer(self) -> dict:
        """Seconds of self-time per bucket (every bucket present)."""
        totals = dict.fromkeys(BUCKETS, 0.0)
        for (_, layer), secs in self.stacks.items():
            totals[layer] += secs
        return totals

    def collapsed(self) -> str:
        """Collapsed layer stacks, ``<caller_layer>;<layer> <µs>``."""
        lines = [f"{up};{layer} {int(round(secs * 1e6))}"
                 for (up, layer), secs in sorted(self.stacks.items())]
        return "\n".join(lines) + "\n"

    def top(self, n: int = 20) -> list:
        """The ``n`` functions with the most self-time."""
        rows = sorted(((tt, func) for func, (_, _, tt, _, _)
                       in self.stats.items()), reverse=True)[:n]
        out = []
        for tt, func in rows:
            split = self._split(func, 2, frozenset())
            layer = max(split.items(), key=lambda kv: kv[1])[0][1]
            out.append({"function": _label(func, self.repro_dir),
                        "layer": layer, "self_s": tt,
                        "calls": self.stats[func][1]})
        return out


def calls(stats: dict, code) -> int:
    """How many times cProfile saw the function with code object
    ``code`` called."""
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    entry = stats.get(key)
    return entry[1] if entry is not None else 0


def _weights(callers: dict, index: int) -> dict:
    """Caller -> share of the edges' time (call counts if no time)."""
    total = sum(edge[index] for edge in callers.values())
    if total > 0:
        return {c: edge[index] / total for c, edge in callers.items()
                if edge[index] > 0}
    total = sum(edge[0] for edge in callers.values())
    if total > 0:
        return {c: edge[0] / total for c, edge in callers.items()}
    return {}


def _label(func, repro_dir: str) -> str:
    filename, line, name = func
    if filename == "~":
        return name
    prefix = repro_dir.rstrip(os.sep) + os.sep
    if filename.startswith(prefix):
        filename = "repro/" + filename[len(prefix):].replace(os.sep, "/")
    else:
        filename = os.path.basename(filename)
    return f"{filename}:{line}({name})"
