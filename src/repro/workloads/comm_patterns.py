"""Synthetic communication patterns.

Drive known traffic shapes between VMs so pattern detection (§III-C)
and communication-aware placement (the autonomic planner) can be
evaluated against an exact ground truth.  Patterns mirror the structures
distributed scientific applications exhibit: rings (halo exchange),
all-to-all (transposes/shuffles), master-worker, and clustered groups
(the case where placement matters most).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple


from ..network.flows import FlowScheduler
from ..network.transport import Transport
from ..simkernel.core import Simulator
from ..simkernel.process import Process

#: (src index, dst index, bytes) triples for one round.
PatternRound = List[Tuple[int, int, float]]


def ring(n: int, nbytes: float) -> PatternRound:
    """Each node sends to its successor."""
    return [(i, (i + 1) % n, nbytes) for i in range(n)]


def all_to_all(n: int, nbytes: float) -> PatternRound:
    """Every ordered pair exchanges ``nbytes``."""
    return [(i, j, nbytes) for i in range(n) for j in range(n) if i != j]


def master_worker(n: int, nbytes: float,
                  result_factor: float = 4.0) -> PatternRound:
    """Node 0 sends work to all; workers return larger results."""
    out = [(0, i, nbytes) for i in range(1, n)]
    out += [(i, 0, nbytes * result_factor) for i in range(1, n)]
    return out


def clustered(n: int, nbytes: float, group_size: int = 4,
              inter_group_fraction: float = 0.05) -> PatternRound:
    """Dense traffic within groups, sparse between them.

    The shape that motivates communication-aware placement: put each
    group in one cloud and almost nothing crosses the boundary.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    out: PatternRound = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same = (i // group_size) == (j // group_size)
            volume = nbytes if same else nbytes * inter_group_fraction
            out.append((i, j, volume))
    return out


PATTERNS: dict = {
    "ring": ring,
    "all-to-all": all_to_all,
    "master-worker": master_worker,
    "clustered": clustered,
}


def run_pattern(sim: Simulator, scheduler: FlowScheduler, vms: Sequence,
                pattern: PatternRound, rounds: int = 1,
                interval: float = 1.0,
                recorder: Optional[Callable[[str, str, float, str], None]]
                = None,
                tag: str = "app") -> Process:
    """Execute ``rounds`` of a pattern as real flows between ``vms``.

    Each round launches every (src, dst, bytes) transfer concurrently,
    waits for all of them, then idles ``interval`` seconds.  The
    ``recorder`` (ground truth) is told application bytes.
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    transport = Transport.of(scheduler)

    def _run():
        for _ in range(rounds):
            waits = []
            for src_i, dst_i, nbytes in pattern:
                src, dst = vms[src_i], vms[dst_i]
                if recorder is not None:
                    recorder(src.name, dst.name, nbytes, tag)
                flow = transport.data(
                    src.site, dst.site, nbytes, tag=tag,
                    src_vm=src.name, dst_vm=dst.name,
                )
                waits.append(flow.done)
            yield sim.all_of(waits)
            if interval > 0:
                yield sim.timeout(interval)

    return sim.process(_run(), name=f"pattern-{tag}")
