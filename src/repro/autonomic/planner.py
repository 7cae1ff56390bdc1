"""Communication-aware placement planning (paper §III-C).

Relocating *subsets* of a virtual cluster "needs to take into account
communication patterns to limit communications crossing cloud
boundaries" — both for latency and because inter-cloud traffic is
billed.  The planner turns a detected
:class:`~repro.patterns.matrix.TrafficMatrix` into a VM→cloud assignment
that minimizes cross-cloud volume, under per-cloud capacity limits.

Algorithm: weighted graph partitioning — Kernighan–Lin bisection
(Kernighan & Lin, BSTJ 1970) for two clouds, applied recursively for
more — plus a refinement pass that greedily moves VMs while it reduces
the cut and respects capacity.  Baselines (`random_assignment`,
`round_robin_assignment`) quantify the benefit.  Everything walks plain
dicts in insertion order, so a plan never depends on string hashing.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..patterns.matrix import TrafficMatrix

#: VM name -> cloud name.
Assignment = Dict[str, str]

#: Weighted undirected graph: node -> neighbour -> weight, both ways.
Adjacency = Dict[str, Dict[str, float]]

#: Most Kernighan–Lin sweeps per bisection.
KL_SWEEPS = 10


class PlanningError(Exception):
    """The requested placement is infeasible."""


def cross_traffic(assignment: Assignment, matrix: TrafficMatrix) -> float:
    """Bytes crossing cloud boundaries under ``assignment``."""
    total = 0.0
    for (src, dst), volume in matrix.pairs().items():
        if assignment.get(src) != assignment.get(dst):
            total += volume
    return total


def random_assignment(vms: Sequence[str], clouds: Dict[str, int],
                      rng: np.random.Generator) -> Assignment:
    """Capacity-respecting uniform-random baseline."""
    slots: List[str] = []
    for cloud, cap in clouds.items():
        slots.extend([cloud] * cap)
    if len(slots) < len(vms):
        raise PlanningError("not enough capacity for all VMs")
    picked = rng.choice(len(slots), size=len(vms), replace=False)
    return {vm: slots[i] for vm, i in zip(vms, picked)}


def round_robin_assignment(vms: Sequence[str],
                           clouds: Dict[str, int]) -> Assignment:
    """Deal VMs over clouds in turn (the locality-blind default)."""
    if sum(clouds.values()) < len(vms):
        raise PlanningError("not enough capacity for all VMs")
    names = list(clouds)
    remaining = dict(clouds)
    out: Assignment = {}
    i = 0
    for vm in vms:
        for _ in range(len(names) + 1):
            cloud = names[i % len(names)]
            i += 1
            if remaining[cloud] > 0:
                remaining[cloud] -= 1
                out[vm] = cloud
                break
        else:  # pragma: no cover - guarded by capacity check
            raise PlanningError("allocation failed")
    return out


def _kl_sweep(adj: Adjacency, side: Dict[str, int]):
    """One Kernighan–Lin pass in its single-move form.

    A node's cost is the change in cut weight if it alone switched
    sides.  The pass moves the cheapest unmoved node of side 0, then of
    side 1, and so on, and yields ``(running cost, pairs moved, pair)``
    after each pair; ``side`` itself is left as it was.  Each side keeps
    a lazy min-heap of ``(cost, counter, node)``: a changed cost is
    pushed anew and the stale entry is skipped on pop.
    """
    tick = count()
    heaps = ([], [])
    live = ({}, {})  # side -> unmoved node -> current cost

    def push(s, node, cost):
        live[s][node] = cost
        heappush(heaps[s], (cost, next(tick), node))

    def pop(s):
        while True:
            cost, _, node = heappop(heaps[s])
            if live[s].get(node) == cost:
                del live[s][node]
                return node, cost

    def moved(node):
        for nbr, wt in adj[node].items():
            s = side[nbr]
            if nbr in live[s]:
                new = live[s][nbr] + 2 * (-wt if s == side[node] else wt)
                if new != live[s][nbr]:
                    push(s, nbr, new)

    for u, nbrs in adj.items():
        cost = sum(wt if side[v] else -wt for v, wt in nbrs.items())
        if side[u]:
            push(1, u, cost)
        else:
            push(0, u, -cost)
    total, i = 0, 0
    while live[0] and live[1]:
        u, cost_u = pop(0)
        moved(u)
        v, cost_v = pop(1)
        moved(v)
        total += cost_u + cost_v
        i += 1
        yield total, i, (u, v)


def kernighan_lin_bisection(adj: Adjacency, seed: int = 0):
    """Split the nodes of ``adj`` into two halves with a small cut.

    Starts from a ``random.Random(seed)`` shuffle cut at the middle,
    then applies up to :data:`KL_SWEEPS` sweeps, each keeping the
    prefix of moves with the lowest cost, until no prefix lowers the cut.
    Returns the two sides as lists in ``adj`` order.
    """
    nodes = list(adj)
    random.Random(seed).shuffle(nodes)
    side = {node: int(k < len(nodes) // 2) for k, node in enumerate(nodes)}
    for _ in range(KL_SWEEPS):
        costs = list(_kl_sweep(adj, side))
        min_cost, min_i, _ = min(costs)
        if min_cost >= 0:
            break
        for _, _, (u, v) in costs[:min_i]:
            side[u] = 1
            side[v] = 0
    return ([u for u in adj if not side[u]], [u for u in adj if side[u]])


class CommunicationAwarePlanner:
    """Minimize cross-cloud traffic via recursive graph bisection."""

    def __init__(self, seed: int = 0, refine_passes: Optional[int] = None):
        self.seed = seed
        #: Max greedy-refinement sweeps; None = run to convergence
        #: (bounded by problem size), which guarantees no single-VM move
        #: can improve the final cut.
        self.refine_passes = refine_passes

    # -- public ----------------------------------------------------------

    def plan(self, vms: Sequence[str], matrix: TrafficMatrix,
             clouds: Dict[str, int]) -> Assignment:
        """Assign ``vms`` to ``clouds`` (name -> capacity)."""
        vms = list(vms)
        if sum(clouds.values()) < len(vms):
            raise PlanningError("not enough capacity for all VMs")
        if len(clouds) == 1:
            only = next(iter(clouds))
            return {vm: only for vm in vms}
        graph = self._build_graph(vms, matrix)
        assignment = self._partition(graph, vms, dict(clouds))
        passes = (self.refine_passes if self.refine_passes is not None
                  else max(10, 2 * len(vms)))
        for _ in range(passes):
            if not self._refine(assignment, matrix, dict(clouds)):
                break
        return assignment

    # -- internals ------------------------------------------------------

    @staticmethod
    def _build_graph(vms: Sequence[str], matrix: TrafficMatrix) -> Adjacency:
        adj: Adjacency = {vm: {} for vm in vms}
        for (src, dst), volume in matrix.symmetrized().pairs().items():
            if src in adj and dst in adj:
                adj[src][dst] = adj[dst][src] = volume
        return adj

    def _partition(self, graph: Adjacency, vms: List[str],
                   clouds: Dict[str, int]) -> Assignment:
        """Recursive capacity-aware bisection."""
        names = sorted(clouds, key=clouds.get, reverse=True)
        if len(names) == 1:
            return {vm: names[0] for vm in vms}
        # Split the cloud set into two halves by capacity.
        left_names, right_names = [], []
        left_cap = right_cap = 0
        for name in names:
            if left_cap <= right_cap:
                left_names.append(name)
                left_cap += clouds[name]
            else:
                right_names.append(name)
                right_cap += clouds[name]
        # The induced subgraph, in the graph's own node order.
        keep = set(vms)
        sub = {v: {u: w for u, w in nbrs.items() if u in keep}
               for v, nbrs in graph.items() if v in keep}
        left, right = self._bisect(sub, vms, left_cap, right_cap)
        out: Assignment = {}
        out.update(self._partition(graph, sorted(left),
                                   {n: clouds[n] for n in left_names}))
        out.update(self._partition(graph, sorted(right),
                                   {n: clouds[n] for n in right_names}))
        return out

    def _bisect(self, graph: Adjacency, vms: List[str], left_cap: int,
                right_cap: int):
        """KL bisection, then enforce the capacity split sizes."""
        n = len(vms)
        target_left = min(left_cap, max(0, n - right_cap),
                          max(n // 2, n - right_cap))
        target_left = min(max(target_left, n - right_cap), left_cap, n)
        if n <= 1 or not any(graph.values()):
            return vms[:target_left], vms[target_left:]
        halves = kernighan_lin_bisection(graph, seed=self.seed)
        # Ordered sets: ties below go to the earliest node.
        left, right = (dict.fromkeys(half) for half in halves)

        # Rebalance to capacities: move the least-attached nodes.
        def attachment(node, group):
            return sum(w for nb, w in graph[node].items() if nb in group)
        while len(left) > left_cap:
            mover = min(left, key=lambda v: attachment(v, left))
            del left[mover]
            right[mover] = None
        while len(right) > right_cap:
            mover = min(right, key=lambda v: attachment(v, right))
            del right[mover]
            left[mover] = None
        return left, right

    def _refine(self, assignment: Assignment, matrix: TrafficMatrix,
                clouds: Dict[str, int]) -> bool:
        """Greedy single-VM moves that lower the cut within capacity."""
        sym = matrix.symmetrized()
        used: Dict[str, int] = {name: 0 for name in clouds}
        for cloud in assignment.values():
            used[cloud] += 1
        improved = False
        for vm in sorted(assignment):
            current = assignment[vm]
            # Volume this VM exchanges with each cloud.
            volume_to: Dict[str, float] = {name: 0.0 for name in clouds}
            for (a, b), v in sym.pairs().items():
                if a == vm and b in assignment:
                    volume_to[assignment[b]] += v
                elif b == vm and a in assignment:
                    volume_to[assignment[a]] += v
            best = max(
                (name for name in clouds
                 if name == current or used[name] < clouds[name]),
                key=lambda name: volume_to[name],
            )
            if best != current and volume_to[best] > volume_to[current]:
                assignment[vm] = best
                used[current] -= 1
                used[best] += 1
                improved = True
        return improved
