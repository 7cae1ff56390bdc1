"""Input-split placement (the HDFS stand-in).

Tracks which worker nodes hold replicas of each job's input splits, so
the job tracker can schedule map tasks data-locally — the property that
makes multi-cloud MapReduce viable (a local map reads from disk; a
remote one drags its split across the network, possibly across clouds).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..hypervisor.vm import VirtualMachine
from .job import MapReduceJob


class BlockStore:
    """Replica locations of input splits over a set of data nodes."""

    def __init__(self, replication: int = 2):
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = replication
        self.nodes: List[VirtualMachine] = []
        #: VM name -> node (the last added, should names repeat).
        self._by_name: Dict[str, VirtualMachine] = {}
        #: (job id, split index) -> list of VM names holding a replica.
        self._placement: Dict[Tuple[int, int], List[str]] = {}

    # -- membership ----------------------------------------------------------

    def add_node(self, vm: VirtualMachine) -> None:
        if vm not in self.nodes:
            self.nodes.append(vm)
            self._by_name[vm.name] = vm

    def remove_node(self, vm: VirtualMachine) -> None:
        """Node departure: its replicas disappear (no re-replication —
        matching the short-lived clusters of the paper's experiments)."""
        if vm in self.nodes:
            self.nodes.remove(vm)
            self._by_name = {node.name: node for node in self.nodes}
        for locs in self._placement.values():
            if vm.name in locs:
                locs.remove(vm.name)

    # -- placement ----------------------------------------------------------

    def load_input(self, job: MapReduceJob, rng: np.random.Generator) -> None:
        """Distribute the job's input splits over current nodes.

        Primary replicas round-robin over nodes (Hadoop balances input),
        extra replicas land on distinct random nodes: a draw ``i`` over
        the ``n - 1`` other nodes in order is node ``i + (i >= primary)``.
        """
        if not self.nodes:
            raise RuntimeError("cannot load input: no data nodes")
        names = [vm.name for vm in self.nodes]
        n = len(names)
        reps = min(self.replication, n)
        if reps == 2:
            # rng.choice(n - 1, size=1, replace=False) per split gives
            # the values and leaves the generator state of one
            # rng.integers(0, n - 1) each: draw them all in one call.
            extra = rng.integers(0, n - 1, size=job.n_maps).tolist()
            for split, i in enumerate(extra):
                primary = split % n
                self._placement[(job.id, split)] = [
                    names[primary], names[i + (i >= primary)]]
            return
        for split in range(job.n_maps):
            primary = split % n
            chosen = [names[primary]]
            if reps > 1:
                for i in rng.choice(n - 1, size=reps - 1,
                                    replace=False).tolist():
                    chosen.append(names[i + (i >= primary)])
            self._placement[(job.id, split)] = chosen

    def locations(self, job: MapReduceJob, split: int) -> List[str]:
        """VM names currently holding a replica of ``split``."""
        return list(self._placement.get((job.id, split), []))

    def is_local(self, vm: VirtualMachine, job: MapReduceJob,
                 split: int) -> bool:
        return vm.name in self._placement.get((job.id, split), ())

    def any_replica_node(self, job: MapReduceJob, split: int
                         ) -> Optional[VirtualMachine]:
        """Some live node holding the split (for remote fetches)."""
        for name in self._placement.get((job.id, split), ()):
            vm = self._by_name.get(name)
            if vm is not None:
                return vm
        return None
