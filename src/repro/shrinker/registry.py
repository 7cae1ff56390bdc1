"""The distributed content registry at a destination site.

Shrinker keeps, per destination cloud, a distributed index of the page
and block contents already present there (in the memory of running VMs,
on their disks, and in everything earlier migrations delivered).  A
migrating source queries it per page hash: *hit* means "send the digest,
the destination reconstructs the page locally"; *miss* means "send the
page, then register it".

The registry is shared by **all** VMs migrating to that site, which is
how inter-VM deduplication across a whole virtual cluster emerges: the
first VM pays for the common OS pages, every later VM sends digests.

Implementation: an LSM-style two-level index (O'Neil et al., "The
Log-Structured Merge-Tree", Acta Informatica 1996).  Two sorted,
distinct and disjoint ``uint64`` runs hold what the site has: the large
index and a small recent run.  Additions wait as raw batches until the
next query, which deduplicates them, drops what either run already
holds, and merges the rest into the recent run.  A batch of m queries
probes the index with :func:`numpy.searchsorted`, O(m log n), and the
recent run with the index's misses only.  The recent run merges into
the index only once it outgrows half the index (or ``min_pending``), so
the index is rebuilt O(log n) times as it grows, not once per query.
No Python-level loops, and no :func:`numpy.unique` or
:func:`numpy.isin`, which would rebuild a whole run per call (see
DESIGN.md).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..hypervisor.memory import sorted_unique


def _member(run: np.ndarray, fingerprints: np.ndarray) -> np.ndarray:
    """Which of ``fingerprints`` the sorted ``run`` holds."""
    if len(run) == 0:
        return np.zeros(len(fingerprints), dtype=bool)
    at = run.searchsorted(fingerprints)
    np.minimum(at, len(run) - 1, out=at)
    return run[at] == fingerprints


def _merge(run: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """One sorted run from two sorted, disjoint ones."""
    if len(fresh) == 0:
        return run
    if len(run) == 0:
        return fresh
    merged = np.concatenate((run, fresh))
    # Two sorted runs: the stable sort (timsort) merges them linearly.
    merged.sort(kind="stable")
    return merged


class ContentRegistry:
    """Site-wide content index with vectorized batch operations."""

    #: The recent run merges into the index once it holds more than this
    #: many fingerprints, or half the index if that is larger; pending
    #: batches are settled into the recent run by the same rule.
    min_pending = 4096

    def __init__(self, site: str):
        self.site = site
        #: The index and the recent run: sorted, distinct, disjoint.
        self._known = np.empty(0, dtype=np.uint64)
        self._recent = np.empty(0, dtype=np.uint64)
        self._pending: list = []
        self._pending_count = 0
        #: Query statistics (the Shrinker report plots hit rates).
        self.queries = 0
        self.hits = 0

    # -- internal -------------------------------------------------------

    def _threshold(self) -> int:
        return max(self.min_pending, len(self._known) // 2)

    def _probe(self, fingerprints: np.ndarray) -> np.ndarray:
        """Which of ``fingerprints`` (``uint64``) either run holds."""
        mask = _member(self._known, fingerprints)
        if len(self._recent):
            # The runs are disjoint: only the index's misses can hit.
            miss = np.flatnonzero(~mask)
            mask[miss] = _member(self._recent, fingerprints[miss])
        return mask

    def _settle(self) -> None:
        """Fold the pending batches into the recent run."""
        if not self._pending:
            return
        fresh = sorted_unique(np.concatenate(self._pending))
        self._pending = []
        self._pending_count = 0
        self._add_absent(fresh[~self._probe(fresh)])

    def _add_absent(self, fresh: np.ndarray) -> None:
        """Register ``fresh``: sorted, distinct and held by neither run
        (what a query just reported missing), so it needs no sort or
        probe before it joins the recent run."""
        self._recent = _merge(self._recent, fresh)
        if len(self._recent) > self._threshold():
            self._consolidate()

    def _consolidate(self) -> None:
        """Merge the recent run into the index (the only full rebuild)."""
        self._known = _merge(self._known, self._recent)
        self._recent = np.empty(0, dtype=np.uint64)

    # -- API ------------------------------------------------------------

    def __len__(self) -> int:
        self._settle()
        return len(self._known) + len(self._recent)

    def contains(self, fingerprints: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``fingerprints`` are already present."""
        fingerprints = np.asarray(fingerprints, dtype=np.uint64)
        self._settle()
        mask = self._probe(fingerprints)
        self.queries += len(fingerprints)
        self.hits += int(mask.sum())
        return mask

    def add(self, fingerprints: np.ndarray) -> None:
        """Register newly arrived content (settled by the next query)."""
        fingerprints = np.asarray(fingerprints, dtype=np.uint64)
        if len(fingerprints) == 0:
            return
        self._pending.append(fingerprints)
        self._pending_count += len(fingerprints)
        # Keep the pending buffer small relative to the index.
        if self._pending_count > self._threshold():
            self._settle()

    def prepopulate_from_memory(self, memory) -> None:
        """Index the pages of a VM already resident at this site."""
        self.add(sorted_unique(memory.pages))

    def prepopulate_from_disk(self, disk) -> None:
        """Index the blocks of a disk image stored at this site."""
        self.add(sorted_unique(disk.blocks()))

    def prepopulate(self, vms: Iterable = (), disks: Iterable = ()) -> None:
        """Index a collection of resident VMs and stored images."""
        for vm in vms:
            self.prepopulate_from_memory(vm.memory)
            if getattr(vm, "disk", None) is not None:
                self.prepopulate_from_disk(vm.disk)
        for disk in disks:
            self.prepopulate_from_disk(disk)

    @property
    def hit_rate(self) -> float:
        """Fraction of queried pages found at the destination."""
        return self.hits / self.queries if self.queries else 0.0

    def __repr__(self):
        return (f"<ContentRegistry {self.site!r} entries={len(self)} "
                f"hit_rate={self.hit_rate:.2%}>")


class RegistryDirectory:
    """One registry per destination site, created on demand."""

    def __init__(self):
        self._registries: dict = {}

    def for_site(self, site: str) -> ContentRegistry:
        reg = self._registries.get(site)
        if reg is None:
            reg = self._registries[site] = ContentRegistry(site)
        return reg

    def __contains__(self, site: str) -> bool:
        return site in self._registries
