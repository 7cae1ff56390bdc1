"""Eager reference for :class:`~repro.hypervisor.MemoryImage`.

:class:`EagerMemoryImage` allocates its zero pages and its dirty bitmap
up front and answers every read from them, the way guest memory was
modelled before images materialized on first touch.  A lazy image must
read, write and report exactly what this one does.
"""

import numpy as np

from repro.network.units import PAGE_SIZE


class EagerMemoryImage:
    """Fingerprints plus a dirty bitmap, both allocated at construction."""

    def __init__(self, n_pages: int, page_size: int = PAGE_SIZE):
        self.n_pages = n_pages
        self.page_size = page_size
        self.pages = np.zeros(n_pages, dtype=np.uint64)
        self._dirty = np.zeros(n_pages, dtype=bool)

    @property
    def size_bytes(self) -> int:
        return self.n_pages * self.page_size

    def write(self, indices, values) -> None:
        self.pages[indices] = values
        self._dirty[indices] = True

    def touch(self, indices) -> None:
        self._dirty[indices] = True

    @property
    def dirty_count(self) -> int:
        return int(self._dirty.sum())

    def dirty_indices(self) -> np.ndarray:
        return np.flatnonzero(self._dirty)

    def clear_dirty(self) -> None:
        self._dirty[:] = False

    def read_and_clear_dirty(self) -> np.ndarray:
        idx = self.dirty_indices()
        self.clear_dirty()
        return idx

    def duplication_ratio(self) -> float:
        pages = np.sort(self.pages)
        starts = np.flatnonzero(np.diff(pages)) + 1
        counts = np.diff(starts, prepend=0, append=len(pages))
        duplicated = counts[counts > 1].sum()
        return float(duplicated) / self.n_pages
