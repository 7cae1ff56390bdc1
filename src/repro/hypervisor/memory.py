"""Guest memory as an array of page-content fingerprints.

Shrinker's savings depend on *which pages are byte-identical*, not on the
bytes themselves, so guest memory is modeled as a NumPy ``uint64`` array
of **content fingerprints**: two pages are identical iff their
fingerprints are equal.  This preserves exactly the information a
cryptographic page hash carries (the paper's SHA-1 content addressing)
while letting a laptop hold thousands of simulated gigabytes.

Fingerprint namespace (64 bits):

* ``0`` — the zero page (ubiquitous in real guests);
* top bit clear — *shared* content, deterministically derived from a
  named pool (same OS image, same application data => same fingerprint
  across VMs);
* top bit set — *unique* content, drawn from a per-VM counter so no two
  unique pages ever collide.

The dirty bitmap mirrors a hypervisor's dirty-page tracking: migration
rounds read-and-clear it while the guest keeps writing.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Optional

import numpy as np

from ..network.units import PAGE_SIZE

#: Fingerprint of the all-zeroes page.
ZERO_PAGE = np.uint64(0)

#: Top bit marks globally-unique (never deduplicable) content.
UNIQUE_FLAG = np.uint64(1) << np.uint64(63)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 mixer, vectorized; a solid 64-bit hash."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array.

    Returns exactly what :func:`numpy.unique` returns for integer input,
    by sorting and keeping each run's first element.  NumPy 2.x routes
    ``np.unique`` on integers through a hash table that is several times
    slower than this on fingerprint arrays (see DESIGN.md).
    """
    values = np.sort(values, axis=None)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


@lru_cache(maxsize=None)
def _pool_salt(pool: str) -> np.uint64:
    """A 63-bit salt for ``pool``, the same in every interpreter
    (unlike ``hash(str)``, which ``PYTHONHASHSEED`` randomises)."""
    digest = hashlib.blake2b(pool.encode(), digest_size=8).digest()
    return np.uint64(int.from_bytes(digest, "little") & 0x7FFFFFFFFFFFFFFF)


def pool_fingerprints(pool: str, indices: np.ndarray) -> np.ndarray:
    """Deterministic fingerprints for pages ``indices`` of a shared pool.

    Every VM asking for page *i* of pool ``"debian-squeeze"`` gets the
    same fingerprint — this is how inter-VM duplication (same OS, same
    libraries, same buffer-cache files) enters the model.  The top bit is
    cleared so shared content never collides with unique content.
    """
    salt = _pool_salt(pool)
    with np.errstate(over="ignore"):
        fps = _splitmix64(indices.astype(np.uint64) + salt * np.uint64(0x9E37))
    fps &= ~UNIQUE_FLAG
    # Reserve 0 for the zero page.
    fps[fps == ZERO_PAGE] = np.uint64(1)
    return fps


@lru_cache(maxsize=None)
def pool_table(pool: str, size: int) -> np.ndarray:
    """``pool_fingerprints(pool, arange(size))``, computed once per
    ``(pool, size)`` and read-only.

    Indexing it gives exactly what :func:`pool_fingerprints` computes
    for those indices, since that function works element by element;
    hot paths drawing from a small pool look fingerprints up here
    instead of re-hashing them on every call.
    """
    table = pool_fingerprints(pool, np.arange(size, dtype=np.uint64))
    table.flags.writeable = False
    return table


class UniqueContentFactory:
    """Mints fingerprints guaranteed distinct from all others ever minted.

    The counter is **process-global** (class-level): two factories never
    hand out the same fingerprint, so "unique" content is unique across
    every VM, image and profile in the simulation — which is what makes
    deduplication measurements honest.
    """

    _global_counter = 0

    def take(self, n: int) -> np.ndarray:
        """Return ``n`` fresh, globally-unique fingerprints."""
        if n < 0:
            raise ValueError(f"negative count {n}")
        start = UniqueContentFactory._global_counter
        UniqueContentFactory._global_counter += n
        return (np.arange(start, start + n, dtype=np.uint64)
                | UNIQUE_FLAG)


class MemoryImage:
    """The RAM of one VM: fingerprints plus a dirty bitmap.

    A zero-filled image holds no arrays until something needs them:
    :attr:`pages` and the dirty bitmap are allocated on the first
    :meth:`write`, :meth:`touch` or read of :attr:`pages`, and the
    dirty-tracking reads answer for a clean image without allocating.
    A VM costs only the memory it writes, as with copy-on-write
    instantiation.

    Parameters
    ----------
    n_pages:
        Number of pages; size in bytes is ``n_pages * page_size``.
    page_size:
        Bytes per page (default 4 KiB).
    fingerprints:
        Initial contents; zero-filled if omitted.
    """

    def __init__(self, n_pages: int, page_size: int = PAGE_SIZE,
                 fingerprints: Optional[np.ndarray] = None):
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.n_pages = n_pages
        self.page_size = page_size
        #: Both None until first use (zero-filled, clean); both arrays
        #: from then on.
        self._pages: Optional[np.ndarray] = None
        self._dirty: Optional[np.ndarray] = None
        if fingerprints is not None:
            if len(fingerprints) != n_pages:
                raise ValueError(
                    f"fingerprints length {len(fingerprints)} != n_pages {n_pages}"
                )
            self._pages = fingerprints.astype(np.uint64, copy=True)
            self._dirty = np.zeros(n_pages, dtype=bool)

    def _materialize(self) -> None:
        """Allocate the zero pages and the clean bitmap."""
        self._pages = np.zeros(self.n_pages, dtype=np.uint64)
        self._dirty = np.zeros(self.n_pages, dtype=bool)

    @property
    def pages(self) -> np.ndarray:
        """Page fingerprints (``uint64``, one per page); writable."""
        if self._pages is None:
            self._materialize()
        return self._pages

    # -- size ---------------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total RAM in bytes."""
        return self.n_pages * self.page_size

    # -- guest writes -----------------------------------------------------

    def write(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Guest writes: set page contents and mark them dirty."""
        if self._dirty is None:
            self._materialize()
        self._pages[indices] = values
        self._dirty[indices] = True

    def touch(self, indices: np.ndarray) -> None:
        """Mark pages dirty without changing content (rewrite same data)."""
        if self._dirty is None:
            self._materialize()
        self._dirty[indices] = True

    # -- dirty tracking ------------------------------------------------------

    @property
    def dirty_count(self) -> int:
        """Number of pages dirtied since the last clear."""
        if self._dirty is None:
            return 0
        return int(self._dirty.sum())

    def dirty_indices(self) -> np.ndarray:
        """Indices of dirty pages (ascending)."""
        if self._dirty is None:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(self._dirty)

    def clear_dirty(self) -> None:
        """Reset the dirty bitmap (start of a migration round)."""
        if self._dirty is not None:
            self._dirty[:] = False

    def read_and_clear_dirty(self) -> np.ndarray:
        """Atomically fetch dirty indices and reset the bitmap."""
        idx = self.dirty_indices()
        self.clear_dirty()
        return idx

    # -- analysis -----------------------------------------------------------

    def duplication_ratio(self) -> float:
        """Fraction of pages whose content also appears elsewhere in
        this image (self-duplication, e.g. zero pages)."""
        if self._pages is None:
            # All zero pages: every one is duplicated, unless it is alone.
            return 1.0 if self.n_pages > 1 else 0.0
        pages = np.sort(self._pages)
        starts = np.flatnonzero(np.diff(pages)) + 1
        counts = np.diff(starts, prepend=0, append=len(pages))
        duplicated = counts[counts > 1].sum()
        return float(duplicated) / self.n_pages

    def __repr__(self):
        return (f"<MemoryImage {self.n_pages} pages "
                f"({self.size_bytes / 2**20:.0f} MiB) "
                f"dirty={self.dirty_count}>")
