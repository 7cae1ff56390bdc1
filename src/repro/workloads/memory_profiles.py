"""Guest memory/disk content generators with controlled duplication.

The literature the paper builds on (Difference Engine, Satori, Memory
Buddies, the CAS studies) reports that VM memory splits into three kinds
of content, in workload-dependent proportions:

* **zero pages** — unused or freed memory;
* **shared content** — kernel text, shared libraries, buffer-cache
  copies of common files: *identical across VMs running the same OS and
  applications* (this is Shrinker's inter-VM redundancy);
* **unique content** — application heaps, database buffers.

A :class:`MemoryProfile` captures those proportions plus the write
behavior (dirty rate, hot-set locality, and how much freshly written
content is itself common across the cluster).  The bundled profiles —
``idle``, ``web-server``, ``kernel-build``, ``database`` — span the
workload range the Shrinker evaluation sweeps ("30 to 40% depending on
workload").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict

import numpy as np

from ..hypervisor.memory import (
    MemoryImage,
    UniqueContentFactory,
    ZERO_PAGE,
    pool_fingerprints,
    pool_table,
    sorted_unique,
)


@dataclass
class MemoryProfile:
    """Content mix and write behavior of one guest workload.

    Fractions must satisfy ``zero + shared <= 1``; the remainder is
    unique content.  ``os_pool`` names the shared-content namespace: VMs
    with the same ``os_pool`` share fingerprints (same OS image), which
    is what inter-VM deduplication exploits.
    """

    name: str
    zero_fraction: float
    shared_fraction: float
    dirty_rate: float  #: pages/second while the guest runs
    os_pool: str = "debian-base"
    #: Fraction of the address space forming the write-hot set.
    hot_fraction: float = 0.1
    #: Probability that a write lands in the hot set.
    hot_weight: float = 0.9
    #: Fraction of dirtied pages whose *new* content is shared (e.g.
    #: page-cache fills of common files) rather than unique.
    dirty_shared_fraction: float = 0.2
    #: Size of the pool shared writes draw from (smaller => more
    #: re-convergence onto already-transferred content).
    dirty_pool_size: int = 4096
    _unique: UniqueContentFactory = field(default_factory=UniqueContentFactory,
                                          repr=False)

    def __post_init__(self):
        if not 0 <= self.zero_fraction <= 1:
            raise ValueError("zero_fraction out of range")
        if not 0 <= self.shared_fraction <= 1:
            raise ValueError("shared_fraction out of range")
        if self.zero_fraction + self.shared_fraction > 1 + 1e-9:
            raise ValueError("zero + shared fractions exceed 1")
        if self.dirty_rate < 0:
            raise ValueError("dirty_rate must be >= 0")
        if not 0 < self.hot_fraction <= 1:
            raise ValueError("hot_fraction out of range")

    @cached_property
    def dirty_pool(self) -> str:
        """The shared pool that shared writes draw their content from."""
        return f"{self.os_pool}:dirty"

    # -- initial contents ---------------------------------------------------

    def generate_memory(self, rng: np.random.Generator,
                        n_pages: int) -> MemoryImage:
        """Build one VM's initial memory image.

        Shared pages use pool indices ``0..n_shared`` so every VM built
        from this profile holds the *same* shared content; unique pages
        are globally fresh.  Page positions are shuffled so the hot set
        touches all content kinds.
        """
        n_zero = int(round(self.zero_fraction * n_pages))
        n_shared = int(round(self.shared_fraction * n_pages))
        n_shared = min(n_shared, n_pages - n_zero)
        n_unique = n_pages - n_zero - n_shared

        parts = []
        if n_zero:
            parts.append(np.full(n_zero, ZERO_PAGE, dtype=np.uint64))
        if n_shared:
            parts.append(
                pool_fingerprints(self.os_pool,
                                  np.arange(n_shared, dtype=np.uint64))
            )
        if n_unique:
            parts.append(self._unique.take(n_unique))
        fps = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
        rng.shuffle(fps)
        return MemoryImage(n_pages, fingerprints=fps)

    # -- write behavior (Dirtier hooks) ------------------------------------

    def pick_indices(self, rng: np.random.Generator, n: int,
                     n_pages: int) -> np.ndarray:
        """Choose pages to dirty: hot-set biased, deduplicated, ascending.

        The order is part of the contract: :meth:`dirty_values` content
        is assigned to the picked pages by position.
        """
        hot_size = max(1, int(self.hot_fraction * n_pages))
        in_hot = rng.random(n) < self.hot_weight
        picks = np.where(
            in_hot,
            rng.integers(0, hot_size, n),
            rng.integers(0, n_pages, n),
        )
        return sorted_unique(picks)

    def dirty_values(self, rng: np.random.Generator, n: int,
                     vm=None) -> np.ndarray:
        """New contents for dirtied pages.

        A ``dirty_shared_fraction`` of writes produce content drawn from
        a small shared pool (identical across the cluster's VMs and
        often already transferred — dedup hits in later rounds); the
        rest is fresh unique content.
        """
        shared_mask = rng.random(n) < self.dirty_shared_fraction
        n_shared = int(np.count_nonzero(shared_mask))
        values = self._unique.take(n)
        if n_shared:
            pool_idx = rng.integers(0, self.dirty_pool_size, n_shared)
            values[shared_mask] = pool_table(
                self.dirty_pool, self.dirty_pool_size)[pool_idx]
        return values


# -- the workload catalogue (Shrinker's evaluation axis) ---------------------


def idle() -> MemoryProfile:
    """A freshly booted, mostly idle guest: lots of zero pages."""
    return MemoryProfile("idle", zero_fraction=0.30, shared_fraction=0.45,
                         dirty_rate=50, dirty_shared_fraction=0.5)


def web_server() -> MemoryProfile:
    """Static-content web serving: big shared buffer cache."""
    return MemoryProfile("web-server", zero_fraction=0.15,
                         shared_fraction=0.45, dirty_rate=800,
                         dirty_shared_fraction=0.35)


def kernel_build() -> MemoryProfile:
    """Compilation: high dirty rate, moderate sharing (sources, toolchain)."""
    return MemoryProfile("kernel-build", zero_fraction=0.10,
                         shared_fraction=0.35, dirty_rate=3000,
                         dirty_shared_fraction=0.25)


def database() -> MemoryProfile:
    """OLTP-style: mostly unique buffer pool, aggressive writes."""
    return MemoryProfile("database", zero_fraction=0.05,
                         shared_fraction=0.20, dirty_rate=6000,
                         dirty_shared_fraction=0.10)


#: Name -> constructor, in the order the benches sweep them.
PROFILES: Dict[str, Callable[[], MemoryProfile]] = {
    "idle": idle,
    "web-server": web_server,
    "kernel-build": kernel_build,
    "database": database,
}


def generate_disk_fingerprints(rng: np.random.Generator, n_blocks: int,
                               os_pool: str = "debian-base",
                               shared_fraction: float = 0.75,
                               unique_factory: UniqueContentFactory = None,
                               ) -> np.ndarray:
    """Disk-image contents: mostly the shared OS install, plus unique data.

    The CAS literature the paper cites found VM *images* even more
    redundant than memory: same distribution, same packages.
    """
    if not 0 <= shared_fraction <= 1:
        raise ValueError("shared_fraction out of range")
    factory = unique_factory or UniqueContentFactory()
    n_shared = int(round(shared_fraction * n_blocks))
    n_unique = n_blocks - n_shared
    parts = []
    if n_shared:
        parts.append(
            pool_fingerprints(f"{os_pool}:disk",
                              np.arange(n_shared, dtype=np.uint64))
        )
    if n_unique:
        parts.append(factory.take(n_unique))
    fps = np.concatenate(parts)
    rng.shuffle(fps)
    return fps
