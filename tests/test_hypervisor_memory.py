"""Tests for the fingerprint memory model and dirty tracking."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.hypervisor import (
    MemoryImage,
    UNIQUE_FLAG,
    UniqueContentFactory,
    ZERO_PAGE,
    pool_fingerprints,
)


def test_memory_starts_zeroed_and_clean():
    mem = MemoryImage(128)
    assert mem.n_pages == 128
    assert mem.size_bytes == 128 * 4096
    assert np.all(mem.pages == ZERO_PAGE)
    assert mem.dirty_count == 0


def test_memory_validation():
    with pytest.raises(ValueError):
        MemoryImage(0)
    with pytest.raises(ValueError):
        MemoryImage(8, page_size=0)
    with pytest.raises(ValueError):
        MemoryImage(8, fingerprints=np.zeros(4, dtype=np.uint64))


def test_write_marks_dirty():
    mem = MemoryImage(16)
    mem.write(np.array([1, 5]), np.array([10, 20], dtype=np.uint64))
    assert mem.dirty_count == 2
    assert list(mem.dirty_indices()) == [1, 5]
    assert mem.pages[1] == 10 and mem.pages[5] == 20


def test_touch_marks_dirty_without_change():
    mem = MemoryImage(16)
    mem.touch(np.array([3]))
    assert mem.dirty_count == 1
    assert mem.pages[3] == ZERO_PAGE


def test_read_and_clear_dirty():
    mem = MemoryImage(16)
    mem.write(np.array([2, 7]), np.array([1, 2], dtype=np.uint64))
    idx = mem.read_and_clear_dirty()
    assert list(idx) == [2, 7]
    assert mem.dirty_count == 0


def test_double_write_single_dirty_entry():
    mem = MemoryImage(16)
    mem.write(np.array([4]), np.array([1], dtype=np.uint64))
    mem.write(np.array([4]), np.array([2], dtype=np.uint64))
    assert mem.dirty_count == 1


def test_pool_fingerprints_deterministic_and_distinct():
    idx = np.arange(100, dtype=np.uint64)
    a = pool_fingerprints("debian", idx)
    b = pool_fingerprints("debian", idx)
    c = pool_fingerprints("centos", idx)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # No zero-page or unique-flag collisions.
    assert np.all(a != ZERO_PAGE)
    assert np.all((a & UNIQUE_FLAG) == 0)
    # Injective over the tested range.
    assert len(np.unique(a)) == len(a)


def test_pool_fingerprints_identical_across_hash_seeds():
    """String hashing is randomised per interpreter; the fingerprints of a
    pool must not depend on it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import numpy as np; from repro.hypervisor import "
            "pool_fingerprints as p; print(p('debian', "
            "np.arange(8, dtype=np.uint64)).tolist())")
    seen = set()
    for seed in ("0", "1", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        seen.add(subprocess.run([sys.executable, "-c", code], env=env,
                                check=True, capture_output=True,
                                text=True).stdout)
    assert len(seen) == 1
    idx = np.arange(8, dtype=np.uint64)
    assert seen.pop().strip() == str(pool_fingerprints("debian", idx).tolist())


def test_duplication_ratio_counts_every_copy_of_each_run():
    # Contents with 3, 2, 1 and 1 copies, shuffled: 5 of 7 pages are
    # duplicated.
    fps = np.array([9, 2**63, 9, 5, 7, 9, 2**63], dtype=np.uint64)
    mem = MemoryImage(7, fingerprints=fps)
    assert mem.duplication_ratio() == pytest.approx(5 / 7)


def test_unique_factory_never_repeats():
    fac = UniqueContentFactory()
    a = fac.take(1000)
    b = fac.take(1000)
    assert len(np.intersect1d(a, b)) == 0
    assert np.all(a & UNIQUE_FLAG)


def test_unique_factory_negative_rejected():
    with pytest.raises(ValueError):
        UniqueContentFactory().take(-1)


def test_unique_never_collides_with_pool():
    fac = UniqueContentFactory()
    uniq = fac.take(1000)
    pool = pool_fingerprints("debian", np.arange(1000, dtype=np.uint64))
    assert len(np.intersect1d(uniq, pool)) == 0


def test_duplication_ratio():
    # 4 zero pages + 4 distinct -> 4/8 duplicated.
    fps = np.array([0, 0, 0, 0, 11, 12, 13, 14], dtype=np.uint64)
    mem = MemoryImage(8, fingerprints=fps)
    assert mem.duplication_ratio() == pytest.approx(0.5)


def test_duplication_ratio_all_distinct():
    fps = np.arange(1, 9, dtype=np.uint64)
    mem = MemoryImage(8, fingerprints=fps)
    assert mem.duplication_ratio() == 0.0
