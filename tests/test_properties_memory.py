"""Property: a zero image that materializes on first touch behaves as an
eager one.

Random sequences of writes, touches, page reads and dirty-bitmap
clears run against a lazy :class:`~repro.hypervisor.MemoryImage` and
the eager :class:`tests.memory_reference.EagerMemoryImage`.  Every
result, and every dirty-tracking query before and after each step, must
be equal in value and dtype, and the lazy image must hold no array until
a write, a touch or a read of ``pages``.  Shrinker encodes, registry
pre-population and a whole migration of a never-written image must see
the same zero pages as well.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypervisor import (
    LiveMigrator,
    MemoryImage,
    PhysicalHost,
    UNIQUE_FLAG,
    VirtualMachine,
)
from repro.network import FlowScheduler, Site, Topology, mbit_per_s
from repro.shrinker import RegistryDirectory, shrinker_codec_factory
from repro.simkernel import Simulator

from tests.memory_reference import EagerMemoryImage

#: Few distinct contents, so duplicates (and zero pages) stay common.
CONTENTS = (0, 1, 2, 7, int(UNIQUE_FLAG) | 5)

index_lists = st.lists(st.integers(0, 63), max_size=12)

ops = st.lists(st.one_of(
    st.tuples(st.just("write"), index_lists,
              st.lists(st.sampled_from(CONTENTS), min_size=12,
                       max_size=12)),
    st.tuples(st.just("touch"), index_lists),
    st.tuples(st.just("pages"), index_lists),
    st.tuples(st.sampled_from(["read_and_clear_dirty", "clear_dirty"])),
), max_size=20)

#: Reads that neither change nor materialize an image.
QUERIES = ("dirty_count", "dirty_indices", "duplication_ratio",
           "size_bytes")


def _apply(image, op, n):
    name = op[0]
    if name in ("write", "touch", "pages"):
        indices = np.array([i % n for i in op[1]], dtype=np.intp)
        if name == "write":
            values = np.array(op[2][:len(indices)], dtype=np.uint64)
            return image.write(indices, values)
        if name == "touch":
            return image.touch(indices)
        return image.pages[indices]
    result = getattr(image, name)
    return result() if callable(result) else result


def _same(a, b):
    if isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert type(a) is type(b)
        assert a == b


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 16), sequence=ops)
def test_lazy_image_matches_eager_reference(n, sequence):
    lazy, eager = MemoryImage(n), EagerMemoryImage(n)
    materialized = False
    for op in [None, *sequence]:
        if op is not None:
            _same(_apply(lazy, op, n), _apply(eager, op, n))
            materialized |= op[0] in ("write", "touch", "pages")
        for query in QUERIES:
            _same(_apply(lazy, (query,), n), _apply(eager, (query,), n))
        assert (lazy._pages is not None) is materialized
        assert (lazy._dirty is not None) is materialized
    _same(lazy.pages, eager.pages)


@pytest.mark.parametrize("n", [1, 2, 256])
def test_never_written_image_encodes_as_eager(n):
    results = []
    for image in (MemoryImage(n), EagerMemoryImage(n)):
        registries = RegistryDirectory()
        vm = types.SimpleNamespace(memory=image)
        codec = shrinker_codec_factory(registries)(vm, "dst")
        first = codec.encode(image.pages)
        second = codec.encode(image.pages)
        seeded = registries.for_site("seeded")
        seeded.prepopulate_from_memory(image)
        results.append((first, second, len(registries.for_site("dst")),
                        len(seeded), image.duplication_ratio()))
    assert results[0] == results[1]


def _migrate_never_written(image):
    sim = Simulator()
    topo = Topology()
    topo.add_site(Site("src"))
    topo.add_site(Site("dst"))
    topo.connect("src", "dst", bandwidth=mbit_per_s(100), latency=0.05)
    src = PhysicalHost("h-src", "src", cores=8, ram_bytes=2**34)
    dst = PhysicalHost("h-dst", "dst", cores=8, ram_bytes=2**34)
    vm = VirtualMachine(sim, "vm", image)
    src.place(vm)
    vm.boot()
    migrator = LiveMigrator(
        sim, FlowScheduler(sim, topo),
        codec_factory=shrinker_codec_factory(RegistryDirectory()))
    stats = sim.run(until=migrator.migrate(vm, dst))
    return stats, sim.now


def test_never_written_image_migrates_as_eager():
    lazy = _migrate_never_written(MemoryImage(512))
    eager = _migrate_never_written(EagerMemoryImage(512))
    assert lazy == eager
