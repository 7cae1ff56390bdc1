"""Property-based tests for Shrinker's registry and codec invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.hypervisor import UNIQUE_FLAG, sorted_unique
from repro.shrinker import (
    ContentRegistry,
    SHA1,
    ShrinkerCodec,
    expected_wire_bytes,
)

fingerprints = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=200
).map(lambda xs: np.array(xs, dtype=np.uint64))


@given(fingerprints)
@settings(max_examples=60, deadline=None)
def test_registry_add_then_contains(fps):
    reg = ContentRegistry("x")
    reg.add(fps)
    assert reg.contains(fps).all() or len(fps) == 0


@given(fingerprints, fingerprints)
@settings(max_examples=60, deadline=None)
def test_registry_matches_python_set_semantics(added, queried):
    reg = ContentRegistry("x")
    reg.add(added)
    model = set(added.tolist())
    mask = reg.contains(queried)
    for fp, hit in zip(queried.tolist(), mask):
        assert hit == (fp in model)


@given(fingerprints)
@settings(max_examples=60, deadline=None)
def test_codec_wire_bytes_closed_form(fps):
    """The codec's arithmetic matches the analytic formula exactly."""
    reg = ContentRegistry("x")
    codec = ShrinkerCodec(reg, page_size=4096)
    enc = codec.encode(fps)
    distinct = len(np.unique(fps))
    assert enc.wire_bytes == expected_wire_bytes(
        len(fps), distinct, 4096, SHA1)
    assert enc.full_pages + enc.digest_pages == enc.pages == len(fps)


@given(fingerprints)
@settings(max_examples=40, deadline=None)
def test_codec_idempotent_second_pass_all_digests(fps):
    reg = ContentRegistry("x")
    codec = ShrinkerCodec(reg, page_size=4096)
    codec.encode(fps)
    second = codec.encode(fps)
    assert second.full_pages == 0
    assert second.digest_pages == len(fps)


@given(fingerprints)
@settings(max_examples=40, deadline=None)
def test_codec_never_exceeds_raw_cost(fps):
    """Dedup never sends more than the raw protocol would."""
    from repro.hypervisor import RawCodec

    raw = RawCodec(page_size=4096, header_bytes=8).encode(fps)
    shr = ShrinkerCodec(ContentRegistry("x"), page_size=4096,
                        header_bytes=8).encode(fps)
    # Digest adds 20B per *first* occurrence, so the bound includes it.
    assert shr.wire_bytes <= raw.wire_bytes + shr.full_pages * SHA1.digest_bytes


@given(
    batches=st.lists(fingerprints, min_size=1, max_size=6),
)
@settings(max_examples=30, deadline=None)
def test_codec_order_independent_total_full_pages(batches):
    """However content is split into batches, each distinct fingerprint
    crosses the wire in full exactly once."""
    reg = ContentRegistry("x")
    codec = ShrinkerCodec(reg, page_size=4096)
    total_full = sum(codec.encode(b).full_pages for b in batches)
    all_fps = (np.concatenate(batches) if batches
               else np.empty(0, dtype=np.uint64))
    assert total_full == len(np.unique(all_fps))


# Duplicate-heavy batches that overlap one another: a small alphabet of
# shared fingerprints (top bit clear, 0 is the zero page) and of unique
# ones (top bit set, ``UNIQUE_FLAG``), up to the largest uint64.
_TOP = int(UNIQUE_FLAG)
dup_heavy = st.lists(
    st.one_of(st.integers(0, 24),
              st.integers(_TOP, _TOP + 24),
              st.integers(2**64 - 8, 2**64 - 1)),
    min_size=0, max_size=120,
).map(lambda xs: np.array(xs, dtype=np.uint64))
batches = st.one_of(fingerprints, dup_heavy)


class RegistryMachine(RuleBasedStateMachine):
    """Stateful test: ContentRegistry vs a plain Python set model.

    ``len`` is a rule rather than an invariant because it settles the
    pending buffer: as a rule, additions also pile up in the pending
    buffer across steps.  The thresholds put random interleavings of
    small batches on both sides of the settle and merge triggers;
    ``bulk`` crosses the default one.
    """

    def __init__(self):
        super().__init__()
        self.reg = ContentRegistry("site")
        self.model = set()
        self.queries = self.hits = 0

    @initialize(min_pending=st.sampled_from(
        [0, 1, 16, 100, ContentRegistry.min_pending]))
    def threshold(self, min_pending):
        self.reg.min_pending = min_pending

    @rule(fps=batches)
    def add(self, fps):
        self.reg.add(fps)
        self.model |= set(fps.tolist())

    @rule(seed=st.integers(0, 2**32 - 1),
          n=st.integers(ContentRegistry.min_pending + 1, 10_000))
    def bulk(self, seed, n):
        rng = np.random.default_rng(seed)
        fps = rng.integers(0, n, n, dtype=np.uint64)
        fps[rng.random(n) < 0.5] |= UNIQUE_FLAG
        self.add(fps)

    def _check_contains(self, fps):
        mask = self.reg.contains(fps)
        want = [fp in self.model for fp in fps.tolist()]
        assert mask.dtype == bool
        assert mask.tolist() == want
        self.queries += len(want)
        self.hits += sum(want)
        return mask

    @rule(fps=batches)
    def query(self, fps):
        self._check_contains(fps)

    @precondition(lambda self: self.reg.min_pending <= 1)
    @rule(steps=st.lists(batches, min_size=2, max_size=6),
          as_codec=st.booleans())
    def query_then_add(self, steps, as_codec):
        """Each batch is queried, then its misses are registered, so the
        recent run grows between merges.  ``as_codec`` registers them
        the codec's way: as a sorted, distinct run, with no probe."""
        for fps in steps:
            misses = fps[~self._check_contains(fps)]
            if as_codec:
                self.reg._add_absent(sorted_unique(misses))
                self.model |= set(misses.tolist())
            else:
                self.add(misses)

    @rule()
    def size(self):
        assert len(self.reg) == len(self.model)

    @invariant()
    def statistics_match(self):
        assert self.reg.queries == self.queries
        assert self.reg.hits == self.hits
        assert self.reg.hit_rate == (self.hits / self.queries
                                     if self.queries else 0.0)

    @invariant()
    def index_sorted_and_distinct(self):
        """Both runs are sorted and distinct, they are disjoint, and with
        the pending batches they hold exactly the model set."""
        runs = (self.reg._known, self.reg._recent)
        for run in runs:
            assert run.dtype == np.uint64
            assert (run[1:] > run[:-1]).all()
        known, recent = (set(run.tolist()) for run in runs)
        assert not known & recent
        assert known | recent <= self.model
        pending = {fp for fps in self.reg._pending for fp in fps.tolist()}
        assert known | recent | pending == self.model


TestRegistryStateful = RegistryMachine.TestCase
TestRegistryStateful.settings = settings(max_examples=40, deadline=None,
                                         stateful_step_count=25)


int_arrays = st.one_of(
    st.lists(st.integers(0, 2**64 - 1), max_size=60).map(
        lambda xs: np.array(xs, dtype=np.uint64)),
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=60).map(
        lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.integers(-3, 3), max_size=60).map(
        lambda xs: np.array(xs, dtype=np.int64)),
)


@given(int_arrays)
@settings(max_examples=100, deadline=None)
def test_sorted_unique_equals_numpy_unique(values):
    got = sorted_unique(values)
    want = np.unique(values)
    assert got.dtype == want.dtype == values.dtype
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
@pytest.mark.parametrize("values", [[], [7], [7, 7], [2**62, 0, 2**62]])
def test_sorted_unique_short_arrays(dtype, values):
    arr = np.array(values, dtype=dtype)
    got = sorted_unique(arr)
    assert got.dtype == np.unique(arr).dtype
    assert got.tolist() == np.unique(arr).tolist()
