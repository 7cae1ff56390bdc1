"""Shrinker's deduplicating page codec.

Plugs into the pre-copy engine
(:class:`repro.hypervisor.migration.LiveMigrator`) in place of the raw
codec.  For each batch of pages:

* contents already indexed in the destination site's
  :class:`~repro.shrinker.registry.ContentRegistry` — or repeated within
  the batch itself — cross the WAN as digests only;
* first occurrences of unknown content are sent in full (page payload +
  digest so the destination can index it).

This is exactly the paper's protocol, modeled without hash collisions
(the 2^-80 birthday argument is quantified in
:mod:`repro.shrinker.analysis`).
"""

from __future__ import annotations

import numpy as np

from ..hypervisor.memory import sorted_unique
from ..hypervisor.migration import TransferEncoding
from .hashing import HashScheme, SHA1
from .registry import ContentRegistry


class ShrinkerCodec:
    """Content-addressed page encoding against a destination registry."""

    def __init__(self, registry: ContentRegistry, page_size: int,
                 scheme: HashScheme = SHA1, header_bytes: int = 8,
                 processing_rate: float = 150e6,
                 lookup_rtt: float = 0.0):
        self.registry = registry
        self.page_size = page_size
        self.scheme = scheme
        self.header_bytes = header_bytes
        #: Payload bytes/second the source can hash and index (single-
        #: threaded SHA-1 in the migration loop, circa-2010); bounds how fast dedup'd pages can feed
        #: the wire, so time savings trail bandwidth savings on fast
        #: links, as the paper measured.
        self.processing_rate = processing_rate
        #: Seconds per batched digest query against the destination
        #: registry (one WAN round-trip per pre-copy round / final copy
        #: when the registry is remote).  Zero keeps the classic
        #: lookup-free model; the migrator charges it when set.
        self.lookup_rtt = lookup_rtt

    def encode(self, fingerprints: np.ndarray) -> TransferEncoding:
        """Encode one batch; registers newly transferred content."""
        fingerprints = np.asarray(fingerprints, dtype=np.uint64)
        n = len(fingerprints)
        if n == 0:
            return TransferEncoding(0, 0, 0, 0.0, 0.0)
        distinct = sorted_unique(fingerprints)
        known = self.registry.contains(distinct)
        fresh = distinct[~known]
        full = len(fresh)  # each unknown content crosses once
        digests = n - full  # every other page reference is a digest
        wire = (
            full * (self.page_size + self.scheme.digest_bytes)
            + digests * self.scheme.digest_bytes
            + n * self.header_bytes
        )
        self.registry.add(fresh)
        return TransferEncoding(
            pages=n,
            full_pages=full,
            digest_pages=digests,
            wire_bytes=float(wire),
            payload_bytes=float(n) * self.page_size,
        )


def shrinker_codec_factory(registries, scheme: HashScheme = SHA1,
                           header_bytes: int = 8,
                           processing_rate: float = 150e6,
                           lookup_rtt: float = 0.0):
    """A ``codec_factory`` for :class:`LiveMigrator`.

    ``registries`` is a :class:`~repro.shrinker.registry.RegistryDirectory`;
    each migration gets a codec bound to its destination site's registry,
    so concurrent migrations to the same site share dedup state.
    """

    def factory(vm, dst_site):
        return ShrinkerCodec(
            registries.for_site(dst_site),
            vm.memory.page_size,
            scheme=scheme,
            header_bytes=header_bytes,
            processing_rate=processing_rate,
            lookup_rtt=lookup_rtt,
        )

    return factory
