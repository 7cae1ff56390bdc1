"""Analytical companions to the Shrinker protocol.

Two calculations from the research report backing the paper's §III-A:

* the **hash-collision risk** of content addressing (the reason
  cryptographic digests are safe to substitute for page contents);
* the **ideal deduplication bound** of a page population, against which
  the measured wire savings can be compared.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..hypervisor.memory import sorted_unique
from .hashing import HashScheme


def collision_probability(n_pages: int, scheme: HashScheme) -> float:
    """Upper bound on any-collision probability for ``n_pages`` distinct
    pages hashed into ``scheme`` (birthday bound ``n^2 / 2^(b+1)``).

    For one petabyte of 4 KiB pages under SHA-1 this is ~1e-25 — the
    paper's justification that dedup by digest is safe.
    """
    if n_pages < 0:
        raise ValueError("n_pages must be >= 0")
    if n_pages < 2:
        return 0.0
    log2_p = 2 * math.log2(n_pages) - (scheme.digest_bits + 1)
    if log2_p >= 0:
        return 1.0
    return 2.0 ** log2_p


def pages_for_collision_risk(risk: float, scheme: HashScheme) -> float:
    """How many distinct pages fit under a target collision ``risk``."""
    if not 0 < risk < 1:
        raise ValueError("risk must lie in (0, 1)")
    return math.sqrt(risk * 2.0 ** (scheme.digest_bits + 1))


def ideal_dedup_saving(fingerprint_sets: Iterable[np.ndarray]) -> float:
    """Best possible wire saving for a set of VM memories migrated
    together to an empty destination: ``1 - distinct/total``.

    The measured Shrinker saving approaches this as digest and header
    overheads vanish; the cluster-size bench (E2) plots both.
    """
    total = 0
    all_parts = []
    for fps in fingerprint_sets:
        total += len(fps)
        all_parts.append(fps)
    if total == 0:
        return 0.0
    distinct = len(sorted_unique(np.concatenate(all_parts)))
    return 1.0 - distinct / total


def expected_wire_bytes(n_pages: int, n_distinct_new: int, page_size: int,
                        scheme: HashScheme, header_bytes: int = 8) -> float:
    """Closed-form wire size of a Shrinker batch (cross-check for tests)."""
    digests = n_pages - n_distinct_new
    return (n_distinct_new * (page_size + scheme.digest_bytes)
            + digests * scheme.digest_bytes
            + n_pages * header_bytes)
