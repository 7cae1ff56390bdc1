"""Shrinker: WAN live migration with distributed data deduplication and
content-based addressing (the paper's §III-A, its core contribution).

Components:

* :class:`ContentRegistry` / :class:`RegistryDirectory` — the per-site
  distributed index of content already present at a destination cloud;
* :class:`ShrinkerCodec` — the page codec replacing duplicate page
  payloads with digests, pluggable into the baseline pre-copy engine;
* :class:`ClusterMigrationCoordinator` — whole-virtual-cluster migration
  with shared dedup state (inter-VM redundancy crosses the WAN once);
* :mod:`~repro.shrinker.analysis` — hash-collision risk and ideal-dedup
  bounds.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "analysis": (
        "collision_probability", "expected_wire_bytes", "ideal_dedup_saving",
        "pages_for_collision_risk",
    ),
    "codec": ("ShrinkerCodec", "shrinker_codec_factory"),
    "coordinator": ("ClusterMigrationCoordinator", "ClusterMigrationStats"),
    "hashing": ("MD5", "SCHEMES", "SHA1", "SHA256", "HashScheme"),
    "registry": ("ContentRegistry", "RegistryDirectory"),
})
