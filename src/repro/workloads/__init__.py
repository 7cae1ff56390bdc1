"""Synthetic workloads: guest memory profiles, BLAST queries, spot-price
traces, and communication patterns.

Everything stochastic takes an explicit :class:`numpy.random.Generator`,
so experiments are exactly reproducible.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "blast": ("blast_job",),
    "comm_patterns": (
        "PATTERNS", "all_to_all", "clustered", "master_worker", "ring",
        "run_pattern",
    ),
    "memory_profiles": (
        "MemoryProfile", "PROFILES", "database", "generate_disk_fingerprints",
        "idle", "kernel_build", "web_server",
    ),
    "terasort": ("terasort_job",),
    "traces": ("SpotPriceProcess", "spot_price_trace"),
})
