"""Communication-pattern detection (paper §III-C): transparent
hypervisor-level capture, instrumented ground truth, and matrix
similarity analysis.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "analysis": (
        "cosine_similarity", "pearson_correlation", "per_pair_relative_error",
        "top_pair_overlap", "volume_ratio",
    ),
    "capture": ("HypervisorSniffer",),
    "groundtruth": ("GroundTruthRecorder",),
    "matrix": ("TrafficMatrix",),
})
