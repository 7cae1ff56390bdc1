"""Elastic MapReduce over distributed clouds (paper §IV): managed
clusters, deadline-driven scaling, cost accounting.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "policies": (
        "DeadlineScalePolicy", "StaticPolicy", "estimate_remaining_seconds",
    ),
    "service": ("ElasticMapReduceService", "EMRCluster", "EMRJobReport"),
})
