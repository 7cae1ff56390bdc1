"""MapReduce engine: jobs, HDFS-style block placement, JobTracker /
TaskTrackers with data-local scheduling, shuffle over the flow network,
and runtime elasticity (the paper's extended Hadoop).
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "elastic": ("ElasticCluster",),
    "engine": ("JobTracker", "TaskTracker"),
    "hdfs": ("BlockStore",),
    "job": ("JobResult", "MapReduceJob", "Task", "TaskKind", "TaskState"),
})
