"""Autonomic adaptation of distributed applications in cloud federations
(paper §III-C): monitors -> communication-aware planner -> live
relocation through the sky migration service.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "engine": ("AdaptationAction", "AdaptationEngine", "AdaptationReport"),
    "monitor": (
        "AdaptationTrigger", "AvailabilityMonitor", "DeadlineMonitor",
        "PriceMonitor", "TriggerBus",
    ),
    "policy": ("AutonomicController", "CostAwarePolicy"),
    "planner": (
        "Assignment", "CommunicationAwarePlanner", "PlanningError",
        "cross_traffic", "random_assignment", "round_robin_assignment",
    ),
})
