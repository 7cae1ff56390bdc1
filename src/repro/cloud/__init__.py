"""The IaaS cloud toolkit (Nimbus stand-in): provisioning, images,
propagation strategies, contextualization, pricing, and the spot market.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "contextualization": (
        "CONTEXT_MESSAGE_BYTES", "ContextBroker", "ContextualizationResult",
    ),
    "images": ("ImageError", "ImageRepository", "VMImage", "make_image"),
    "pricing": ("InstancePricing", "UsageMeter"),
    "propagation": (
        "BroadcastChainPropagation", "CowPropagation", "DeploymentStats",
        "HostImageCache", "STRATEGIES", "UnicastPropagation",
    ),
    "provider": ("Cloud", "CloudError", "InstanceSpec", "QuotaExceeded"),
    "spot": ("SpotInstance", "SpotMarket", "SpotState"),
})
