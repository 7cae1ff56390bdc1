"""Sky computing: federation of clouds, cross-cloud virtual clusters,
resource-selection policies, cloud-API-level migration, and migratable
spot instances.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "checkpoint": (
        "CheckpointRecord", "CheckpointingSpotManager", "RestoreRecord",
    ),
    "federation": ("Federation", "FederationError"),
    "migration_api": (
        "AUTH_HANDSHAKE_BYTES", "AuthenticationError", "CloudMigrationResult",
        "SkyMigrationService",
    ),
    "scheduler": (
        "Balanced", "CapacityProportional", "CheapestFirst", "PlacementError",
        "PlacementPolicy", "SingleCloud",
    ),
    "spot_manager": ("MigratableSpotManager", "RescueRecord"),
    "virtual_cluster": ("VirtualCluster",),
})
