"""Hypervisor substrate: VM memory/disk content model, hosts, pre-copy
live migration.

Stands in for the paper's KVM layer.  Page and block contents are 64-bit
content fingerprints (identity-preserving, so deduplication behaves
exactly as with cryptographic page hashes), guests dirty memory through
workload-driven :class:`Dirtier` processes, and :class:`LiveMigrator`
implements the iterative pre-copy algorithm with a pluggable page codec
— the seam where Shrinker's content-based addressing plugs in.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "disk": ("BLOCK_SIZE", "CowDisk", "DiskImage"),
    "host": ("CapacityError", "PhysicalHost"),
    "memory": (
        "MemoryImage", "UNIQUE_FLAG", "UniqueContentFactory", "ZERO_PAGE",
        "pool_fingerprints", "sorted_unique",
    ),
    "migration": (
        "LiveMigrator", "MigrationConfig", "MigrationError", "MigrationStats",
        "PageCodec", "RawCodec", "TransferEncoding",
    ),
    "vm": ("Dirtier", "VirtualMachine", "VMState"),
})
