"""Hypervisor substrate: VM memory/disk content model, hosts, pre-copy
live migration.

Stands in for the paper's KVM layer.  Page and block contents are 64-bit
content fingerprints (identity-preserving, so deduplication behaves
exactly as with cryptographic page hashes), guests dirty memory through
workload-driven :class:`Dirtier` processes, and :class:`LiveMigrator`
implements the iterative pre-copy algorithm with a pluggable page codec
— the seam where Shrinker's content-based addressing plugs in.
"""

from .disk import BLOCK_SIZE, CowDisk, DiskImage
from .host import CapacityError, PhysicalHost
from .memory import (
    MemoryImage,
    UNIQUE_FLAG,
    UniqueContentFactory,
    ZERO_PAGE,
    pool_fingerprints,
    sorted_unique,
)
from .migration import (
    LiveMigrator,
    MigrationConfig,
    MigrationError,
    MigrationStats,
    PageCodec,
    RawCodec,
    TransferEncoding,
)
from .vm import Dirtier, VirtualMachine, VMState

__all__ = [
    "BLOCK_SIZE",
    "CapacityError",
    "CowDisk",
    "Dirtier",
    "DiskImage",
    "LiveMigrator",
    "MemoryImage",
    "MigrationConfig",
    "MigrationError",
    "MigrationStats",
    "PageCodec",
    "PhysicalHost",
    "RawCodec",
    "TransferEncoding",
    "UNIQUE_FLAG",
    "UniqueContentFactory",
    "VMState",
    "VirtualMachine",
    "ZERO_PAGE",
    "pool_fingerprints",
    "sorted_unique",
]
