"""Network substrate: topology, fair-shared flows, TCP, NAT, billing.

This package is the simulated stand-in for the paper's physical
networks (Grid'5000 <-> FutureGrid WAN links, site LANs): a flow-level
fluid model with max-min fair bandwidth sharing, one-way latencies,
NAT/firewall reachability semantics, per-site traffic billing, and a TCP
connection abstraction whose failure modes match the paper's analysis of
why live migration cannot cross LAN boundaries.
"""

from .billing import BillingMeter
from .flows import (
    EPSILON,
    Flow,
    FlowCancelled,
    FlowRecord,
    FlowScheduler,
    SharedCap,
)
from .nat import (
    Address,
    AddressPool,
    Endpoint,
    PlainIPResolver,
    Resolver,
    Route,
)
from .packets import record_packets, segments, wire_bytes
from .tcp import Connection, ConnectionBroken, ConnectionState
from .topology import DirectedLink, NetworkError, NoRoute, Site, Topology
from .transport import (
    ClassPolicy,
    Transport,
    TransferClass,
    TransferRecord,
)
from .units import (
    GB,
    GB_DECIMAL,
    Gbit,
    KB,
    Kbit,
    MB,
    MTU,
    Mbit,
    PAGE_SIZE,
    gbit_per_s,
    mbit_per_s,
)

__all__ = [
    "Address",
    "AddressPool",
    "BillingMeter",
    "ClassPolicy",
    "Connection",
    "ConnectionBroken",
    "ConnectionState",
    "DirectedLink",
    "EPSILON",
    "Endpoint",
    "Flow",
    "FlowCancelled",
    "FlowRecord",
    "FlowScheduler",
    "GB",
    "GB_DECIMAL",
    "Gbit",
    "KB",
    "Kbit",
    "MB",
    "MTU",
    "Mbit",
    "NetworkError",
    "NoRoute",
    "PAGE_SIZE",
    "PlainIPResolver",
    "Resolver",
    "Route",
    "SharedCap",
    "Site",
    "Topology",
    "Transport",
    "TransferClass",
    "TransferRecord",
    "gbit_per_s",
    "mbit_per_s",
    "record_packets",
    "segments",
    "wire_bytes",
]
