"""Network substrate: topology, fair-shared flows, TCP, NAT, billing.

This package is the simulated stand-in for the paper's physical
networks (Grid'5000 <-> FutureGrid WAN links, site LANs): a flow-level
fluid model with max-min fair bandwidth sharing, one-way latencies,
NAT/firewall reachability semantics, per-site traffic billing, and a TCP
connection abstraction whose failure modes match the paper's analysis of
why live migration cannot cross LAN boundaries.
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "billing": ("BillingMeter",),
    "flows": (
        "EPSILON", "Flow", "FlowCancelled", "FlowRecord", "FlowScheduler",
    ),
    "nat": (
        "Address", "AddressPool", "Endpoint", "PlainIPResolver", "Resolver",
        "Route",
    ),
    "packets": ("record_packets", "segments", "wire_bytes"),
    "tcp": ("Connection", "ConnectionBroken", "ConnectionState"),
    "topology": (
        "DirectedLink", "NetworkError", "NoRoute", "Site", "Topology",
    ),
    "transport": ("Transport", "TransferClass"),
    "units": (
        "GB", "GB_DECIMAL", "Gbit", "KB", "Kbit", "MB", "MTU", "Mbit",
        "PAGE_SIZE", "gbit_per_s", "mbit_per_s",
    ),
})
