"""ViNe: the virtual network overlay and its migration reconfiguration.

Reproduces the two roles ViNe plays in the paper: providing all-to-all
connectivity across NATed/firewalled clouds for sky-computing clusters
(§II), and — with the thesis's extensions — transparently repairing
overlay routing when a VM live-migrates between clouds so its TCP
connections survive (§III-B).
"""

from .. import _exports

__all__, __getattr__, __dir__ = _exports(__name__, {
    "arp": ("ArpProxyTable", "GratuitousArp", "emit_gratuitous_arp"),
    "overlay": (
        "ENCAPSULATION_OVERHEAD", "OverlayError", "VINE_NETWORK",
        "ViNeOverlay",
    ),
    "reconfig": ("MigrationReconfigurator", "ReconfigurationRecord"),
    "router": ("ViNeRouter",),
})
