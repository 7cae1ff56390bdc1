"""Golden shortest-latency routes of the inter-site topology.

``golden/topology_paths.json`` holds ``Topology.path`` — as a list of
``[src, dst]`` links, or ``null`` for :class:`NoRoute` — for every
ordered site pair of:

* the prefab testbeds (``sky_testbed`` defaults, ``two_cloud_testbed``)
  and the site layouts of the end-to-end workloads;
* a hand-built four-site diamond with two equal-latency routes, so the
  tie-break (first route found wins, neighbours in link insertion
  order) is pinned — before and after a ``disconnect`` and a
  re-``connect``, which moves the re-added link to the end;
* a triangle whose two-hop latency sum differs from the direct one only
  in the last float bit.

Regenerate it only for an intended routing change::

    PYTHONPATH=src python -m tests.test_topology_paths_golden
"""

import json
from pathlib import Path

from repro.network import Mbit, NoRoute, Site, Topology
from repro.testbeds import SiteSpec, sky_testbed, two_cloud_testbed

GOLDEN = Path(__file__).resolve().parent / "golden" / "topology_paths.json"

#: Image and memory sizes do not touch the topology; keep builds cheap.
SMALL = dict(image_blocks=64, memory_pages=64)


def _four_clouds():
    return sky_testbed(
        sites=[SiteSpec(f"c{i}", region="eu" if i < 2 else "us")
               for i in range(4)], **SMALL).topology


def _three_clouds():
    return sky_testbed(
        sites=[SiteSpec(f"c{i}", region="eu" if i < 2 else "us")
               for i in range(3)], **SMALL).topology


def _src_dst():
    return sky_testbed(
        sites=[SiteSpec("src", region="eu"), SiteSpec("dst", region="eu")],
        wan_bandwidth=1000 * Mbit, **SMALL).topology


def _diamond():
    """a-c-d and a-b-d cost the same; ``e`` is an island."""
    topo = Topology()
    for name in "abcde":
        topo.add_site(Site(name))
    topo.connect("a", "c", bandwidth=100 * Mbit, latency=0.010)
    topo.connect("a", "b", bandwidth=100 * Mbit, latency=0.010)
    topo.connect("c", "d", bandwidth=100 * Mbit, latency=0.010)
    topo.connect("b", "d", bandwidth=100 * Mbit, latency=0.010)
    return topo


def _diamond_cut():
    topo = _diamond()
    topo.path("a", "d")  # warm the cache: disconnect must clear it
    topo.disconnect("a", "c")
    return topo


def _diamond_reconnected():
    topo = _diamond_cut()
    topo.connect("a", "c", bandwidth=100 * Mbit, latency=0.010)
    return topo


def _float_triangle():
    """x-y-z sums to 0.30000000000000004, just above direct x-z."""
    topo = Topology()
    for name in "xyz":
        topo.add_site(Site(name))
    topo.connect("x", "y", bandwidth=100 * Mbit, latency=0.1)
    topo.connect("y", "z", bandwidth=100 * Mbit, latency=0.2)
    topo.connect("x", "z", bandwidth=100 * Mbit, latency=0.3)
    return topo


CASES = {
    "sky_testbed": lambda: sky_testbed(**SMALL).topology,
    "two_cloud_testbed": lambda: two_cloud_testbed(**SMALL).topology,
    "four_clouds_eu_eu_us_us": _four_clouds,
    "three_clouds_eu_eu_us": _three_clouds,
    "src_dst_1gbit": _src_dst,
    "diamond": _diamond,
    "diamond_cut": _diamond_cut,
    "diamond_reconnected": _diamond_reconnected,
    "float_triangle": _float_triangle,
}


def routes(topo):
    """``[src, dst, [[u, v], ...] or None]`` for every ordered pair."""
    out = []
    for src in topo.sites:
        for dst in topo.sites:
            try:
                links = [[l.src, l.dst] for l in topo.path(src, dst)]
            except NoRoute:
                links = None
            out.append([src, dst, links])
    return out


def all_routes():
    return {name: routes(build()) for name, build in CASES.items()}


def test_topology_paths_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(all_routes()))
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], f"routes of {name!r} differ"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = all_routes()
    body = ",\n ".join(
        f"{json.dumps(name)}: [\n  "
        + ",\n  ".join(json.dumps(r) for r in rows) + "\n ]"
        for name, rows in doc.items())
    GOLDEN.write_text("{" + body + "}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
