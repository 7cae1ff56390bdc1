"""Tests for sites, links and path computation."""

import pytest

from repro.network import (
    DirectedLink,
    Mbit,
    NoRoute,
    Site,
    Topology,
)


def make_triangle():
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.add_site(Site("c"))
    topo.connect("a", "b", bandwidth=100 * Mbit, latency=0.010)
    topo.connect("b", "c", bandwidth=100 * Mbit, latency=0.010)
    topo.connect("a", "c", bandwidth=100 * Mbit, latency=0.050)
    return topo


def test_add_duplicate_site_rejected():
    topo = Topology()
    topo.add_site(Site("x"))
    with pytest.raises(ValueError):
        topo.add_site(Site("x"))


def test_connect_unknown_site_rejected():
    topo = Topology()
    topo.add_site(Site("x"))
    with pytest.raises(KeyError):
        topo.connect("x", "ghost", bandwidth=1e6, latency=0.01)


def test_self_connect_rejected():
    topo = Topology()
    topo.add_site(Site("x"))
    with pytest.raises(ValueError):
        topo.connect("x", "x", bandwidth=1e6, latency=0.01)


def test_link_validation():
    with pytest.raises(ValueError):
        DirectedLink("a", "b", bandwidth=0, latency=0.01)
    with pytest.raises(ValueError):
        DirectedLink("a", "b", bandwidth=1e6, latency=-1)


def test_shortest_path_prefers_low_latency():
    topo = make_triangle()
    # a->c direct costs 50 ms; via b costs 20 ms.
    path = topo.path("a", "c")
    assert [l.dst for l in path] == ["b", "c"]
    assert topo.path_latency("a", "c") == pytest.approx(0.020)


def test_intra_site_path_is_lan():
    topo = make_triangle()
    path = topo.path("a", "a")
    assert len(path) == 1
    assert path[0] is topo.lan("a")


def test_no_route_raises():
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("island"))
    with pytest.raises(NoRoute):
        topo.path("a", "island")


def test_disconnect_invalidates_cache():
    topo = make_triangle()
    assert topo.path("a", "b")
    topo.disconnect("a", "b")
    path = topo.path("a", "b")  # must reroute via c
    assert [l.dst for l in path] == ["c", "b"]


def test_asymmetric_bandwidth():
    topo = Topology()
    topo.add_site(Site("up"))
    topo.add_site(Site("down"))
    topo.connect("up", "down", bandwidth=10e6, latency=0.01,
                 bandwidth_reverse=2e6)
    fwd = topo.path("up", "down")[0]
    rev = topo.path("down", "up")[0]
    assert fwd.bandwidth == 10e6
    assert rev.bandwidth == 2e6


def test_zero_reverse_bandwidth_rejected():
    topo = Topology()
    topo.add_site(Site("up"))
    topo.add_site(Site("down"))
    with pytest.raises(ValueError):
        topo.connect("up", "down", bandwidth=10e6, latency=0.01,
                     bandwidth_reverse=0)


def test_reachability_respects_nat_and_firewall():
    topo = Topology()
    topo.add_site(Site("pub"))
    topo.add_site(Site("natted", public_addresses=False))
    topo.add_site(Site("walled", firewall_inbound_open=False))
    topo.connect("pub", "natted", bandwidth=1e6, latency=0.01)
    topo.connect("pub", "walled", bandwidth=1e6, latency=0.01)
    assert topo.reachable_directly("natted", "pub")
    assert not topo.reachable_directly("pub", "natted")
    assert not topo.reachable_directly("pub", "walled")
    assert topo.reachable_directly("walled", "pub")
    # Intra-site always works.
    assert topo.reachable_directly("natted", "natted")


def test_site_lookup_error():
    topo = Topology()
    with pytest.raises(KeyError):
        topo.site("nope")


def test_site_validation():
    with pytest.raises(ValueError):
        Site("bad", lan_bandwidth=0)


def test_disconnect_unknown_pair_raises_keyerror():
    topo = make_triangle()
    topo.add_site(Site("island"))
    with pytest.raises(KeyError):
        topo.disconnect("a", "island")
    with pytest.raises(KeyError):
        topo.disconnect("a", "ghost")
    topo.disconnect("a", "b")
    with pytest.raises(KeyError):
        topo.disconnect("b", "a")
    # A failed disconnect leaves the remaining links alone.
    assert [l.dst for l in topo.path("a", "b")] == ["c", "b"]


def test_path_after_last_link_removed_raises_noroute():
    topo = Topology()
    topo.add_site(Site("a"))
    topo.add_site(Site("b"))
    topo.connect("a", "b", bandwidth=100 * Mbit, latency=0.01)
    assert topo.path("a", "b")
    topo.disconnect("a", "b")
    with pytest.raises(NoRoute):
        topo.path("a", "b")
    with pytest.raises(NoRoute):
        topo.path("b", "a")


def test_connect_twice_replaces_link_and_clears_cache():
    topo = make_triangle()
    old = topo.path("a", "c")
    assert [l.dst for l in old] == ["b", "c"]
    topo.connect("a", "c", bandwidth=10 * Mbit, latency=0.001)
    new = topo.path("a", "c")
    assert len(new) == 1 and new[0] is not old[0]
    assert (new[0].bandwidth, new[0].latency) == (10 * Mbit, 0.001)
    assert topo.path("c", "a")[0].latency == 0.001
    assert repr(topo) == "<Topology sites=3 links=3>"
