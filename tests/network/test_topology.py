"""Star topology."""

import pickle
import tracemalloc

import pytest

from repro.errors import ConfigError
from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.units import mbps

L = Link(mbps(10), rtt_s=1e-3)


class TestStarTopology:
    def test_uniform_builds_all_pairs(self):
        t = StarTopology.uniform(["d0", "d1"], ["s0", "s1"], L)
        assert len(t.links) == 4

    def test_link_lookup(self):
        t = StarTopology.uniform(["d0"], ["s0"], L)
        assert t.link("d0", "s0") is L

    def test_unknown_pair_raises(self):
        t = StarTopology.uniform(["d0"], ["s0"], L)
        with pytest.raises(ConfigError):
            t.link("d0", "s1")

    def test_missing_links_raise(self):
        with pytest.raises(ConfigError):
            StarTopology(["d0"], ["s0"], {})

    def test_duplicate_names_raise(self):
        with pytest.raises(ConfigError):
            StarTopology.uniform(["d0", "d0"], ["s0"], L)

    def test_per_server_scale(self):
        t = StarTopology.uniform(["d0"], ["s0", "s1"], L, per_server_scale={"s1": 2.0})
        assert t.link("d0", "s1").bandwidth_bps == pytest.approx(2 * L.bandwidth_bps)

    def test_with_link_replaces_one(self):
        t = StarTopology.uniform(["d0"], ["s0", "s1"], L)
        t2 = t.with_link("d0", "s0", L.scaled(0.1))
        assert t2.link("d0", "s0").bandwidth_bps == pytest.approx(L.bandwidth_bps / 10)
        assert t2.link("d0", "s1").bandwidth_bps == pytest.approx(L.bandwidth_bps)

    def test_scale_all(self):
        t = StarTopology.uniform(["d0"], ["s0"], L).scale_all(3.0)
        assert t.link("d0", "s0").bandwidth_bps == pytest.approx(3 * L.bandwidth_bps)


DEVS = ["d0", "d1", "d2"]
SRVS = ["s0", "s1"]


def _rows(topo):
    """Number of distinct link rows, by row fingerprint."""
    return len({topo.row_key(d) for d in topo.device_names})


def _explicit_twin(topo):
    """The dict-built topology with the same pairs, one entry per pair."""
    return StarTopology(
        list(topo.device_names),
        list(topo.server_names),
        {(d, s): topo.link(d, s) for d in topo.device_names for s in topo.server_names},
    )


class TestUnknownScaleKeys:
    def test_uniform_rejects_unknown_server(self):
        with pytest.raises(ConfigError, match="s9"):
            StarTopology.uniform(["d0"], ["s0", "s1"], L, per_server_scale={"s9": 2.0})

    def test_cluster_star_rejects_unknown_server(self, pi4):
        from repro.devices.cluster import EdgeCluster
        from repro.devices.presets import SERVER_PRESETS

        srv = SERVER_PRESETS["edge_cpu"]
        with pytest.raises(ConfigError, match="nope"):
            EdgeCluster.star([pi4], [srv], L, per_server_scale={"nope": 0.5})


class TestLinkView:
    """``links`` behaves like the (device, server) -> Link dict it replaced."""

    @pytest.fixture
    def topo(self):
        return StarTopology.uniform(DEVS, SRVS, L, per_server_scale={"s1": 0.5})

    def test_len_and_iteration_order(self, topo):
        assert len(topo.links) == 6
        assert list(topo.links) == [(d, s) for d in DEVS for s in SRVS]
        assert [k for k, _ in topo.links.items()] == list(topo.links)

    def test_membership(self, topo):
        assert ("d2", "s1") in topo.links
        assert ("d2", "s9") not in topo.links
        assert ("d9", "s0") not in topo.links
        assert "d0" not in topo.links

    def test_getitem_and_key_error(self, topo):
        assert topo.links[("d1", "s0")] is L
        assert topo.links[("d1", "s1")].bandwidth_bps == pytest.approx(
            L.bandwidth_bps / 2
        )
        with pytest.raises(KeyError):
            topo.links[("d1", "s9")]
        with pytest.raises(KeyError):
            topo.links["d1"]

    def test_link_unknown_pair_is_config_error(self, topo):
        with pytest.raises(ConfigError):
            topo.link("d9", "s0")
        with pytest.raises(ConfigError):
            topo.link("d0", "s9")

    def test_items_and_equality_match_dict_twin(self, topo):
        twin = _explicit_twin(topo)
        assert list(topo.links.items()) == list(twin.links.items())
        assert topo.links == dict(twin.links.items())
        assert dict(topo.links.items()) == topo.links
        assert topo == twin
        assert topo != topo.scale_all(2.0)

    def test_read_only(self, topo):
        with pytest.raises(TypeError):
            topo.links[("d0", "s0")] = L

    def test_view_constructs_a_copy(self, topo):
        assert StarTopology(DEVS, SRVS, topo.links) == topo


class TestRowSharing:
    def test_uniform_shares_one_row(self):
        t = StarTopology.uniform(DEVS, SRVS, L)
        assert t.is_row_uniform and _rows(t) == 1
        assert len({t.row_key(d) for d in DEVS}) == 1

    def test_explicit_rows_interned(self):
        fast, slow = Link(mbps(100)), Link(mbps(5))
        links = {("d0", s): fast for s in SRVS}
        links.update({("d1", s): fast for s in SRVS})
        links.update({("d2", s): slow for s in SRVS})
        t = StarTopology(DEVS, SRVS, links)
        assert _rows(t) == 2 and not t.is_row_uniform
        assert t.row_key("d0") == t.row_key("d1") != t.row_key("d2")

    def test_equal_but_distinct_links_get_distinct_keys(self):
        links = {(d, s): Link(mbps(10)) for d in DEVS for s in SRVS}
        t = StarTopology(DEVS, SRVS, links)
        assert _rows(t) == 3

    def test_with_link_matches_dict_built(self):
        t = StarTopology.uniform(DEVS, SRVS, L)
        new = L.scaled(0.1)
        t2 = t.with_link("d1", "s0", new)
        expected = dict(t.links.items())
        expected[("d1", "s0")] = new
        assert list(t2.links.items()) == list(StarTopology(DEVS, SRVS, expected).links.items())
        assert _rows(t2) == 2
        assert t2.row_key("d0") == t2.row_key("d2") != t2.row_key("d1")
        assert t.link("d1", "s0") is L  # the original is untouched

    def test_with_link_unknown_endpoint(self):
        with pytest.raises(ConfigError):
            StarTopology.uniform(DEVS, SRVS, L).with_link("d9", "s0", L)

    def test_scale_all_matches_dict_built(self):
        t = StarTopology.uniform(DEVS, SRVS, L, per_server_scale={"s0": 3.0})
        scaled = t.scale_all(2.0)
        expected = {k: l.scaled(2.0) for k, l in t.links.items()}
        assert list(scaled.links.items()) == list(expected.items())
        assert _rows(scaled) == 1
        assert scaled.link("d0", "s1") is scaled.link("d2", "s1")


class TestPickleAndMemory:
    def test_pickle_round_trip(self):
        t = StarTopology.uniform(DEVS, SRVS, L).with_link("d2", "s1", L.scaled(0.5))
        t2 = pickle.loads(pickle.dumps(t))
        assert t2 == t
        assert list(t2.links.items()) == list(t.links.items())
        assert _rows(t2) == 2
        assert t2.row_key("d0") == t2.row_key("d1") != t2.row_key("d2")

    def test_uniform_memory_independent_of_pair_count(self):
        devices = [f"dev{i}" for i in range(1024)]
        servers = [f"srv{j}" for j in range(256)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            t = StarTopology.uniform(devices, servers, L)
            grown = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(t.links) == 1024 * 256
        assert grown < 1 << 20
