"""EdgeCluster wiring and validation."""

import dataclasses

import pytest

from repro.devices.cluster import EdgeCluster
from repro.devices.presets import SERVER_PRESETS, device_preset
from repro.errors import ConfigError
from repro.network.link import Link
from repro.units import mbps


class TestConstruction:
    def test_star_builds(self, small_cluster):
        assert small_cluster.num_devices == 2
        assert small_cluster.num_servers == 2

    def test_by_name(self, small_cluster):
        assert small_cluster.by_name("dev0").kind == "end_device"
        assert small_cluster.by_name("srv_gpu").kind == "server"

    def test_by_name_unknown(self, small_cluster):
        with pytest.raises(ConfigError):
            small_cluster.by_name("nope")

    def test_link_lookup(self, small_cluster):
        link = small_cluster.link("dev0", "srv_cpu")
        assert link.bandwidth_bps == pytest.approx(mbps(40))

    def test_server_index(self, small_cluster):
        assert small_cluster.server_index("srv_cpu") == 0
        assert small_cluster.server_index("srv_gpu") == 1
        with pytest.raises(ConfigError):
            small_cluster.server_index("nope")

    def test_per_server_scale(self, pi4):
        servers = [dataclasses.replace(SERVER_PRESETS["edge_cpu"], name="s0")]
        c = EdgeCluster.star(
            [pi4], servers, Link(mbps(10)), per_server_scale={"s0": 0.5}
        )
        assert c.link(pi4.name, "s0").bandwidth_bps == pytest.approx(mbps(5))


class TestValidation:
    def test_requires_devices(self):
        servers = [SERVER_PRESETS["edge_cpu"]]
        with pytest.raises(ConfigError):
            EdgeCluster.star([], servers, Link(mbps(10)))

    def test_requires_servers(self, pi4):
        with pytest.raises(ConfigError):
            EdgeCluster.star([pi4], [], Link(mbps(10)))

    def test_rejects_server_in_devices(self, pi4):
        srv = SERVER_PRESETS["edge_cpu"]
        with pytest.raises(ConfigError):
            EdgeCluster.star([srv], [srv], Link(mbps(10)))

    def test_rejects_device_in_servers(self, pi4):
        with pytest.raises(ConfigError):
            EdgeCluster.star([pi4], [pi4], Link(mbps(10)))

    def test_duplicate_names(self, pi4):
        srv = SERVER_PRESETS["edge_cpu"]
        with pytest.raises(ConfigError):
            EdgeCluster.star([pi4, pi4], [srv], Link(mbps(10)))

    def test_name_shared_by_device_and_server(self, pi4):
        srv = dataclasses.replace(SERVER_PRESETS["edge_cpu"], name=pi4.name)
        with pytest.raises(ConfigError, match="both an end device and a server"):
            EdgeCluster.star([pi4], [srv], Link(mbps(10)))

    def test_with_topology_replaces(self, small_cluster):
        topo = small_cluster.topology.scale_all(2.0)
        c2 = small_cluster.with_topology(topo)
        assert c2.link("dev0", "srv_cpu").bandwidth_bps == pytest.approx(
            2 * small_cluster.link("dev0", "srv_cpu").bandwidth_bps
        )
