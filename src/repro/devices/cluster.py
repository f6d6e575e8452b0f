"""The heterogeneous edge cluster: devices + servers + access topology.

:class:`EdgeCluster` is the static "physical world" handed to optimizers and
to the simulator: who exists, how fast each party is, and which link a task
uses for each candidate server.  It is deliberately free of any workload or
policy state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.devices.device import DeviceSpec
from repro.errors import ConfigError
from repro.network.link import Link
from repro.network.topology import StarTopology


@dataclass
class EdgeCluster:
    """A set of end devices and servers joined by a star topology."""

    end_devices: List[DeviceSpec]
    servers: List[DeviceSpec]
    topology: StarTopology

    def __post_init__(self) -> None:
        if not self.end_devices:
            raise ConfigError("cluster needs at least one end device")
        if not self.servers:
            raise ConfigError("cluster needs at least one server")
        for d in self.end_devices:
            if d.is_server():
                raise ConfigError(f"{d.name} is a server, placed in end_devices")
        for s in self.servers:
            if not s.is_server():
                raise ConfigError(f"{s.name} is an end device, placed in servers")
        dn = [d.name for d in self.end_devices]
        sn = [s.name for s in self.servers]
        if len(set(dn)) != len(dn) or len(set(sn)) != len(sn):
            raise ConfigError("duplicate device/server names in cluster")
        shared = sorted(set(dn) & set(sn))
        if shared:
            raise ConfigError(f"names used by both an end device and a server: {shared}")
        if set(self.topology.device_names) != set(dn) or set(
            self.topology.server_names
        ) != set(sn):
            raise ConfigError("topology endpoints do not match cluster members")
        self._by_name: Dict[str, DeviceSpec] = {
            x.name: x for x in list(self.end_devices) + list(self.servers)
        }

    @classmethod
    def star(
        cls,
        end_devices: Sequence[DeviceSpec],
        servers: Sequence[DeviceSpec],
        link: Link,
        per_server_scale: Optional[Dict[str, float]] = None,
    ) -> "EdgeCluster":
        """Uniform-access-link cluster (the common experimental setup)."""
        topo = StarTopology.uniform(
            [d.name for d in end_devices],
            [s.name for s in servers],
            link,
            per_server_scale,
        )
        return cls(list(end_devices), list(servers), topo)

    @property
    def num_servers(self) -> int:
        return len(self.servers)

    @property
    def num_devices(self) -> int:
        return len(self.end_devices)

    def by_name(self, name: str) -> DeviceSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise ConfigError(f"unknown cluster member {name!r}") from None

    def link(self, device_name: str, server_name: str) -> Link:
        return self.topology.link(device_name, server_name)

    def server_index(self, name: str) -> int:
        for i, s in enumerate(self.servers):
            if s.name == name:
                return i
        raise ConfigError(f"unknown server {name!r}")

    def with_topology(self, topology: StarTopology) -> "EdgeCluster":
        """A copy with the topology replaced (bandwidth dynamics)."""
        return EdgeCluster(list(self.end_devices), list(self.servers), topology)
