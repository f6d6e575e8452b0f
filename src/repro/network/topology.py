"""Edge topologies.

The paper family's deployment is a star: each end device reaches every edge
server over its own access link (possibly with different bandwidths per
server — a nearby AP vs. a metro backhaul).  :class:`StarTopology` stores the
directed device->server links and answers the optimizer's only topology
question: "what link does task i use if assigned to server j?".

Storage is one link *row* per device — a tuple over the servers in
``server_names`` order — plus a server -> column map.  Rows are interned:
devices whose rows hold the same :class:`Link` objects share one tuple, so
:meth:`StarTopology.uniform` (every device on one per-server row) costs
O(devices + servers) memory instead of one entry per (device, server) pair.

The public :attr:`StarTopology.links` is a read-only
``Mapping[(device, server), Link]`` view over the rows.  It has the length,
membership, lookup (``KeyError`` on a missing pair), ``items()`` and
equality of the equivalent dict, and iterates device-major in
``device_names`` order, server-minor in ``server_names`` order.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.network.link import Link

Row = Tuple[Link, ...]


def _check_names(devices: List[str], servers: List[str]) -> None:
    if not devices or not servers:
        raise ConfigError("topology needs at least one device and one server")
    if len(set(devices)) != len(devices):
        raise ConfigError("duplicate device names")
    if len(set(servers)) != len(servers):
        raise ConfigError("duplicate server names")


def _intern(rows: Mapping[str, Row]) -> Dict[str, Row]:
    """``rows`` with every set of identical-link rows sharing one tuple.

    A row object already seen is resolved by its ``id`` (O(1) per device for
    rows shared up front); only each distinct row object pays its O(servers)
    link-id fingerprint.
    """
    by_obj: Dict[int, Row] = {}
    by_links: Dict[Tuple[int, ...], Row] = {}
    out: Dict[str, Row] = {}
    for d, row in rows.items():
        canon = by_obj.get(id(row))
        if canon is None:
            canon = by_links.setdefault(tuple(map(id, row)), row)
            by_obj[id(row)] = canon
        out[d] = canon
    return out


class _LinkView(Mapping):
    """Read-only ``(device, server) -> Link`` view over a topology's rows."""

    __slots__ = ("_topo",)

    def __init__(self, topo: "StarTopology") -> None:
        self._topo = topo

    def __getitem__(self, key: Tuple[str, str]) -> Link:
        try:
            d, s = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        topo = self._topo
        try:
            return topo._rows[d][topo._col[s]]
        except KeyError:
            raise KeyError(key) from None

    def __len__(self) -> int:
        return len(self._topo._rows) * len(self._topo._col)

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        servers = self._topo.server_names
        for d in self._topo._rows:
            for s in servers:
                yield d, s


class StarTopology:
    """Device->server access links.

    Construct either with an explicit ``links`` mapping
    ``(device_name, server_name) -> Link`` covering every pair, or via
    :meth:`uniform`.  Instances are immutable in use: :meth:`with_link` and
    :meth:`scale_all` return copies.
    """

    def __init__(
        self,
        device_names: Iterable[str],
        server_names: Iterable[str],
        links: Optional[Mapping[Tuple[str, str], Link]] = None,
    ) -> None:
        devices, servers = list(device_names), list(server_names)
        _check_names(devices, servers)
        links = {} if links is None else links
        dev_set, srv_set = set(devices), set(servers)
        # set-based endpoint checks: the link table has devices × servers
        # entries, so per-entry list scans would make construction quadratic
        # in the device count (minutes at 10k+ devices)
        for (d, s) in links:
            if d not in dev_set or s not in srv_set:
                raise ConfigError(f"link ({d},{s}) references unknown endpoint")
        # keys are unique and all within devices × servers, so a simple count
        # proves completeness; the pair sweep runs only to name the gap
        if len(links) != len(devices) * len(servers):
            missing = [
                (d, s) for d in devices for s in servers if (d, s) not in links
            ]
            raise ConfigError(f"missing links for pairs: {missing[:5]}...")
        rows = {d: tuple(links[(d, s)] for s in servers) for d in devices}
        self._set(devices, servers, rows)

    def _set(self, devices: List[str], servers: List[str], rows: Dict[str, Row]) -> None:
        self.device_names = devices
        self.server_names = servers
        self._col: Dict[str, int] = {s: j for j, s in enumerate(servers)}
        self._rows: Dict[str, Row] = _intern(rows)

    @classmethod
    def _from_rows(
        cls, devices: List[str], servers: List[str], rows: Dict[str, Row]
    ) -> "StarTopology":
        """Build from already-validated names and complete rows."""
        topo = object.__new__(cls)
        topo._set(devices, servers, rows)
        return topo

    @property
    def links(self) -> Mapping[Tuple[str, str], Link]:
        """Read-only ``(device, server) -> Link`` view (see module notes)."""
        return _LinkView(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarTopology):
            return NotImplemented
        # equal names fix the column order, so equal rows ⇔ equal links
        return (
            self.device_names == other.device_names
            and self.server_names == other.server_names
            and self._rows == other._rows
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"StarTopology({len(self.device_names)} devices, "
            f"{len(self.server_names)} servers)"
        )

    def row_key(self, device: str) -> Hashable:
        """Hashable fingerprint of ``device``'s per-server link row, in O(1).

        Two devices with equal ``row_key`` see identical :class:`Link`
        objects on every server, so any per-(device, server) latency screen
        may share their results.  Keys compare meaningfully only within one
        topology instance.
        """
        return id(self._rows[device])

    @classmethod
    def uniform(
        cls,
        device_names: Iterable[str],
        server_names: Iterable[str],
        link: Link,
        per_server_scale: Optional[Mapping[str, float]] = None,
    ) -> "StarTopology":
        """Same access link everywhere, optionally scaled per server.

        Every device shares one row tuple.  Scale keys naming no server
        raise :class:`~repro.errors.ConfigError`.
        """
        devices, servers = list(device_names), list(server_names)
        _check_names(devices, servers)
        scale = dict(per_server_scale or {})
        unknown = sorted(set(scale) - set(servers))
        if unknown:
            raise ConfigError(f"per_server_scale names unknown servers: {unknown}")
        row = tuple(
            link.scaled(scale[s]) if scale.get(s, 1.0) != 1.0 else link
            for s in servers
        )
        return cls._from_rows(devices, servers, dict.fromkeys(devices, row))

    def link(self, device: str, server: str) -> Link:
        """The access link used when ``device`` offloads to ``server``."""
        try:
            return self._rows[device][self._col[server]]
        except KeyError:
            raise ConfigError(f"no link between {device!r} and {server!r}") from None

    def with_link(self, device: str, server: str, link: Link) -> "StarTopology":
        """A copy with one link replaced (dynamic-bandwidth experiments).

        Only ``device``'s row is rebuilt; every other row stays shared.
        """
        if device not in self._rows or server not in self._col:
            raise ConfigError(f"link ({device},{server}) references unknown endpoint")
        j = self._col[server]
        row = self._rows[device]
        rows = dict(self._rows)
        rows[device] = row[:j] + (link,) + row[j + 1 :]
        return self._from_rows(list(self.device_names), list(self.server_names), rows)

    def scale_all(self, factor: float) -> "StarTopology":
        """A copy with every link's bandwidth scaled by ``factor``.

        Each distinct :class:`Link` is scaled once, so shared rows (and
        links repeated within a row) stay shared in the copy.
        """
        scaled: Dict[int, Link] = {}
        rows: Dict[int, Row] = {}
        out: Dict[str, Row] = {}
        for d, row in self._rows.items():
            new = rows.get(id(row))
            if new is None:
                for l in row:
                    if id(l) not in scaled:
                        scaled[id(l)] = l.scaled(factor)
                new = rows[id(row)] = tuple(scaled[id(l)] for l in row)
            out[d] = new
        return self._from_rows(list(self.device_names), list(self.server_names), out)
