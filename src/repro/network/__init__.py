"""Network substrate: links and topologies.

Replaces the paper's physical Wi-Fi/LAN testbed links.  A :class:`Link` is a
fixed (bandwidth, propagation-delay) pair; star topologies connect each end
device to every edge server.  Bandwidth changes are new topologies
(:meth:`StarTopology.with_link`), which the online controller re-plans over.
"""

from repro.network.link import Link
from repro.network.topology import StarTopology

__all__ = [
    "Link",
    "StarTopology",
]
