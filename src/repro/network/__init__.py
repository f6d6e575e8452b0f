"""Network substrate: links, topologies, wireless dynamics.

Replaces the paper's physical Wi-Fi/LAN testbed links.  A :class:`Link` is a
(bandwidth, propagation-delay) pair with optional time-varying bandwidth via
:class:`~repro.network.wireless.BandwidthTrace`; star topologies connect each
end device to every edge server.
"""

from repro.network.link import Link
from repro.network.topology import StarTopology
from repro.network.wireless import BandwidthTrace, GaussMarkovBandwidth, MarkovBandwidth

__all__ = [
    "BandwidthTrace",
    "GaussMarkovBandwidth",
    "Link",
    "MarkovBandwidth",
    "StarTopology",
]
