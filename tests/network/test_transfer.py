"""Transfer-time arithmetic."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.network.link import Link
from repro.network.transfer import transfer_time, transfer_time_vec
from repro.units import mbps

LINK = Link(mbps(8), rtt_s=10e-3)  # 1 MB/s for easy math


class TestTransferTime:
    def test_serialization_plus_propagation(self):
        # 1 MB at 1 MB/s + 5ms propagation
        assert transfer_time(1e6, LINK) == pytest.approx(1.0 + 0.005)

    def test_zero_bytes_free(self):
        assert transfer_time(0, LINK) == 0.0

    def test_share_scales(self):
        t_half = transfer_time(1e6, LINK, share=0.5)
        assert t_half == pytest.approx(2.0 + 0.005)

    def test_negative_bytes_raises(self):
        with pytest.raises(ConfigError):
            transfer_time(-1, LINK)

    def test_invalid_share(self):
        with pytest.raises(ConfigError):
            transfer_time(1e6, LINK, share=0.0)

    def test_vectorized_matches_scalar(self):
        sizes = np.array([0.0, 1e3, 1e6])
        vec = transfer_time_vec(sizes, LINK)
        for s, v in zip(sizes, vec):
            assert v == pytest.approx(transfer_time(float(s), LINK))
