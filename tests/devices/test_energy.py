"""Energy model accounting."""

import pytest

from repro.devices.energy import EnergyModel
from repro.errors import ConfigError

EM = EnergyModel()


class TestDeviceEnergy:
    def test_breakdown_totals(self, pi4):
        # each part of a mixed request is its own activity's energy, so the
        # parts add up to the request's total
        e = EM.device_energy(pi4, compute_s=1.0, tx_s=0.5, wait_s=0.2)
        compute = EM.device_energy(pi4, compute_s=1.0, tx_s=0.0, wait_s=0.0)
        tx = EM.device_energy(pi4, compute_s=0.0, tx_s=0.5, wait_s=0.0)
        wait = EM.device_energy(pi4, compute_s=0.0, tx_s=0.0, wait_s=0.2)
        assert (e.compute_j, e.tx_j, e.idle_wait_j) == pytest.approx(
            (compute.compute_j, tx.tx_j, wait.idle_wait_j)
        )

    def test_compute_uses_busy_power(self, pi4):
        e = EM.device_energy(pi4, compute_s=2.0, tx_s=0.0, wait_s=0.0)
        assert e.compute_j == pytest.approx(2.0 * pi4.busy_power_w)

    def test_tx_adds_radio_power(self, pi4):
        e = EM.device_energy(pi4, compute_s=0.0, tx_s=1.0, wait_s=0.0)
        assert e.tx_j == pytest.approx(pi4.idle_power_w + pi4.tx_power_w)

    def test_wait_uses_idle_power(self, pi4):
        e = EM.device_energy(pi4, compute_s=0.0, tx_s=0.0, wait_s=3.0)
        assert e.idle_wait_j == pytest.approx(3.0 * pi4.idle_power_w)

    def test_negative_duration_raises(self, pi4):
        with pytest.raises(ConfigError):
            EM.device_energy(pi4, compute_s=-1.0, tx_s=0.0, wait_s=0.0)
