"""Per-device compute time: segment time on the blended rate, per-layer time
on the layer's efficiency class."""

import numpy as np
import pytest

from repro.core.latency import plan_latency, predicted_latency
from repro.core.plan import PlanFeatures
from repro.errors import PlanError
from repro.models.layers import Activation, Conv2D, Dense, DepthwiseConv2D, Pool
from repro.network.link import Link
from repro.profiling.profiler import layer_class_of, layer_time

LINK = Link(bandwidth_bps=1e9, rtt_s=0.0)


def local_features(flops):
    return PlanFeatures(None, flops, 0.0, 0.0, 0.0, 1.0, dev_flops_sq=flops * flops)


def local_time(flops, device):
    """Seconds of a fully-local segment of ``flops``."""
    return float(plan_latency(flops, 0.0, 0.0, 0.0, device))


def server_time(flops, device, server, share):
    """Seconds of a fully-offloaded segment of ``flops`` at ``share``."""
    return float(
        plan_latency(0.0, flops, 0.0, 1.0, device, server=server, link=LINK,
                     compute_share=share)
    )


class TestSegmentTime:
    def test_linear_in_flops(self, pi4):
        t1 = local_time(1e9, pi4)
        t2 = local_time(2e9, pi4)
        # both include the same fixed overhead
        assert t2 - t1 == pytest.approx(t1 - pi4.overhead_s)

    def test_zero_flops_zero_time(self, pi4):
        assert local_time(0.0, pi4) == 0.0

    def test_share_scales_compute(self, pi4, edge_gpu):
        t_full = server_time(1e9, pi4, edge_gpu, 1.0)
        t_half = server_time(1e9, pi4, edge_gpu, 0.5)
        assert (t_half - edge_gpu.overhead_s) == pytest.approx(
            2 * (t_full - edge_gpu.overhead_s)
        )

    def test_invalid_share(self, pi4, edge_gpu):
        with pytest.raises(PlanError):
            server_time(1e9, pi4, edge_gpu, 0.0)
        with pytest.raises(PlanError):
            server_time(1e9, pi4, edge_gpu, 1.5)

    def test_negative_flops(self):
        with pytest.raises(PlanError):
            local_features(-1.0)

    def test_vectorized_matches_scalar(self, pi4):
        flops = np.array([0.0, 1e8, 5e9])
        vec = plan_latency(flops, 0.0, 0.0, 0.0, pi4)
        for f, v in zip(flops, vec):
            assert v == predicted_latency(local_features(float(f)), pi4)

    def test_faster_device_lower_latency(self, pi4, edge_gpu):
        assert local_time(1e9, edge_gpu) < local_time(1e9, pi4)


class TestLayerTime:
    def test_layer_class_mapping(self):
        assert layer_class_of(Conv2D("c", out_channels=2)) == "conv"
        assert layer_class_of(DepthwiseConv2D("d")) == "depthwise"
        assert layer_class_of(Dense("f", out_features=2)) == "dense"
        assert layer_class_of(Activation("a")) == "memory"
        assert layer_class_of(Pool("p")) == "memory"

    def test_depthwise_slower_per_flop_than_conv(self, pi4):
        conv = Conv2D("c", out_channels=2)
        dw = DepthwiseConv2D("d")
        assert layer_time(dw, 1e9, pi4) > layer_time(conv, 1e9, pi4)

    def test_zero_flops(self, pi4):
        assert layer_time(Activation("a"), 0, pi4) == 0.0

    def test_no_overhead_per_layer(self, pi4):
        conv = Conv2D("c", out_channels=2)
        t = layer_time(conv, 1e6, pi4)
        assert t == pytest.approx(1e6 / pi4.effective_flops("conv"))
