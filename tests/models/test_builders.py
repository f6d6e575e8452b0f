"""GraphBuilder and block helpers."""

import pytest

from repro.errors import ModelError
from repro.models.builders import (
    GraphBuilder,
    conv_bn_relu,
    inception_module,
    inverted_residual,
    residual_block,
    separable_block,
)
from repro.models.layers import Activation, Add, Dense, GlobalAvgPool


class TestGraphBuilder:
    def test_sequential_add(self):
        b = GraphBuilder("m", (3, 8, 8))
        b.add(Activation("a1"))
        b.add(Activation("a2"))
        g = b.build()
        assert g.topological_order == ["input", "a1", "a2"]

    def test_add_after_explicit(self):
        b = GraphBuilder("m", (3, 8, 8))
        b.add(Activation("a1"))
        b.add(Activation("a2"), after="input")
        b.merge(Add("sum"), ["a1", "a2"])
        g = b.build()
        # a1 and a2 are parallel branches off the input, joined at sum
        assert [c.name for c in g.cut_points] == ["input", "sum"]

    def test_duplicate_name_raises(self):
        b = GraphBuilder("m", (3, 8, 8))
        b.add(Activation("a"))
        with pytest.raises(ModelError):
            b.add(Activation("a"))

    def test_unknown_predecessor_raises(self):
        b = GraphBuilder("m", (3, 8, 8))
        with pytest.raises(ModelError):
            b.add(Activation("a"), after="ghost")

    def test_merge_unknown_input_raises(self):
        b = GraphBuilder("m", (3, 8, 8))
        b.add(Activation("a"))
        with pytest.raises(ModelError):
            b.merge(Add("s"), ["a", "ghost"])

    def test_tail_tracks_last(self):
        b = GraphBuilder("m", (3, 8, 8))
        assert b.tail == "input"
        b.add(Activation("a"))
        assert b.tail == "a"


class TestBlocks:
    def test_conv_bn_relu_shapes(self):
        b = GraphBuilder("m", (3, 16, 16))
        out = conv_bn_relu(b, "blk", 8, 3, padding=1)
        g = _finish(b)
        assert g.output_shape_of(out) == (8, 16, 16)

    def test_residual_block_valid(self):
        b = GraphBuilder("m", (3, 16, 16))
        conv_bn_relu(b, "stem", 8, 3, padding=1)
        out = residual_block(b, "rb_1", 8, stride=1)
        g = _finish(b)
        assert g.output_shape_of(out) == (8, 16, 16)

    def test_residual_block_downsamples(self):
        b = GraphBuilder("m", (3, 16, 16))
        conv_bn_relu(b, "stem", 8, 3, padding=1)
        out = residual_block(b, "rb_1", 16, stride=2)
        g = _finish(b)
        assert g.output_shape_of(out) == (16, 8, 8)

    def test_bottleneck_block(self):
        b = GraphBuilder("m", (3, 16, 16))
        conv_bn_relu(b, "stem", 64, 3, padding=1)
        out = residual_block(b, "rb_0", 64, stride=1, bottleneck=True)
        g = _finish(b)
        assert g.output_shape_of(out) == (64, 16, 16)

    def test_separable_block(self):
        b = GraphBuilder("m", (3, 16, 16))
        conv_bn_relu(b, "stem", 8, 3, padding=1)
        out = separable_block(b, "sep", 16, stride=2)
        g = _finish(b)
        assert g.output_shape_of(out) == (16, 8, 8)

    def test_inverted_residual_skip_when_same_shape(self):
        b = GraphBuilder("m", (3, 16, 16))
        conv_bn_relu(b, "stem", 16, 3, padding=1)
        out = inverted_residual(b, "ir", 16, 16, expand=6, stride=1)
        assert out.endswith("_add")
        _finish(b)

    def test_inverted_residual_no_skip_on_stride(self):
        b = GraphBuilder("m", (3, 16, 16))
        conv_bn_relu(b, "stem", 16, 3, padding=1)
        out = inverted_residual(b, "ir", 16, 24, expand=6, stride=2)
        assert not out.endswith("_add")
        _finish(b)

    def test_inception_module_concat_channels(self):
        b = GraphBuilder("m", (3, 16, 16))
        conv_bn_relu(b, "stem", 32, 3, padding=1)
        out = inception_module(b, "inc", 8, 4, 8, 2, 4, 4)
        g = _finish(b)
        assert g.output_shape_of(out) == (8 + 8 + 4 + 4, 16, 16)


def _finish(b: GraphBuilder):
    """Cap the builder with GAP+Dense so the graph has a single sink."""
    b.add(GlobalAvgPool("_gap"))
    b.add(Dense("_fc", out_features=2))
    return b.build()
