"""Unit tests for ModelGraph: validation, inference, cut points."""

import pytest

from repro.errors import ModelError
from repro.models.graph import ModelGraph
from repro.models.layers import (
    Activation,
    Add,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    Input,
    Softmax,
)
from repro.models.zoo import build


def _branchy_graph():
    """input -> conv -> (a | b) -> add -> gap -> fc (a tiny residual shape)."""
    layers = {
        "input": Input("input", shape=(3, 8, 8)),
        "conv": Conv2D("conv", out_channels=4, kernel=3, padding=1),
        "a": Activation("a"),
        "b": Conv2D("b", out_channels=4, kernel=1),
        "add": Add("add"),
        "gap": GlobalAvgPool("gap"),
        "fc": Dense("fc", out_features=2),
    }
    edges = [
        ("input", "conv"),
        ("conv", "a"),
        ("conv", "b"),
        ("a", "add"),
        ("b", "add"),
        ("add", "gap"),
        ("gap", "fc"),
    ]
    return ModelGraph("branchy", layers, edges)


class TestValidation:
    def test_chain_builds(self, tiny_model):
        assert tiny_model.num_layers == 10

    def test_chain_requires_input_first(self):
        with pytest.raises(ModelError):
            ModelGraph.chain("bad", [Activation("a")])

    def test_chain_duplicate_names(self):
        with pytest.raises(ModelError):
            ModelGraph.chain(
                "bad", [Input("input", shape=(3, 4, 4)), Activation("x"), Activation("x")]
            )

    def test_empty_raises(self):
        with pytest.raises(ModelError):
            ModelGraph("empty", {}, [])

    def test_cycle_raises(self):
        layers = {
            "input": Input("input", shape=(3, 4, 4)),
            "a": Activation("a"),
            "b": Activation("b"),
        }
        edges = [("input", "a"), ("a", "b"), ("b", "a")]
        with pytest.raises(ModelError):
            ModelGraph("cyclic", layers, edges)

    def test_two_sinks_raise(self):
        layers = {
            "input": Input("input", shape=(3, 4, 4)),
            "a": Activation("a"),
            "b": Activation("b"),
        }
        edges = [("input", "a"), ("input", "b")]
        with pytest.raises(ModelError):
            ModelGraph("twosink", layers, edges)

    def test_unknown_edge_endpoint(self):
        layers = {"input": Input("input", shape=(3, 4, 4))}
        with pytest.raises(ModelError):
            ModelGraph("bad", layers, [("input", "ghost")])

    def test_merge_needs_two_inputs(self):
        layers = {
            "input": Input("input", shape=(3, 4, 4)),
            "add": Add("add"),
        }
        with pytest.raises(ModelError):
            ModelGraph("bad", layers, [("input", "add")])

    def test_nonmerge_single_input(self):
        layers = {
            "input": Input("input", shape=(3, 4, 4)),
            "c": Conv2D("c", out_channels=2, kernel=1),
            "a": Activation("a"),
        }
        edges = [("input", "a"), ("c", "a"), ("input", "c")]
        with pytest.raises(ModelError):
            ModelGraph("bad", layers, edges)

    def test_layer_name_key_mismatch(self):
        with pytest.raises(ModelError):
            ModelGraph("bad", {"x": Input("y", shape=(3, 4, 4))}, [])


class TestInference:
    def test_shapes_propagate(self, tiny_model):
        assert tiny_model.output_shape_of("conv1") == (8, 32, 32)
        assert tiny_model.output_shape_of("pool2") == (16, 8, 8)
        assert tiny_model.output_shape_of("fc") == (10,)

    def test_total_flops_positive(self, tiny_model):
        assert tiny_model.total_flops > 0

    def test_total_flops_is_sum(self, tiny_model):
        total = sum(tiny_model.flops_of(n) for n in tiny_model.topological_order)
        assert total == tiny_model.total_flops

    def test_input_bytes(self, tiny_model):
        assert tiny_model.input_bytes == 3 * 32 * 32 * 4

    def test_params_counted(self, tiny_model):
        # conv1: 3*8*9+8; conv2: 8*16*9+16; fc: 1024*10+10
        assert tiny_model.total_params == (3 * 8 * 9 + 8) + (8 * 16 * 9 + 16) + (
            16 * 8 * 8 * 10 + 10
        )

    def test_topological_order_starts_input(self, tiny_model):
        assert tiny_model.topological_order[0] == "input"

    def test_source_sink(self, tiny_model):
        # the unique input opens the topological order, the unique output ends it
        assert tiny_model.topological_order[0] == "input"
        assert tiny_model.topological_order[-1] == "softmax"


class TestCutPoints:
    def test_chain_every_node_is_cut(self, tiny_model):
        assert len(tiny_model.cut_points) == tiny_model.num_layers

    def test_cut_flops_monotone(self, tiny_model):
        flops = [c.head_flops for c in tiny_model.cut_points]
        assert flops == sorted(flops)

    def test_first_cut_is_input(self, tiny_model):
        assert tiny_model.cut_points[0].name == "input"
        assert tiny_model.cut_points[0].head_flops == 0

    def test_last_cut_is_sink(self, tiny_model):
        last = tiny_model.cut_points[-1]
        assert last.name == tiny_model.topological_order[-1]
        assert last.head_flops == tiny_model.total_flops
        assert last.depth_fraction == pytest.approx(1.0)

    def test_branchy_excludes_branch_nodes(self):
        g = _branchy_graph()
        names = [c.name for c in g.cut_points]
        # a and b are parallel branches: not valid single-tensor cuts
        assert "a" not in names and "b" not in names
        assert "add" in names and "conv" in names

    def test_resnet_cuts_at_block_boundaries(self):
        g = build("resnet18")
        names = {c.name for c in g.cut_points}
        # interior of a residual block is never a cut point
        assert "s1_0_a_conv" not in names
        # block outputs are
        assert "s1_0_relu_out" in names

    def test_head_nodes_of_cut(self):
        g = _branchy_graph()
        head = {"input", "conv", "a", "b", "add"}
        assert g.cut_by_name("add").head_flops == sum(g.flops_of(n) for n in head)

    def test_head_nodes_invalid_cut_raises(self):
        g = _branchy_graph()
        with pytest.raises(ModelError):
            g.cut_by_name("a")

    def test_cut_by_name(self, tiny_model):
        c = tiny_model.cut_by_name("pool1")
        assert c.name == "pool1"
        with pytest.raises(ModelError):
            tiny_model.cut_by_name("nope")

    def test_boundary_bytes_match_output(self, tiny_model):
        for c in tiny_model.cut_points:
            assert c.boundary_bytes == tiny_model.output_bytes_of(c.name)


class TestSummary:
    def test_summary_contains_layers(self, tiny_model):
        s = tiny_model.summary()
        assert "conv1" in s and "GFLOPs" in s

    def test_branchy_merge_flops(self):
        g = _branchy_graph()
        assert g.flops_of("add") == 4 * 8 * 8  # (n-1) * elements
