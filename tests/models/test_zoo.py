"""Zoo architectures: totals against published ballpark numbers.

FLOPs use the 2-FLOPs-per-MAC convention, so targets are 2x published MACs.
"""

import pytest

from repro.errors import ModelError
from repro.models import zoo
from repro.models.layers import layer_params

#: model -> (GFLOPs low, high, MParams low, high)
EXPECTED = {
    "alexnet": (1.2, 1.7, 57, 64),
    "vgg11": (14, 16.5, 128, 137),
    "vgg16": (29, 33, 134, 142),
    "vgg19": (37, 41, 139, 148),
    "resnet18": (3.2, 4.0, 11, 13),
    "resnet34": (6.8, 7.9, 21, 23),
    "resnet50": (7.0, 8.6, 24, 27),
    "mobilenet_v1": (1.0, 1.3, 4.0, 4.5),
    "mobilenet_v2": (0.5, 0.8, 3.2, 3.8),
    "inception_v1": (2.7, 3.6, 6.5, 7.5),
    "squeezenet": (0.55, 0.85, 1.1, 1.4),
    "densenet121": (5.0, 6.3, 7.2, 8.6),
}


class TestRegistry:
    def test_available_models(self):
        assert set(EXPECTED) == set(zoo.available_models())

    def test_unknown_model_raises(self):
        with pytest.raises(ModelError):
            zoo.build("lenet9000")

    def test_build_returns_fresh_graph(self):
        a = zoo.build("alexnet")
        b = zoo.build("alexnet")
        assert a is not b


@pytest.mark.parametrize("name", sorted(EXPECTED))
class TestArchitectures:
    def test_flops_in_published_range(self, name):
        lo, hi, _, _ = EXPECTED[name]
        g = zoo.build(name)
        assert lo <= g.total_flops / 1e9 <= hi, g.total_flops / 1e9

    def test_params_in_published_range(self, name):
        _, _, lo, hi = EXPECTED[name]
        g = zoo.build(name)
        assert lo <= g.total_params / 1e6 <= hi, g.total_params / 1e6

    def test_imagenet_io(self, name):
        g = zoo.build(name)
        assert g.input_shape == (3, 224, 224)
        assert g.output_shape_of(g.topological_order[-1]) == (1000,)

    def test_has_interior_cut_points(self, name):
        g = zoo.build(name)
        interior = [c for c in g.cut_points if 0 < c.depth_fraction < 1]
        assert len(interior) >= 5

    def test_cut_flops_strictly_ordered(self, name):
        g = zoo.build(name)
        flops = [c.head_flops for c in g.cut_points]
        assert all(b >= a for a, b in zip(flops, flops[1:]))


class TestSpecifics:
    def test_vgg_depth_ordering(self):
        assert (
            zoo.build("vgg11").total_flops
            < zoo.build("vgg16").total_flops
            < zoo.build("vgg19").total_flops
        )

    def test_resnet_depth_ordering(self):
        assert zoo.build("resnet18").total_flops < zoo.build("resnet34").total_flops

    def test_vgg_invalid_depth(self):
        from repro.models.zoo.vgg import build_vgg

        with pytest.raises(ModelError):
            build_vgg(13)

    def test_resnet_invalid_depth(self):
        from repro.models.zoo.resnet import build_resnet

        with pytest.raises(ModelError):
            build_resnet(101)

    def test_custom_num_classes(self):
        from repro.models.zoo.alexnet import build_alexnet

        g = build_alexnet(num_classes=10)
        assert g.output_shape_of(g.topological_order[-1]) == (10,)

    def test_mobilenet_v2_residuals_present(self):
        g = zoo.build("mobilenet_v2")
        assert any("add" in n for n in g.topological_order)


class TestDenseNetCutEconomics:
    """DenseNet's cut points exist everywhere but are only cheap at
    transitions — the property its zoo entry exists to exercise."""

    def test_transition_boundaries_are_local_minima(self):
        g = zoo.build("densenet121")
        cuts = {c.name: c for c in g.cut_points}
        # a transition pool output is far smaller than the dense-layer
        # boundary just before it
        trans = cuts["trans1_pool"]
        pre = cuts["b1_l5_cat"]
        assert trans.boundary_bytes < pre.boundary_bytes / 3

    def test_boundaries_grow_inside_a_block(self):
        g = zoo.build("densenet121")
        sizes = [
            c.boundary_bytes
            for c in g.cut_points
            if c.name.startswith("b1_l") and c.name.endswith("_cat")
        ]
        assert sizes == sorted(sizes)
        assert len(sizes) == 6

    def test_head_fc_params(self):
        g = zoo.build("densenet121")
        # final feature width of DenseNet-121 is 1024
        gap = g.topological_order[g.topological_order.index("fc") - 1]
        assert layer_params(g.layer("fc"), g.output_shape_of(gap)) == 1024 * 1000 + 1000
