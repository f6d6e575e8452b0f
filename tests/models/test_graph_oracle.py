"""ModelGraph's in-house graph algorithms against networkx as an oracle.

The topological order is public (it fixes the profiler's row order), so it
must match networkx's generation order exactly, not just be *a* valid order.
Cut points and heads are compared with networkx's immediate dominators and
ancestors.  Skipped where networkx is not installed (it is a dev-only
dependency).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.models import graph as graph_mod
from repro.models.graph import ModelGraph
from repro.models.layers import Activation, Add, Input
from repro.models.zoo import available_models, build

nx = pytest.importorskip("networkx")


def _nx_graph(layers, edges):
    g = nx.DiGraph()
    g.add_nodes_from(layers)
    g.add_edges_from(edges)
    return g


def assert_matches_networkx(model, layers, edges):
    g = _nx_graph(layers, edges)
    assert model.topological_order == list(nx.topological_sort(g))
    idom = nx.immediate_dominators(g, model.source)
    chain = [model.sink]
    while chain[-1] != model.source:
        chain.append(idom[chain[-1]])
    assert [c.name for c in model.cut_points] == chain[::-1]
    for cut in model.cut_points:
        head = nx.ancestors(g, cut.name) | {cut.name}
        assert model.head_nodes(cut.name) == head
        assert cut.head_flops == sum(model.flops_of(n) for n in head)
    for n in layers:
        assert model.predecessors(n) == list(g.predecessors(n))
        assert model.successors(n) == list(g.successors(n))


@pytest.mark.parametrize("name", available_models())
def test_zoo_models_match_networkx(name, monkeypatch):
    seen = []
    init = ModelGraph.__init__

    def recording_init(self, model_name, layers, edges):
        edges = list(edges)
        seen.append((dict(layers), edges))
        init(self, model_name, layers, edges)

    monkeypatch.setattr(graph_mod.ModelGraph, "__init__", recording_init)
    model = build(name)
    layers, edges = seen[-1]
    assert_matches_networkx(model, layers, edges)


@st.composite
def dags(draw):
    """Single-source/single-sink DAG specs, nodes and edges in drawn order.

    Node ``k`` draws its predecessors among nodes ``< k``; every node left
    without a successor feeds the last node, so the sink is unique.  Nodes
    with one input are activations, nodes with more are adds (all shapes are
    equal, so any wiring is well-formed).
    """
    n = draw(st.integers(min_value=2, max_value=14))
    preds = {0: []}
    for k in range(1, n - 1):
        preds[k] = sorted(draw(
            st.sets(st.integers(0, k - 1), min_size=1, max_size=min(k, 3))
        ))
    has_succ = {p for ps in preds.values() for p in ps}
    extra = draw(st.sets(st.integers(0, n - 2), max_size=2))
    preds[n - 1] = sorted({k for k in range(n - 1) if k not in has_succ} | extra)
    edges = [(f"n{p}", f"n{k}") for k, ps in preds.items() for p in ps]
    edges = draw(st.permutations(edges))
    order = draw(st.permutations(range(n)))

    def layer(k):
        name = f"n{k}"
        if k == 0:
            return Input(name, shape=(2, 3, 3))
        return Add(name) if len(preds[k]) > 1 else Activation(name)

    return {f"n{k}": layer(k) for k in order}, list(edges)


@settings(max_examples=150, deadline=None)
@given(dags())
def test_random_dags_match_networkx(spec):
    layers, edges = spec
    assert_matches_networkx(ModelGraph("dag", layers, edges), layers, edges)


@settings(max_examples=60, deadline=None)
@given(dags(), st.data())
def test_cycles_raise(spec, data):
    layers, edges = spec
    # Every node reaches the sink, so an edge from the sink back to any
    # non-source node closes a cycle (a self-loop when it is the sink).
    back = data.draw(st.integers(1, len(layers) - 1))
    edges = edges + [(f"n{len(layers) - 1}", f"n{back}")]
    assert not nx.is_directed_acyclic_graph(_nx_graph(layers, edges))
    with pytest.raises(ModelError, match="cycle"):
        ModelGraph("cyclic", layers, edges)
