"""Validated model DAG with shape/FLOPs inference and cut-point enumeration.

A :class:`ModelGraph` is an immutable single-source/single-sink DAG of
:class:`~repro.models.layers.Layer` objects.  On construction it

1. validates structure (acyclic, one ``Input`` source, one sink, arity of
   merge vs. chain layers);
2. infers every node's output shape, FLOPs, activation bytes, and parameter
   count by topological propagation;
3. enumerates the model's **cut points** — the nodes that dominate the sink,
   i.e. positions where slicing the network yields a head producing exactly
   one tensor to ship.  This makes partitioning correct for non-chain models
   (ResNet skip connections, Inception branches): you can only cut at block
   boundaries, which is precisely what the dominator computation yields.

The graph is held as insertion-ordered predecessor/successor dicts; the three
graph algorithms it needs (topological sort, immediate dominators, heads) are
small enough to live here rather than pull in a graph library.

The optimizer consumes only the derived arrays (cumulative head FLOPs and
boundary activation bytes per cut point), so all graph work happens once per
model, not per optimization step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import ModelError
from repro.models.layers import Input, Layer, Shape, layer_params, shape_bytes


def _topological_order(
    pred: Mapping[str, Mapping[str, None]], succ: Mapping[str, Mapping[str, None]]
) -> List[str]:
    """Kahn's algorithm, generation by generation (networkx 3.x's order).

    Sources in node insertion order, then each node's newly freed successors
    in edge insertion order.  Nodes on or behind a cycle never free, so the
    result is shorter than the graph iff the graph has a cycle.
    """
    indegree = {n: len(p) for n, p in pred.items()}
    order = [n for n, d in indegree.items() if d == 0]
    for n in order:  # appending while iterating: a FIFO queue
        for child in succ[n]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    return order


def _immediate_dominators(
    order: Sequence[str], pred: Mapping[str, Mapping[str, None]]
) -> Dict[str, str]:
    """Immediate dominators from ``order[0]`` (Cooper, Harvey & Kennedy).

    Over a topological order of a DAG every predecessor's dominator is final
    before its successors are visited, so one pass suffices.  The source maps
    to itself.
    """
    pos = {n: i for i, n in enumerate(order)}
    idom = {order[0]: order[0]}
    for n in order[1:]:
        preds = iter(pred[n])
        d = next(preds)
        for p in preds:
            while d != p:  # walk the later finger up to the common dominator
                if pos[d] > pos[p]:
                    d = idom[d]
                else:
                    p = idom[p]
        idom[n] = d
    return idom


@dataclass(frozen=True)
class CutPoint:
    """A valid partition position: cut *after* node ``name``.

    Attributes
    ----------
    name:
        Node after which the network is cut.
    index:
        Position in the model's topologically ordered cut-point list
        (0 = cut after the input, i.e. everything remote).
    head_flops:
        Total FLOPs of the head (all layers at or before the cut).
    boundary_bytes:
        Bytes of the single activation tensor crossing the cut.
    depth_fraction:
        ``head_flops / total_flops`` — used by the accuracy model.
    """

    name: str
    index: int
    head_flops: int
    boundary_bytes: int
    depth_fraction: float


class ModelGraph:
    """Immutable layer DAG with derived cost metadata.

    Parameters
    ----------
    name:
        Model identifier (e.g. ``"vgg16"``).
    layers:
        Mapping node name -> :class:`Layer`.
    edges:
        Iterable of ``(src, dst)`` node-name pairs.
    """

    def __init__(
        self,
        name: str,
        layers: Mapping[str, Layer],
        edges: Iterable[Tuple[str, str]],
    ) -> None:
        self.name = name
        self._layers: Dict[str, Layer] = {}
        for node, layer in layers.items():
            if layer.name != node:
                raise ModelError(
                    f"{name}: node key {node!r} != layer.name {layer.name!r}"
                )
            self._layers[node] = layer
        # Insertion-ordered adjacency (dict keys as ordered sets): edge order
        # fixes predecessor order, which merge layers and the topological
        # order depend on.  A repeated edge is a no-op.
        self._pred: Dict[str, Dict[str, None]] = {n: {} for n in self._layers}
        self._succ: Dict[str, Dict[str, None]] = {n: {} for n in self._layers}
        for src, dst in edges:
            if src not in self._layers or dst not in self._layers:
                raise ModelError(f"{name}: edge ({src},{dst}) references unknown node")
            self._succ[src][dst] = None
            self._pred[dst][src] = None
        self._validate()
        self._infer()
        self._cuts = self._compute_cut_points()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def chain(cls, name: str, layers: Sequence[Layer]) -> "ModelGraph":
        """Build a purely sequential model from an ordered layer list."""
        if not layers or not isinstance(layers[0], Input):
            raise ModelError(f"{name}: chain must start with an Input layer")
        mapping = {lyr.name: lyr for lyr in layers}
        if len(mapping) != len(layers):
            raise ModelError(f"{name}: duplicate layer names in chain")
        edges = [(layers[i].name, layers[i + 1].name) for i in range(len(layers) - 1)]
        return cls(name, mapping, edges)

    # -- validation / inference ----------------------------------------------

    def _validate(self) -> None:
        if not self._layers:
            raise ModelError(f"{self.name}: empty model")
        self._topo: List[str] = _topological_order(self._pred, self._succ)
        if len(self._topo) != len(self._layers):
            raise ModelError(f"{self.name}: model graph has a cycle")
        sources = [n for n, p in self._pred.items() if not p]
        sinks = [n for n, s in self._succ.items() if not s]
        if len(sources) != 1:
            raise ModelError(f"{self.name}: expected exactly 1 source, got {sources}")
        if len(sinks) != 1:
            raise ModelError(f"{self.name}: expected exactly 1 sink, got {sinks}")
        self._source, self._sink = sources[0], sinks[0]
        if not isinstance(self._layers[self._source], Input):
            raise ModelError(f"{self.name}: source {self._source} is not an Input layer")
        for n, layer in self._layers.items():
            indeg = len(self._pred[n])
            if isinstance(layer, Input):
                if indeg != 0:
                    raise ModelError(f"{self.name}: Input {n} has predecessors")
            elif layer.is_merge:
                if indeg < 2:
                    raise ModelError(
                        f"{self.name}: merge layer {n} has {indeg} input(s); needs >= 2"
                    )
            elif indeg != 1:
                raise ModelError(
                    f"{self.name}: layer {n} has {indeg} inputs; non-merge layers take 1"
                )

    def _infer(self) -> None:
        self._shape: Dict[str, Shape] = {}
        self._flops: Dict[str, int] = {}
        self._params: Dict[str, int] = {}
        self._out_bytes: Dict[str, int] = {}
        for n in self._topo:
            layer = self._layers[n]
            preds = list(self._pred[n])
            if isinstance(layer, Input):
                out = layer.output_shape(())
                fl = 0
                pr = 0
            elif layer.is_merge:
                in_shapes = [self._shape[p] for p in preds]
                out = layer.merge_output_shape(in_shapes)  # type: ignore[attr-defined]
                fl = layer.merge_flops(in_shapes)  # type: ignore[attr-defined]
                pr = 0
            else:
                in_shape = self._shape[preds[0]]
                out = layer.output_shape(in_shape)
                fl = layer.flops(in_shape)
                pr = layer_params(layer, in_shape)
            self._shape[n] = tuple(out)
            self._flops[n] = int(fl)
            self._params[n] = int(pr)
            self._out_bytes[n] = shape_bytes(tuple(out))
        self._total_flops = sum(self._flops.values())
        self._total_params = sum(self._params.values())

    def _compute_cut_points(self) -> List[CutPoint]:
        idom = _immediate_dominators(self._topo, self._pred)
        # Walk the dominator chain of the sink up to the source: these are all
        # nodes through which every input->output path passes.
        chain = [self._sink]
        while chain[-1] != self._source:
            chain.append(idom[chain[-1]])
        chain.reverse()  # source .. sink in dominance (= topological) order
        # Heads are topological prefixes: every node is reached from the
        # source and reaches the sink, so a node that does not descend from a
        # sink dominator is one of its ancestors.
        prefix_flops = dict(
            zip(self._topo, accumulate(self._flops[n] for n in self._topo))
        )
        cuts: List[CutPoint] = []
        for idx, node in enumerate(chain):
            head_flops = prefix_flops[node]
            cuts.append(
                CutPoint(
                    name=node,
                    index=idx,
                    head_flops=int(head_flops),
                    boundary_bytes=self._out_bytes[node],
                    depth_fraction=(
                        head_flops / self._total_flops if self._total_flops else 0.0
                    ),
                )
            )
        return cuts

    # -- public accessors ------------------------------------------------------

    @property
    def input_shape(self) -> Shape:
        return self._shape[self._source]

    @property
    def input_bytes(self) -> int:
        """Bytes of the raw input tensor (what device->edge full offload ships)."""
        return self._out_bytes[self._source]

    @property
    def total_flops(self) -> int:
        return self._total_flops

    @property
    def total_params(self) -> int:
        return self._total_params

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    @property
    def topological_order(self) -> List[str]:
        return list(self._topo)

    @property
    def cut_points(self) -> List[CutPoint]:
        """All valid cut points, topologically ordered (input first, sink last)."""
        return list(self._cuts)

    def layer(self, node: str) -> Layer:
        return self._layers[node]

    def output_shape_of(self, node: str) -> Shape:
        return self._shape[node]

    def flops_of(self, node: str) -> int:
        return self._flops[node]

    def output_bytes_of(self, node: str) -> int:
        return self._out_bytes[node]

    def cut_by_name(self, name: str) -> CutPoint:
        for c in self._cuts:
            if c.name == name:
                return c
        raise ModelError(f"{self.name}: {name!r} is not a valid cut point")

    def summary(self) -> str:
        """Human-readable per-layer table (name, type, out shape, MFLOPs, KiB)."""
        lines = [
            f"Model {self.name}: {self.num_layers} layers, "
            f"{self._total_flops / 1e9:.2f} GFLOPs, "
            f"{self._total_params / 1e6:.2f} M params, "
            f"{len(self._cuts)} cut points"
        ]
        header = f"{'layer':<24}{'type':<18}{'out shape':<18}{'MFLOPs':>10}{'out KiB':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for n in self._topo:
            layer = self.layer(n)
            lines.append(
                f"{n:<24}{type(layer).__name__:<18}"
                f"{str(self._shape[n]):<18}"
                f"{self._flops[n] / 1e6:>10.2f}"
                f"{self._out_bytes[n] / 1024:>10.1f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ModelGraph({self.name!r}, layers={self.num_layers}, "
            f"gflops={self._total_flops / 1e9:.2f})"
        )
