"""DNN model substrate: layer algebra, model DAGs, zoo, and multi-exit transforms.

This package provides everything the optimizer needs to know about a DNN
*without running it*: per-layer FLOP counts, parameter counts, activation
tensor sizes (what crosses the network if we cut there), valid cut points of
the DAG, and — after the multi-exit transform — candidate early exits with
parametric accuracy and exit-rate models.

Public surface:

- :class:`~repro.models.layers.Layer` and concrete layer types
- :class:`~repro.models.graph.ModelGraph` — validated DAG with shape/FLOPs
  inference and cut-point enumeration
- :mod:`repro.models.zoo` — AlexNet, VGG, ResNet, MobileNet, Inception builders
- :class:`~repro.models.multiexit.MultiExitModel` — backbone + side exits
- :class:`~repro.models.accuracy.AccuracyModel` /
  :func:`~repro.models.exits.exit_probabilities` — accuracy & exit-rate
  semantics
"""

from repro.models.accuracy import AccuracyModel
from repro.models.exits import exit_probabilities
from repro.models.graph import ModelGraph
from repro.models.layers import (
    Activation,
    Add,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Input,
    Layer,
    LocalResponseNorm,
    Pool,
    Softmax,
)
from repro.models.multiexit import ExitBranch, MultiExitModel, insert_exits

__all__ = [
    "AccuracyModel",
    "Activation",
    "Add",
    "BatchNorm",
    "Concat",
    "Conv2D",
    "Dense",
    "DepthwiseConv2D",
    "Dropout",
    "ExitBranch",
    "Flatten",
    "GlobalAvgPool",
    "Input",
    "Layer",
    "LocalResponseNorm",
    "ModelGraph",
    "MultiExitModel",
    "Pool",
    "Softmax",
    "exit_probabilities",
    "insert_exits",
]
