"""Immutable network graphs and their forward evaluation.

A NetworkGraph is an ordered tuple of named nodes; each node applies one
LayerSpec to the outputs of earlier nodes (or to the network input, named
"input"). Construction order is evaluation order, so the graph is acyclic
by design. The last node is the network output.

`forward` is the one evaluation loop. It frees each intermediate right
after its last consumer has run, and drops an output that no node reads
as soon as the optional per-node hook has seen it, so only the tensors
later nodes still need are alive at any step. `summary` evaluates nothing:
it formats the output shapes a hooked forward pass recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from glioseg.netkit.layers import (
    LAYER_KINDS,
    LayerSpec,
    activation_forward,
    add_skip_forward,
    attention_gate_forward,
    concat_skip_forward,
    conv3d_forward,
    downsample_forward,
    normalization_forward,
    require_tensor5,
    transposed_conv3d_forward,
    upsample_forward,
)
from glioseg.volume import check_value

INPUT_NAME = "input"


@dataclass(frozen=True)
class Node:
    name: str
    layer: LayerSpec
    inputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        expected = LAYER_KINDS[self.layer.kind]
        if len(self.inputs) != expected:
            raise ValueError(
                f"{self.layer.kind} node {self.name!r} needs {expected} inputs, got {len(self.inputs)}"
            )


@dataclass(frozen=True)
class NetworkGraph:
    """The channel counts are read off the nodes: the graph takes what the
    nodes reading "input" take and emits what the last node emits."""

    name: str
    nodes: tuple[Node, ...]
    spatial_divisor: int = 1  # every spatial dim must divide by this

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError(f"graph {self.name!r} has no nodes")
        divisor = check_value("spatial_divisor", self.spatial_divisor, Annotated[int, "[1, inf)"])
        object.__setattr__(self, "spatial_divisor", divisor)
        seen = {INPUT_NAME}
        for node in self.nodes:
            if node.name in seen:
                raise ValueError(f"duplicate node name {node.name!r}")
            for ref in node.inputs:
                if ref not in seen:
                    raise ValueError(f"node {node.name!r} references unknown input {ref!r}")
            seen.add(node.name)
        readers = {n.layer.in_channels for n in self.nodes if INPUT_NAME in n.inputs}
        if len(readers) != 1 or min(readers) < 1:
            raise ValueError(
                f"nodes reading {INPUT_NAME!r} take {sorted(readers)} channels; need one count >= 1"
            )

    @property
    def input_channels(self) -> int:
        return self.nodes[0].layer.in_channels  # the first node can read nothing but "input"

    @property
    def num_classes(self) -> int:
        return self.nodes[-1].layer.out_channels

    def node(self, name: str) -> Node:
        for candidate in self.nodes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def _apply(layer: LayerSpec, operands: list[np.ndarray]) -> np.ndarray:
    kind = layer.kind
    if kind == "conv3d":
        return conv3d_forward(operands[0], layer)
    if kind == "transposed_conv3d":
        return transposed_conv3d_forward(operands[0], layer)
    if kind == "downsample":
        return downsample_forward(operands[0], layer)
    if kind == "upsample":
        return upsample_forward(operands[0], layer)
    if kind == "activation":
        return activation_forward(operands[0], layer)
    if kind == "normalization":
        return normalization_forward(operands[0], layer)
    if kind == "add_skip":
        return add_skip_forward(operands[0], operands[1])
    if kind == "concat_skip":
        return concat_skip_forward(operands[0], operands[1])
    return attention_gate_forward(operands[0], operands[1], layer)


def forward(net: NetworkGraph, x: np.ndarray, on_node=None) -> np.ndarray:
    """Evaluate the graph on a (batch, channels, D, H, W) tensor.

    on_node(node, output), if given, is called once per node in graph order,
    right after the node is evaluated.
    """
    x = require_tensor5(np.asarray(x, dtype=np.float64), net.input_channels)
    if not np.all(np.isfinite(x)):  # checked once here, not at each layer boundary
        raise ValueError("input contains non-finite values")
    for axis, size in zip("DHW", x.shape[2:]):
        if size % net.spatial_divisor:
            raise ValueError(
                f"{axis}={size} not divisible by {net.spatial_divisor} required by {net.name}"
            )
    last_use = {ref: step for step, node in enumerate(net.nodes) for ref in node.inputs}
    final = net.nodes[-1].name
    last_use[final] = len(net.nodes)  # the network output outlives the loop
    values = {INPUT_NAME: x}
    for step, node in enumerate(net.nodes):
        values[node.name] = _apply(node.layer, [values[ref] for ref in node.inputs])
        if on_node is not None:
            on_node(node, values[node.name])
        for ref in {*node.inputs, node.name}:
            if last_use.get(ref, step) == step:  # no later node reads it
                del values[ref]
    return values[final]


def param_count(net: NetworkGraph) -> int:
    """Total learnable scalars: weights plus biases over all layers."""
    return sum(node.layer.num_parameters for node in net.nodes)


def summary(net: NetworkGraph, shapes: dict[str, tuple[int, ...]]) -> str:
    """Layer table from a {node name: output shape} map, e.g. one recorded
    by a forward on_node hook."""
    rows = [("node", "kind", "output shape", "params")]
    for node in net.nodes:
        shape = "x".join(str(s) for s in shapes[node.name])
        rows.append((node.name, node.layer.kind, shape, str(node.layer.num_parameters)))
    rows.append(("total", net.name, "", str(param_count(net))))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
