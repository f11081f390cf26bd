"""Graph builders for the three segmentation architectures.

All three map a 4-modality volume to num_classes logit channels at the
input resolution. Weights are initialized from a seeded generator,
uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], so builds are exactly
reproducible.

unet3d: concatenative skips, 3x3x3 kernels, max-pool down, transposed-
conv up. Each encoder stage doubles its channel count in its second
convolution (base -> 2*base at the top, widths doubling per level), the
classic volumetric layout; at the defaults it carries more parameters
than the plain vnet.

vnet: residual stages with 5x5x5 kernels, strided-conv down, transposed-
conv up, and additive (not concatenative) skip joins; the first stage
carries 32 feature maps.

msavnet: the vnet layout plus an additive attention gate on every skip
edge and a central convolutional block between encoder and decoder.
"""

from __future__ import annotations

from typing import Annotated

import numpy as np

from glioseg.netkit.graph import INPUT_NAME, NetworkGraph, Node
from glioseg.netkit.layers import PRELU_INITIAL_SLOPE, LayerSpec, _triple
from glioseg.volume import check_value

VNET_BASE_FEATURES = 32
VNET_STAGE_KERNEL = (5, 5, 5)
VNET_LEVELS = 4

MODALITY_CHANNELS = 4  # t1, t1 post-contrast, t2, flair


class _GraphAssembler:
    """Accumulates nodes; every parameter draw comes from one generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.nodes: list[Node] = []

    def _uniform(self, fan_in: int, shape) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return self.rng.uniform(-bound, bound, size=shape)

    def _add(self, name, inputs, kind, in_ch, out_ch=None, **params) -> str:
        """Append one node of ``kind``; out_ch defaults to in_ch."""
        out_ch = in_ch if out_ch is None else out_ch
        layer = LayerSpec(kind, in_channels=in_ch, out_channels=out_ch, **params)
        self.nodes.append(Node(name, layer, inputs))
        return name

    def conv(self, name, src, in_ch, out_ch, kernel, stride=1, padding=0) -> str:
        kernel = _triple(kernel)
        fan_in = in_ch * int(np.prod(kernel))
        return self._add(
            name, (src,), "conv3d", in_ch, out_ch, kernel=kernel, stride=stride, padding=padding,
            weights=self._uniform(fan_in, (out_ch, in_ch, *kernel)),
            bias=self._uniform(fan_in, (out_ch,)),
        )

    def tconv(self, name, src, in_ch, out_ch, kernel=2, stride=2) -> str:
        kernel = _triple(kernel)
        fan_in = in_ch * int(np.prod(kernel))
        return self._add(
            name, (src,), "transposed_conv3d", in_ch, out_ch, kernel=kernel, stride=stride,
            weights=self._uniform(fan_in, (in_ch, out_ch, *kernel)),
            bias=self._uniform(fan_in, (out_ch,)),
        )

    def norm(self, name, src, ch) -> str:
        return self._add(name, (src,), "normalization", ch)

    def relu(self, name, src, ch) -> str:
        return self._add(name, (src,), "activation", ch, activation="relu")

    def prelu(self, name, src, ch) -> str:
        slope = np.array([PRELU_INITIAL_SLOPE])
        return self._add(name, (src,), "activation", ch, activation="prelu", weights=slope)

    def pool(self, name, src, ch) -> str:
        return self._add(name, (src,), "downsample", ch, kernel=2, stride=2)

    def add(self, name, a, b, ch) -> str:
        return self._add(name, (a, b), "add_skip", ch)

    def concat(self, name, a, b, ch_a, ch_b) -> str:
        return self._add(name, (a, b), "concat_skip", ch_a + ch_b)

    def attention(self, name, skip, gate, skip_ch, gate_ch) -> str:
        inter = max(skip_ch // 2, 1)
        return self._add(
            name, (skip, gate), "attention_gate", skip_ch,
            weights=self._uniform(skip_ch, (inter, skip_ch, 1, 1, 1)),
            gate_weights=self._uniform(gate_ch, (inter, gate_ch, 1, 1, 1)),
            gate_bias=self._uniform(gate_ch, (inter,)),
            psi_weights=self._uniform(inter, (1, inter, 1, 1, 1)),
            psi_bias=self._uniform(inter, (1,)),
        )

    def conv_unit(self, prefix, src, in_ch, out_ch, kernel, act, stride=1, padding=0) -> str:
        """conv -> norm -> act (self.relu or self.prelu), named <prefix>_conv/_norm/_act."""
        x = self.conv(f"{prefix}_conv", src, in_ch, out_ch, kernel, stride, padding)
        x = self.norm(f"{prefix}_norm", x, out_ch)
        return act(f"{prefix}_act", x, out_ch)

    def residual_block(self, prefix, src, ch) -> str:
        """conv(5x5x5) -> norm -> prelu, plus the identity: the vnet unit."""
        x = self.conv_unit(prefix, src, ch, ch, VNET_STAGE_KERNEL, self.prelu, padding=2)
        return self.add(f"{prefix}_res", x, src, ch)


def build_unet3d(
    base_features: int = 32,
    num_classes: int = 4,
    depth: int = 4,
    seed: int = 0,
) -> NetworkGraph:
    """Encoder-decoder with concatenative skips and 3x3x3 kernels.

    Stage i emits base_features * 2**(i+1) channels: the first conv of a
    stage maps into half that width and the second conv doubles it. The
    up path halves channels through the transposed conv so each concat
    joins equal widths (doubling the count across the join), then two
    convs reduce back to the skip width.
    """
    depth = check_value("depth", depth, Annotated[int, "[2, inf)"])
    base_features = check_value("base_features", base_features, Annotated[int, "[1, inf)"])
    num_classes = check_value("num_classes", num_classes, Annotated[int, "[1, inf)"])
    g = _GraphAssembler(np.random.default_rng(seed))
    stage_out = [base_features * 2 ** (i + 1) for i in range(depth)]

    x = INPUT_NAME
    skips = []
    for level, width in enumerate(stage_out):
        in_ch = MODALITY_CHANNELS if level == 0 else stage_out[level - 1]
        x = g.conv_unit(f"enc{level}a", x, in_ch, width // 2, 3, g.relu, padding=1)
        x = g.conv_unit(f"enc{level}b", x, width // 2, width, 3, g.relu, padding=1)
        skips.append(x)
        if level < depth - 1:
            x = g.pool(f"down{level}", x, width)

    for level in range(depth - 2, -1, -1):
        width = stage_out[level]
        x = g.tconv(f"up{level}", x, stage_out[level + 1], width)
        x = g.concat(f"join{level}", x, skips[level], width, width)
        x = g.conv_unit(f"dec{level}a", x, 2 * width, width, 3, g.relu, padding=1)
        x = g.conv_unit(f"dec{level}b", x, width, width, 3, g.relu, padding=1)

    g.conv("head", x, stage_out[0], num_classes, 1)
    return NetworkGraph("unet3d", tuple(g.nodes), spatial_divisor=2 ** (depth - 1))


def _vnet_encoder(g: _GraphAssembler) -> tuple[str, list[str], list[int]]:
    widths = [VNET_BASE_FEATURES * 2**i for i in range(VNET_LEVELS)]
    x = g.conv_unit(
        "stem", INPUT_NAME, MODALITY_CHANNELS, widths[0], VNET_STAGE_KERNEL, g.prelu, padding=2
    )
    skips = []
    for level in range(VNET_LEVELS - 1):
        width = widths[level]
        x = g.residual_block(f"enc{level}", x, width)
        skips.append(x)
        x = g.conv_unit(f"down{level}", x, width, widths[level + 1], 2, g.prelu, stride=2)
    x = g.residual_block("bottom", x, widths[-1])
    return x, skips, widths


def _vnet_decoder(g, x, skips, widths, num_classes, gated: bool) -> None:
    for level in range(VNET_LEVELS - 2, -1, -1):
        width = widths[level]
        x = g.tconv(f"up{level}", x, widths[level + 1], width)
        x = g.norm(f"up{level}_norm", x, width)
        x = g.prelu(f"up{level}_act", x, width)
        skip = skips[level]
        if gated:
            skip = g.attention(f"gate{level}", skip, x, width, width)
        x = g.add(f"join{level}", x, skip, width)
        x = g.residual_block(f"dec{level}", x, width)
    g.conv("head", x, widths[0], num_classes, 1)


def build_vnet(num_classes: int = 4, seed: int = 0) -> NetworkGraph:
    """Residual 5x5x5 stages with additive skip joins, 32 maps first."""
    num_classes = check_value("num_classes", num_classes, Annotated[int, "[1, inf)"])
    g = _GraphAssembler(np.random.default_rng(seed))
    x, skips, widths = _vnet_encoder(g)
    _vnet_decoder(g, x, skips, widths, num_classes, gated=False)
    return NetworkGraph("vnet", tuple(g.nodes), spatial_divisor=2 ** (VNET_LEVELS - 1))


def build_msavnet(num_classes: int = 4, seed: int = 0) -> NetworkGraph:
    """vnet plus attention-gated skips and a central refinement block."""
    num_classes = check_value("num_classes", num_classes, Annotated[int, "[1, inf)"])
    g = _GraphAssembler(np.random.default_rng(seed))
    x, skips, widths = _vnet_encoder(g)
    deep = widths[-1]
    for tag in ("central_a", "central_b"):
        x = g.conv_unit(tag, x, deep, deep, 3, g.prelu, padding=1)
    _vnet_decoder(g, x, skips, widths, num_classes, gated=True)
    return NetworkGraph("msavnet", tuple(g.nodes), spatial_divisor=2 ** (VNET_LEVELS - 1))
