"""Forward-only network layers on (batch, channels, depth, height, width).

Tensors are plain float64 ndarrays in that fixed axis order. "Convolution"
is cross-correlation (no kernel flip). conv3d lowers each (sample,
input-depth plane) to a stacked-offset matrix product: the plane is copied
into a sheet whose zero border is the height and width padding, the
sheet's 2-D windows are copied into a column buffer of in*kh*kw rows by
oh*ow columns, multiplied by several kernel depth offsets' weights stacked
as rows, and each offset's partial plane is added into the output plane it
belongs to. The extra memory is one padded plane plus the columns, the
stacked weights and the partial sums: three column planes at most whenever
a single depth offset's weights and partial plane fit in one.
transposed_conv3d scatters one channel matmul per kernel offset into the
full output and adds the bias in place.

Weight layouts follow the usual deep-learning conventions:
conv3d (out_channels, in_channels, kd, kh, kw) and transposed_conv3d
(in_channels, out_channels, kd, kh, kw). With a shared weight array the
two are exact adjoints: <conv3d(x), y> == <x, transposed_conv3d(y)> for
zero bias and matching stride/padding.

A LayerSpec holds exactly the parameter arrays its kind takes: conv3d and
transposed_conv3d their weights and an optional bias, a prelu activation
its one-element slope, an attention gate its two 1x1x1 projections, its
gate bias and its one-channel head, and every other kind none. Each array
is stored as contiguous float64 and must have the shape its kind declares;
a missing array (other than a bias) or one the kind does not take is
refused, so ``num_parameters`` counts nothing a forward pass does not read.
Channel counts are integers >= 0, and only conv3d and transposed_conv3d
may give out_channels another value than in_channels. Likewise a kernel,
stride, padding or activation other than the default is refused on a kind
that does not read it. Instance normalization adds the constant
INSTANCE_NORM_EPSILON to each variance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from glioseg.volume import check_value

# each layer kind -> the number of tensors it consumes
LAYER_KINDS = {
    "conv3d": 1,
    "transposed_conv3d": 1,
    "downsample": 1,
    "upsample": 1,
    "activation": 1,
    "normalization": 1,
    "add_skip": 2,
    "concat_skip": 2,
    "attention_gate": 2,
}

ACTIVATIONS = ("relu", "prelu")

# the kinds whose out_channels may differ from in_channels; every other kind keeps them
_CHANNEL_MAPPING_KINDS = ("conv3d", "transposed_conv3d")

# the settings besides channels and arrays that each kind reads; any other keeps its default
_SETTINGS_READ = {
    "conv3d": ("kernel", "stride", "padding"),
    "transposed_conv3d": ("kernel", "stride", "padding"),
    "downsample": ("kernel", "stride"),
    "upsample": ("kernel", "stride"),
    "activation": ("activation",),
}

# LayerSpec's optional parameter arrays
_PARAMETER_FIELDS = ("weights", "bias", "gate_weights", "gate_bias", "psi_weights", "psi_bias")

PRELU_INITIAL_SLOPE = 0.25

INSTANCE_NORM_EPSILON = 1e-5  # added to each variance before the square root


def require_tensor5(x: np.ndarray, channels: int | None = None, what: str = "input") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 5:
        raise ValueError(f"{what} must be 5-D (batch, channels, depth, height, width), got {x.shape}")
    if any(s < 1 for s in x.shape):
        raise ValueError(f"{what} has a non-positive dimension: {x.shape}")
    if channels is not None and x.shape[1] != channels:
        raise ValueError(f"{what} has {x.shape[1]} channels, layer expects {channels}")
    return x


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _triple(value, name: str = "kernel") -> tuple[int, int, int]:
    """One integer for all three axes, or three integers; bools and floats are refused."""
    if _is_integer(value):
        value = (value, value, value)
    parts = tuple(value) if np.iterable(value) else ()
    if len(parts) != 3 or not all(_is_integer(v) for v in parts):
        raise ValueError(f"{name} must be an integer or three integers, got {value!r}")
    return tuple(int(v) for v in parts)


def _shape_text(shape: tuple) -> str:
    """A declared shape as text; a dimension the arrays could not give shows its name."""
    return str(shape).replace("'", "")


@dataclass(frozen=True)
class LayerSpec:
    """One layer's kind, geometry, and parameter arrays."""

    kind: str
    kernel: tuple[int, int, int] = (1, 1, 1)
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)
    in_channels: int = 0
    out_channels: int = 0
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    activation: str = ""  # for kind == "activation"
    # attention_gate extras: gate branch and the 1-channel gate head
    gate_weights: np.ndarray | None = None
    gate_bias: np.ndarray | None = None
    psi_weights: np.ndarray | None = None
    psi_bias: np.ndarray | None = None

    def __post_init__(self):
        check_value("kind", self.kind, Literal[tuple(LAYER_KINDS)])
        for name in ("kernel", "stride", "padding"):
            object.__setattr__(self, name, _triple(getattr(self, name), name))
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise ValueError(f"kernel and stride must be >= 1, got {self.kernel}, {self.stride}")
        if any(p < 0 for p in self.padding):
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        for name in ("in_channels", "out_channels"):
            channels = check_value(name, getattr(self, name), Annotated[int, "[0, inf)"])
            object.__setattr__(self, name, channels)
        if self.kind not in _CHANNEL_MAPPING_KINDS and self.out_channels != self.in_channels:
            raise ValueError(
                f"{self.kind} out_channels must equal in_channels {self.in_channels}, "
                f"got {self.out_channels}"
            )
        for name in ("kernel", "stride", "padding", "activation"):
            unread = name not in _SETTINGS_READ.get(self.kind, ())
            if unread and getattr(self, name) != getattr(LayerSpec, name):
                raise ValueError(f"{self.kind} takes no {name}")
        if self.kind in ("downsample", "upsample") and self.kernel != self.stride:
            raise ValueError(f"{self.kind} kernel {self.kernel} must equal stride {self.stride}")
        if self.kind == "activation":
            check_value("activation", self.activation, Literal[ACTIVATIONS])
        declared = self._parameter_shapes()
        for name in _PARAMETER_FIELDS:
            value, shape = getattr(self, name), declared.get(name)
            if value is None:
                if shape is not None and name != "bias":
                    raise ValueError(f"{self.kind} needs {name} of shape {_shape_text(shape)}")
                continue
            value = np.ascontiguousarray(value, dtype=np.float64)
            object.__setattr__(self, name, value)
            if shape is None:
                raise ValueError(f"{self.kind} takes no {name}")
            if value.shape != shape:
                raise ValueError(
                    f"{self.kind} {name} must have shape {_shape_text(shape)}, got {value.shape}"
                )

    def _parameter_shapes(self) -> dict[str, tuple]:
        """The parameter arrays this layer's kind takes: {field: shape}."""
        i_ch, o_ch = self.in_channels, self.out_channels
        if self.kind == "conv3d":
            return {"weights": (o_ch, i_ch, *self.kernel), "bias": (o_ch,)}
        if self.kind == "transposed_conv3d":
            return {"weights": (i_ch, o_ch, *self.kernel), "bias": (o_ch,)}
        if self.kind == "activation" and self.activation == "prelu":
            return {"weights": (1,)}  # the slope
        if self.kind == "attention_gate":
            # the hidden width and the gating signal's channels are read off the arrays
            w, g = np.shape(self.weights), np.shape(self.gate_weights)
            inter = w[0] if len(w) > 0 else "inter"
            gate_in = g[1] if len(g) > 1 else "gate_in"
            return {
                "weights": (inter, i_ch, 1, 1, 1),
                "gate_weights": (inter, gate_in, 1, 1, 1),
                "gate_bias": (inter,),
                "psi_weights": (1, inter, 1, 1, 1),
                "psi_bias": (1,),
            }
        return {}

    @property
    def num_parameters(self) -> int:
        total = 0
        for name in _PARAMETER_FIELDS:
            value = getattr(self, name)
            if value is not None:
                total += value.size
        return total


def conv3d_forward(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Strided cross-correlation; out axis = floor((in + 2p - k)/s) + 1.

    Lowered per input depth plane q (MEC, Cho & Brand 2017; kn2row,
    Vasudevan et al. 2017): q is copied into one sheet whose zero border
    pads it in height and width, the sheet's 2-D windows are copied into
    one column buffer of in*kh*kw rows by oh*ow, and one matmul multiplies
    it by several depth offsets' weights stacked offset-major as rows.
    Offset a adds its partial plane into output plane (q + pad_d - a) / sd
    wherever that is an integer in range. The output starts as the bias;
    depth-padding planes are zeros and are never visited. The offsets
    stacked together share a residue mod sd, and at most ``group`` =
    max(1, min(kd, oh*ow // out, in*kh*kw // out)) are stacked, so the
    stacked weights and the partial sums stay within one column plane
    whenever a single offset's do. A plane is copied once per group of
    offsets, so once when all kd offsets fit in one group.
    """
    x = require_tensor5(x, layer.in_channels)
    kd, kh, kw = layer.kernel
    sd, sh, sw = layer.stride
    pd, ph, pw = layer.padding
    batch, i_ch, depth, height, width = x.shape
    hp, wp = height + 2 * ph, width + 2 * pw
    if depth + 2 * pd < kd or hp < kh or wp < kw:
        raise ValueError(
            f"kernel {layer.kernel} exceeds padded input {(depth + 2 * pd, hp, wp)}"
        )
    od = (depth + 2 * pd - kd) // sd + 1
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    o_ch, rows, plane = layer.out_channels, i_ch * kh * kw, oh * ow
    # one input depth plane at a time, in a sheet whose zero border is the padding
    sheet = np.zeros((i_ch, hp, wp))
    interior = sheet[:, ph : ph + height, pw : pw + width]
    # (in, kh, kw, oh, ow): the sheet's 2-D windows, a view
    windows = sliding_window_view(sheet, (kh, kw), axis=(1, 2))[:, ::sh, ::sw].transpose(
        0, 3, 4, 1, 2
    )
    cols = np.empty(windows.shape)
    cols_flat = cols.reshape(rows, plane)
    out = np.empty((batch, o_ch, od, plane))
    out[...] = 0.0 if layer.bias is None else layer.bias[:, None, None]
    group = max(1, min(kd, plane // o_ch, rows // o_ch))
    stack = np.empty((group, o_ch, i_ch, kh, kw))
    stack_flat = stack.reshape(group * o_ch, rows)
    part = np.empty((group * o_ch, plane))
    for residue in range(min(sd, kd)):
        offsets = range(residue, kd, sd)
        for c in range(0, len(offsets), group):
            first, n = offsets[c], min(group, len(offsets) - c)
            # row block j holds depth offset first + j*sd, which meets input
            # plane q in output plane top - j
            np.copyto(
                stack[:n],
                layer.weights[:, :, first : first + n * sd : sd].transpose(2, 0, 1, 3, 4),
            )
            for q in range((first - pd) % sd, depth, sd):
                top = (q + pd - first) // sd
                lo, hi = max(0, top - od + 1), min(n, top + 1)
                if lo >= hi:
                    continue
                sums = part[: (hi - lo) * o_ch]
                for i in range(batch):
                    np.copyto(interior, x[i, :, q])
                    np.copyto(cols, windows)
                    np.matmul(stack_flat[lo * o_ch : hi * o_ch], cols_flat, out=sums)
                    # row by row: a strided 2-D add would go through numpy's buffers
                    planes = range(top - lo, top - hi, -1)
                    for z, terms in zip(planes, sums.reshape(-1, o_ch, plane)):
                        for acc, term in zip(out[i, :, z], terms):
                            acc += term
    return out.reshape(batch, o_ch, od, oh, ow)


def transposed_conv3d_forward(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Adjoint of conv3d_forward; out axis = (in - 1)*s - 2p + k."""
    x = require_tensor5(x, layer.in_channels)
    kd, kh, kw = layer.kernel
    sd, sh, sw = layer.stride
    pd, ph, pw = layer.padding
    _, _, d, h, w = x.shape
    batch, o_ch, i_ch = x.shape[0], layer.out_channels, layer.in_channels
    full_shape = ((d - 1) * sd + kd, (h - 1) * sh + kh, (w - 1) * sw + kw)
    if any(n - 2 * p < 1 for n, p in zip(full_shape, layer.padding)):
        raise ValueError(f"padding {layer.padding} consumes the whole output")
    full = np.zeros((batch, o_ch, *full_shape))
    # w_flat[k] is weights[:, :, a, b, c].T, contiguous for the BLAS path
    w_flat = np.ascontiguousarray(layer.weights.reshape(i_ch, o_ch, -1).transpose(2, 1, 0))
    x_flat = np.ascontiguousarray(x).reshape(batch, i_ch, -1)
    tmp = np.empty((o_ch, d * h * w))
    offset = 0
    for a in range(kd):
        for b in range(kh):
            for c in range(kw):
                target = full[
                    :, :,
                    a : a + (d - 1) * sd + 1 : sd,
                    b : b + (h - 1) * sh + 1 : sh,
                    c : c + (w - 1) * sw + 1 : sw,
                ]
                for i in range(batch):
                    np.matmul(w_flat[offset], x_flat[i], out=tmp)
                    target[i] += tmp.reshape(o_ch, d, h, w)
                offset += 1
    if layer.padding != (0, 0, 0):
        full = np.ascontiguousarray(full[
            :, :,
            pd : full.shape[2] - pd,
            ph : full.shape[3] - ph,
            pw : full.shape[4] - pw,
        ])
    if layer.bias is not None:
        full += layer.bias[None, :, None, None, None]
    return full


def downsample_forward(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Max pooling over non-overlapping stride-sized windows."""
    x = require_tensor5(x)
    sd, sh, sw = layer.stride
    b, c, d, h, w = x.shape
    if d % sd or h % sh or w % sw:
        raise ValueError(f"spatial dims {(d, h, w)} not divisible by pool {layer.stride}")
    view = x.reshape(b, c, d // sd, sd, h // sh, sh, w // sw, sw)
    return view.max(axis=(3, 5, 7))


def upsample_forward(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Nearest-neighbor upsampling by the stride factor."""
    x = require_tensor5(x)
    sd, sh, sw = layer.stride
    return x.repeat(sd, axis=2).repeat(sh, axis=3).repeat(sw, axis=4)


def activation_forward(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    x = require_tensor5(x)
    if layer.activation == "relu":
        return np.maximum(x, 0.0)
    slope = layer.weights[0]  # prelu
    return np.where(x > 0.0, x, slope * x)


def normalization_forward(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Instance normalization: zero mean, unit variance per (batch, channel)."""
    x = require_tensor5(x)
    mean = x.mean(axis=(2, 3, 4), keepdims=True)
    var = x.var(axis=(2, 3, 4), keepdims=True)
    return (x - mean) / np.sqrt(var + INSTANCE_NORM_EPSILON)


def add_skip_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = require_tensor5(a)
    b = require_tensor5(b)
    if a.shape != b.shape:
        raise ValueError(f"additive skip requires equal shapes, got {a.shape} and {b.shape}")
    return a + b


def concat_skip_forward(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = require_tensor5(a)
    b = require_tensor5(b)
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ValueError(
            f"concatenation requires equal batch and spatial shapes, got {a.shape} and {b.shape}"
        )
    return np.concatenate([a, b], axis=1)


def attention_gate_forward(x: np.ndarray, g: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Additive attention gate: x scaled by a per-voxel gate in [0, 1].

    a = relu(Wx·x + Wg·g + b), gate = sigmoid(psi·a + b_psi); the gate has
    one channel and broadcasts over x's channels.
    """
    x = require_tensor5(x, layer.in_channels, "skip features")
    g = require_tensor5(g, layer.gate_weights.shape[1], "gating signal")
    if x.shape[2:] != g.shape[2:] or x.shape[0] != g.shape[0]:
        raise ValueError(f"gate operands must share batch and spatial shape: {x.shape} vs {g.shape}")
    mixed = np.einsum("oi,bidhw->bodhw", layer.weights[:, :, 0, 0, 0], x)
    mixed += np.einsum("oi,bidhw->bodhw", layer.gate_weights[:, :, 0, 0, 0], g)
    mixed += layer.gate_bias[None, :, None, None, None]
    hidden = np.maximum(mixed, 0.0)
    logit = np.einsum("oi,bidhw->bodhw", layer.psi_weights[:, :, 0, 0, 0], hidden)
    gate = expit(logit + layer.psi_bias[None, :, None, None, None])
    return x * gate
