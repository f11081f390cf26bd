"""Forward-only network layers on (batch, channels, depth, height, width).

Tensors are plain float64 ndarrays in that fixed axis order. "Convolution"
is cross-correlation (no kernel flip). conv3d lowers each (sample,
input-depth plane) to a stacked-offset matrix product: the plane's 2-D
windows are copied into a column buffer of in*kh*kw rows by oh*ow columns,
multiplied by several kernel depth offsets' weights stacked as rows, and
each offset's partial plane is added into the output plane it belongs to.
The extra memory is the input padded in height and width plus the
columns, the stacked weights and the partial sums: three column planes at
most whenever a single depth offset's weights and partial plane fit in one.
transposed_conv3d scatters one channel matmul per kernel offset into the
full output and adds the bias in place.

Weight layouts follow the usual deep-learning conventions:
conv3d (out_channels, in_channels, kd, kh, kw) and transposed_conv3d
(in_channels, out_channels, kd, kh, kw). With a shared weight array the
two are exact adjoints: <conv3d(x), y> == <x, transposed_conv3d(y)> for
zero bias and matching stride/padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

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

# LayerSpec's optional parameter arrays
_PARAMETER_FIELDS = ("weights", "bias", "gate_weights", "gate_bias", "psi_weights", "psi_bias")

PRELU_INITIAL_SLOPE = 0.25


def require_tensor5(x: np.ndarray, channels: int | None = None, what: str = "input") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 5:
        raise ValueError(f"{what} must be 5-D (batch, channels, depth, height, width), got {x.shape}")
    if any(s < 1 for s in x.shape):
        raise ValueError(f"{what} has a non-positive dimension: {x.shape}")
    if channels is not None and x.shape[1] != channels:
        raise ValueError(f"{what} has {x.shape[1]} channels, layer expects {channels}")
    return x


def _triple(value) -> tuple[int, int, int]:
    if isinstance(value, int):
        value = (value, value, value)
    t = tuple(int(v) for v in value)
    if len(t) != 3:
        raise ValueError(f"expected 3 components, got {value!r}")
    return t


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
    epsilon: float = 1e-5  # for kind == "normalization"
    # attention_gate extras: gate branch and the 1-channel gate head
    gate_weights: np.ndarray | None = None
    gate_bias: np.ndarray | None = None
    psi_weights: np.ndarray | None = None
    psi_bias: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        object.__setattr__(self, "kernel", _triple(self.kernel))
        object.__setattr__(self, "stride", _triple(self.stride))
        object.__setattr__(self, "padding", _triple(self.padding))
        if any(k < 1 for k in self.kernel) or any(s < 1 for s in self.stride):
            raise ValueError(f"kernel and stride must be >= 1, got {self.kernel}, {self.stride}")
        if any(p < 0 for p in self.padding):
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        for name in _PARAMETER_FIELDS:
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.ascontiguousarray(value, dtype=np.float64))
        getattr(self, f"_check_{self.kind}")()

    def _check_conv3d(self):
        expected = (self.out_channels, self.in_channels, *self.kernel)
        if self.weights is None or self.weights.shape != expected:
            raise ValueError(f"conv3d weights must have shape {expected}")
        if self.bias is not None and self.bias.shape != (self.out_channels,):
            raise ValueError(f"conv3d bias must have shape ({self.out_channels},)")

    def _check_transposed_conv3d(self):
        expected = (self.in_channels, self.out_channels, *self.kernel)
        if self.weights is None or self.weights.shape != expected:
            raise ValueError(f"transposed_conv3d weights must have shape {expected}")
        if self.bias is not None and self.bias.shape != (self.out_channels,):
            raise ValueError(f"transposed_conv3d bias must have shape ({self.out_channels},)")

    def _check_downsample(self):
        if self.kernel != self.stride:
            raise ValueError("downsample pools non-overlapping windows: kernel must equal stride")

    def _check_upsample(self):
        if self.kernel != self.stride:
            raise ValueError("upsample repeats voxels: kernel must equal stride")

    def _check_activation(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.activation == "prelu":
            if self.weights is None or self.weights.shape != (1,):
                raise ValueError("prelu stores its slope as a single-element weights array")
        elif self.weights is not None:
            raise ValueError(f"{self.activation} takes no parameters")

    def _check_normalization(self):
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError(
                f"normalization epsilon must be positive and finite, got {self.epsilon}"
            )

    def _check_add_skip(self):
        pass

    def _check_concat_skip(self):
        pass

    def _check_attention_gate(self):
        if self.weights is None or self.weights.ndim != 5 or self.weights.shape[2:] != (1, 1, 1):
            raise ValueError("attention_gate weights must be (inter, in, 1, 1, 1)")
        inter = self.weights.shape[0]
        if self.gate_weights is None or self.gate_weights.shape[0] != inter or self.gate_weights.shape[2:] != (1, 1, 1):
            raise ValueError("attention_gate gate_weights must be (inter, gate_in, 1, 1, 1)")
        if self.gate_bias is None or self.gate_bias.shape != (inter,):
            raise ValueError(f"attention_gate gate_bias must have shape ({inter},)")
        if self.psi_weights is None or self.psi_weights.shape != (1, inter, 1, 1, 1):
            raise ValueError(f"attention_gate psi_weights must have shape (1, {inter}, 1, 1, 1)")
        if self.psi_bias is None or self.psi_bias.shape != (1,):
            raise ValueError("attention_gate psi_bias must have shape (1,)")

    @property
    def num_parameters(self) -> int:
        total = 0
        for name in _PARAMETER_FIELDS:
            value = getattr(self, name)
            if value is not None:
                total += value.size
        return total


def _pad_spatial(x: np.ndarray, padding) -> np.ndarray:
    if padding == (0, 0, 0):
        return x
    pd, ph, pw = padding
    return np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))


def conv3d_forward(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Strided cross-correlation; out axis = floor((in + 2p - k)/s) + 1.

    Lowered per input depth plane q (MEC, Cho & Brand 2017; kn2row,
    Vasudevan et al. 2017): q's 2-D windows, padded in height and width
    only, are copied into one column buffer of in*kh*kw rows by oh*ow, and
    one matmul multiplies it by several depth offsets' weights stacked
    offset-major as rows. Offset a adds its partial plane into output plane
    (q + pad_d - a) / sd wherever that is an integer in range. The output
    starts as the bias; depth-padding planes are zeros and are never
    visited. The offsets stacked together share a residue mod sd, and at
    most ``group`` = max(1, min(kd, oh*ow // out, in*kh*kw // out)) are
    stacked, so the stacked weights and the partial sums stay within one
    column plane whenever a single offset's do. A plane is copied once per
    group of offsets, so once when all kd offsets fit in one group.
    """
    x = require_tensor5(x, layer.in_channels)
    kd, kh, kw = layer.kernel
    sd, sh, sw = layer.stride
    pd, ph, pw = layer.padding
    padded = _pad_spatial(x, (0, ph, pw))
    batch, i_ch, depth, hp, wp = padded.shape
    if depth + 2 * pd < kd or hp < kh or wp < kw:
        raise ValueError(
            f"kernel {layer.kernel} exceeds padded input {(depth + 2 * pd, hp, wp)}"
        )
    od = (depth + 2 * pd - kd) // sd + 1
    oh = (hp - kh) // sh + 1
    ow = (wp - kw) // sw + 1
    o_ch, rows, plane = layer.out_channels, i_ch * kh * kw, oh * ow
    # (batch, depth, in, kh, kw, oh, ow): every input plane's 2-D windows, a view
    windows = sliding_window_view(padded, (kh, kw), axis=(3, 4))[
        :, :, :, ::sh, ::sw
    ].transpose(0, 2, 1, 5, 6, 3, 4)
    cols = np.empty(windows.shape[2:])
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
                    np.copyto(cols, windows[i, q])
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
    return (x - mean) / np.sqrt(var + layer.epsilon)


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
