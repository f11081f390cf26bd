from __future__ import annotations

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from glioseg.netkit import (
    INPUT_NAME,
    LayerSpec,
    NetworkGraph,
    Node,
    TrainingSchedule,
    attention_gate_forward,
    build_msavnet,
    build_unet3d,
    build_vnet,
    conv3d_forward,
    cosine_lr,
    forward,
    param_count,
    require_tensor5,
    soft_dice_grad,
    soft_dice_loss,
    summary,
    transposed_conv3d_forward,
)
from glioseg.netkit.graph import _apply
from glioseg.netkit.layers import (
    activation_forward,
    downsample_forward,
    normalization_forward,
    upsample_forward,
)

from oracles import central_difference_grad, conv3d_oracle

UNET3D_PARAMS = 15_372_644
VNET_PARAMS = 14_273_682
MSAVNET_PARAMS = 17_834_871


def conv_layer(rng, in_ch, out_ch, kernel, stride=1, padding=0, bias=True):
    kernel = (kernel,) * 3 if isinstance(kernel, int) else kernel
    return LayerSpec(
        "conv3d",
        kernel=kernel,
        stride=stride,
        padding=padding,
        in_channels=in_ch,
        out_channels=out_ch,
        weights=rng.standard_normal((out_ch, in_ch, *kernel)),
        bias=rng.standard_normal(out_ch) if bias else None,
    )


def tconv_layer(rng, in_ch, out_ch, kernel, stride, padding=0, bias=True):
    kernel = (kernel,) * 3 if isinstance(kernel, int) else kernel
    return LayerSpec(
        "transposed_conv3d",
        kernel=kernel,
        stride=stride,
        padding=padding,
        in_channels=in_ch,
        out_channels=out_ch,
        weights=rng.standard_normal((in_ch, out_ch, *kernel)),
        bias=rng.standard_normal(out_ch) if bias else None,
    )


# ---------------------------------------------------------------- conv3d


def test_conv_matches_naive_oracle():
    rng = np.random.default_rng(70)
    x = rng.standard_normal((1, 2, 5, 5, 5))
    layer = conv_layer(rng, 2, 4, 3)
    got = conv3d_forward(x, layer)
    want = conv3d_oracle(x, layer.weights, layer.bias, layer.stride, layer.padding)
    assert got.shape == want.shape == (1, 4, 3, 3, 3)
    assert np.max(np.abs(got - want)) < 1e-6


def test_conv_matches_oracle_with_stride_and_padding():
    rng = np.random.default_rng(71)
    for stride, padding in [(1, 1), (2, 0), (2, 1), ((1, 2, 1), (0, 1, 2))]:
        x = rng.standard_normal((2, 3, 6, 7, 8))
        layer = conv_layer(rng, 3, 2, 3, stride=stride, padding=padding)
        got = conv3d_forward(x, layer)
        want = conv3d_oracle(x, layer.weights, layer.bias, layer.stride, layer.padding)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-6


def test_conv_matches_oracle_on_anisotropic_geometry():
    rng = np.random.default_rng(80)
    # (batch, in, out, input spatial shape, kernel, stride, padding)
    cases = [
        (2, 3, 2, (4, 5, 6), (1, 3, 2), 1, 0),
        (1, 2, 3, (5, 3, 6), (2, 1, 3), 1, 1),
        (2, 2, 2, (6, 5, 3), (3, 2, 1), 1, (1, 0, 2)),
        (2, 2, 3, (7, 4, 9), (3, 2, 2), (2, 1, 3), (0, 2, 1)),
        (3, 1, 2, (4, 6, 5), (2, 3, 2), (1, 2, 1), 1),
        (2, 3, 1, (5, 4, 6), (3, 3, 2), 2, (1, 1, 0)),
        # the kernel covers the whole padded input: one output voxel
        (2, 2, 3, (3, 4, 2), (5, 4, 4), 1, (1, 0, 1)),
        # kd < sd: input planes between the strides feed no output
        (2, 2, 3, (8, 5, 4), (2, 2, 1), (3, 1, 2), (0, 1, 0)),
        # kd > sd > 1 with depth padding: the offsets meeting one input
        # plane are every other one, not a contiguous run
        (2, 2, 2, (9, 4, 5), (5, 2, 3), (2, 1, 2), (2, 1, 1)),
        # depth padding >= kd: the first and last output planes are bias only
        (2, 2, 3, (3, 5, 4), (2, 3, 2), 1, (3, 1, 0)),
        # out_channels > in*kh*kw: one depth offset per matmul
        (2, 1, 5, (6, 4, 5), (3, 1, 2), 1, (1, 0, 1)),
    ]
    for batch, in_ch, out_ch, size, kernel, stride, padding in cases:
        x = rng.standard_normal((batch, in_ch, *size))
        layer = conv_layer(rng, in_ch, out_ch, kernel, stride=stride, padding=padding)
        got = conv3d_forward(x, layer)
        want = conv3d_oracle(x, layer.weights, layer.bias, layer.stride, layer.padding)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-6


def test_conv_memory_is_output_padded_input_and_one_plane_of_columns():
    rng = np.random.default_rng(81)
    layer = conv_layer(rng, 4, 32, 3, padding=1)
    x = rng.standard_normal((1, 4, 16, 16, 16))
    tracemalloc.start()
    try:
        out = conv3d_forward(x, layer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    padded_bytes = 4 * 18**3 * 8
    columns_bytes = 4 * 27 * 16 * 16 * 8  # in*kd*kh*kw rows by oh*ow, float64
    bound = out.nbytes + padded_bytes + columns_bytes + 128 * 2**10
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_conv_memory_of_a_stacking_layer_is_three_column_planes():
    # 8 output channels fit all five depth offsets in one matmul
    rng = np.random.default_rng(84)
    layer = conv_layer(rng, 8, 8, 5, padding=2)
    x = rng.standard_normal((1, 8, 16, 16, 16))
    tracemalloc.start()
    try:
        out = conv3d_forward(x, layer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    padded_bytes = 8 * 16 * 20 * 20 * 8  # padded in height and width only
    plane_bytes = 8 * 5 * 5 * 16 * 16 * 8  # in*kh*kw rows by oh*ow, float64
    bound = out.nbytes + padded_bytes + 3 * plane_bytes + 128 * 2**10
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_conv_unit_kernel_doubles_values():
    x = np.random.default_rng(72).standard_normal((1, 1, 4, 4, 4))
    layer = LayerSpec(
        "conv3d",
        kernel=(1, 1, 1),
        in_channels=1,
        out_channels=1,
        weights=np.full((1, 1, 1, 1, 1), 2.0),
        bias=np.zeros(1),
    )
    assert np.allclose(conv3d_forward(x, layer), 2.0 * x)


def test_conv_dirac_kernel_is_identity():
    x = np.random.default_rng(73).standard_normal((1, 1, 5, 6, 4))
    weights = np.zeros((1, 1, 3, 3, 3))
    weights[0, 0, 1, 1, 1] = 1.0
    layer = LayerSpec(
        "conv3d", kernel=(3, 3, 3), padding=1, in_channels=1, out_channels=1,
        weights=weights, bias=np.zeros(1),
    )
    assert np.allclose(conv3d_forward(x, layer), x, atol=1e-12)


def test_conv_is_linear_with_zero_bias():
    rng = np.random.default_rng(74)
    layer = conv_layer(rng, 2, 3, 3, padding=1, bias=False)
    x = rng.standard_normal((1, 2, 6, 6, 6))
    y = rng.standard_normal((1, 2, 6, 6, 6))
    combined = conv3d_forward(0.7 * x - 1.3 * y, layer)
    split = 0.7 * conv3d_forward(x, layer) - 1.3 * conv3d_forward(y, layer)
    assert np.max(np.abs(combined - split)) < 1e-6


def test_conv_rejects_channel_mismatch_and_oversized_kernel():
    rng = np.random.default_rng(75)
    layer = conv_layer(rng, 2, 4, 3)
    with pytest.raises(ValueError, match="channel"):
        conv3d_forward(rng.standard_normal((1, 3, 5, 5, 5)), layer)
    with pytest.raises(ValueError, match="kernel"):
        conv3d_forward(rng.standard_normal((1, 2, 2, 5, 5)), layer)


# ----------------------------------------------------- transposed conv


def test_transposed_conv_doubles_spatial_size():
    rng = np.random.default_rng(76)
    layer = tconv_layer(rng, 3, 2, 2, 2)
    out = transposed_conv3d_forward(rng.standard_normal((1, 3, 4, 4, 4)), layer)
    assert out.shape == (1, 2, 8, 8, 8)


def test_transposed_conv_satisfies_adjoint_identity():
    rng = np.random.default_rng(77)
    # sizes chosen so the conv tiles the input exactly; otherwise the
    # transposed output is smaller than x and the pairing is undefined
    for stride, padding, kernel, size in [
        (1, 0, 3, (7, 8, 7)),
        (2, 0, 2, (8, 8, 6)),
        (2, 1, 3, (7, 9, 7)),
    ]:
        # one array serves both layouts: (out,in,k..) forward, (in,out,k..) adjoint
        weights = rng.standard_normal((2, 3, kernel, kernel, kernel))
        fwd = LayerSpec(
            "conv3d", kernel=kernel, stride=stride, padding=padding,
            in_channels=3, out_channels=2, weights=weights,
        )
        x = rng.standard_normal((2, 3, *size))
        y_shape = conv3d_forward(x, fwd).shape
        y = rng.standard_normal(y_shape)
        adj = LayerSpec(
            "transposed_conv3d", kernel=kernel, stride=stride, padding=padding,
            in_channels=2, out_channels=3, weights=weights,
        )
        lhs = np.sum(conv3d_forward(x, fwd) * y)
        rhs = np.sum(x * transposed_conv3d_forward(y, adj))
        assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))


def test_transposed_conv_unit_kernel_keeps_spatial_grid():
    rng = np.random.default_rng(78)
    layer = tconv_layer(rng, 3, 5, 1, 1, bias=False)
    x = rng.standard_normal((1, 3, 4, 5, 6))
    out = transposed_conv3d_forward(x, layer)
    assert out.shape == (1, 5, 4, 5, 6)
    # pure channel mixing: every voxel is the same linear map of its input channels
    want = np.einsum("io,bidhw->bodhw", layer.weights[:, :, 0, 0, 0], x)
    assert np.max(np.abs(out - want)) < 1e-9


def test_transposed_conv_memory_is_output_and_one_channel_matmul():
    rng = np.random.default_rng(83)
    layer = tconv_layer(rng, 16, 8, 2, 2)
    x = rng.standard_normal((1, 16, 8, 8, 8))
    tracemalloc.start()
    try:
        out = transposed_conv3d_forward(x, layer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 8, 16, 16, 16)
    tmp_bytes = 8 * 8**3 * 8  # one out_channels x input-voxels matmul, float64
    bound = out.nbytes + tmp_bytes + 128 * 2**10
    assert peak < bound, f"peak {peak} bytes, bound {bound}"


def test_transposed_conv_rejects_channel_mismatch():
    rng = np.random.default_rng(79)
    layer = tconv_layer(rng, 3, 2, 2, 2)
    with pytest.raises(ValueError, match="channel"):
        transposed_conv3d_forward(rng.standard_normal((1, 2, 4, 4, 4)), layer)


def test_transposed_conv_rejects_padding_that_consumes_the_output_before_work():
    rng = np.random.default_rng(82)
    layer = tconv_layer(rng, 3, 2, 2, 2, padding=(0, 0, 32))
    x = rng.standard_normal((1, 3, 32, 32, 32))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="consumes the whole output"):
            transposed_conv3d_forward(x, layer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 2x64^3 float64 output (4 MiB) is never allocated
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


# ------------------------------------------- pooling, resize, pointwise


def test_max_downsample_picks_block_maxima():
    x = np.arange(64, dtype=float).reshape(1, 1, 4, 4, 4)
    layer = LayerSpec("downsample", kernel=2, stride=2, in_channels=1, out_channels=1)
    out = downsample_forward(x, layer)
    assert out.shape == (1, 1, 2, 2, 2)
    assert out[0, 0, 0, 0, 0] == x[0, 0, :2, :2, :2].max()
    assert out[0, 0, 1, 1, 1] == x[0, 0, 2:, 2:, 2:].max()


def test_max_downsample_requires_divisible_dims():
    layer = LayerSpec("downsample", kernel=2, stride=2, in_channels=1, out_channels=1)
    with pytest.raises(ValueError, match="divisible"):
        downsample_forward(np.zeros((1, 1, 5, 4, 4)), layer)


def test_upsample_repeats_voxels():
    x = np.random.default_rng(80).standard_normal((1, 2, 2, 2, 2))
    layer = LayerSpec("upsample", kernel=2, stride=2, in_channels=2, out_channels=2)
    out = upsample_forward(x, layer)
    assert out.shape == (1, 2, 4, 4, 4)
    assert np.all(out[0, :, :2, :2, :2] == x[0, :, :1, :1, :1])
    assert np.all(out[0, :, 2:, 2:, 2:] == x[0, :, 1:, 1:, 1:])


def test_activations():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0]).reshape(1, 1, 5, 1, 1)
    relu = LayerSpec("activation", activation="relu", in_channels=1, out_channels=1)
    assert np.allclose(
        activation_forward(x, relu).ravel(), [0.0, 0.0, 0.0, 0.5, 3.0]
    )
    prelu = LayerSpec(
        "activation", activation="prelu", in_channels=1, out_channels=1,
        weights=np.array([0.25]),
    )
    assert np.allclose(
        activation_forward(x, prelu).ravel(), [-0.5, -0.125, 0.0, 0.5, 3.0]
    )
    # no architecture has a sigmoid layer; the attention gate applies its own
    with pytest.raises(ValueError, match="activation must be one of"):
        LayerSpec("activation", activation="sigmoid", in_channels=1, out_channels=1)


def test_instance_normalization_statistics():
    rng = np.random.default_rng(81)
    x = rng.uniform(3.0, 9.0, size=(2, 3, 4, 4, 4))
    layer = LayerSpec("normalization", in_channels=3, out_channels=3)
    out = normalization_forward(x, layer)
    for b in range(2):
        for c in range(3):
            values = out[b, c]
            assert abs(values.mean()) < 1e-10
            assert abs(values.std() - 1.0) < 1e-4  # eps shrinks std slightly


def test_instance_normalization_constant_channel_is_finite():
    x = np.full((1, 1, 3, 3, 3), 7.0)
    layer = LayerSpec("normalization", in_channels=1, out_channels=1)
    out = normalization_forward(x, layer)
    assert np.all(np.isfinite(out))
    assert np.allclose(out, 0.0)


def test_attention_gate_bounds_and_forcing():
    rng = np.random.default_rng(82)
    skip_ch, gate_ch, inter = 4, 6, 2
    layer = LayerSpec(
        "attention_gate",
        in_channels=skip_ch,
        out_channels=skip_ch,
        weights=rng.standard_normal((inter, skip_ch, 1, 1, 1)),
        gate_weights=rng.standard_normal((inter, gate_ch, 1, 1, 1)),
        gate_bias=rng.standard_normal(inter),
        psi_weights=rng.standard_normal((1, inter, 1, 1, 1)),
        psi_bias=rng.standard_normal(1),
    )
    x = rng.standard_normal((1, skip_ch, 3, 3, 3))
    g = rng.standard_normal((1, gate_ch, 3, 3, 3))
    out = attention_gate_forward(x, g, layer)
    assert out.shape == x.shape
    # multiplicative gate in [0,1] can only shrink magnitudes
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    forced = dataclasses.replace(
        layer, psi_weights=np.zeros((1, inter, 1, 1, 1)), psi_bias=np.array([50.0])
    )
    assert np.array_equal(attention_gate_forward(x, g, forced), x)


# -------------------------------------------------- layer spec validation


def test_layer_spec_validation_errors():
    rng = np.random.default_rng(83)
    with pytest.raises(ValueError, match="kind"):
        LayerSpec("pool3d")
    with pytest.raises(ValueError, match="shape"):
        LayerSpec(
            "conv3d", kernel=3, in_channels=2, out_channels=4,
            weights=rng.standard_normal((4, 2, 3, 3)),
        )
    with pytest.raises(ValueError, match="bias"):
        LayerSpec(
            "conv3d", kernel=3, in_channels=2, out_channels=4,
            weights=rng.standard_normal((4, 2, 3, 3, 3)), bias=np.zeros(3),
        )
    with pytest.raises(ValueError, match=">= 1"):
        LayerSpec(
            "conv3d", kernel=0, in_channels=2, out_channels=4,
            weights=rng.standard_normal((4, 2, 1, 1, 1)),
        )
    with pytest.raises(ValueError, match="activation"):
        LayerSpec("activation", activation="tanh", in_channels=1, out_channels=1)
    with pytest.raises(ValueError, match="stride"):
        LayerSpec("downsample", kernel=2, stride=3, in_channels=1, out_channels=1)
    for epsilon in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            LayerSpec("normalization", in_channels=1, out_channels=1, epsilon=epsilon)


def test_require_tensor5_rejects_bad_shapes():
    with pytest.raises(ValueError, match="5"):
        require_tensor5(np.zeros((4, 4, 4)))
    with pytest.raises(ValueError, match="channel"):
        require_tensor5(np.zeros((1, 3, 4, 4, 4)), channels=4)


# ------------------------------------------------------ graph machinery


def test_graph_rejects_duplicate_and_unknown_names():
    rng = np.random.default_rng(84)
    layer = conv_layer(rng, 4, 2, 1)
    node = Node("a", layer, (INPUT_NAME,))
    with pytest.raises(ValueError, match="duplicate"):
        NetworkGraph("g", (node, Node("a", layer, (INPUT_NAME,))), 2, 2)
    with pytest.raises(ValueError, match="unknown"):
        NetworkGraph("g", (Node("a", layer, ("missing",)),), 2, 2)


def test_graph_rejects_wrong_final_channels():
    rng = np.random.default_rng(85)
    node = Node("a", conv_layer(rng, 4, 3, 1), (INPUT_NAME,))
    with pytest.raises(ValueError, match="final"):
        NetworkGraph("g", (node,), num_classes=2)


def test_node_arity_is_checked():
    layer = LayerSpec("add_skip", in_channels=2, out_channels=2)
    with pytest.raises(ValueError, match="2 inputs"):
        Node("a", layer, (INPUT_NAME,))


def test_forward_rejects_indivisible_input():
    net = build_vnet()
    with pytest.raises(ValueError, match="divisible"):
        forward(net, np.zeros((1, 4, 12, 16, 16)))
    with pytest.raises(ValueError, match="channel"):
        forward(net, np.zeros((1, 3, 16, 16, 16)))


# ------------------------------------------------------------- builders


@pytest.mark.parametrize(
    "build", [build_unet3d, build_vnet, build_msavnet], ids=["unet3d", "vnet", "msavnet"]
)
def test_forward_spatial_contract_on_32_cube(build):
    net = build(num_classes=4)
    x = np.random.default_rng(86).uniform(size=(1, 4, 32, 32, 32))
    out = forward(net, x)
    assert out.shape == (1, 4, 32, 32, 32)
    assert np.all(np.isfinite(out))


BUILDERS = pytest.mark.parametrize(
    "build", [build_unet3d, build_vnet, build_msavnet], ids=["unet3d", "vnet", "msavnet"]
)


def side_branch_graph():
    """An output no node reads, and a node that reads one input twice."""
    relu = LayerSpec("activation", activation="relu", in_channels=4, out_channels=4)
    add = LayerSpec("add_skip", in_channels=4, out_channels=4)
    nodes = (
        Node("relu", relu, (INPUT_NAME,)),
        Node("unread", relu, ("relu",)),
        Node("double", add, ("relu", "relu")),
        Node("head", conv_layer(np.random.default_rng(89), 4, 2, 1), ("double",)),
    )
    return NetworkGraph("side", nodes, num_classes=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_forward_rejects_non_finite_input(bad):
    # values are checked once where they enter forward, not at each layer
    x = np.ones((1, 4, 3, 3, 3))
    x[0, 2, 1, 0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        forward(side_branch_graph(), x)


@pytest.mark.parametrize(
    "build",
    [build_unet3d, build_vnet, build_msavnet, side_branch_graph],
    ids=["unet3d", "vnet", "msavnet", "side_branch"],
)
def test_forward_frees_each_output_after_its_last_consumer(build):
    net = build()
    last_use = {ref: step for step, node in enumerate(net.nodes) for ref in node.inputs}
    outputs = []  # weakrefs, one per evaluated node
    mismatches = []

    def on_node(node, output):
        step = len(outputs)
        alive = {i for i, ref in enumerate(outputs) if ref() is not None}
        needed = {i for i in range(step) if last_use.get(net.nodes[i].name, -1) >= step}
        if alive != needed:
            mismatches.append((node.name, sorted(alive ^ needed)))
        outputs.append(weakref.ref(output))

    x = np.random.default_rng(87).uniform(size=(1, 4, 8, 8, 8))
    out = forward(net, x, on_node=on_node)
    assert len(outputs) == len(net.nodes)
    assert mismatches == []
    assert outputs[-1]() is out


@BUILDERS
def test_forward_matches_a_loop_that_stores_every_value(build):
    net = build()
    x = np.random.default_rng(88).uniform(size=(2, 4, 8, 8, 8))
    values = {INPUT_NAME: x}
    for node in net.nodes:
        values[node.name] = _apply(node.layer, [values[ref] for ref in node.inputs])
    seen = {}
    out = forward(net, x, on_node=lambda node, output: seen.update({node.name: output}))
    assert list(seen) == [node.name for node in net.nodes]
    for name, output in seen.items():
        assert np.array_equal(output, values[name]), name
    assert np.array_equal(out, values[net.nodes[-1].name])


def test_vnet_structure():
    net = build_vnet()
    stem = net.node("stem_conv").layer
    assert stem.out_channels == 32
    assert stem.kernel == (5, 5, 5)
    residual_convs = [
        n.layer for n in net.nodes
        if n.layer.kind == "conv3d" and ("enc" in n.name or "dec" in n.name or "bottom" in n.name)
    ]
    assert residual_convs and all(l.kernel == (5, 5, 5) for l in residual_convs)
    joins = [n for n in net.nodes if n.name.startswith("join")]
    assert len(joins) == 3
    # additive joins keep the channel count
    assert all(n.layer.kind == "add_skip" for n in joins)
    downs = [n.layer for n in net.nodes if n.name.endswith("_conv") and n.name.startswith("down")]
    assert downs and all(l.stride == (2, 2, 2) for l in downs)
    assert not any(n.layer.kind == "attention_gate" for n in net.nodes)


def test_unet3d_concat_doubles_channels():
    net = build_unet3d()
    joins = [n for n in net.nodes if n.layer.kind == "concat_skip"]
    assert len(joins) == 3
    for node in joins:
        up = net.node(node.inputs[0]).layer
        skip = net.node(node.inputs[1]).layer
        assert up.out_channels == skip.out_channels
        assert node.layer.out_channels == 2 * up.out_channels
    kernels = {n.layer.kernel for n in net.nodes if n.layer.kind == "conv3d"}
    assert kernels == {(3, 3, 3), (1, 1, 1)}


def test_msavnet_gates_every_skip_edge():
    net = build_msavnet()
    gates = [n for n in net.nodes if n.layer.kind == "attention_gate"]
    assert len(gates) == 3
    for level in range(3):
        join = net.node(f"join{level}")
        assert net.node(join.inputs[1]).layer.kind == "attention_gate"
    assert net.node("central_a_conv").layer.kernel == (3, 3, 3)


def test_msavnet_forced_gates_match_bypassed_graph():
    net = build_msavnet()
    forced_nodes, bypassed_nodes = [], []
    gate_source = {}
    for node in net.nodes:
        if node.layer.kind == "attention_gate":
            inter = node.layer.psi_weights.shape[1]
            forced_nodes.append(
                Node(
                    node.name,
                    dataclasses.replace(
                        node.layer,
                        psi_weights=np.zeros((1, inter, 1, 1, 1)),
                        psi_bias=np.array([50.0]),
                    ),
                    node.inputs,
                )
            )
            gate_source[node.name] = node.inputs[0]
            continue
        forced_nodes.append(node)
        remapped = tuple(gate_source.get(ref, ref) for ref in node.inputs)
        bypassed_nodes.append(Node(node.name, node.layer, remapped))
    forced = dataclasses.replace(net, nodes=tuple(forced_nodes))
    bypassed = dataclasses.replace(net, nodes=tuple(bypassed_nodes))
    x = np.random.default_rng(87).uniform(size=(1, 4, 16, 16, 16))
    assert np.array_equal(forward(forced, x), forward(bypassed, x))


def test_builders_are_deterministic():
    x = np.random.default_rng(88).uniform(size=(1, 4, 16, 16, 16))
    for build in (build_unet3d, build_vnet, build_msavnet):
        a = forward(build(seed=5), x)
        b = forward(build(seed=5), x)
        assert np.array_equal(a, b)
        c = forward(build(seed=6), x)
        assert not np.array_equal(a, c)


def test_batch_entries_are_independent():
    net = build_vnet()
    sample = np.random.default_rng(89).uniform(size=(1, 4, 16, 16, 16))
    doubled = np.concatenate([sample, sample], axis=0)
    out = forward(net, doubled)
    assert np.array_equal(out[0], out[1])
    single = forward(net, sample)
    assert np.array_equal(out[0], single[0])


def test_builder_argument_validation():
    with pytest.raises(ValueError, match="depth"):
        build_unet3d(depth=1)
    with pytest.raises(ValueError, match="positive"):
        build_unet3d(base_features=0)
    with pytest.raises(ValueError, match="positive"):
        build_vnet(num_classes=0)
    with pytest.raises(ValueError, match="positive"):
        build_msavnet(num_classes=-1)


# ---------------------------------------------------------- param count


def test_param_count_closed_form():
    rng = np.random.default_rng(90)
    node = Node("a", conv_layer(rng, 1, 8, 3), (INPUT_NAME,))
    net = NetworkGraph("tiny", (node,), num_classes=8)
    assert param_count(net) == 8 * 27 + 8 == 224


def test_param_count_empty_graph():
    net = NetworkGraph("empty", (), num_classes=4)
    assert param_count(net) == 0


def test_param_counts_are_stable():
    assert param_count(build_unet3d()) == UNET3D_PARAMS
    assert param_count(build_vnet()) == VNET_PARAMS
    assert param_count(build_msavnet()) == MSAVNET_PARAMS
    assert UNET3D_PARAMS > VNET_PARAMS


def test_summary_lists_every_node():
    net = build_vnet()
    shapes = {}
    x = np.zeros((1, net.input_channels, 16, 16, 16))
    forward(net, x, on_node=lambda node, output: shapes.update({node.name: output.shape}))
    text = summary(net, shapes)
    for node in net.nodes:
        assert node.name in text
    assert str(VNET_PARAMS) in text


# ------------------------------------------------------------ dice loss


def test_dice_loss_perfect_match_is_tiny():
    rng = np.random.default_rng(91)
    target = (rng.uniform(size=(2, 3, 4, 4, 4)) < 0.4).astype(float)
    assert soft_dice_loss(target, target, eps=1e-5) < 1e-6


def test_dice_loss_half_overlap_closed_form():
    pred = np.array([0.5, 0.5]).reshape(1, 1, 2, 1, 1)
    target = np.array([1.0, 0.0]).reshape(1, 1, 2, 1, 1)
    assert soft_dice_loss(pred, target, eps=0.0) == pytest.approx(0.5, abs=1e-12)


def test_dice_loss_empty_prediction_limits():
    target = np.zeros((1, 1, 3, 3, 3))
    target[0, 0, 1, 1, 1] = 1.0
    pred = np.zeros_like(target)
    assert soft_dice_loss(pred, target, eps=1e-7) > 0.999
    # both empty with eps=0 is the eps->0 limit of a perfect match
    assert soft_dice_loss(pred, np.zeros_like(target), eps=0.0) == 0.0


def test_dice_loss_range_and_permutation_symmetry():
    rng = np.random.default_rng(92)
    for _ in range(5):
        pred = rng.uniform(size=(1, 2, 3, 3, 3))
        target = (rng.uniform(size=pred.shape) < 0.5).astype(float)
        loss = soft_dice_loss(pred, target)
        assert 0.0 <= loss <= 1.0
        perm = rng.permutation(27)
        shuffled_pred = pred.reshape(1, 2, 27)[:, :, perm].reshape(pred.shape)
        shuffled_target = target.reshape(1, 2, 27)[:, :, perm].reshape(target.shape)
        assert soft_dice_loss(shuffled_pred, shuffled_target) == pytest.approx(loss, abs=1e-12)


def test_dice_loss_input_validation():
    good = np.zeros((1, 1, 2, 2, 2))
    with pytest.raises(ValueError, match="shape"):
        soft_dice_loss(good, np.zeros((1, 1, 2, 2, 3)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        soft_dice_loss(good - 0.1, good)
    nan_pred = good.copy()
    nan_pred[0, 0, 1, 1, 0] = np.nan  # fails both range comparisons, so it is out of range
    for loss in (soft_dice_loss, soft_dice_grad):
        with pytest.raises(ValueError, match="pred"):
            loss(nan_pred, good)
    with pytest.raises(ValueError, match="0 or 1"):
        soft_dice_loss(good, good + 0.5)
    with pytest.raises(ValueError, match="eps"):
        soft_dice_loss(good, good, eps=-1.0)
    # eps=nan would score a half-right prediction as perfect; eps=inf gives nan
    half = np.full(good.shape, 0.5)
    for eps in (np.nan, np.inf):
        for loss in (soft_dice_loss, soft_dice_grad):
            with pytest.raises(ValueError, match="eps"):
                loss(half, good + 1.0, eps=eps)


def test_dice_grad_matches_finite_differences():
    rng = np.random.default_rng(93)
    for _ in range(3):
        pred = rng.uniform(0.05, 0.95, size=(1, 2, 4, 4, 4))
        target = (rng.uniform(size=pred.shape) < 0.5).astype(float)
        grad = soft_dice_grad(pred, target, eps=1e-5)
        assert grad.shape == pred.shape
        numeric = central_difference_grad(
            lambda p: soft_dice_loss(p.reshape(pred.shape), target, eps=1e-5), pred.ravel()
        ).reshape(pred.shape)
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(grad - numeric) / scale) < 1e-4


def test_dice_grad_batch_scaling_and_empty_pair():
    # doubling the number of (batch, class) pairs halves each pair's share
    pred = np.full((1, 1, 2, 2, 2), 0.5)
    target = np.ones_like(pred)
    single = soft_dice_grad(pred, target, eps=0.0)
    stacked = soft_dice_grad(
        np.concatenate([pred, pred]), np.concatenate([target, target]), eps=0.0
    )
    assert np.allclose(stacked[0], 0.5 * single[0])
    empty = soft_dice_grad(np.zeros((1, 1, 2, 2, 2)), np.zeros((1, 1, 2, 2, 2)), eps=0.0)
    assert np.array_equal(empty, np.zeros_like(empty))


# ------------------------------------------------------------- schedule


def test_cosine_schedule_endpoints_are_exact():
    schedule = TrainingSchedule()
    assert cosine_lr(0, 1000, schedule) == 6e-5
    assert cosine_lr(1000, 1000, schedule) == 0.0
    floor = TrainingSchedule(eta_min=1e-6)
    assert cosine_lr(500, 500, floor) == 1e-6


def test_cosine_schedule_midpoint():
    schedule = TrainingSchedule()
    assert abs(cosine_lr(500, 1000, schedule) - 3e-5) < 1e-15


def test_cosine_schedule_monotone_and_bounded():
    schedule = TrainingSchedule(eta_min=2e-6)
    values = [cosine_lr(t, 200, schedule) for t in range(201)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(schedule.eta_min <= v <= schedule.initial_lr for v in values)


def test_cosine_schedule_rejects_out_of_range_step():
    schedule = TrainingSchedule()
    with pytest.raises(ValueError, match="step"):
        cosine_lr(-1, 10, schedule)
    with pytest.raises(ValueError, match="step"):
        cosine_lr(11, 10, schedule)
    with pytest.raises(ValueError, match="total_steps"):
        cosine_lr(0, 0, schedule)


def test_training_schedule_validation():
    schedule = TrainingSchedule()
    assert schedule.initial_lr == 6e-5
    assert schedule.weight_decay == 1e-5
    assert schedule.epochs == 40
    assert schedule.batch_size == 4
    with pytest.raises(ValueError, match="eta_min"):
        TrainingSchedule(eta_min=-1e-9)
    with pytest.raises(ValueError, match="initial_lr"):
        TrainingSchedule(initial_lr=1e-9, eta_min=1e-6)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="initial_lr"):
            TrainingSchedule(initial_lr=value)
        with pytest.raises(ValueError, match="weight_decay"):
            TrainingSchedule(weight_decay=value)
    with pytest.raises(ValueError, match="epochs"):
        TrainingSchedule(epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainingSchedule(batch_size=0)
    with pytest.raises(TypeError, match="epochs"):
        TrainingSchedule(epochs=2.5)
    with pytest.raises(TypeError, match="batch_size"):
        TrainingSchedule(batch_size=True)
