"""Acceptance suite: ten package-level criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with -s or on failure); the
test names give the same one-line-per-criterion view under plain -v.
"""

from __future__ import annotations

import functools
import gzip
import json
import time

import numpy as np

from glioseg.cli import main
from glioseg.metrics import MetricConfig, aggregate, dice, evaluate_case, hd95
from glioseg.netkit import (
    LayerSpec,
    TrainingSchedule,
    build_msavnet,
    build_unet3d,
    build_vnet,
    conv3d_forward,
    cosine_lr,
    forward,
    soft_dice_grad,
    soft_dice_loss,
    transposed_conv3d_forward,
)
from glioseg.nifti import parse_header, read_label_volume, write_label_volume
from glioseg.postprocess import connected_components, postprocess_case
from glioseg.preprocess import rescale_percentiles, zscore_normalize
from glioseg.staple import RaterDecisions, StapleConfig, fuse_labels, staple_binary
from glioseg.volume import LabelVolume, RegionMask, ScalarVolume

from oracles import (
    central_difference_grad,
    conv3d_oracle,
    em_consensus_oracle,
    flood_fill_components,
    hd95_oracle,
    percentile_linear,
)
from test_nifti import build_nifti_bytes


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS  {description}")
        return run
    return wrap


def wt_mask(data: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> RegionMask:
    data = np.asarray(data, dtype=bool)
    return RegionMask(data, spacing)


@criterion(1, "STAPLE weights match the EM oracle to 1e-9 on 200 instances in <10s")
def test_criterion_01_staple_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    checked = 0
    for index in range(200):
        raters = int(rng.integers(1, 7))
        voxels = int(rng.integers(10, 1001))
        if index % 2 == 0:
            rows = rng.random((raters, voxels)) < rng.uniform(0.2, 0.8)
        else:
            truth = rng.random(voxels) < rng.uniform(0.3, 0.7)
            flips = rng.random((raters, voxels)) < rng.uniform(0.05, 0.15)
            rows = np.where(flips, ~truth, truth)
        if not rows.any() or rows.all():
            rows[0, :2] = [True, False]
        # run both sides for the same number of EM passes; once either side
        # reaches the exact fixed point further passes are no-ops
        passes = int(rng.integers(10, 61))
        config = StapleConfig(tolerance=1e-300, max_iterations=passes)
        result = staple_binary(RaterDecisions(rows), config)
        w_oracle, _, _ = em_consensus_oracle(
            rows, rows.mean(), 0.99999, 0.99999, max_iterations=passes, tol=0.0
        )
        assert np.max(np.abs(result.weights - w_oracle)) < 1e-9
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 200
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@criterion(2, "identical raters reproduce their consensus exactly on 100 masks")
def test_criterion_02_staple_consensus_fixed_point():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        voxels = int(rng.integers(16, 400))
        mask = rng.random(voxels) < rng.uniform(0.0, 1.0)
        raters = int(rng.integers(2, 6))
        rows = np.tile(mask, (raters, 1))
        result = staple_binary(RaterDecisions(rows))
        assert np.array_equal(result.foreground, mask)


@criterion(3, "STAPLE fusion beats the mean rater Dice in >=95/100 noisy trials")
def test_criterion_03_ensemble_improves():
    rng = np.random.default_rng(1003)
    grid = np.indices((32, 32, 32))
    wins = 0
    for _ in range(100):
        center = rng.uniform(8, 24, size=3)
        radius = rng.uniform(5, 11)
        truth = ((grid - center[:, None, None, None]) ** 2).sum(axis=0) <= radius**2
        flat = truth.ravel()
        rows = np.stack([
            np.where(rng.random(flat.size) < 0.1, ~flat, flat) for _ in range(3)
        ])
        fused = wt_mask(staple_binary(RaterDecisions(rows)).foreground.reshape(truth.shape))
        truth_mask = wt_mask(truth)
        fused_dice = dice(fused, truth_mask)
        rater_dice = [
            dice(wt_mask(row.reshape(truth.shape)), truth_mask) for row in rows
        ]
        wins += fused_dice >= np.mean(rater_dice)
    assert wins >= 95, f"fused won only {wins}/100 trials"


@criterion(4, "dice exact and hd95 within 1e-9 of the brute-force oracle")
def test_criterion_04_metrics_oracle_equivalence():
    rng = np.random.default_rng(1004)
    spacings = [(1.0, 1.0, 1.0), (0.7, 1.1, 2.3), (2.0, 0.5, 1.5)]
    config = MetricConfig()
    for index in range(100):
        spacing = spacings[index % len(spacings)]
        a = rng.random((16, 16, 16)) < rng.uniform(0.2, 0.8)
        b = rng.random((16, 16, 16)) < rng.uniform(0.2, 0.8)
        mask_a, mask_b = wt_mask(a, spacing), wt_mask(b, spacing)
        na, nb = int(a.sum()), int(b.sum())
        overlap = int((a & b).sum())
        expected_dice = 1.0 if na + nb == 0 else 2.0 * overlap / (na + nb)
        assert dice(mask_a, mask_b, config) == expected_dice
        want = hd95_oracle(a, b, spacing, config.empty_pred_penalty_mm, config.empty_empty_hd95)
        assert abs(hd95(mask_a, mask_b, config=config) - want) < 1e-9
    empty = wt_mask(np.zeros((6, 6, 6), dtype=bool))
    ball = wt_mask(np.pad(np.ones((2, 2, 2), dtype=bool), 2))
    assert dice(empty, wt_mask(np.zeros((6, 6, 6), dtype=bool))) == 1.0
    assert hd95(empty, wt_mask(np.zeros((6, 6, 6), dtype=bool))) == 0.0
    assert dice(empty, ball) == 0.0
    assert hd95(empty, ball) == 373.13
    assert hd95(ball, empty) == 373.13


@criterion(5, "50-voxel ET removed, 51 retained; postprocess idempotent on 100 volumes")
def test_criterion_05_postprocess_boundary():
    def rod_labels(size):
        data = np.zeros((10, 10, 10), dtype=np.uint8)
        data.ravel()[:size] = 3
        return LabelVolume(data)

    removed = postprocess_case(rod_labels(50))
    assert not np.any(removed.data == 3)
    retained = postprocess_case(rod_labels(51))
    assert int((retained.data == 3).sum()) == 51

    rng = np.random.default_rng(1005)
    for _ in range(100):
        labels = LabelVolume(rng.integers(0, 4, size=(8, 8, 8)).astype(np.uint8))
        once = postprocess_case(labels)
        twice = postprocess_case(once)
        assert np.array_equal(once.data, twice.data)


@criterion(6, "connected components equal the flood-fill oracle for 6/18/26 adjacency")
def test_criterion_06_connected_components_oracle():
    rng = np.random.default_rng(1006)
    for _ in range(100):
        mask = rng.random((16, 16, 16)) < rng.uniform(0.15, 0.85)
        for connectivity in (6, 18, 26):
            ids, _ = connected_components(mask, connectivity)
            oracle = flood_fill_components(mask, connectivity)
            assert np.array_equal(ids, oracle)


@criterion(7, "z-score statistics and percentile rescale meet 1e-6 bounds")
def test_criterion_07_preprocessing():
    rng = np.random.default_rng(1007)
    for _ in range(20):
        data = rng.uniform(5.0, 250.0, size=(12, 11, 10))
        data[rng.random(data.shape) < 0.3] = 0.0  # background stays excluded
        volume = ScalarVolume(data)
        normalized = zscore_normalize(volume)
        included = normalized.data[data != 0.0]
        assert abs(included.mean()) < 1e-6
        assert abs(included.std() - 1.0) < 1e-6
        rescaled = rescale_percentiles(normalized)
        values = normalized.data[data != 0.0]
        lo = percentile_linear(values, 2.0)
        hi = percentile_linear(values, 98.0)
        expected = np.clip((normalized.data - lo) / (hi - lo), 0.0, 1.0)
        expected[data == 0.0] = 0.0
        assert np.max(np.abs(rescaled.data - expected)) < 1e-6
    # ramp where P2 and P98 land exactly on voxel values
    ramp = ScalarVolume(np.arange(101, dtype=np.float64).reshape(101, 1, 1) + 1.0)
    from glioseg.preprocess import NormalizationPolicy

    policy = NormalizationPolicy(include_background=True)
    scaled = rescale_percentiles(ramp, policy=policy)
    assert abs(scaled.data[2, 0, 0] - 0.0) < 1e-6  # value 3.0 == P2
    assert abs(scaled.data[98, 0, 0] - 1.0) < 1e-6  # value 99.0 == P98
    assert scaled.data.min() == 0.0 and scaled.data.max() == 1.0


@criterion(8, "netkit shapes, conv/adjoint oracles, dice gradient, cosine endpoints")
def test_criterion_08_netkit():
    rng = np.random.default_rng(1008)
    x32 = rng.uniform(size=(1, 4, 32, 32, 32))
    for build in (build_unet3d, build_vnet, build_msavnet):
        net = build(num_classes=4)
        out = forward(net, x32)
        assert out.shape == (1, 4, 32, 32, 32)
        assert np.all(np.isfinite(out))
    vnet = build_vnet()
    assert vnet.node("stem_conv").layer.out_channels == 32
    assert vnet.node("enc0_conv").layer.kernel == (5, 5, 5)

    conv = LayerSpec(
        "conv3d", kernel=3, padding=1, in_channels=2, out_channels=4,
        weights=rng.standard_normal((4, 2, 3, 3, 3)), bias=rng.standard_normal(4),
    )
    x = rng.standard_normal((1, 2, 6, 6, 6))
    want = conv3d_oracle(x, conv.weights, conv.bias, conv.stride, conv.padding)
    assert np.max(np.abs(conv3d_forward(x, conv) - want)) < 1e-6

    shared = rng.standard_normal((4, 2, 2, 2, 2))
    fwd = LayerSpec("conv3d", kernel=2, stride=2, in_channels=2, out_channels=4, weights=shared)
    adj = LayerSpec(
        "transposed_conv3d", kernel=2, stride=2, in_channels=4, out_channels=2, weights=shared
    )
    xa = rng.standard_normal((1, 2, 8, 8, 8))
    ya = rng.standard_normal(conv3d_forward(xa, fwd).shape)
    lhs = np.sum(conv3d_forward(xa, fwd) * ya)
    rhs = np.sum(xa * transposed_conv3d_forward(ya, adj))
    assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(lhs))

    pred = rng.uniform(0.05, 0.95, size=(1, 2, 4, 4, 4))
    target = (rng.uniform(size=pred.shape) < 0.5).astype(float)
    grad = soft_dice_grad(pred, target, eps=1e-5)
    numeric = central_difference_grad(
        lambda p: soft_dice_loss(p.reshape(pred.shape), target, eps=1e-5), pred.ravel()
    ).reshape(pred.shape)
    scale = np.maximum(np.abs(numeric), 1e-8)
    assert np.max(np.abs(grad - numeric) / scale) < 1e-4

    schedule = TrainingSchedule()
    assert cosine_lr(0, 400, schedule) == 6e-5
    assert cosine_lr(400, 400, schedule) == 0.0
    floor = TrainingSchedule(eta_min=5e-7)
    assert cosine_lr(123, 123, floor) == 5e-7


@criterion(9, "label volumes round-trip bit-exactly and byte fixtures load")
def test_criterion_09_nifti(tmp_path):
    rng = np.random.default_rng(1009)
    for index in range(10):
        labels = LabelVolume(
            rng.integers(0, 4, size=(7, 6, 5)).astype(np.uint8),
            spacing=(0.9, 1.1, 1.3),
        )
        path = tmp_path / f"case{index}-seg.nii.gz"
        write_label_volume(labels, path)
        loaded = read_label_volume(path)
        assert np.array_equal(loaded.data, labels.data)
        assert loaded.data.dtype == labels.data.dtype
        repeat = tmp_path / f"case{index}-again-seg.nii.gz"
        write_label_volume(loaded, repeat)
        assert gzip.decompress(path.read_bytes()) == gzip.decompress(repeat.read_bytes())

    voxels = rng.integers(0, 4, size=(4, 3, 2)).astype(np.uint8)
    little = build_nifti_bytes(voxels, datatype=2, bitpix=8)
    big = build_nifti_bytes(voxels, datatype=2, bitpix=8, order=">")
    for name, payload in [("little.nii", little), ("big.nii", big)]:
        target = tmp_path / name
        target.write_bytes(payload)
        loaded = read_label_volume(target)
        assert np.array_equal(loaded.data, voxels)
    zipped = tmp_path / "zipped.nii.gz"
    zipped.write_bytes(gzip.compress(little))
    assert np.array_equal(read_label_volume(zipped).data, voxels)
    header = parse_header(big)
    assert header.shape == (4, 3, 2)


@criterion(10, "fuse -> postprocess -> evaluate CLI equals module composition in <30s")
def test_criterion_10_end_to_end(tmp_path):
    started = time.monotonic()
    rng = np.random.default_rng(1010)
    cases = [f"case{i}" for i in range(4)]
    grid = np.indices((16, 16, 16))
    truth_dir = tmp_path / "truth"
    truth_dir.mkdir()
    member_dirs = [tmp_path / f"member{j}" for j in range(3)]
    for directory in member_dirs:
        directory.mkdir()
    truths = {}
    members = {}
    for case in cases:
        center = rng.uniform(5, 11, size=3)
        distance = np.sqrt(((grid - center[:, None, None, None]) ** 2).sum(axis=0))
        labels = np.zeros((16, 16, 16), dtype=np.uint8)
        labels[distance <= 6.0] = 2
        labels[distance <= 4.5] = 1
        labels[distance <= 2.5] = 3
        truth = LabelVolume(labels)
        truths[case] = truth
        write_label_volume(truth, truth_dir / f"{case}-seg.nii.gz")
        noisy = []
        for j, directory in enumerate(member_dirs):
            data = labels.copy()
            flips = rng.random(data.shape) < 0.08
            data[flips] = rng.integers(0, 4, size=int(flips.sum()))
            member = LabelVolume(data)
            noisy.append(member)
            write_label_volume(member, directory / f"{case}-seg.nii.gz")
        members[case] = noisy

    fused_dir = tmp_path / "fused"
    clean_dir = tmp_path / "clean"
    report_path = tmp_path / "report.json"
    assert main(["fuse", "--members", *[str(d) for d in member_dirs],
                 "--output-dir", str(fused_dir)]) == 0
    assert main(["postprocess", str(fused_dir), str(clean_dir)]) == 0
    assert main(["evaluate", str(clean_dir), str(truth_dir), str(report_path)]) == 0
    report = json.loads(report_path.read_text())

    # module-level composition, same inputs
    reports = []
    for case in cases:
        fused = fuse_labels(members[case])
        cleaned = postprocess_case(fused)
        stored = read_label_volume(clean_dir / f"{case}-seg.nii.gz")
        assert np.array_equal(stored.data, cleaned.data)
        reports.append(evaluate_case(cleaned, truths[case]))
    assert [entry["case"] for entry in report["cases"]] == cases
    assert [entry["regions"] for entry in report["cases"]] == reports
    assert report["summary"] == aggregate(reports)
    assert report["missing"] == []
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
