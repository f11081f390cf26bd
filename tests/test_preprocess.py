from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from glioseg.preprocess import (
    _SLAB_ROWS,
    NormalizationPolicy,
    RescaleSpec,
    preprocess_volume,
    rescale_percentiles,
    zscore_normalize,
)
from glioseg.volume import ScalarVolume

from oracles import percentile_linear, two_pass_mean_std

ALL = NormalizationPolicy(include_background=True)
FG = NormalizationPolicy()


def vol(data, spacing=(1.0, 1.0, 1.0)):
    return ScalarVolume(np.asarray(data, dtype=np.float64), spacing)


def test_two_values_forced():
    # {2, 4}: mean 3, population std 1, so the outputs are pinned.
    v = vol(np.array([2.0, 4.0]).reshape(2, 1, 1))
    out = zscore_normalize(v, ALL)
    assert np.array_equal(out.data.ravel(), [-1.0, 1.0])


def test_constant_volume_rejected():
    v = vol(np.full((4, 4, 4), 5.0))
    with pytest.raises(ValueError, match="spread"):
        zscore_normalize(v, ALL)


def test_all_background_rejected():
    v = vol(np.zeros((4, 4, 4)))
    for step in (zscore_normalize, rescale_percentiles, preprocess_volume):
        with pytest.raises(ValueError, match="included set; volume is all background"):
            step(v)


def test_single_included_voxel_rejected():
    data = np.zeros((3, 3, 3))
    data[1, 1, 1] = 2.0
    with pytest.raises(ValueError, match="at least 2"):
        zscore_normalize(vol(data), FG)


def test_zscore_statistics_against_two_pass_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        data = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 20), size=(8, 8, 8))
        v = vol(data)
        out = zscore_normalize(v, ALL)
        mean, std = two_pass_mean_std(out.data.ravel())
        assert abs(mean) < 1e-6
        assert abs(std - 1.0) < 1e-6
        # independent recomputation of the transform itself
        mu, sigma = two_pass_mean_std(data.ravel())
        assert np.allclose(out.data, (data - mu) / sigma, atol=1e-9)


def test_zscore_excludes_background():
    data = np.zeros((4, 4, 4))
    data[0, 0, 0] = 2.0
    data[0, 0, 1] = 4.0
    out = zscore_normalize(vol(data), FG)
    assert out.data[0, 0, 0] == -1.0
    assert out.data[0, 0, 1] == 1.0
    assert np.all(out.data.ravel()[2:] == 0.0)
    # statistics over the foreground voxels stay normalized
    fg = out.data[data != 0]
    mean, std = two_pass_mean_std(fg)
    assert abs(mean) < 1e-6 and abs(std - 1.0) < 1e-6


def test_zscore_shift_scale_equivariance():
    rng = np.random.default_rng(102)
    for _ in range(10):
        data = rng.uniform(1.0, 10.0, size=(6, 6, 6))  # strictly positive
        a = rng.uniform(0.5, 4.0)
        b = rng.uniform(0.0, 5.0)
        base = zscore_normalize(vol(data), FG)
        shifted = zscore_normalize(vol(a * data + b), FG)
        assert np.allclose(base.data, shifted.data, atol=1e-9)


def test_zscore_idempotent_with_background_included():
    rng = np.random.default_rng(103)
    data = rng.normal(size=(6, 6, 6))
    once = zscore_normalize(vol(data), ALL)
    twice = zscore_normalize(once, ALL)
    assert np.allclose(once.data, twice.data, atol=1e-9)


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        NormalizationPolicy(epsilon=0.0)
    with pytest.raises(ValueError):
        NormalizationPolicy(epsilon=-1e-9)
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon"):
            NormalizationPolicy(epsilon=value)
    with pytest.raises(TypeError, match="epsilon"):
        NormalizationPolicy(epsilon="1e-8")
    with pytest.raises(TypeError, match="include_background"):
        NormalizationPolicy(include_background="false")


def test_rescale_ramp_percentiles():
    # 101 voxels 0..100: P2 = 2, P98 = 98 under linear interpolation.
    ramp = np.arange(101.0)
    assert percentile_linear(ramp, 2.0) == 2.0
    assert percentile_linear(ramp, 98.0) == 98.0
    data = np.zeros((101, 1, 1))
    data[:, 0, 0] = ramp
    out = rescale_percentiles(vol(data), RescaleSpec(), ALL)
    assert out.data[2, 0, 0] == 0.0
    assert out.data[98, 0, 0] == 1.0
    assert out.data[100, 0, 0] == 1.0  # clamped above P98
    assert out.data[0, 0, 0] == 0.0  # clamped below P2


def test_rescale_two_values_pin_endpoints():
    data = np.array([3.0, 11.0]).reshape(2, 1, 1)
    out = rescale_percentiles(vol(data), RescaleSpec(), ALL)
    assert np.array_equal(out.data.ravel(), [0.0, 1.0])


def test_rescale_below_window_is_exact_out_min():
    rng = np.random.default_rng(104)
    data = rng.uniform(10.0, 20.0, size=(8, 8, 8))
    data[0, 0, 0] = 1.0  # far below P2
    spec = RescaleSpec(out_min=-2.0, out_max=3.0)
    out = rescale_percentiles(vol(data), spec, ALL)
    assert out.data[0, 0, 0] == -2.0


def test_rescale_matches_oracle_formula():
    rng = np.random.default_rng(105)
    for _ in range(10):
        data = rng.normal(size=(7, 7, 7)) * rng.uniform(1, 30)
        spec = RescaleSpec(5.0, 95.0, 0.0, 2.0)
        out = rescale_percentiles(vol(data), spec, ALL)
        p_lo = percentile_linear(data.ravel(), 5.0)
        p_hi = percentile_linear(data.ravel(), 95.0)
        expected = np.clip((data - p_lo) / (p_hi - p_lo), 0.0, 1.0) * 2.0
        assert np.allclose(out.data, expected, atol=1e-9)


def test_rescale_range_and_monotonicity():
    rng = np.random.default_rng(106)
    for _ in range(10):
        data = rng.normal(size=(6, 6, 6))
        spec = RescaleSpec(out_min=-1.0, out_max=4.0)
        out = rescale_percentiles(vol(data), spec, ALL)
        assert out.data.min() >= -1.0 and out.data.max() <= 4.0
        order = np.argsort(data.ravel())
        mapped = out.data.ravel()[order]
        assert np.all(np.diff(mapped) >= 0.0)


def test_rescale_excluded_voxels_get_out_min():
    data = np.zeros((4, 4, 4))
    data[1, 1, 1] = 5.0
    data[2, 2, 2] = 9.0
    spec = RescaleSpec(out_min=0.25, out_max=1.0)
    out = rescale_percentiles(vol(data), spec, FG)
    assert out.data[0, 0, 0] == 0.25


def test_rescale_degenerate_window():
    data = np.full((5, 5, 5), 3.0)
    with pytest.raises(ValueError, match="degenerate"):
        rescale_percentiles(vol(data), RescaleSpec(), ALL)


def test_rescale_spec_validation():
    with pytest.raises(ValueError):
        RescaleSpec(lo_percentile=98.0, hi_percentile=2.0)
    with pytest.raises(ValueError):
        RescaleSpec(lo_percentile=-1.0)
    with pytest.raises(ValueError):
        RescaleSpec(hi_percentile=101.0)
    with pytest.raises(ValueError):
        RescaleSpec(out_min=1.0, out_max=1.0)
    for bounds in ({"out_max": np.inf}, {"out_min": -np.inf}, {"out_max": np.nan}):
        with pytest.raises(ValueError, match="finite"):
            RescaleSpec(**bounds)
    with pytest.raises(TypeError, match="out_min"):
        RescaleSpec(out_min=False)
    assert RescaleSpec(out_max=np.int64(2)).out_max == 2


def test_rescale_spec_refuses_a_range_beyond_float32():
    # finite, but preprocess_volume's float32 grid and the written file cannot hold it
    for bounds in ({"out_max": 1e39}, {"out_min": -1e39}):
        with pytest.raises(ValueError, match="exceeds float32's range"):
            RescaleSpec(**bounds)
    edge = float(np.finfo(np.float32).max)
    spec = RescaleSpec(out_min=-edge, out_max=edge)
    data = np.zeros((4, 4, 4))
    data[0] = 1.0
    data[1] = 2.0
    out = preprocess_volume(vol(data), FG, spec).data
    assert out.min() == -edge and out.max() == edge


def test_preprocess_volume_composes_both_steps():
    rng = np.random.default_rng(107)
    data = rng.uniform(5.0, 50.0, size=(8, 8, 8))
    v = vol(data)
    combined = preprocess_volume(v, ALL, RescaleSpec())
    staged = rescale_percentiles(zscore_normalize(v, ALL), RescaleSpec(), ALL)
    # preprocess_volume writes float32, the type the file stores; the float64
    # steps agree with it up to that one cast
    assert np.array_equal(combined.data, staged.data.astype(np.float32))
    assert combined.data.min() >= 0.0 and combined.data.max() <= 1.0


def test_preprocess_volume_writes_float32_and_the_steps_float64():
    data = np.random.default_rng(108).uniform(5.0, 50.0, size=(5, 4, 3))
    assert preprocess_volume(vol(data)).data.dtype == np.float32
    assert zscore_normalize(vol(data)).data.dtype == np.float64
    assert rescale_percentiles(vol(data)).data.dtype == np.float64
    assert preprocess_volume(ScalarVolume(data.astype(np.int16))).data.dtype == np.float32


def test_preprocess_volume_builds_its_grid_in_disk_order():
    # the writer streams Fortran-ordered planes without a copy; the values
    # are the same whatever the input's layout and dtype, and with background
    # included they are the float64 steps' values cast once
    rng = np.random.default_rng(111)
    data = np.rint(rng.uniform(5.0, 50.0, size=(7, 6, 5)))
    data[rng.random(data.shape) < 0.3] = 0.0
    staged = rescale_percentiles(zscore_normalize(vol(data), ALL), RescaleSpec(), ALL)
    for policy, want in ((ALL, staged.data.astype(np.float32)), (FG, None)):
        for source in (data, np.asfortranarray(data), data.astype(np.int16)):
            got = preprocess_volume(ScalarVolume(source), policy).data
            assert got.flags.f_contiguous and got.dtype == np.float32
            want = got if want is None else want
            assert np.array_equal(got, want)


def test_preprocess_volume_logs_its_statistics(caplog):
    # Brain values {1, 2, 3} in equal numbers: 48 voxels, mean 2, population
    # std sqrt(2/3); the z-scores are -1.2247, 0 and 1.2247, so P2 and P98 are
    # the outer two.
    data = np.zeros((6, 4, 4))
    data[0], data[1], data[2] = 1.0, 2.0, 3.0
    with caplog.at_level("INFO", logger="glioseg.preprocess"):
        preprocess_volume(vol(data))
    assert caplog.messages == [
        "normalization: 48 included voxel(s), mean 2, std 0.816497, "
        "z-score window P2..P98 [-1.22474, 1.22474]"
    ]
    assert [r.name for r in caplog.records] == ["glioseg.preprocess"]


def test_preprocess_keeps_brain_voxels_at_the_mean_in_the_window():
    # Brain values {1, 2, 3} in equal numbers: the 2s z-score to exactly 0
    # but are still brain, so they rescale to about 0.5, not to out_min.
    data = np.zeros((6, 4, 4))
    data[0], data[1], data[2] = 1.0, 2.0, 3.0
    out = preprocess_volume(vol(data))
    normalized = zscore_normalize(vol(data)).data
    assert np.count_nonzero(normalized[data == 2.0]) == 0
    values = normalized[data != 0.0]
    lo = percentile_linear(values, 2.0)
    hi = percentile_linear(values, 98.0)
    expected = np.clip((normalized - lo) / (hi - lo), 0.0, 1.0)
    expected[data == 0.0] = 0.0
    assert np.max(np.abs(out.data - expected)) < 1e-6
    assert abs(out.data[1, 0, 0] - 0.5) < 1e-6


def test_steps_leave_the_input_and_the_mask_unchanged():
    rng = np.random.default_rng(109)
    data = rng.normal(10.0, 3.0, size=(7, 6, 5))
    data[rng.random(data.shape) < 0.3] = 0.0
    for policy in (ALL, FG):
        v = vol(data)
        steps = [
            lambda: zscore_normalize(v, policy),
            lambda: rescale_percentiles(v, RescaleSpec(), policy),
            lambda: preprocess_volume(v, policy),
        ]
        for step in steps:
            before = v.data.copy()
            out = step()
            assert out.data is not v.data
            assert np.array_equal(v.data, before)


def _assert_steps_match_the_out_of_place_formulas(data, spec):
    # The steps work in place on copies; the arithmetic must stay the same
    # element by element as these expressions, which allocate every temporary.
    for policy in (ALL, FG):
        mask = np.ones(data.shape, dtype=bool) if policy is ALL else data != 0.0
        values = data[mask]
        zscored = np.zeros(data.shape)
        zscored[mask] = (values - float(values.mean())) / float(values.std())
        assert np.array_equal(zscore_normalize(vol(data), policy).data, zscored)

        p_lo, p_hi = np.percentile(zscored[mask], [spec.lo_percentile, spec.hi_percentile])
        unit = np.clip((zscored - p_lo) / (p_hi - p_lo), 0.0, 1.0)
        rescaled = unit * (spec.out_max - spec.out_min) + spec.out_min
        rescaled[~mask] = spec.out_min
        got = preprocess_volume(vol(data), policy, spec).data
        assert np.array_equal(got, rescaled.astype(np.float32))

        # rescale on its own, over the raw values
        p_lo, p_hi = np.percentile(data[mask], [spec.lo_percentile, spec.hi_percentile])
        unit = np.clip((data - p_lo) / (p_hi - p_lo), 0.0, 1.0)
        rescaled = unit * (spec.out_max - spec.out_min) + spec.out_min
        rescaled[~mask] = spec.out_min
        assert np.array_equal(rescale_percentiles(vol(data), spec, policy).data, rescaled)


def test_steps_match_the_out_of_place_formulas_bit_for_bit():
    rng = np.random.default_rng(110)
    spec = RescaleSpec(3.0, 97.0, -0.5, 2.0)
    for _ in range(5):
        data = rng.normal(rng.uniform(-20, 20), rng.uniform(0.5, 9.0), size=(9, 8, 7))
        data[rng.random(data.shape) < 0.25] = 0.0
        _assert_steps_match_the_out_of_place_formulas(data, spec)


def test_steps_written_slab_by_slab_match_the_formulas_bit_for_bit():
    # The output is filled _SLAB_ROWS first-axis rows at a time; this grid
    # spans two whole slabs and a partial third, and one slab is all
    # background, so no slab's values are assumed non-empty.
    rng = np.random.default_rng(113)
    spec = RescaleSpec(3.0, 97.0, -0.5, 2.0)
    dims = (2 * _SLAB_ROWS + 5, 6, 5)
    for _ in range(3):
        data = rng.normal(rng.uniform(-20, 20), rng.uniform(0.5, 9.0), size=dims)
        data[rng.random(dims) < 0.25] = 0.0
        data[_SLAB_ROWS : 2 * _SLAB_ROWS] = 0.0
        _assert_steps_match_the_out_of_place_formulas(data, spec)
        # a stored int16 volume gives the same bytes as its float64 copy
        stored = np.rint(data * 50.0).astype(np.int16)
        for policy in (ALL, FG):
            assert np.array_equal(
                preprocess_volume(ScalarVolume(stored, (1.0, 1.0, 1.0)), policy, spec).data,
                preprocess_volume(vol(stored), policy, spec).data,
            )


def test_preprocess_memory_is_one_output_per_step():
    # 128x128x64 float64 is 8 MiB. preprocess_volume writes one output grid
    # and does its arithmetic on the included values, so the peak is that
    # grid, two bool masks and the included values (about 2.2 grids here,
    # where 90 % of the voxels are included); a step that builds
    # out-of-place temporaries or a second output grid adds grids.
    rng = np.random.default_rng(111)
    dims = (128, 128, 64)
    data = rng.uniform(100.0, 900.0, size=dims)
    data[rng.random(dims) < 0.1] = 0.0
    v = vol(data)
    del data
    tracemalloc.start()
    try:
        out = preprocess_volume(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dims == dims
    assert peak < 22 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_preprocess_volume_holds_one_grid_and_the_included_values():
    # BraTS volumes are ~77 % background. The bound is the output grid, two
    # bool grids (the included mask and the output's finiteness check) and
    # two copies of the included values; a second float64 grid, such as a
    # z-score grid beside the rescaled one, breaks it.
    rng = np.random.default_rng(112)
    dims = (128, 128, 64)
    data = rng.uniform(100.0, 900.0, size=dims)
    data[rng.random(dims) < 0.77] = 0.0
    included = np.count_nonzero(data)
    v = vol(data)
    del data
    preprocess_volume(vol(np.arange(1.0, 9.0).reshape(2, 2, 2)))  # lazy imports are not arrays
    tracemalloc.start()
    try:
        out = preprocess_volume(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    voxels = out.data.size
    bound = 8 * voxels + 2 * voxels + 2 * 8 * included
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_preprocess_volume_peak_is_a_float32_grid_and_the_included_values():
    # The output is one float32 grid (4 bytes a voxel); besides it the bound
    # allows two bool grids and two float64 copies of the included values. A
    # float64 output grid, or one that parks the z-scores, breaks it.
    rng = np.random.default_rng(112)
    dims = (128, 128, 64)
    data = rng.uniform(100.0, 900.0, size=dims)
    data[rng.random(dims) < 0.77] = 0.0
    included = np.count_nonzero(data)
    v = vol(data)
    del data
    preprocess_volume(vol(np.arange(1.0, 9.0).reshape(2, 2, 2)))  # lazy imports are not arrays
    tracemalloc.start()
    try:
        out = preprocess_volume(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    voxels = out.data.size
    bound = 4 * voxels + 2 * voxels + 2 * 8 * included
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_preprocess_volume_holds_the_output_grid_and_one_slab():
    # The statistics pass frees its gather and the grid-sized mask before
    # the float32 output grid is made, and the grid is filled slab by slab.
    # The bound is that grid and one bool grid's bytes: room for a slab's
    # mask and values or for the statistics pass, not for a whole-grid mask
    # or a second whole-grid gather beside the output.
    rng = np.random.default_rng(114)
    dims = (8 * _SLAB_ROWS, 96, 64)
    data = rng.uniform(100.0, 900.0, size=dims)
    data[rng.random(dims) < 0.77] = 0.0
    v = vol(data)
    del data
    preprocess_volume(vol(np.arange(1.0, 9.0).reshape(2, 2, 2)))  # lazy imports are not arrays
    tracemalloc.start()
    try:
        out = preprocess_volume(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    voxels = out.data.size
    bound = out.data.nbytes + voxels
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
