from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from glioseg.volume import (
    _FINITE_BLOCK,
    LabelVolume,
    Region,
    ScalarVolume,
    extract_region,
    reconstruct_labels,
)


def random_labels(rng, dims=(6, 5, 4), spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(rng.integers(0, 4, size=dims), spacing=spacing)


def test_region_label_sets_are_nested():
    et, tc, wt = set(Region.ET.labels), set(Region.TC.labels), set(Region.WT.labels)
    assert et < tc < wt
    assert et == {3} and tc == {1, 3} and wt == {1, 2, 3}


def test_scalar_volume_validation():
    for dtype in (np.float64, np.float32):
        with pytest.raises(ValueError):
            ScalarVolume(np.full((2, 2, 2), np.nan, dtype=dtype))
    with pytest.raises(ValueError):
        ScalarVolume(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="does not match dims"):
        ScalarVolume(np.zeros((2, 2, 2))).with_data(np.zeros((2, 2, 3)))
    for bad in (np.nan, np.inf):
        orientation = np.eye(3, 4)
        orientation[1, 3] = bad
        with pytest.raises(ValueError, match="orientation"):
            ScalarVolume(np.zeros((2, 2, 2)), (1, 1, 1), orientation)
    # finiteness is checked in blocks of 2^20 voxels: a NaN on either side of
    # a block boundary, or in the last voxel, is still found
    data = np.zeros((128, 128, 65))  # just over one block
    for index in (2**20 - 1, 2**20, data.size - 1):
        data.flat[index] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScalarVolume(data)
        data.flat[index] = 0.0


def test_finiteness_check_holds_no_grid_sized_bool():
    data = np.zeros((256, 128, 128))  # four 2^20-voxel blocks, 32 MiB of float64
    tracemalloc.start()
    try:
        volume = ScalarVolume(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(volume.data, data)
    # one block's bools plus slack; a whole-grid np.isfinite takes 4 MiB
    assert peak < 2**20 + 2**18, f"peak {peak / 2**20:.2f} MiB"


def test_integer_intensities_are_kept_without_a_finiteness_pass():
    data = np.zeros((256, 128, 128), dtype=np.int16)  # 8 MiB, four finiteness blocks
    tracemalloc.start()
    try:
        volume = ScalarVolume(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert volume.data.dtype == np.int16 and np.shares_memory(volume.data, data)
    assert peak < _FINITE_BLOCK, f"peak {peak / 2**20:.2f} MiB"


def test_label_volume_rejects_out_of_range():
    with pytest.raises(ValueError):
        LabelVolume(np.full((2, 2, 2), 4))
    with pytest.raises(ValueError):
        LabelVolume(np.full((2, 2, 2), -1))


def test_extract_all_zero_labels_gives_empty_masks():
    labels = np.zeros((3, 3, 3), dtype=np.uint8)
    for region in Region:
        assert np.count_nonzero(extract_region(labels, region)) == 0


def test_extract_single_et_voxel_is_in_every_region():
    labels = np.zeros((3, 3, 3), dtype=np.uint8)
    labels[1, 1, 1] = 3
    for region in Region:
        mask = extract_region(labels, region)
        assert mask[1, 1, 1]
        assert np.count_nonzero(mask) == 1


def test_extract_edema_voxel_only_in_wt():
    labels = np.zeros((3, 3, 3), dtype=np.uint8)
    labels[0, 2, 1] = 2
    assert not extract_region(labels, Region.ET)[0, 2, 1]
    assert not extract_region(labels, Region.TC)[0, 2, 1]
    assert extract_region(labels, Region.WT)[0, 2, 1]


def test_reconstruct_empty_masks():
    empty = np.zeros((3, 3, 3), dtype=bool)
    assert not reconstruct_labels(empty, empty, empty).any()


def test_reconstruct_single_voxel_all_regions():
    m = np.zeros((3, 3, 3), dtype=bool)
    m[2, 0, 1] = True
    out = reconstruct_labels(m, m, m)
    assert out[2, 0, 1] == 3
    assert (out != 0).sum() == 1


def test_reconstruct_cube_with_core_center():
    # 3x3x3 WT cube, TC = its center voxel, ET empty: hand enumeration says
    # the center gets 1 (NCR) and the other 26 cube voxels get 2 (ED).
    wt = np.zeros((5, 5, 5), dtype=bool)
    wt[1:4, 1:4, 1:4] = True
    tc = np.zeros((5, 5, 5), dtype=bool)
    tc[2, 2, 2] = True
    et = np.zeros((5, 5, 5), dtype=bool)
    out = reconstruct_labels(et, tc, wt)
    assert out[2, 2, 2] == 1
    assert (out == 2).sum() == 26
    assert (out == 0).sum() == 5**3 - 27


def test_reconstruct_repairs_non_nested_masks():
    # ET sticking outside WT must be clipped away, not rejected.
    et = np.zeros((3, 3, 3), dtype=bool)
    et[0, 0, 0] = True
    tc = np.zeros((3, 3, 3), dtype=bool)
    wt = np.zeros((3, 3, 3), dtype=bool)
    wt[1, 1, 1] = True
    out = reconstruct_labels(et, tc, wt)
    assert out[0, 0, 0] == 0
    assert out[1, 1, 1] == 2


def test_reconstruct_rejects_dim_mismatch():
    a = np.zeros((3, 3, 3), dtype=bool)
    b = np.zeros((3, 3, 4), dtype=bool)
    with pytest.raises(ValueError, match="shape"):
        reconstruct_labels(a, a, b)


def test_round_trip_and_nesting_properties():
    rng = np.random.default_rng(7)
    for _ in range(25):
        labels = random_labels(rng).data
        et = extract_region(labels, Region.ET)
        tc = extract_region(labels, Region.TC)
        wt = extract_region(labels, Region.WT)
        # monotone nesting
        assert not (et & ~tc).any()
        assert not (tc & ~wt).any()
        rebuilt = reconstruct_labels(et, tc, wt)
        assert rebuilt.dtype == np.uint8
        assert np.array_equal(rebuilt, labels)
        # output of reconstruction is always a valid labeling
        assert rebuilt.max(initial=0) <= 3


def test_round_trip_on_a_table_and_on_columns():
    # fusion extracts from a J x T table of label tuples and rebuilds from
    # T fused columns, so the helpers must keep any shape
    rng = np.random.default_rng(13)
    table = rng.integers(0, 4, size=(5, 40)).astype(np.uint8)
    masks = [extract_region(table, region) for region in Region]
    assert all(mask.shape == table.shape and mask.dtype == bool for mask in masks)
    assert np.array_equal(reconstruct_labels(*masks), table)
    for column in table:
        rebuilt = reconstruct_labels(*(extract_region(column, region) for region in Region))
        assert rebuilt.shape == column.shape
        assert np.array_equal(rebuilt, column)


def test_reconstruct_then_extract_reproduces_repaired_masks():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dims = (4, 4, 4)
        et = rng.random(dims) < 0.3
        tc = rng.random(dims) < 0.4
        wt = rng.random(dims) < 0.5
        out = reconstruct_labels(et, tc, wt)
        et_n = et & tc & wt
        tc_n = tc & wt
        assert np.array_equal(extract_region(out, Region.ET), et_n)
        assert np.array_equal(extract_region(out, Region.TC), tc_n)
        assert np.array_equal(extract_region(out, Region.WT), wt)
