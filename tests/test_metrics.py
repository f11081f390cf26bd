from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

import glioseg.metrics as metrics
from glioseg.metrics import (
    MetricConfig,
    _directed_p95,
    aggregate,
    dice,
    evaluate_case,
    hd95,
    surface_mask,
)
from glioseg.volume import LabelVolume, Region, RegionMask

from oracles import hd95_oracle, percentile_linear, surface_coords

CFG = MetricConfig()


def mask_of(data, spacing=(1.0, 1.0, 1.0)):
    return RegionMask(data, spacing)


def box(dims, lo, hi, spacing=(1.0, 1.0, 1.0)):
    data = np.zeros(dims, dtype=bool)
    data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
    return mask_of(data, spacing)


def test_dice_identical():
    a = box((8, 8, 8), (1, 1, 1), (5, 5, 5))
    assert dice(a, a) == 1.0


def test_dice_disjoint():
    a = box((8, 8, 8), (0, 0, 0), (2, 2, 2))
    b = box((8, 8, 8), (4, 4, 4), (6, 6, 6))
    assert dice(a, b) == 0.0


def test_dice_half_overlap():
    # |A| = |B| = 4, |A∩B| = 2 → 2*2 / 8 = 0.5
    a = np.zeros((4, 4, 4), dtype=bool)
    b = np.zeros((4, 4, 4), dtype=bool)
    a[0, 0, :4] = True
    b[0, 0, 2:4] = True
    b[0, 1, 0:2] = True
    assert dice(mask_of(a), mask_of(b)) == 0.5


def test_dice_empty_conventions():
    empty = mask_of(np.zeros((4, 4, 4), dtype=bool))
    full = box((4, 4, 4), (1, 1, 1), (3, 3, 3))
    assert dice(empty, empty) == 1.0
    assert dice(empty, full) == 0.0
    assert dice(full, empty) == 0.0
    custom = MetricConfig(empty_empty_dice=0.0)
    assert dice(empty, empty, custom) == 0.0


def test_dice_dim_mismatch():
    with pytest.raises(ValueError, match="dims"):
        dice(mask_of(np.zeros((4, 4, 4), dtype=bool)), mask_of(np.zeros((5, 4, 4), dtype=bool)))


MIRRORED = np.array([[-1.0, 0.0, 0.0, 5.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])


@pytest.mark.parametrize("shift", [None, 0.5, 1e-3], ids=["mirrored", "shifted", "shifted-1e-3-mm"])
def test_dice_and_hd95_refuse_masks_whose_affines_differ(shift):
    data = box((6, 6, 6), (1, 1, 1), (4, 4, 4)).data
    a = RegionMask(data)
    if shift is None:
        b = RegionMask(data, (1, 1, 1), MIRRORED)
    else:
        moved = np.eye(3, 4)
        moved[1, 3] = shift
        b = RegionMask(data, (1, 1, 1), moved)
    for metric in (dice, hd95):
        with pytest.raises(ValueError, match="affine") as raised:
            metric(a, b)
        assert str(a.orientation.tolist()) in str(raised.value)
        assert str(b.orientation.tolist()) in str(raised.value)


def test_region_mask_from_data_and_spacing_is_a_grid():
    data = box((5, 4, 3), (1, 1, 0), (3, 3, 2)).data.astype(np.uint8)  # taken as bool
    mask = RegionMask(data, (0.5, 2.0, 3.0))
    assert mask.data.dtype == bool and mask.data.flags.c_contiguous
    assert mask.dims == (5, 4, 3) and mask.spacing == (0.5, 2.0, 3.0)
    assert np.array_equal(mask.orientation, [[0.5, 0, 0, 0], [0, 2.0, 0, 0], [0, 0, 3.0, 0]])
    assert dice(mask, mask) == 1.0 and hd95(mask, mask) == 0.0
    inverse = mask.with_data(~mask.data)
    assert np.array_equal(inverse.orientation, mask.orientation) and inverse.spacing == mask.spacing
    assert dice(mask, inverse) == 0.0
    with pytest.raises(ValueError, match="spacing"):
        RegionMask(data, (0.5, 0.0, 3.0))
    with pytest.raises(ValueError, match="dims"):
        RegionMask(np.zeros((4, 4), dtype=bool))


def test_surface_of_solid_box_is_shell():
    m = np.zeros((7, 7, 7), dtype=bool)
    m[1:6, 1:6, 1:6] = True
    surf = surface_mask(m)
    interior = np.zeros_like(m)
    interior[2:5, 2:5, 2:5] = True
    assert np.array_equal(surf, m & ~interior)
    # and matches the loop-based oracle's coordinate set
    coords = {tuple(c) for c in surface_coords(m).astype(int)}
    assert coords == {tuple(c) for c in np.argwhere(surf)}


def test_surface_border_counts_as_outside():
    m = np.ones((3, 3, 3), dtype=bool)
    assert surface_mask(m)[0, 0, 0]
    assert not surface_mask(m)[1, 1, 1]


def test_hd95_identical_masks():
    a = box((8, 8, 8), (2, 2, 2), (6, 6, 6))
    assert hd95(a, a) == 0.0


def test_hd95_two_single_voxels():
    a = np.zeros((8, 8, 8), dtype=bool)
    b = np.zeros((8, 8, 8), dtype=bool)
    a[0, 0, 0] = True
    b[3, 0, 0] = True
    assert hd95(mask_of(a), mask_of(b)) == 3.0


def test_hd95_anisotropic_spacing():
    a = np.zeros((8, 8, 8), dtype=bool)
    b = np.zeros((8, 8, 8), dtype=bool)
    a[0, 0, 0] = True
    b[0, 0, 2] = True  # 2 voxels along the 2.5 mm axis
    sp = (1.0, 1.0, 2.5)
    assert hd95(mask_of(a, sp), mask_of(b, sp)) == 5.0


def test_hd95_empty_conventions():
    empty = mask_of(np.zeros((4, 4, 4), dtype=bool))
    full = box((4, 4, 4), (1, 1, 1), (3, 3, 3))
    assert hd95(empty, empty) == 0.0
    assert hd95(empty, full) == 373.13
    assert hd95(full, empty) == 373.13
    custom = MetricConfig(empty_pred_penalty_mm=100.0, empty_empty_hd95=1.5)
    assert hd95(empty, full, config=custom) == 100.0
    assert hd95(empty, empty, config=custom) == 1.5


def test_hd95_matches_all_pairs_oracle():
    rng = np.random.default_rng(301)
    spacings = [(1.0, 1.0, 1.0), (1.0, 1.5, 2.0), (0.7, 0.7, 3.0)]
    for trial in range(30):
        a = rng.random((16, 16, 16)) < rng.uniform(0.05, 0.5)
        b = rng.random((16, 16, 16)) < rng.uniform(0.05, 0.5)
        sp = spacings[trial % len(spacings)]
        got = hd95(mask_of(a, sp), mask_of(b, sp))
        want = hd95_oracle(a, b, sp, CFG.empty_pred_penalty_mm, CFG.empty_empty_hd95)
        assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"
    # small blobs in a larger grid, so the joint box is a crop of it; one
    # blob sits in a grid corner, the opposite corner, against a face or
    # inside, by turns
    dims = np.array((20, 16, 18))
    for trial in range(24):
        a = np.zeros(tuple(dims), dtype=bool)
        b = np.zeros(tuple(dims), dtype=bool)
        for mask, place in ((a, trial % 4), (b, 3)):
            size = rng.integers(1, 6, size=3)
            lo = rng.integers(0, dims - size + 1)
            if place == 0:
                lo[:] = 0
            elif place == 1:
                lo = dims - size
            elif place == 2:
                lo[trial % 3] = 0
            box = tuple(slice(l, l + n) for l, n in zip(lo, size))
            mask[box] = rng.random(tuple(size)) < 0.7
            mask[tuple(lo)] = True
        sp = spacings[1 + trial % 2]
        got = hd95(mask_of(a, sp), mask_of(b, sp))
        want = hd95_oracle(a, b, sp, CFG.empty_pred_penalty_mm, CFG.empty_empty_hd95)
        assert got == pytest.approx(want, abs=1e-9), f"blob trial {trial}"


def test_hd95_symmetry_and_translation():
    rng = np.random.default_rng(302)
    for _ in range(10):
        a = np.zeros((12, 12, 12), dtype=bool)
        b = np.zeros((12, 12, 12), dtype=bool)
        a[2:5, 2:6, 3:5] = True
        b[rng.integers(1, 4) : 7, 3:6, 2:5] = True
        assert hd95(mask_of(a), mask_of(b)) == hd95(mask_of(b), mask_of(a))
        assert dice(mask_of(a), mask_of(b)) == dice(mask_of(b), mask_of(a))
        # shift both by (2, 1, 3)
        a2 = np.roll(a, (2, 1, 3), axis=(0, 1, 2))
        b2 = np.roll(b, (2, 1, 3), axis=(0, 1, 2))
        assert hd95(mask_of(a2), mask_of(b2)) == pytest.approx(
            hd95(mask_of(a), mask_of(b)), abs=1e-12
        )


def test_hd95_spacing_linearity():
    a = box((10, 10, 10), (1, 1, 1), (4, 4, 4))
    b = box((10, 10, 10), (4, 5, 5), (8, 8, 8))
    base = hd95(a, b)
    doubled = hd95(
        box((10, 10, 10), (1, 1, 1), (4, 4, 4), (2.0, 2.0, 2.0)),
        box((10, 10, 10), (4, 5, 5), (8, 8, 8), (2.0, 2.0, 2.0)),
    )
    assert doubled == pytest.approx(2.0 * base, abs=1e-9)
    assert dice(a, b) == dice(
        box((10, 10, 10), (1, 1, 1), (4, 4, 4), (2.0, 2.0, 2.0)),
        box((10, 10, 10), (4, 5, 5), (8, 8, 8), (2.0, 2.0, 2.0)),
    )


def test_hd95_bounded_by_max_hausdorff():
    rng = np.random.default_rng(303)
    for _ in range(10):
        a = rng.random((10, 10, 10)) < 0.3
        b = rng.random((10, 10, 10)) < 0.3
        if not (a.any() and b.any()):
            continue
        surf_a = surface_coords(a)
        surf_b = surface_coords(b)
        from oracles import _directed_distances

        d_ab = _directed_distances(surf_a, surf_b, (1.0, 1.0, 1.0))
        d_ba = _directed_distances(surf_b, surf_a, (1.0, 1.0, 1.0))
        full = max(d_ab.max(), d_ba.max())
        assert hd95(mask_of(a), mask_of(b)) <= full + 1e-12


def dense_edt_p95(from_surface, to_surface, spacing):
    """Directed 95th percentile read from one dense EDT map of the whole array."""
    distances = ndimage.distance_transform_edt(~to_surface, sampling=spacing)
    return float(np.percentile(distances[from_surface], 95.0))


def dense_edt_hd95(a, b, spacing):
    """hd95 of two non-empty masks from two dense EDT maps over their joint box."""
    box = ndimage.find_objects((a | b).view(np.uint8))[0]
    surf_a = surface_mask(a[box])
    surf_b = surface_mask(b[box])
    return max(dense_edt_p95(surf_a, surf_b, spacing), dense_edt_p95(surf_b, surf_a, spacing))


def ball(dims, centre, radius):
    grid = np.ogrid[tuple(slice(0, n) for n in dims)]
    return sum((g - c) ** 2 for g, c in zip(grid, centre)) <= radius**2


def test_hd95_is_bit_identical_to_dense_edt_maps():
    rng = np.random.default_rng(304)
    # inexact squares, so a different summation order would show in some floats
    spacings = [(1.0, 1.0, 2.5), (0.9, 1.1, 3.0), (0.3, 0.7, 1.1)]
    pairs = []
    # random masks, anisotropic
    for trial in range(30):
        a = rng.random((18, 20, 16)) < rng.uniform(0.05, 0.5)
        b = rng.random((18, 20, 16)) < rng.uniform(0.05, 0.5)
        pairs.append((a, b))
    # blobs cut off by the array border: one around a grid corner, one
    # around the middle of a face
    dims = np.array((24, 22, 20))
    for trial in range(12):
        corner = (dims - 1) * [(trial >> bit) & 1 for bit in range(3)]
        a = ball(dims, corner + rng.integers(-3, 4, size=3), rng.uniform(6, 11))
        face = (dims - 1) / 2
        face[trial % 3] = (dims[trial % 3] - 1) * (trial % 2)
        b = ball(dims, face, rng.uniform(4, 10))
        pairs.append((a | (rng.random(tuple(dims)) < 0.01), b))
    # many small components against one compact blob
    dims = (40, 36, 30)
    for trial in range(6):
        specks = np.zeros(dims, dtype=bool)
        for corner in rng.integers(0, np.array(dims) - 2, size=(rng.integers(20, 120), 3)):
            size = rng.integers(1, 3, size=3)
            specks[tuple(slice(c, c + n) for c, n in zip(corner, size))] = True
        pairs.append((specks, ball(dims, (20, 18, 15), rng.uniform(4, 9))))
    for index, (a, b) in enumerate(pairs):
        assert a.any() and b.any()
        sp = spacings[index % len(spacings)]
        want = dense_edt_hd95(a, b, sp)
        assert hd95(mask_of(a, sp), mask_of(b, sp)) == want, f"pair {index}"
        assert hd95(mask_of(b, sp), mask_of(a, sp)) == want, f"pair {index} swapped"


def test_hd95_memory_is_a_feature_transform_of_the_box():
    # a ball touching every face of a 96^3 grid, and a smaller one inside it
    dims = (96, 96, 96)
    a = mask_of(ball(dims, (47.5, 47.5, 47.5), 48), (0.9, 1.1, 3.0))
    b = mask_of(ball(dims, (52, 44, 50), 36), (0.9, 1.1, 3.0))
    box = ndimage.find_objects((a.data | b.data).view(np.uint8))[0]
    box_voxels = int(np.prod([s.stop - s.start for s in box]))
    assert box_voxels == 96**3
    tracemalloc.start()
    try:
        got = hd95(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int32 nearest-voxel indices are 12 bytes per voxel; dense float64
    # distance maps and their temporaries would take ~59
    assert peak < 20 * box_voxels, f"peak {peak / box_voxels:.1f} bytes per box voxel"
    assert got == dense_edt_hd95(a.data, b.data, (0.9, 1.1, 3.0))


@pytest.fixture
def edt_sizes(monkeypatch):
    """Voxel count of each feature transform hd95 runs, in call order."""
    sizes = []
    transform = ndimage.distance_transform_edt

    def counting(input, *args, **kwargs):
        sizes.append(input.size)
        return transform(input, *args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counting)
    return sizes


def test_directed_p95_memory_is_the_queries_plus_one_plane():
    # a ball touching every face of a 96^3 grid against a smaller one: every
    # first-axis plane holds a target one way, 61 of them the other way
    dims = (96, 96, 96)
    spacing = (0.9, 1.1, 3.0)
    big = surface_mask(ball(dims, (47.5, 47.5, 47.5), 48))
    small = surface_mask(ball(dims, (52, 44, 50), 30))
    for queries, target in ((small, big), (big, small)):
        tracemalloc.start()
        try:
            got = _directed_p95(queries, target, spacing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a 3-D feature transform's int32 indices alone take 12 bytes per voxel
        assert peak < 4 * big.size, f"peak {peak / big.size:.1f} bytes per box voxel"
        assert got == dense_edt_p95(queries, target, spacing)


@pytest.mark.parametrize(
    "spacing, nearest_plane",
    [((0.2, 2.7, 3.1), 26), ((4.3, 0.45, 0.55), 10)],
    ids=["thin-planes", "thick-planes"],
)
def test_directed_p95_takes_the_least_distance_over_target_planes(spacing, nearest_plane):
    # queries in planes 0-4, targets only in planes 10 and 26: plane 10 holds
    # the four in-plane corners, plane 26 a square under every query. Thin
    # planes make every query's nearest target the one straight ahead in
    # plane 26, past the nearest target plane; thick planes make it a corner
    # in plane 10, though the in-plane nearest target lies in plane 26.
    rng = np.random.default_rng(306)
    dims = (32, 20, 20)
    queries = np.zeros(dims, dtype=bool)
    queries[rng.integers(0, 5, 40), rng.integers(5, 15, 40), rng.integers(5, 15, 40)] = True
    target = np.zeros(dims, dtype=bool)
    target[10, (0, 0, 19, 19), (0, 19, 0, 19)] = True
    target[26, 4:16, 4:16] = True
    at = np.argwhere(queries)
    ends = np.argwhere(target)
    offsets = (ends[None, :, :] - at[:, None, :]) * np.asarray(spacing)
    nearest = ends[np.argmin(np.square(offsets).sum(axis=2), axis=1)]
    assert np.all(nearest[:, 0] == nearest_plane)
    dense = ndimage.distance_transform_edt(~target, sampling=spacing)
    for point in at:
        query = np.zeros(dims, dtype=bool)
        query[tuple(point)] = True
        assert _directed_p95(query, target, spacing) == dense[tuple(point)], f"query {point}"
    assert _directed_p95(queries, target, spacing) == dense_edt_p95(queries, target, spacing)
    assert hd95(mask_of(queries, spacing), mask_of(target, spacing)) == dense_edt_hd95(
        queries, target, spacing
    )


@pytest.fixture
def edt_sizes(monkeypatch):
    """Voxel count of each feature transform hd95 runs, in call order."""
    sizes = []
    transform = ndimage.distance_transform_edt

    def counting(input, *args, **kwargs):
        sizes.append(input.size)
        return transform(input, *args, **kwargs)

    monkeypatch.setattr(ndimage, "distance_transform_edt", counting)
    return sizes


def target_planes(surface):
    """How many first-axis planes of surface hold a voxel."""
    return np.count_nonzero(surface.any(axis=(1, 2)))


def test_directed_p95_finds_the_nearest_voxel_outside_the_query_box(edt_sizes):
    # queries: the shell of a 7^3 cube; in their box the only target is the
    # cube's centre (3 to 5.2 mm away), while a one-voxel shell two voxels
    # outside the cube is 2 mm from every query
    dims = (40, 40, 40)
    cube = np.zeros(dims, dtype=bool)
    cube[10:17, 10:17, 10:17] = True
    target = np.zeros(dims, dtype=bool)
    target[8:19, 8:19, 8:19] = True
    target[9:18, 9:18, 9:18] = False
    target[13, 13, 13] = target[39, 39, 39] = True
    queries = surface_mask(cube)
    got = _directed_p95(queries, target, (1.0, 1.0, 1.0))
    # one 2-D transform per target plane: the shell's 8 to 18, and 39
    assert edt_sizes == [40 * 40] * 12
    assert got == dense_edt_p95(queries, target, (1.0, 1.0, 1.0)) == 2.0
    assert hd95(mask_of(cube), mask_of(target)) == dense_edt_hd95(cube, target, (1.0, 1.0, 1.0))


def test_directed_p95_bound_from_one_far_query(edt_sizes):
    # eight clustered queries and one far one; in the query box the only
    # target sits in the cluster, 20.05 mm from the far query, whose true
    # nearest target lies 15 voxels past it, outside the box
    dims = (60, 24, 24)
    queries = np.zeros(dims, dtype=bool)
    queries[10:12, 10:12, 10:12] = True
    queries[30, 11, 11] = True
    target = np.zeros(dims, dtype=bool)
    target[10, 10, 10] = target[45, 11, 11] = True
    got = _directed_p95(queries, target, (1.0, 1.0, 1.0))
    # planes 10 and 45
    assert edt_sizes == [24 * 24, 24 * 24]
    assert got == dense_edt_p95(queries, target, (1.0, 1.0, 1.0))
    # the far query's distance, 15 not 20.05, reaches the percentile of nine
    assert got == pytest.approx(np.sqrt(3) + 0.6 * (15 - np.sqrt(3)))
    assert hd95(mask_of(queries), mask_of(target)) == dense_edt_hd95(
        queries, target, (1.0, 1.0, 1.0)
    )


def test_directed_p95_weighs_plane_offsets_by_the_first_axis_spacing(edt_sizes):
    # 0.5 mm voxels along axis 0: two target sheets 4 planes (2 mm) off the
    # cube's axis-0 faces are nearer to its corners than the cube's centre
    spacing = (0.5, 1.0, 2.5)
    dims = (30, 20, 12)
    cube = np.zeros(dims, dtype=bool)
    cube[10:13, 10:13, 4:7] = True
    target = np.zeros(dims, dtype=bool)
    target[(6, 16), 8:15, 2:9] = True
    target[11, 11, 5] = True
    queries = surface_mask(cube)
    got = _directed_p95(queries, target, spacing)
    # planes 6, 11 and 16
    assert edt_sizes == [20 * 12] * 3
    assert got == dense_edt_p95(queries, target, spacing) == 2.5
    assert hd95(mask_of(cube, spacing), mask_of(target, spacing)) == dense_edt_hd95(
        cube, target, spacing
    )


def test_compact_pair_transforms_each_target_plane_of_the_joint_box(edt_sizes):
    # each direction transforms the joint box's (n1, n2) plane once for every
    # plane that holds a surface voxel of the other mask
    dims = (24, 24, 24)
    a = ball(dims, (10, 10, 10), 6)
    b = ball(dims, (12, 11, 10), 6)
    box = ndimage.find_objects((a | b).view(np.uint8))[0]
    plane = (box[1].stop - box[1].start) * (box[2].stop - box[2].start)
    got = hd95(mask_of(a), mask_of(b))
    planes_a = target_planes(surface_mask(a[box]))
    planes_b = target_planes(surface_mask(b[box]))
    assert (planes_a, planes_b) == (13, 13)
    assert edt_sizes == [plane] * (planes_b + planes_a)
    assert got == dense_edt_hd95(a, b, (1.0, 1.0, 1.0))


def test_specks_against_a_blob_transform_less_than_the_joint_box(edt_sizes):
    rng = np.random.default_rng(305)
    dims = (40, 36, 30)
    specks = np.zeros(dims, dtype=bool)
    for corner in rng.integers(0, np.array(dims) - 2, size=(60, 3)):
        size = rng.integers(1, 3, size=3)
        specks[tuple(slice(c, c + n) for c, n in zip(corner, size))] = True
    specks[20, 18, 15] = True  # one speck inside the blob's box
    blob = ball(dims, (20, 18, 15), 5)
    sp = (0.9, 1.1, 3.0)
    box = ndimage.find_objects((specks | blob).view(np.uint8))[0]
    joint = int(np.prod([s.stop - s.start for s in box]))
    plane = joint // (box[0].stop - box[0].start)
    got = hd95(mask_of(blob, sp), mask_of(specks, sp))
    # blob -> specks: one plane per plane holding a speck; specks -> blob:
    # the blob's 11 planes only
    speck_planes = target_planes(surface_mask(specks[box]))
    assert edt_sizes == [plane] * (speck_planes + 11)
    assert sum(edt_sizes[speck_planes:]) < joint
    assert got == dense_edt_hd95(blob, specks, sp)


def labels_of(data, spacing=(1.0, 1.0, 1.0)):
    return LabelVolume(np.asarray(data, dtype=np.uint8), spacing)


def test_evaluate_identical_case():
    data = np.zeros((8, 8, 8), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 2
    data[2:5, 2:5, 2:5] = 1
    data[3, 3, 3] = 3
    report = evaluate_case(labels_of(data), labels_of(data))
    assert list(report) == ["ET", "TC", "WT"]
    for region in Region:
        assert report[region.name] == {"dice": 1.0, "hd95_mm": 0.0}


def test_evaluate_empty_prediction_gets_penalties():
    truth = np.zeros((8, 8, 8), dtype=np.uint8)
    truth[1:6, 1:6, 1:6] = 2
    truth[2:5, 2:5, 2:5] = 1
    truth[3, 3, 3] = 3
    pred = np.zeros((8, 8, 8), dtype=np.uint8)
    report = evaluate_case(labels_of(pred), labels_of(truth))
    for region in Region:
        assert report[region.name]["dice"] == 0.0
        assert report[region.name]["hd95_mm"] == 373.13


def test_evaluate_crafted_overlaps():
    truth = np.zeros((8, 8, 8), dtype=np.uint8)
    pred = np.zeros((8, 8, 8), dtype=np.uint8)
    truth[0, 0, 0:4] = 3  # ET truth: 4 voxels
    pred[0, 0, 2:6] = 3  # ET pred: 4 voxels, overlap 2
    truth[2, 2, 0:4] = 1  # extra TC-only voxels
    pred[2, 2, 0:4] = 1  # TC: truth {8}, pred {8}, overlap 6
    truth[4, 4, 0:2] = 2  # WT adds edema: truth 10, pred 8+2=10, overlap 8
    pred[4, 4, 0:2] = 2
    report = evaluate_case(labels_of(pred), labels_of(truth))
    # ET: 2*2/(4+4); TC: 2*6/(8+8); WT: 2*8/(10+10)
    assert report["ET"]["dice"] == pytest.approx(0.5)
    assert report["TC"]["dice"] == pytest.approx(0.75)
    assert report["WT"]["dice"] == pytest.approx(0.8)


def region_scores_oracle(pred, truth, spacing, config=CFG):
    """Dice by plain counts and hd95_oracle over the whole grid, per region."""
    report = {}
    for region in Region:
        a, b = np.isin(pred, region.labels), np.isin(truth, region.labels)
        size = int(a.sum() + b.sum())
        report[region.name] = {
            "dice": 2.0 * int((a & b).sum()) / size if size else config.empty_empty_dice,
            "hd95_mm": hd95_oracle(
                a, b, spacing, config.empty_pred_penalty_mm, config.empty_empty_hd95
            ),
        }
    return report


def test_evaluate_on_the_joint_label_box_matches_the_whole_grid_oracles():
    rng = np.random.default_rng(431)
    dims, spacing = (9, 8, 7), (0.9, 1.1, 1.7)

    def labels_in(lo, hi):
        data = np.zeros(dims, dtype=np.uint8)
        at = tuple(slice(l, h) for l, h in zip(lo, hi))
        data[at] = rng.choice([0, 1, 2, 3], size=data[at].shape, p=[0.2, 0.2, 0.3, 0.3])
        data[tuple(lo)] = 3
        return data

    empty = np.zeros(dims, dtype=np.uint8)
    pairs = [
        # the joint box touches the faces x = 0, y = 8 and z = 7
        (labels_in((0, 2, 3), (4, 6, 7)), labels_in((1, 3, 2), (5, 8, 6))),
        (labels_in((2, 1, 1), (7, 5, 4)), labels_in((3, 2, 2), (6, 6, 5))),  # strictly inside
        (empty, labels_in((2, 0, 1), (6, 4, 5))),  # prediction all background
        (labels_in((4, 4, 3), (9, 8, 6)), empty),  # truth all background
        (empty, empty),  # both: the empty-mask conventions in every region
    ]
    for index, (pred, truth) in enumerate(pairs):
        got = evaluate_case(labels_of(pred, spacing), labels_of(truth, spacing))
        want = region_scores_oracle(pred, truth, spacing)
        for region in Region:
            name = region.name
            assert got[name]["dice"] == want[name]["dice"], (index, name)
            assert got[name]["hd95_mm"] == pytest.approx(want[name]["hd95_mm"], abs=1e-9), (index, name)
    assert got == {r.name: {"dice": 1.0, "hd95_mm": 0.0} for r in Region}


def test_evaluate_rejects_grid_mismatch():
    a = labels_of(np.zeros((4, 4, 4), dtype=np.uint8))
    b = labels_of(np.zeros((4, 4, 5), dtype=np.uint8))
    with pytest.raises(ValueError, match="dims"):
        evaluate_case(a, b)
    c = labels_of(np.zeros((4, 4, 4), dtype=np.uint8), spacing=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="spacing"):
        evaluate_case(a, c)


def test_evaluate_refuses_a_mirrored_prediction_and_gives_masks_their_orientation(monkeypatch):
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[1:4, 2:5, 1:3] = 2
    truth = labels_of(data)
    with pytest.raises(ValueError, match="affine"):
        evaluate_case(LabelVolume(data, (1, 1, 1), MIRRORED), truth)
    seen = []
    monkeypatch.setattr(metrics, "dice", lambda a, b, config: seen.append(a) or 1.0)
    evaluate_case(LabelVolume(data, (1, 1, 1), MIRRORED), LabelVolume(data, (1, 1, 1), MIRRORED))
    # the masks cover the labels' box, whose first voxel (1, 2, 1) is the
    # mirrored grid's world point (5 - 1, 2, 1)
    box_affine = MIRRORED.copy()
    box_affine[:, 3] = [4.0, 2.0, 1.0]
    assert len(seen) == 3
    for mask in seen:
        assert mask.dims == (3, 3, 2)
        assert np.array_equal(mask.orientation, box_affine)


def report_with(values):
    return {region.name: {"dice": d, "hd95_mm": h} for region, (d, h) in zip(Region, values)}


def test_aggregate_single_report():
    rep = report_with([(0.8, 2.0), (0.7, 3.0), (0.9, 1.0)])
    summary = aggregate([rep])
    assert list(summary) == ["ET", "TC", "WT"]
    for region, (d, h) in zip(Region, [(0.8, 2.0), (0.7, 3.0), (0.9, 1.0)]):
        assert summary[region.name]["dice"] == {"mean": d, "std": 0.0, "median": d}
        assert summary[region.name]["hd95_mm"]["mean"] == h
        assert all(
            type(value) is float
            for stats in summary[region.name].values() for value in stats.values()
        )


def test_aggregate_two_reports_mean():
    reps = [
        report_with([(0.8, 2.0), (0.8, 2.0), (0.8, 2.0)]),
        report_with([(0.9, 4.0), (0.9, 4.0), (0.9, 4.0)]),
    ]
    summary = aggregate(reps)
    for region in Region:
        assert summary[region.name]["dice"]["mean"] == pytest.approx(0.85)
        assert summary[region.name]["hd95_mm"]["mean"] == pytest.approx(3.0)


def test_aggregate_matches_independent_recomputation():
    rng = np.random.default_rng(304)
    values = [[(rng.uniform(0, 1), rng.uniform(0, 50)) for _ in range(3)] for _ in range(5)]
    summary = aggregate([report_with(vals) for vals in values])
    for idx, region in enumerate(Region):
        dices = [vals[idx][0] for vals in values]
        hds = [vals[idx][1] for vals in values]
        n = len(dices)
        mean_d = sum(dices) / n
        var_d = sum((x - mean_d) ** 2 for x in dices) / (n - 1)
        stats = summary[region.name]
        assert stats["dice"]["mean"] == pytest.approx(mean_d, abs=1e-12)
        assert stats["dice"]["std"] == pytest.approx(var_d**0.5, abs=1e-12)
        assert stats["dice"]["median"] == pytest.approx(
            percentile_linear(np.array(dices), 50.0), abs=1e-12
        )
        mean_h = sum(hds) / n
        assert stats["hd95_mm"]["mean"] == pytest.approx(mean_h, abs=1e-12)


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


@pytest.mark.parametrize("field, value", [
    ("empty_pred_penalty_mm", np.inf),
    ("empty_pred_penalty_mm", 0.0),
    ("empty_empty_dice", -0.1),
    ("empty_empty_dice", 1.5),
    ("empty_empty_dice", np.nan),
    ("empty_empty_hd95", -1.0),
    ("empty_empty_hd95", np.inf),
    ("empty_empty_hd95", np.nan),
])
def test_metric_config_rejects_conventions_no_score_can_hold(field, value):
    with pytest.raises(ValueError, match=field):
        MetricConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("empty_empty_dice", True),
    ("empty_empty_hd95", "0"),
    ("empty_pred_penalty_mm", None),
])
def test_metric_config_takes_only_reals(field, value):
    with pytest.raises(TypeError, match=field):
        MetricConfig(**{field: value})
