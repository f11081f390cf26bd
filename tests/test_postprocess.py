from __future__ import annotations

import numpy as np
import pytest

from glioseg.postprocess import (
    PostprocessConfig,
    connected_components,
    filter_small_et,
    postprocess_case,
    repair_tc_holes,
)
from glioseg.volume import LabelVolume, Region, extract_region

from oracles import flood_fill_components


def component_count(mask, connectivity):
    _, sizes = connected_components(mask, connectivity)
    return len(sizes) - 1


def labels_of(data):
    return LabelVolume(np.asarray(data, dtype=np.uint8))


def test_two_isolated_voxels():
    m = np.zeros((6, 6, 6), dtype=bool)
    m[0, 0, 0] = True
    m[5, 5, 5] = True
    for conn in (6, 18, 26):
        _, sizes = connected_components(m, conn)
        assert sizes[1:].tolist() == [1, 1]


def test_corner_adjacency_by_connectivity():
    m = np.zeros((3, 3, 3), dtype=bool)
    m[0, 0, 0] = True
    m[1, 1, 1] = True  # corner neighbor: adjacent only under 26
    assert component_count(m, 26) == 1
    assert component_count(m, 18) == 2
    assert component_count(m, 6) == 2


def test_edge_adjacency_by_connectivity():
    m = np.zeros((3, 3, 3), dtype=bool)
    m[0, 0, 0] = True
    m[0, 1, 1] = True  # edge neighbor: adjacent under 18 and 26
    assert component_count(m, 26) == 1
    assert component_count(m, 18) == 1
    assert component_count(m, 6) == 2


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(201)
    for trial in range(30):
        m = rng.random((16, 16, 16)) < rng.uniform(0.05, 0.6)
        for conn in (6, 18, 26):
            ids, sizes = connected_components(m, conn)
            expected = flood_fill_components(m, conn)
            assert np.array_equal(ids, expected), f"trial {trial} conn {conn}"
            assert np.array_equal(sizes[1:], np.bincount(expected.ravel())[1:])


def et_blob(dims, size, start=(0, 0, 0)):
    """Solid rectangular ET component of exactly `size` voxels."""
    data = np.zeros(dims, dtype=np.uint8)
    flat = []
    nx, ny, nz = 5, 5, int(np.ceil(size / 25))
    count = 0
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if count == size:
                    break
                flat.append((start[0] + x, start[1] + y, start[2] + z))
                count += 1
    for x, y, z in flat:
        data[x, y, z] = 3
    return data


def test_et_threshold_boundary():
    # exactly 50 voxels: removed; 51: retained
    removed = filter_small_et(labels_of(et_blob((12, 12, 12), 50)))
    assert not (removed.data == 3).any()
    kept = filter_small_et(labels_of(et_blob((12, 12, 12), 51)))
    assert int((kept.data == 3).sum()) == 51


def test_et_filter_is_per_component():
    data = et_blob((20, 20, 20), 50)
    big = et_blob((20, 20, 20), 51, start=(10, 10, 10))
    data[big == 3] = 3
    out = filter_small_et(labels_of(data))
    assert int((out.data == 3).sum()) == 51
    assert not (out.data[:6, :6, :3] == 3).any()


def test_et_filter_ignores_other_labels():
    data = et_blob((12, 12, 12), 10)
    data[8, 8, 8] = 1
    data[8, 8, 9] = 2
    out = filter_small_et(labels_of(data))
    assert out.data[8, 8, 8] == 1
    assert out.data[8, 8, 9] == 2
    assert not (out.data == 3).any()


def test_et_filter_no_et_is_identity():
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[2:4, 2:4, 2:4] = 2
    lab = labels_of(data)
    assert filter_small_et(lab) is lab


def test_et_filter_threshold_zero_keeps_everything():
    data = np.zeros((6, 6, 6), dtype=np.uint8)
    data[3, 3, 3] = 3
    out = filter_small_et(labels_of(data), PostprocessConfig(et_min_volume=0))
    assert out.data[3, 3, 3] == 3


def test_et_filter_matches_flood_fill_oracle():
    # porous ET blobs in a larger grid with other labels around, so the ET
    # box is a crop; blobs sit in a grid corner, the opposite corner,
    # against a face or inside, by turns. Then blobs on background, with
    # edema bars that stretch the label box past the ET box on one or two
    # axes, never all three; every other blob lies against a grid face
    rng = np.random.default_rng(204)
    dims = np.array((14, 12, 10))
    cases = []
    for trial in range(24):
        data = rng.choice([0, 1, 2], p=[0.7, 0.15, 0.15], size=tuple(dims)).astype(np.uint8)
        for blob in range(rng.integers(1, 4)):
            size = rng.integers(2, 7, size=3)
            lo = (
                np.zeros(3, int),
                dims - size,
                np.where(np.arange(3) == trial % 3, 0, rng.integers(0, dims - size + 1)),
                rng.integers(1, dims - size),
            )[(trial + blob) % 4]
            box = tuple(slice(l, l + n) for l, n in zip(lo, size))
            data[box][rng.random(tuple(size)) < 0.6] = 3
        cases.append(data)
    for trial in range(12):
        data = np.zeros(tuple(dims), dtype=np.uint8)
        size = rng.integers(3, 7, size=3)
        lo = rng.integers(1, dims - size)
        if trial % 4 < 2:
            lo[trial % 3] = 0  # against a grid face
        data[tuple(slice(l, l + n) for l, n in zip(lo, size))] = np.where(
            rng.random(tuple(size)) < 0.6, 3, 0
        )
        data[tuple(lo)] = data[tuple(lo + size - 1)] = 3  # the ET box is exactly the blob's
        for axis in rng.choice(3, size=1 + trial % 2, replace=False):
            bar = [slice(l, l + 1) for l in lo]
            bar[axis] = slice(None)
            data[tuple(bar)] = np.where(data[tuple(bar)] == 3, 3, 2)
        cases.append(data)
    removed = kept = 0
    for trial, data in enumerate(cases):
        for conn in (6, 18, 26):
            ids = flood_fill_components(data == 3, conn)
            sizes = np.bincount(ids.ravel())
            for threshold in (0, 1, 4, 12, 40):
                want = data.copy()
                want[(ids > 0) & (sizes[ids] <= threshold)] = 0
                got = filter_small_et(
                    labels_of(data),
                    PostprocessConfig(et_min_volume=threshold, foreground_connectivity=conn),
                )
                assert np.array_equal(got.data, want), f"trial {trial} conn {conn} t {threshold}"
                removed += int((want != data).any())
                kept += int((want == 3).any())
    assert removed and kept


def test_center_hole_filled():
    data = np.zeros((7, 7, 7), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 1
    data[3, 3, 3] = 0
    out = repair_tc_holes(labels_of(data))
    assert out.data[3, 3, 3] == 1
    changed = out.data != data
    assert int(changed.sum()) == 1


def test_no_holes_is_identity():
    data = np.zeros((7, 7, 7), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 1
    lab = labels_of(data)
    assert repair_tc_holes(lab) is lab


def test_boundary_tunnel_not_filled():
    data = np.zeros((7, 7, 7), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 1
    data[3, 3, 3] = 0
    data[3, 3, 0:4] = 0  # tunnel from the cavity to the z=0 face
    out = repair_tc_holes(labels_of(data))
    assert np.array_equal(out.data, data)


def test_corner_touching_cavity_is_still_a_hole_under_6():
    # Cavity diagonal to the outside: 6-connectivity does not leak
    # through corners, so it stays a hole.
    data = np.ones((4, 4, 4), dtype=np.uint8)
    data[1, 1, 1] = 0
    out = repair_tc_holes(labels_of(data))
    assert out.data[1, 1, 1] == 1


def test_enclosed_edema_is_preserved():
    data = np.zeros((7, 7, 7), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 1
    data[3, 3, 3] = 0
    data[3, 3, 4] = 2  # edema voxel inside the cavity
    out = repair_tc_holes(labels_of(data))
    assert out.data[3, 3, 3] == 1  # background filled
    assert out.data[3, 3, 4] == 2  # edema untouched
    # second pass finds nothing left to fill
    assert repair_tc_holes(out) is out


def test_et_in_core_wall_counts_as_core():
    data = np.zeros((7, 7, 7), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 1
    data[1, 1:6, 1:6] = 3  # one wall is ET; cavity is still enclosed by TC
    data[3, 3, 3] = 0
    out = repair_tc_holes(labels_of(data))
    assert out.data[3, 3, 3] == 1


def test_report_only_mode(caplog):
    data = np.zeros((7, 7, 7), dtype=np.uint8)
    data[1:6, 1:6, 1:6] = 1
    data[3, 3, 3] = 0
    lab = labels_of(data)
    holes = repair_tc_holes(lab).data != lab.data  # the hole mask is the repair's diff
    assert int(holes.sum()) == 1 and holes[3, 3, 3]
    with caplog.at_level("INFO", logger="glioseg.postprocess"):
        assert repair_tc_holes(lab, PostprocessConfig(fill_holes=False)) is lab
    assert caplog.messages == ["core hole repair found 1 hole voxel(s), filled 0"]


def hole_oracle(data, connectivity):
    """Background voxels in complement components of the core touching no face."""
    ids = flood_fill_components(~np.isin(data, (1, 3)), connectivity)
    on_face = set()
    for axis in range(3):
        for face in (0, -1):
            on_face.update(np.take(ids, face, axis=axis).ravel().tolist())
    interior = [i for i in range(1, int(ids.max()) + 1) if i not in on_face]
    return np.isin(ids, interior) & (data == 0)


def test_hole_voxels_match_flood_fill_oracle(caplog):
    # porous cores in a larger grid, so the core's box is a crop; the box
    # holds a grid corner, the opposite corner or neither, by turns. Then
    # boxes 1, 2 and 3 voxels thick on one axis, whose two face planes
    # coincide or touch, boxes that fill the grid, whose every face is a
    # grid face, and cores whose label box is larger on some axes only
    rng = np.random.default_rng(203)
    dims = np.array((14, 12, 10))
    cases = []
    for trial in range(24):
        size = rng.integers(4, 9, size=3)
        lo = (np.zeros(3, int), dims - size, rng.integers(0, dims - size + 1))[trial % 3]
        data = np.zeros(tuple(dims), dtype=np.uint8)
        box = tuple(slice(l, l + n) for l, n in zip(lo, size))
        data[box] = rng.choice([0, 1, 2, 3], p=[0.2, 0.45, 0.1, 0.25], size=tuple(size))
        # a closed 4x4x4 shell, so every connectivity sees a cavity
        corner = lo + rng.integers(0, size - 3)
        data[tuple(slice(c, c + 4) for c in corner)] = 1
        data[tuple(slice(c + 1, c + 3) for c in corner)] = rng.choice([0, 2], size=(2, 2, 2))
        cases.append(data)
    for thickness in (1, 2, 3):
        for axis in range(3):
            size = np.where(np.arange(3) == axis, thickness, rng.integers(4, 9, size=3))
            lo = rng.integers(0, dims - size + 1)
            data = np.zeros(tuple(dims), dtype=np.uint8)
            box = tuple(slice(l, l + n) for l, n in zip(lo, size))
            data[box] = rng.choice([0, 1, 2, 3], p=[0.15, 0.6, 0.1, 0.15], size=tuple(size))
            data[tuple(lo)] = data[tuple(lo + size - 1)] = 1  # the box is exactly `box`
            # a voxel on the middle plane, walled in if the box is 3 thick
            middle = lo + size // 2
            data[tuple(slice(max(m - 1, l), min(m + 2, l + n)) for m, l, n in zip(middle, lo, size))] = 1
            data[tuple(middle)] = 0
            cases.append(data)
    for _ in range(3):
        data = rng.choice([0, 1, 2, 3], p=[0.2, 0.45, 0.1, 0.25], size=tuple(dims)).astype(np.uint8)
        data[0, 0, 0] = data[-1, -1, -1] = 1
        corner = rng.integers(0, dims - 3)
        data[tuple(slice(c, c + 4) for c in corner)] = 1
        data[tuple(slice(c + 1, c + 3) for c in corner)] = 0
        cases.append(data)
    # cores on background with edema bars that stretch the label box past
    # the core's box on one or two axes, never all three, so the core
    # touches the label box's faces on the others; every other core also
    # lies against a grid face
    for trial in range(12):
        size = rng.integers(4, 8, size=3)
        lo = rng.integers(1, dims - size)
        if trial % 4 < 2:
            lo[trial % 3] = 0
        data = np.zeros(tuple(dims), dtype=np.uint8)
        box = tuple(slice(l, l + n) for l, n in zip(lo, size))
        data[box] = rng.choice([0, 1, 2, 3], p=[0.2, 0.45, 0.1, 0.25], size=tuple(size))
        corner = lo + rng.integers(0, size - 3)
        data[tuple(slice(c, c + 4) for c in corner)] = 1
        data[tuple(slice(c + 1, c + 3) for c in corner)] = rng.choice([0, 2], size=(2, 2, 2))
        data[tuple(lo)] = data[tuple(lo + size - 1)] = 1  # the core's box is exactly `box`
        for axis in rng.choice(3, size=1 + trial % 2, replace=False):
            bar = [slice(l, l + 1) for l in lo]
            for part in (slice(0, lo[axis]), slice(lo[axis] + size[axis], None)):
                bar[axis] = part
                data[tuple(bar)] = 2
        cases.append(data)
    # the holes are read as the repair's diff under either fill label; the
    # report-only mode returns its input and logs the oracle's count
    filled = {6: 0, 18: 0, 26: 0}
    caplog.set_level("INFO", logger="glioseg.postprocess")
    for trial, data in enumerate(cases):
        lab = labels_of(data)
        for conn in (6, 18, 26):
            want = hole_oracle(data, conn)
            for fill_label in (1, 3):
                config = PostprocessConfig(hole_connectivity=conn, hole_fill_label=fill_label)
                repaired = repair_tc_holes(lab, config)
                where = f"case {trial} conn {conn} fill {fill_label}"
                assert np.array_equal(repaired.data != data, want), where
                assert np.all(repaired.data[want] == fill_label), where
                assert (repaired is lab) == (not want.any()), where
            caplog.clear()
            report = PostprocessConfig(hole_connectivity=conn, fill_holes=False)
            assert repair_tc_holes(lab, report) is lab
            assert caplog.messages == [
                f"core hole repair found {int(want.sum())} hole voxel(s), filled 0"
            ], f"case {trial} conn {conn}"
            filled[conn] += int(want.sum())
    assert all(filled.values()), filled


def test_postprocess_removes_island_and_refills():
    data = np.zeros((9, 9, 9), dtype=np.uint8)
    data[1:8, 1:8, 1:8] = 1
    data[3:5, 3:5, 3:5] = 3  # 8-voxel ET island, below threshold
    out = postprocess_case(labels_of(data))
    assert not (out.data == 3).any()
    assert np.all(out.data[1:8, 1:8, 1:8] == 1)  # cavity refilled with NCR


def test_postprocess_clean_input_unchanged():
    data = et_blob((12, 12, 12), 51)
    lab = labels_of(data)
    out = postprocess_case(lab)
    assert np.array_equal(out.data, lab.data)


def test_postprocess_logs_removed_et_and_filled_holes(caplog):
    data = et_blob((24, 24, 24), 50)
    data[et_blob((24, 24, 24), 51, start=(0, 10, 0)) == 3] = 3
    data[12:19, 12:19, 12:19] = 1  # NCR cube
    data[14:17, 14:17, 14:17] = 0  # enclosed 27-voxel cavity
    with caplog.at_level("INFO", logger="glioseg.postprocess"):
        postprocess_case(labels_of(data))
        repair_tc_holes(labels_of(data), PostprocessConfig(fill_holes=False))
        filter_small_et(labels_of(np.zeros((4, 4, 4))))
    assert [r.getMessage() for r in caplog.records] == [
        "small-ET filter removed 1 of 2 ET component(s), 50 voxel(s)",
        "core hole repair found 27 hole voxel(s), filled 27",
        "core hole repair found 27 hole voxel(s), filled 0",
        "small-ET filter removed 0 of 0 ET component(s), 0 voxel(s)",
    ]


def test_postprocess_keeps_fortran_layout(caplog):
    data = et_blob((24, 24, 24), 50)
    data[et_blob((24, 24, 24), 51, start=(0, 10, 0)) == 3] = 3
    data[12:19, 12:19, 12:19] = 1
    data[14:17, 14:17, 14:17] = 0
    caplog.set_level("INFO", logger="glioseg.postprocess")
    outputs, messages = [], []
    for layout in (np.ascontiguousarray(data), np.asfortranarray(data)):
        caplog.clear()
        outputs.append(postprocess_case(LabelVolume(layout)).data)
        messages.append(caplog.messages)
    c_out, f_out = outputs
    assert c_out.flags.c_contiguous and f_out.flags.f_contiguous
    assert np.array_equal(f_out, c_out)
    assert messages[0] == messages[1] == [
        "small-ET filter removed 1 of 2 ET component(s), 50 voxel(s)",
        "core hole repair found 27 hole voxel(s), filled 27",
    ]


def random_labels(rng, dims=(12, 12, 12)):
    data = np.zeros(dims, dtype=np.uint8)
    # a few random blobs per label to create realistic nesting and holes
    for label in (2, 1, 3):
        for _ in range(rng.integers(1, 4)):
            c = rng.integers(0, np.array(dims) - 3)
            s = rng.integers(1, 5, size=3)
            data[c[0] : c[0] + s[0], c[1] : c[1] + s[1], c[2] : c[2] + s[2]] = label
    scatter = rng.random(dims) < 0.05
    data[scatter] = rng.integers(0, 4, size=int(scatter.sum()))
    return labels_of(data)


def test_postprocess_invariants_on_random_volumes():
    rng = np.random.default_rng(202)
    config = PostprocessConfig(et_min_volume=5)
    for _ in range(40):
        lab = random_labels(rng)
        filtered = filter_small_et(lab, config)
        # ET filter only erases label 3; 1 and 2 untouched
        assert np.array_equal(filtered.data == 1, lab.data == 1)
        assert np.array_equal(filtered.data == 2, lab.data == 2)
        et_lost = (lab.data == 3) & (filtered.data == 0)
        assert np.array_equal(filtered.data != lab.data, et_lost)

        repaired = repair_tc_holes(filtered, config)
        # hole repair only adds core voxels, never touches edema
        tc_before = extract_region(filtered.data, Region.TC)
        tc_after = extract_region(repaired.data, Region.TC)
        assert np.all(tc_after[tc_before])
        assert np.array_equal(repaired.data == 2, filtered.data == 2)

        out = postprocess_case(lab, config)
        assert np.array_equal(out.data, repaired.data)
        again = postprocess_case(out, config)
        assert np.array_equal(again.data, out.data)


def test_config_validation():
    with pytest.raises(ValueError):
        PostprocessConfig(et_min_volume=-1)
    with pytest.raises(ValueError):
        PostprocessConfig(foreground_connectivity=4)
    with pytest.raises(ValueError):
        PostprocessConfig(hole_connectivity=27)
    with pytest.raises(ValueError):
        PostprocessConfig(hole_fill_label=2)
    for field, value in [
        ("et_min_volume", float("nan")),
        ("et_min_volume", 2.5),
        ("foreground_connectivity", 26.0),
        ("hole_fill_label", 1.0),
        ("fill_holes", "no"),
    ]:
        with pytest.raises(TypeError, match=field):
            PostprocessConfig(**{field: value})
    with pytest.raises(ValueError):
        connected_components(np.zeros((2, 2, 2), dtype=bool), 10)
