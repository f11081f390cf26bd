"""Byte-level tests for the NIfTI-1 reader and writer.

Fixture files are assembled by hand with struct.pack_into at the documented
header offsets, independent of the package's writer, so reader and writer
are checked against the format rather than against each other.
"""

from __future__ import annotations

import gzip
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import glioseg.nifti as nifti
from glioseg.nifti import (
    NiftiFormatError,
    parse_header,
    read_label_volume,
    read_scalar_volume,
    write_label_volume,
    write_scalar_volume,
)
from glioseg.preprocess import (
    NormalizationPolicy,
    preprocess_volume,
    rescale_percentiles,
    zscore_normalize,
)
from glioseg.volume import LabelVolume, ScalarVolume, require_same_grid


def build_nifti_bytes(
    voxels: np.ndarray,
    datatype: int,
    bitpix: int,
    order: str = "<",
    pixdim=(1.0, 1.0, 1.0),
    vox_offset: int = 352,
    scl_slope: float = 1.0,
    scl_inter: float = 0.0,
    sform_code: int = 0,
    srows=None,
    qform_code: int = 0,
    quatern=(0.0, 0.0, 0.0),
    qoffset=(0.0, 0.0, 0.0),
    qfac: float = 1.0,
    magic: bytes = b"n+1\x00",
    dim0: int = 3,
    dim4: int = 1,
    np_dtype: str | None = None,
) -> bytes:
    """Hand-build a single-file NIfTI-1 byte string.

    voxels is the in-memory [i, j, k] array; it is serialized with the
    first axis varying fastest as the format requires. qfac is pixdim[0].
    """
    nx, ny, nz = voxels.shape
    hdr = bytearray(348)
    struct.pack_into(order + "i", hdr, 0, 348)
    struct.pack_into(order + "8h", hdr, 40, dim0, nx, ny, nz, dim4, 1, 1, 1)
    struct.pack_into(order + "h", hdr, 70, datatype)
    struct.pack_into(order + "h", hdr, 72, bitpix)
    struct.pack_into(order + "8f", hdr, 76, qfac, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(order + "f", hdr, 108, float(vox_offset))
    struct.pack_into(order + "f", hdr, 112, scl_slope)
    struct.pack_into(order + "f", hdr, 116, scl_inter)
    struct.pack_into(order + "h", hdr, 252, qform_code)
    struct.pack_into(order + "h", hdr, 254, sform_code)
    struct.pack_into(order + "3f", hdr, 256, *quatern)
    struct.pack_into(order + "3f", hdr, 268, *qoffset)
    if srows is not None:
        struct.pack_into(order + "4f", hdr, 280, *srows[0])
        struct.pack_into(order + "4f", hdr, 296, *srows[1])
        struct.pack_into(order + "4f", hdr, 312, *srows[2])
    struct.pack_into("4s", hdr, 344, magic)
    if np_dtype is None:
        np_dtype = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}[datatype]
    disk = np.ascontiguousarray(voxels.transpose(2, 1, 0)).astype(order + np_dtype)
    return bytes(hdr) + b"\x00" * (vox_offset - 348) + disk.tobytes()


def write_fixture(tmp_path, name: str, blob: bytes):
    path = tmp_path / name
    if name.endswith(".gz"):
        path.write_bytes(gzip.compress(blob))
    else:
        path.write_bytes(blob)
    return path


def test_scalar_read_disk_order(tmp_path):
    # Flat disk values 0..7 with x fastest: voxel (i,j,k) = i + 2j + 4k.
    values = np.arange(8, dtype=np.float32)
    voxels = values.reshape(2, 2, 2).transpose(2, 1, 0)
    path = write_fixture(tmp_path, "ramp.nii", build_nifti_bytes(voxels, 16, 32))
    vol = read_scalar_volume(path)
    assert vol.dims == (2, 2, 2)
    assert vol.data[1, 0, 0] == 1.0
    assert vol.data[0, 1, 0] == 2.0
    assert vol.data[0, 0, 1] == 4.0
    assert np.array_equal(vol.data, voxels)


def test_scalar_slope_inter(tmp_path):
    values = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    blob = build_nifti_bytes(values, 16, 32, scl_slope=2.0, scl_inter=1.0)
    vol = read_scalar_volume(write_fixture(tmp_path, "scaled.nii", blob))
    assert np.array_equal(np.sort(vol.data.ravel()), np.arange(1.0, 16.5, 2.0))


def test_scl_slope_zero_means_unscaled(tmp_path):
    values = np.full((2, 2, 2), 7.0, dtype=np.float32)
    blob = build_nifti_bytes(values, 16, 32, scl_slope=0.0, scl_inter=0.0)
    vol = read_scalar_volume(write_fixture(tmp_path, "noslope.nii", blob))
    assert np.all(vol.data == 7.0)


@pytest.mark.parametrize(
    "slope, inter", [(float("nan"), float("nan")), (float("inf"), 0.0), (0.0, 5.0)]
)
def test_invalid_scl_slope_means_unscaled(tmp_path, slope, inter):
    # nibabel stores NaN in both fields of an unscaled image; without a
    # valid slope the intercept is not applied either
    labels = np.array([[[0, 1], [2, 3]], [[1, 1], [0, 2]]], dtype=np.int16)
    blob = build_nifti_bytes(labels, 4, 16, scl_slope=slope, scl_inter=inter)
    path = write_fixture(tmp_path, "nan.nii", blob)
    assert np.array_equal(read_label_volume(path).data, labels)
    assert np.array_equal(read_scalar_volume(path).data, labels.astype(np.float64))


def test_non_finite_scl_inter_means_zero(tmp_path):
    values = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    blob = build_nifti_bytes(values, 16, 32, scl_slope=2.0, scl_inter=float("nan"))
    vol = read_scalar_volume(write_fixture(tmp_path, "naninter.nii", blob))
    assert np.array_equal(vol.data, 2.0 * values)


def test_pixdim_spacing(tmp_path):
    values = np.zeros((3, 4, 5), dtype=np.float32)
    blob = build_nifti_bytes(values, 16, 32, pixdim=(0.5, 1.0, 2.0))
    vol = read_scalar_volume(write_fixture(tmp_path, "sp.nii", blob))
    assert vol.spacing == (0.5, 1.0, 2.0)
    assert vol.dims == (3, 4, 5)


def test_sform_orientation_used_when_coded(tmp_path):
    srows = [(0.0, 0.0, 2.0, 10.0), (0.0, 1.0, 0.0, -5.0), (3.0, 0.0, 0.0, 0.5)]
    blob = build_nifti_bytes(
        np.zeros((2, 2, 2), dtype=np.float32), 16, 32, sform_code=1, srows=srows
    )
    vol = read_scalar_volume(write_fixture(tmp_path, "sform.nii", blob))
    assert np.array_equal(vol.orientation, np.array(srows))


def test_no_sform_falls_back_to_spacing_identity(tmp_path):
    blob = build_nifti_bytes(
        np.zeros((2, 2, 2), dtype=np.float32), 16, 32, pixdim=(2.0, 3.0, 4.0)
    )
    vol = read_scalar_volume(write_fixture(tmp_path, "nosform.nii", blob))
    expected = np.diag([2.0, 3.0, 4.0])
    assert np.array_equal(vol.orientation[:, :3], expected)
    assert np.array_equal(vol.orientation[:, 3], np.zeros(3))
    assert parse_header(blob).orientation is None  # the default is the volume's alone


def test_qform_orientation_decoded_and_written_as_sform(tmp_path):
    # 90 degrees about z: quaternion (a, b, c, d) = (cos 45, 0, 0, sin 45);
    # qfac -1 flips the third column, pixdim scales the columns.
    half = np.sqrt(0.5)
    qform = dict(qform_code=1, quatern=(0.0, 0.0, half), qoffset=(10.0, -20.0, 30.5), qfac=-1.0)
    expected = np.array([
        [0.0, -2.0, 0.0, 10.0],
        [0.5, 0.0, 0.0, -20.0],
        [0.0, 0.0, -3.0, 30.5],
    ])
    values = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    blob = build_nifti_bytes(values, 16, 32, pixdim=(0.5, 2.0, 3.0), **qform)
    vol = read_scalar_volume(write_fixture(tmp_path, "qform.nii.gz", blob))
    assert np.allclose(vol.orientation, expected, rtol=0.0, atol=1e-6)
    write_scalar_volume(vol, tmp_path / "out.nii.gz")
    back = read_scalar_volume(tmp_path / "out.nii.gz")
    assert np.allclose(back.orientation, expected, rtol=0.0, atol=1e-6)
    # a coded sform still wins over the qform
    srows = [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 2.0), (0.0, 0.0, 1.0, 3.0)]
    both = build_nifti_bytes(values, 16, 32, sform_code=1, srows=srows, **qform)
    assert np.array_equal(read_scalar_volume(write_fixture(tmp_path, "both.nii", both)).orientation, srows)


def test_label_read_uint8(tmp_path):
    labels = np.array(
        [[[0, 1], [2, 3]], [[3, 2], [1, 0]]], dtype=np.uint8
    )
    blob = build_nifti_bytes(labels, 2, 8)
    vol = read_label_volume(write_fixture(tmp_path, "seg.nii", blob))
    assert vol.data.dtype == np.uint8
    assert np.array_equal(vol.data, labels)


def test_label_accepts_integral_float_and_int16(tmp_path):
    labels = np.array([[[0, 1], [2, 3]], [[1, 1], [0, 2]]])
    for name, dt, bp, np_dtype in [
        ("f.nii", 16, 32, None),
        ("i.nii", 4, 16, None),
        ("w.nii", 8, 32, None),
        ("i1.nii", 256, 8, "i1"),
        ("u2.nii", 512, 16, "u2"),
        ("u4.nii", 768, 32, "u4"),
        ("i8.nii", 1024, 64, "i8"),
    ]:
        blob = build_nifti_bytes(labels.astype(np.float64), dt, bp, np_dtype=np_dtype)
        vol = read_label_volume(write_fixture(tmp_path, name, blob))
        assert np.array_equal(vol.data, labels)


def test_scalar_read_uint16(tmp_path):
    # raw MRI intensities above int16's range, big-endian on disk
    values = np.array([[[0, 1], [40000, 65535]], [[7, 300], [32768, 2]]])
    blob = build_nifti_bytes(values, 512, 16, order=">", np_dtype="u2")
    vol = read_scalar_volume(write_fixture(tmp_path, "mri.nii.gz", blob))
    assert vol.data.dtype == np.uint16 and vol.data.dtype.isnative
    assert np.array_equal(vol.data, values)


@pytest.mark.parametrize("order", "<>")
@pytest.mark.parametrize("datatype", sorted(nifti._DTYPES))
def test_stored_dtype_reads_and_normalizes_like_float64(tmp_path, datatype, order):
    code, bitpix = nifti._DTYPES[datatype]
    rng = np.random.default_rng(datatype)
    values = rng.integers(0 if code[0] == "u" else -60, 100, size=(6, 5, 4))
    values[rng.random(values.shape) < 0.3] = 0
    stored = (values * 0.75 if code[0] == "f" else values).astype(code)
    for slope, inter in ((1.0, 0.0), (0.5, -3.0)):
        blob = build_nifti_bytes(
            stored, datatype, bitpix, order=order, np_dtype=code, scl_slope=slope, scl_inter=inter
        )
        vol = read_scalar_volume(write_fixture(tmp_path, "stored.nii", blob))
        assert vol.data.dtype == (np.float64 if slope != 1.0 else np.dtype(code))
        assert vol.data.dtype.isnative and vol.data.flags.c_contiguous
        assert np.array_equal(vol.data, stored.astype(np.float64) * slope + inter)

        wide = ScalarVolume(vol.data.astype(np.float64))
        before = vol.data.copy()
        for policy in (NormalizationPolicy(True), NormalizationPolicy(False)):
            for step in (preprocess_volume, zscore_normalize):
                assert np.array_equal(step(vol, policy).data, step(wide, policy).data)
            assert np.array_equal(
                rescale_percentiles(vol, policy=policy).data,
                rescale_percentiles(wide, policy=policy).data,
            )
        assert vol.data.dtype == before.dtype and np.array_equal(vol.data, before)


def test_label_rejects_fractional_value(tmp_path):
    vals = np.zeros((2, 2, 2), dtype=np.float32)
    vals[0, 0, 0] = 2.5
    blob = build_nifti_bytes(vals, 16, 32)
    with pytest.raises(NiftiFormatError, match="non-integer"):
        read_label_volume(write_fixture(tmp_path, "frac.nii", blob))


def test_label_rejects_out_of_range(tmp_path):
    vals = np.zeros((2, 2, 2), dtype=np.uint8)
    vals[1, 1, 1] = 4
    blob = build_nifti_bytes(vals, 2, 8)
    with pytest.raises(NiftiFormatError, match="outside"):
        read_label_volume(write_fixture(tmp_path, "range.nii", blob))


def test_bad_magic(tmp_path):
    blob = build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), 16, 32, magic=b"xyz\x00")
    with pytest.raises(NiftiFormatError, match="magic"):
        read_scalar_volume(write_fixture(tmp_path, "bad.nii", blob))


def test_bad_sizeof_hdr(tmp_path):
    blob = bytearray(build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), 16, 32))
    struct.pack_into("<i", blob, 0, 540)
    with pytest.raises(NiftiFormatError, match="sizeof_hdr"):
        read_scalar_volume(write_fixture(tmp_path, "hdr.nii", bytes(blob)))


def test_unsupported_datatype(tmp_path):
    # 128 is RGB24, which the reader does not support.
    blob = build_nifti_bytes(
        np.zeros((2, 2, 2), dtype=np.float32), 128, 32, np_dtype="f4"
    )
    with pytest.raises(NiftiFormatError, match="datatype"):
        read_scalar_volume(write_fixture(tmp_path, "rgb.nii", blob))


def test_bitpix_mismatch(tmp_path):
    blob = build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), 16, 8)
    with pytest.raises(NiftiFormatError, match="bitpix"):
        read_scalar_volume(write_fixture(tmp_path, "bp.nii", blob))


def test_truncated_data(tmp_path):
    blob = build_nifti_bytes(np.zeros((4, 4, 4), dtype=np.float32), 16, 32)
    with pytest.raises(NiftiFormatError, match="truncated"):
        read_scalar_volume(write_fixture(tmp_path, "trunc.nii", blob[:-8]))


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_scalar_volume(tmp_path / "absent.nii")


def test_nonpositive_pixdim(tmp_path):
    blob = build_nifti_bytes(
        np.zeros((2, 2, 2), dtype=np.float32), 16, 32, pixdim=(1.0, 0.0, 1.0)
    )
    with pytest.raises(NiftiFormatError, match="pixdim"):
        read_scalar_volume(write_fixture(tmp_path, "pd.nii", blob))


def test_fourth_dim_singleton_allowed(tmp_path):
    values = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    blob = build_nifti_bytes(values, 16, 32, dim0=4, dim4=1)
    vol = read_scalar_volume(write_fixture(tmp_path, "d4.nii", blob))
    assert np.array_equal(vol.data, values)


def test_fourth_dim_multiframe_rejected(tmp_path):
    blob = build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), 16, 32, dim0=4, dim4=2)
    with pytest.raises(NiftiFormatError, match="dim"):
        read_scalar_volume(write_fixture(tmp_path, "d4m.nii", blob))


def test_vox_offset_348_no_gap(tmp_path):
    values = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
    blob = build_nifti_bytes(values, 16, 32, vox_offset=348)
    vol = read_scalar_volume(write_fixture(tmp_path, "tight.nii", blob))
    assert np.array_equal(vol.data, values)


def test_big_endian_matches_little(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(3, 4, 5)).astype(np.float32).astype(np.float64)
    srows = [(1.0, 0.0, 0.0, -1.5), (0.0, 1.5, 0.0, 2.0), (0.0, 0.0, 2.0, 0.0)]
    little = build_nifti_bytes(
        values, 64, 64, order="<", pixdim=(1.0, 1.5, 2.0), sform_code=1, srows=srows
    )
    big = build_nifti_bytes(
        values, 64, 64, order=">", pixdim=(1.0, 1.5, 2.0), sform_code=1, srows=srows
    )
    vol_l = read_scalar_volume(write_fixture(tmp_path, "le.nii", little))
    vol_b = read_scalar_volume(write_fixture(tmp_path, "be.nii", big))
    assert np.array_equal(vol_l.data, vol_b.data)
    assert vol_l.spacing == vol_b.spacing
    assert np.array_equal(vol_l.orientation, vol_b.orientation)


def test_gzip_fixture(tmp_path):
    labels = np.array([[[1, 0], [2, 3]], [[0, 0], [3, 1]]], dtype=np.uint8)
    blob = build_nifti_bytes(labels, 2, 8)
    vol = read_label_volume(write_fixture(tmp_path, "seg.nii.gz", blob))
    assert np.array_equal(vol.data, labels)


def test_label_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    for trial in range(10):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        labels = LabelVolume(
            rng.integers(0, 4, size=dims).astype(np.uint8),
            spacing=tuple(rng.uniform(0.5, 3.0, size=3)),
        )
        path = tmp_path / f"rt{trial}.nii.gz"
        write_label_volume(labels, path)
        back = read_label_volume(path)
        assert np.array_equal(back.data, labels.data)
        assert back.data.dtype == np.uint8
        assert np.allclose(back.spacing, labels.spacing, atol=1e-6)


def test_scalar_round_trip_float32_values(tmp_path):
    rng = np.random.default_rng(12)
    vol = ScalarVolume(rng.normal(size=(5, 6, 7)), spacing=(1.0, 1.0, 2.5))
    for name in ("vol.nii", "vol.nii.gz"):
        path = tmp_path / name
        write_scalar_volume(vol, path)
        back = read_scalar_volume(path)
        # Written as float32, so only float32 precision survives.
        assert np.array_equal(back.data, vol.data.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("offset", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_vox_offset_rejected(tmp_path, offset):
    blob = bytearray(build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32), 16, 32))
    struct.pack_into("<f", blob, 108, offset)
    with pytest.raises(NiftiFormatError, match="vox_offset"):
        read_scalar_volume(write_fixture(tmp_path, "offset.nii", bytes(blob)))


@pytest.mark.parametrize("geometry", [
    dict(sform_code=1, srows=[(1.0, 0.0, 0.0, 0.0), (0.0, np.nan, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0)]),
    dict(qform_code=1, quatern=(0.0, np.nan, 0.0)),
    dict(qform_code=1, qoffset=(0.0, np.inf, 0.0)),
], ids=["sform-nan-srow", "qform-nan-quatern", "qform-inf-qoffset"])
def test_non_finite_orientation_rejected(tmp_path, geometry):
    blob = build_nifti_bytes(np.zeros((2, 2, 2), dtype=np.uint8), 2, 8, **geometry)
    path = write_fixture(tmp_path, "geometry.nii", blob)
    for read in (read_label_volume, read_scalar_volume):
        with pytest.raises(NiftiFormatError, match="orientation"):
            read(path)


def test_written_header_bytes(tmp_path):
    labels = LabelVolume(
        np.zeros((3, 4, 5), dtype=np.uint8), spacing=(1.0, 1.5, 2.0)
    )
    lpath = tmp_path / "seg.nii"
    write_label_volume(labels, lpath)
    raw = lpath.read_bytes()
    assert struct.unpack_from("<i", raw, 0)[0] == 348
    assert struct.unpack_from("<8h", raw, 40)[:5] == (3, 3, 4, 5, 1)
    assert struct.unpack_from("<h", raw, 70)[0] == 2  # uint8
    assert struct.unpack_from("<h", raw, 72)[0] == 8
    assert struct.unpack_from("<4f", raw, 76)[1:] == (1.0, 1.5, 2.0)
    assert struct.unpack_from("<f", raw, 108)[0] == 352.0
    assert struct.unpack_from("<h", raw, 254)[0] == 1  # sform present
    assert struct.unpack_from("<4s", raw, 344)[0] == b"n+1\x00"
    assert len(raw) == 352 + 3 * 4 * 5
    # a turned, anisotropic grid: the sform rows land at their own offsets
    orientation = np.array(
        [[0.0, -1.5, 0.0, 12.0], [2.0, 0.0, 0.0, -7.5], [0.0, 0.0, 0.5, 3.25]]
    )
    turned = LabelVolume(np.zeros((3, 4, 5), np.uint8), (2.0, 1.5, 0.5), orientation)
    write_label_volume(turned, lpath)
    raw = lpath.read_bytes()
    for offset, row in zip((280, 296, 312), orientation):
        assert struct.unpack_from("<4f", raw, offset) == tuple(row)
    assert struct.unpack_from("<b", raw, 123)[0] == 2  # xyzt_units: millimeters
    assert struct.unpack_from("<h", raw, 252)[0] == 0  # qform_code
    assert struct.unpack_from("<f", raw, 112)[0] == 1.0  # scl_slope
    assert struct.unpack_from("<f", raw, 116)[0] == 0.0  # scl_inter

    vol = ScalarVolume(np.zeros((2, 2, 2)))
    spath = tmp_path / "vol.nii"
    write_scalar_volume(vol, spath)
    raw = spath.read_bytes()
    assert struct.unpack_from("<h", raw, 70)[0] == 16  # float32
    assert struct.unpack_from("<h", raw, 72)[0] == 32


def test_header_reads_xyzt_units(tmp_path):
    path = tmp_path / "units.nii"
    write_label_volume(LabelVolume(np.zeros((2, 2, 2), np.uint8)), path)
    assert parse_header(path.read_bytes()).xyzt_units == 2  # millimeters


def test_written_disk_order_is_x_fastest(tmp_path):
    labels = np.zeros((2, 2, 2), dtype=np.uint8)
    labels[1, 0, 0] = 1  # second voxel on disk when x varies fastest
    lpath = tmp_path / "order.nii"
    write_label_volume(LabelVolume(labels), lpath)
    raw = lpath.read_bytes()
    assert raw[352:360] == bytes([0, 1, 0, 0, 0, 0, 0, 0])


def test_write_preserves_orientation(tmp_path):
    srows = np.array([[0.0, 0.0, 2.0, 1.0], [0.0, 1.0, 0.0, -2.0], [3.0, 0.0, 0.0, 0.0]])
    vol = ScalarVolume(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0), srows)
    path = tmp_path / "orient.nii"
    write_scalar_volume(vol, path)
    back = read_scalar_volume(path)
    assert np.array_equal(back.orientation, srows)


def test_oblique_affine_is_the_same_grid_after_a_float32_round_trip(tmp_path):
    # a turned grid whose origin lies a few hundred mm out: the sform is
    # stored as float32, so the translations come back rounded
    angle = np.deg2rad(17.0)
    turn = np.array([[np.cos(angle), -np.sin(angle), 0.0], [np.sin(angle), np.cos(angle), 0.0], [0.0, 0.0, 1.0]])
    spacing = (0.9375, 0.9375, 1.2)
    orientation = np.column_stack([turn * spacing, (-312.6137, 287.4521, -151.8093)])
    source = LabelVolume(np.zeros((4, 5, 6), np.uint8), spacing, orientation)
    write_label_volume(source, tmp_path / "oblique.nii.gz")
    back = read_label_volume(tmp_path / "oblique.nii.gz")
    assert not np.array_equal(back.orientation, source.orientation)
    require_same_grid(source, back)
    require_same_grid(back, source)


@pytest.mark.parametrize("writer, volume", [
    (write_scalar_volume, ScalarVolume(np.full((2, 2, 2), 1e39))),
    (write_scalar_volume, ScalarVolume(np.full((2, 2, 2), -1e39))),
    (write_scalar_volume, ScalarVolume(np.zeros((2, 2, 2)), (1.0, 1e39, 1.0), np.eye(3, 4))),
    (write_label_volume, LabelVolume(np.zeros((2, 2, 2), np.uint8), (1.0, 1.0, 1e39))),
    (write_label_volume, LabelVolume(np.zeros((2, 2, 2), np.uint8), (1.0, 1.0, 1.0), np.eye(3, 4) * 1e39)),
], ids=["voxel", "negative-voxel", "spacing", "label-spacing", "affine"])
@pytest.mark.parametrize("name", ["refused.nii", "refused.nii.gz"])
def test_write_refuses_values_beyond_float32_before_creating_the_file(tmp_path, writer, volume, name):
    with pytest.raises(ValueError, match="float32"):
        writer(volume, tmp_path / name)
    assert not (tmp_path / name).exists()


def test_gzip_bytes_depend_only_on_the_volume(tmp_path):
    labels = LabelVolume(np.random.default_rng(13).integers(0, 4, (5, 6, 7)).astype(np.uint8))
    scalars = ScalarVolume(np.random.default_rng(14).normal(size=(5, 6, 7)))
    (tmp_path / "sub").mkdir()
    for write, volume in [(write_label_volume, labels), (write_scalar_volume, scalars)]:
        first, second = tmp_path / "a.nii.gz", tmp_path / "sub" / ".tmp-123-other-name.nii.gz"
        write(volume, first)
        write(volume, second)
        assert first.read_bytes() == second.read_bytes()


def test_gzip_level_is_fixed_per_datatype(tmp_path):
    # XFL, byte 8 of the gzip header: 2 marks level 9, 4 marks level 1
    labels = LabelVolume(np.random.default_rng(16).integers(0, 4, (5, 6, 7)).astype(np.uint8))
    scalars = ScalarVolume(np.random.default_rng(17).normal(size=(5, 6, 7)))
    write_label_volume(labels, tmp_path / "seg.nii.gz")
    write_scalar_volume(scalars, tmp_path / "t1.nii.gz")
    assert (tmp_path / "seg.nii.gz").read_bytes()[8] == 0x02
    assert (tmp_path / "t1.nii.gz").read_bytes()[8] == 0x04


def test_written_bytes_are_header_voxels_and_one_gzip_member(tmp_path, monkeypatch):
    # (5, 6, 7) has 30-byte label and 120-byte float32 disk planes, so slabs of
    # 1, 100 and 250 bytes split both into several slabs with a partial last
    # one; at the default 1 MiB, (128, 128, 70) writes labels as 64 + 6 planes
    # and scalars as 4 * 16 + 6
    rng = np.random.default_rng(18)
    for slab, shape in [(2**20, (5, 6, 7)), (1, (5, 6, 7)), (100, (5, 6, 7)), (250, (5, 6, 7)),
                        (2**20, (128, 128, 70))]:
        monkeypatch.setattr(nifti, "_GZIP_SLICE", slab)
        labels = LabelVolume(rng.integers(0, 4, shape).astype(np.uint8))
        scalars = ScalarVolume(rng.normal(size=shape))
        for write, volume, dtype, level in [
            (write_label_volume, labels, "<u1", 9),
            (write_scalar_volume, scalars, "<f4", 1),
        ]:
            write(volume, tmp_path / "plain.nii")
            write(volume, tmp_path / "packed.nii.gz")
            plain = (tmp_path / "plain.nii").read_bytes()
            voxels = np.ascontiguousarray(volume.data.transpose(2, 1, 0), dtype=dtype).tobytes()
            assert len(plain) == 352 + len(voxels)
            assert plain[352:] == voxels
            packed = (tmp_path / "packed.nii.gz").read_bytes()
            assert packed == zlib.compress(plain, level, wbits=31)


def test_scalar_write_holds_one_image(tmp_path):
    # the voxels are cast one slab of disk planes at a time: no image-sized copy
    data = np.zeros((128, 128, 64))
    data[40:72, 40:72, 16:48] = np.random.default_rng(20).normal(size=(32, 32, 32))
    volume = ScalarVolume(data)
    image = data.size * 4  # a float32 disk-order copy would be 4 MiB
    for name in ("big.nii", "big.nii.gz"):
        tracemalloc.start()
        try:
            write_scalar_volume(volume, tmp_path / name)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nifti._GZIP_SLICE + 2**20 < image, f"{name}: peak {peak / 2**20:.1f} MiB"


def test_incompressible_gzip_write_holds_one_image(tmp_path):
    # random-normal float32 barely compresses, so a compressed stream held
    # whole would cost about one more image; streamed, the extra over one
    # slab is one slice of output (held twice while zlib joins its blocks)
    # and zlib's state
    volume = ScalarVolume(np.random.default_rng(21).normal(size=(128, 128, 128)))
    image = volume.data.size * 4
    tracemalloc.start()
    try:
        write_scalar_volume(volume, tmp_path / "noise.nii.gz")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = nifti._GZIP_SLICE + 3 * 2**20
    assert peak < bound < image, f"peak {peak / 2**20:.1f} MiB for a {image / 2**20:.0f} MiB image"


def test_label_read_allocates_no_wide_copy(tmp_path):
    labels = np.random.default_rng(15).integers(0, 4, (128, 128, 64)).astype(np.uint8)
    path = write_fixture(tmp_path, "big.nii.gz", build_nifti_bytes(labels, 2, 8))
    tracemalloc.start()
    try:
        vol = read_label_volume(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(vol.data, labels)
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_scalar_read_allocates_no_wide_copy(tmp_path):
    # an int16 modality stays int16: the file's bytes and one grid, where a
    # float64 read would add a grid four times the stored one
    values = np.random.default_rng(16).integers(-2000, 2000, (128, 128, 64)).astype(np.int16)
    path = write_fixture(tmp_path, "mri.nii", build_nifti_bytes(values, 4, 16))
    tracemalloc.start()
    try:
        vol = read_scalar_volume(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vol.data.dtype == np.int16 and np.array_equal(vol.data, values)
    bound = path.stat().st_size + 2 * values.nbytes
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_reads_of_line_shaped_grids_own_writable_data(tmp_path):
    for shape in [(1, 1, 5), (5, 1, 1)]:
        labels = np.arange(5, dtype=np.uint8).reshape(shape) % 4
        blob = build_nifti_bytes(labels, 2, 8)
        for read in (read_label_volume, read_scalar_volume):
            vol = read(write_fixture(tmp_path, "line.nii", blob))
            assert vol.data.flags.owndata and vol.data.flags.writeable
            assert vol.data.flags.c_contiguous
            assert np.array_equal(vol.data, labels)


def test_blocked_read_transpose_equals_the_whole_image_transpose(tmp_path):
    # 70 disk planes: two whole blocks of planes and a partial third
    shape = (6, 5, 70)
    assert shape[2] > nifti._READ_PLANES and shape[2] % nifti._READ_PLANES
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 4, shape)
    intensities = rng.integers(-3000, 3000, shape)
    slope, inter = 0.5, -7.25
    cases = [
        (read_label_volume, build_nifti_bytes(labels, 2, 8), np.uint8, 1.0, 0.0),
        (read_scalar_volume, build_nifti_bytes(intensities, 4, 16), np.int16, 1.0, 0.0),
        (read_scalar_volume,
         build_nifti_bytes(intensities, 4, 16, scl_slope=slope, scl_inter=inter),
         np.float64, slope, inter),
    ]
    for read, blob, dtype, a, b in cases:
        stored = np.frombuffer(blob, "<u1" if dtype == np.uint8 else "<i2", offset=352)
        whole = np.array(stored.reshape(shape[::-1]).transpose(2, 1, 0), dtype, order="C")
        vol = read(write_fixture(tmp_path, "deep.nii", blob))
        assert vol.data.dtype == dtype and vol.data.flags.c_contiguous
        assert np.array_equal(vol.data, whole * a + b)


def test_scalar_rejects_non_finite_values(tmp_path):
    values = np.zeros((2, 2, 2), dtype=np.float32)
    values[1, 0, 1] = np.nan
    blob = build_nifti_bytes(values, 16, 32)
    with pytest.raises(NiftiFormatError, match="non-finite"):
        read_scalar_volume(write_fixture(tmp_path, "nan.nii", blob))
