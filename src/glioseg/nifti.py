"""Minimal NIfTI-1 single-file reader and writer.

Supports exactly what the segmentation pipeline exchanges: ``.nii`` /
``.nii.gz`` single files (magic ``n+1\\0``), datatypes int8 / uint8 /
int16 / uint16 / int32 / uint32 / int64 / float32 / float64 (nibabel
writes int64 labels by default; raw MRI often comes as uint16),
scl_slope/scl_inter rescaling, and both byte orders (resolved by
checking that sizeof_hdr decodes to 348). Orientation comes from the
sform when sform_code > 0, otherwise a spacing-scaled
identity affine. qform quaternions, .hdr/.img pairs, NIfTI-2, and header
extensions are out of scope.

On disk the first voxel axis varies fastest; in memory volumes are
C-ordered ``[i, j, k]`` arrays (see glioseg.volume), so read/write
transposes between the two. Labels are always written as uint8 and
scalars as float32.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from glioseg.volume import LabelVolume, ScalarVolume, default_orientation

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"

DT_UINT8 = 2
DT_INT16 = 4
DT_INT32 = 8
DT_FLOAT32 = 16
DT_FLOAT64 = 64
DT_INT8 = 256
DT_UINT16 = 512
DT_UINT32 = 768
DT_INT64 = 1024

_DTYPES = {
    DT_UINT8: ("u1", 8),
    DT_INT16: ("i2", 16),
    DT_INT32: ("i4", 32),
    DT_FLOAT32: ("f4", 32),
    DT_FLOAT64: ("f8", 64),
    DT_INT8: ("i1", 8),
    DT_UINT16: ("u2", 16),
    DT_UINT32: ("u4", 32),
    DT_INT64: ("i8", 64),
}

# (name, offset, struct format) for the header fields this reader uses;
# formats are given without the byte-order prefix.
_FIELDS = [
    ("sizeof_hdr", 0, "i"),
    ("dim", 40, "8h"),
    ("datatype", 70, "h"),
    ("bitpix", 72, "h"),
    ("pixdim", 76, "8f"),
    ("vox_offset", 108, "f"),
    ("scl_slope", 112, "f"),
    ("scl_inter", 116, "f"),
    ("qform_code", 252, "h"),
    ("sform_code", 254, "h"),
    ("srow_x", 280, "4f"),
    ("srow_y", 296, "4f"),
    ("srow_z", 312, "4f"),
    ("magic", 344, "4s"),
]


class NiftiFormatError(ValueError):
    """Malformed or unsupported NIfTI file."""


@dataclass(frozen=True)
class NiftiHeader:
    """Decoded subset of the 348-byte NIfTI-1 header."""

    sizeof_hdr: int
    dim: tuple[int, ...]
    datatype: int
    bitpix: int
    pixdim: tuple[float, ...]
    vox_offset: int
    scl_slope: float
    scl_inter: float
    qform_code: int
    sform_code: int
    srow: np.ndarray  # (3, 4)
    magic: bytes
    byte_order: str  # "<" or ">"

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.dim[1], self.dim[2], self.dim[3]

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.pixdim[1], self.pixdim[2], self.pixdim[3]


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        rest = fh.read()
    raw = head + rest
    if head == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def parse_header(raw: bytes) -> NiftiHeader:
    """Decode the header from the raw (decompressed) file bytes."""
    if len(raw) < HEADER_SIZE:
        raise NiftiFormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    order = "<"
    (size,) = struct.unpack_from("<i", raw, 0)
    if size != HEADER_SIZE:
        order = ">"
        (size,) = struct.unpack_from(">i", raw, 0)
        if size != HEADER_SIZE:
            raise NiftiFormatError("sizeof_hdr is not 348 in either byte order")
    values = {
        name: struct.unpack_from(order + fmt, raw, offset)
        for name, offset, fmt in _FIELDS
    }
    magic = values["magic"][0]
    if magic != MAGIC_SINGLE:
        raise NiftiFormatError(f"bad magic {magic!r}, expected {MAGIC_SINGLE!r}")
    dim = values["dim"]
    if dim[0] not in (3, 4):
        raise NiftiFormatError(f"unsupported dim[0]={dim[0]}, expected 3 or 4")
    if dim[0] == 4 and dim[4] != 1:
        raise NiftiFormatError(f"4D files must have a single frame, got dim[4]={dim[4]}")
    if any(d <= 0 for d in dim[1:4]):
        raise NiftiFormatError(f"non-positive spatial dims {dim[1:4]}")
    datatype = values["datatype"][0]
    if datatype not in _DTYPES:
        raise NiftiFormatError(f"unsupported datatype code {datatype}")
    bitpix = values["bitpix"][0]
    if bitpix != _DTYPES[datatype][1]:
        raise NiftiFormatError(
            f"bitpix {bitpix} inconsistent with datatype {datatype}"
        )
    pixdim = values["pixdim"]
    if any(p <= 0 or not np.isfinite(p) for p in pixdim[1:4]):
        raise NiftiFormatError(f"non-positive pixdim {pixdim[1:4]}")
    srow = np.array(
        [values["srow_x"], values["srow_y"], values["srow_z"]], dtype=np.float64
    )
    return NiftiHeader(
        sizeof_hdr=size,
        dim=dim,
        datatype=datatype,
        bitpix=bitpix,
        pixdim=pixdim,
        vox_offset=int(values["vox_offset"][0]),
        scl_slope=values["scl_slope"][0],
        scl_inter=values["scl_inter"][0],
        qform_code=values["qform_code"][0],
        sform_code=values["sform_code"][0],
        srow=srow,
        magic=magic,
        byte_order=order,
    )


def _read_raw(path):
    raw = _read_bytes(path)
    header = parse_header(raw)
    nx, ny, nz = header.shape
    count = nx * ny * nz
    dtype = np.dtype(header.byte_order + _DTYPES[header.datatype][0])
    offset = header.vox_offset
    if offset < HEADER_SIZE:
        raise NiftiFormatError(f"vox_offset {offset} points inside the header")
    end = offset + count * dtype.itemsize
    if len(raw) < end:
        raise NiftiFormatError(
            f"truncated data section: need {end} bytes, file has {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    # Disk layout is first-axis-fastest; transpose into C-order [i, j, k].
    voxels = flat.reshape((nz, ny, nx)).transpose(2, 1, 0)
    if header.sform_code > 0:
        orientation = header.srow.copy()
    else:
        orientation = default_orientation(header.spacing)
    return header, voxels, orientation


def _apply_scaling(header: NiftiHeader, voxels: np.ndarray) -> np.ndarray:
    slope = header.scl_slope if header.scl_slope != 0.0 else 1.0
    data = voxels.astype(np.float64)
    if slope != 1.0 or header.scl_inter != 0.0:
        data = data * np.float64(slope) + np.float64(header.scl_inter)
    return data


def read_scalar_volume(path) -> ScalarVolume:
    """Read an intensity volume, applying scl_slope/scl_inter."""
    header, voxels, orientation = _read_raw(path)
    data = _apply_scaling(header, voxels)
    if not np.all(np.isfinite(data)):
        raise NiftiFormatError("volume contains non-finite values after scaling")
    return ScalarVolume(header.shape, header.spacing, orientation, data)


def read_label_volume(path) -> LabelVolume:
    """Read a tumor label map; values must be exact integers in {0..3}."""
    header, voxels, orientation = _read_raw(path)
    data = _apply_scaling(header, voxels)
    rounded = np.rint(data)
    if not np.array_equal(rounded, data):
        raise NiftiFormatError("label file contains non-integer values")
    if data.min(initial=0) < 0 or data.max(initial=0) > 3:
        raise NiftiFormatError(
            f"label values outside {{0..3}}: range [{data.min()}, {data.max()}]"
        )
    return LabelVolume(header.shape, header.spacing, orientation, rounded.astype(np.uint8))


def _build_header(dims, spacing, orientation, datatype) -> bytes:
    raw = bytearray(HEADER_SIZE)
    struct.pack_into("<i", raw, 0, HEADER_SIZE)
    nx, ny, nz = dims
    struct.pack_into("<8h", raw, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", raw, 70, datatype)
    struct.pack_into("<h", raw, 72, _DTYPES[datatype][1])
    struct.pack_into("<8f", raw, 76, 1.0, spacing[0], spacing[1], spacing[2], 0, 0, 0, 0)
    struct.pack_into("<f", raw, 108, 352.0)  # voxels follow the 4 extension bytes
    struct.pack_into("<f", raw, 112, 1.0)  # scl_slope
    struct.pack_into("<f", raw, 116, 0.0)  # scl_inter
    struct.pack_into("<b", raw, 123, 2)  # xyzt_units: millimeters
    struct.pack_into("<h", raw, 252, 0)  # qform_code
    struct.pack_into("<h", raw, 254, 1)  # sform_code
    affine = np.asarray(orientation, dtype=np.float64)
    struct.pack_into("<4f", raw, 280, *affine[0])
    struct.pack_into("<4f", raw, 296, *affine[1])
    struct.pack_into("<4f", raw, 312, *affine[2])
    struct.pack_into("<4s", raw, 344, MAGIC_SINGLE)
    return bytes(raw)


def _write_file(path, dims, spacing, orientation, datatype, voxels: np.ndarray):
    header = _build_header(dims, spacing, orientation, datatype)
    # first-axis-fastest disk order
    disk = np.ascontiguousarray(voxels.transpose(2, 1, 0))
    payload = header + b"\x00\x00\x00\x00" + disk.tobytes()
    path = str(path)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wb") as fh:
        fh.write(payload)


def write_label_volume(labels: LabelVolume, path) -> None:
    """Write labels as uint8, gzip-compressed when the path ends in .gz."""
    _write_file(
        path,
        labels.dims,
        labels.spacing,
        labels.orientation,
        DT_UINT8,
        labels.data.astype("<u1"),
    )


def write_scalar_volume(volume: ScalarVolume, path) -> None:
    """Write intensities as float32, gzip-compressed for .gz paths."""
    _write_file(
        path,
        volume.dims,
        volume.spacing,
        volume.orientation,
        DT_FLOAT32,
        volume.data.astype("<f4"),
    )
