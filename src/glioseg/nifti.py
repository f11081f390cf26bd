"""Minimal NIfTI-1 single-file reader and writer.

Supports exactly what the segmentation pipeline exchanges: ``.nii`` /
``.nii.gz`` single files (magic ``n+1\\0``), datatypes int8 / uint8 /
int16 / uint16 / int32 / uint32 / int64 / float32 / float64 (nibabel
writes int64 labels by default; raw MRI often comes as uint16),
scl_slope/scl_inter rescaling (none when the slope is zero or
non-finite), and both byte orders (resolved by checking that sizeof_hdr
decodes to 348). Orientation comes from the sform when sform_code > 0,
else from the qform quaternion, offsets and qfac (pixdim[0]) when
qform_code > 0; with neither code it is the volume's default. .hdr/.img
pairs, NIfTI-2 and header extensions are out of scope. One table gives
every header field's offset and format; the reader and the writer both
go through it.

On disk the first voxel axis varies fastest; in memory volumes are
C-ordered ``[i, j, k]`` arrays (see glioseg.volume), so read/write
transposes between the two. Each read copies the voxels once, a block
of disk planes at a time, into a native-byte-order array the volume
owns: labels keep their stored integers (float-coded or scaled labels
must be integral), and so do intensities, which become float64 only
when scl_slope/scl_inter scale them. The value checks (label range,
finiteness, a finite orientation) belong to LabelVolume and
ScalarVolume; the reader reports their failures as NiftiFormatError.
Labels are written as uint8 and scalars as float32, with the
orientation as the sform; an intensity, spacing or affine entry beyond
float32's range is refused with ValueError before the path is created.
A ``.gz`` path gets one gzip member with no file name and mtime 0, so
the bytes depend only on the volume. Labels are compressed at gzip
level 9, scalars at level 1: a float32 intensity volume comes out ~5 %
larger than at level 9 and compresses several times faster. Both kinds
of file are written by one loop that casts one slab of disk planes at a
time, so a write never holds a copy of the image.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from glioseg.volume import LabelVolume, ScalarVolume

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

# gzip level per written datatype. Labels compress 3.4x better at level 9
# for little time; float32 intensities are only ~5 % smaller at level 9 than
# at level 1 and take several times as long to compress.
_GZIP_LEVEL = {DT_UINT8: 9, DT_FLOAT32: 1}

# voxel bytes cast, transposed and written (or compressed) per slab, so
# neither a disk-order image nor the compressed stream is held whole
_GZIP_SLICE = 2**20

# disk planes transposed per block on read: a block of whole planes is one
# contiguous run of the file, small enough to stay in cache while it is
# scattered into the C-order array
_READ_PLANES = 32

# name -> (offset, struct format) of every header field read or written;
# formats are given without the byte-order prefix.
_FIELDS = {
    "sizeof_hdr": (0, "i"),
    "dim": (40, "8h"),
    "datatype": (70, "h"),
    "bitpix": (72, "h"),
    "pixdim": (76, "8f"),
    "vox_offset": (108, "f"),
    "scl_slope": (112, "f"),
    "scl_inter": (116, "f"),
    "xyzt_units": (123, "b"),
    "qform_code": (252, "h"),
    "sform_code": (254, "h"),
    "quatern": (256, "3f"),
    "qoffset": (268, "3f"),
    "srow": (280, "12f"),
    "magic": (344, "4s"),
}


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
    xyzt_units: int
    qform_code: int
    sform_code: int
    quatern: tuple[float, float, float]  # (b, c, d)
    qoffset: tuple[float, float, float]
    srow: np.ndarray  # (3, 4)
    magic: bytes
    byte_order: str  # "<" or ">"

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.dim[1], self.dim[2], self.dim[3]

    @property
    def spacing(self) -> tuple[float, float, float]:
        return self.pixdim[1], self.pixdim[2], self.pixdim[3]

    @property
    def orientation(self) -> np.ndarray | None:
        """Voxel-to-world affine rows: the sform, else the qform, else None (the volume's default)."""
        if self.sform_code > 0:
            return self.srow.copy()
        if self.qform_code > 0:
            return _qform_affine(self)
        return None


def _qform_affine(header: NiftiHeader) -> np.ndarray:
    """NIfTI-1 method 2: quaternion rotation, pixdim scaling, qoffset shift.

    qfac = pixdim[0] is -1 for a left-handed grid, which flips the third
    column; any other value counts as 1.
    """
    b, c, d = header.quatern
    bcd = b * b + c * c + d * d
    if 1.0 - bcd < 1e-7:  # a 180-degree turn: renormalise (b, c, d) as nifti1_io does
        a, b, c, d = 0.0, b / np.sqrt(bcd), c / np.sqrt(bcd), d / np.sqrt(bcd)
    else:
        a = np.sqrt(1.0 - bcd)
    rotation = np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
    ])
    qfac = -1.0 if header.pixdim[0] < 0 else 1.0
    dx, dy, dz = header.spacing
    return np.column_stack([rotation * (dx, dy, dz * qfac), header.qoffset])


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(b"\x1f\x8b"):
        raw = gzip.decompress(raw)
    return raw


def _unpack(raw: bytes, order: str, name: str):
    """One field's value: a scalar for one-item formats, else a tuple."""
    offset, fmt = _FIELDS[name]
    values = struct.unpack_from(order + fmt, raw, offset)
    return values[0] if len(values) == 1 else values


def parse_header(raw: bytes) -> NiftiHeader:
    """Decode the header from the raw (decompressed) file bytes."""
    if len(raw) < HEADER_SIZE:
        raise NiftiFormatError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")
    order = next((o for o in "<>" if _unpack(raw, o, "sizeof_hdr") == HEADER_SIZE), None)
    if order is None:
        raise NiftiFormatError("sizeof_hdr is not 348 in either byte order")
    fields = {name: _unpack(raw, order, name) for name in _FIELDS}
    if fields["magic"] != MAGIC_SINGLE:
        raise NiftiFormatError(f"bad magic {fields['magic']!r}, expected {MAGIC_SINGLE!r}")
    dim = fields["dim"]
    if dim[0] not in (3, 4):
        raise NiftiFormatError(f"unsupported dim[0]={dim[0]}, expected 3 or 4")
    if dim[0] == 4 and dim[4] != 1:
        raise NiftiFormatError(f"4D files must have a single frame, got dim[4]={dim[4]}")
    if any(d <= 0 for d in dim[1:4]):
        raise NiftiFormatError(f"non-positive spatial dims {dim[1:4]}")
    datatype = fields["datatype"]
    if datatype not in _DTYPES:
        raise NiftiFormatError(f"unsupported datatype code {datatype}")
    if fields["bitpix"] != _DTYPES[datatype][1]:
        raise NiftiFormatError(
            f"bitpix {fields['bitpix']} inconsistent with datatype {datatype}"
        )
    pixdim = fields["pixdim"]
    if any(p <= 0 or not np.isfinite(p) for p in pixdim[1:4]):
        raise NiftiFormatError(f"non-positive pixdim {pixdim[1:4]}")
    if not math.isfinite(fields["vox_offset"]):
        raise NiftiFormatError(f"non-finite vox_offset {fields['vox_offset']}")
    fields["vox_offset"] = int(fields["vox_offset"])
    fields["srow"] = np.array(fields["srow"], dtype=np.float64).reshape(3, 4)
    return NiftiHeader(**fields, byte_order=order)


def _read_voxels(path):
    """Header and voxels of one file, copied once into an owned C-order array.

    The values keep their stored dtype in native byte order; when
    scl_slope/scl_inter apply they become float64. The copy is the
    transpose from disk order, filled _READ_PLANES disk planes at a time.
    """
    raw = _read_bytes(path)
    header = parse_header(raw)
    nx, ny, nz = header.shape
    count = nx * ny * nz
    stored = np.dtype(header.byte_order + _DTYPES[header.datatype][0])
    offset = header.vox_offset
    if offset < HEADER_SIZE:
        raise NiftiFormatError(f"vox_offset {offset} points inside the header")
    end = offset + count * stored.itemsize
    if len(raw) < end:
        raise NiftiFormatError(
            f"truncated data section: need {end} bytes, file has {len(raw)}"
        )
    flat = np.frombuffer(raw, dtype=stored, count=count, offset=offset)
    # The standard scales only when scl_slope is nonzero. nifti1_io reads a
    # non-finite field as 0, and nibabel writes NaN to both when unscaled.
    slope, inter = header.scl_slope, header.scl_inter
    if not (math.isfinite(slope) and slope):
        slope, inter = 1.0, 0.0
    elif not math.isfinite(inter):
        inter = 0.0
    scaled = slope != 1.0 or inter != 0.0
    # Disk layout is first-axis-fastest; transpose into C-order [i, j, k].
    disk = flat.reshape((nz, ny, nx)).transpose(2, 1, 0)
    data = np.empty((nx, ny, nz), dtype=np.float64 if scaled else stored.newbyteorder("="))
    for k in range(0, nz, _READ_PLANES):
        data[:, :, k:k + _READ_PLANES] = disk[:, :, k:k + _READ_PLANES]
    if scaled:
        data *= slope
        data += inter
    return header, data


def _volume(volume_type, header: NiftiHeader, data: np.ndarray):
    try:
        return volume_type(data, header.spacing, header.orientation)
    except ValueError as exc:
        raise NiftiFormatError(str(exc)) from exc


def read_scalar_volume(path) -> ScalarVolume:
    """Read an intensity volume in its stored dtype; scl_slope/scl_inter make it float64."""
    header, data = _read_voxels(path)
    return _volume(ScalarVolume, header, data)


def read_label_volume(path) -> LabelVolume:
    """Read a tumor label map; values must be exact integers in {0..3}."""
    header, data = _read_voxels(path)
    if data.dtype.kind == "f" and not np.array_equal(np.rint(data), data):
        raise NiftiFormatError("label file contains non-integer values")
    return _volume(LabelVolume, header, data)


def _build_header(volume, datatype) -> bytearray:
    """Little-endian header plus the four zero extension bytes; unset fields stay 0."""
    raw = bytearray(HEADER_SIZE + 4)
    nx, ny, nz = volume.dims
    fields = {
        "sizeof_hdr": HEADER_SIZE,
        "dim": (3, nx, ny, nz, 1, 1, 1, 1),
        "datatype": datatype,
        "bitpix": _DTYPES[datatype][1],
        "pixdim": (1.0, *volume.spacing, 0, 0, 0, 0),
        "vox_offset": len(raw),
        "scl_slope": 1.0,
        "xyzt_units": 2,  # millimeters
        "sform_code": 1,  # qform_code stays 0
        "srow": tuple(volume.orientation.ravel()),
        "magic": MAGIC_SINGLE,
    }
    for name, value in fields.items():
        offset, fmt = _FIELDS[name]
        try:
            struct.pack_into("<" + fmt, raw, offset, *(value if isinstance(value, tuple) else (value,)))
        except OverflowError:
            raise ValueError(f"header field {name} {value} does not fit the file's float32") from None
    return raw


def _write_file(volume, path, datatype) -> None:
    """Header, then the voxels in first-axis-fastest disk order.

    The voxels are cast and transposed one slab of whole disk planes at a
    time, at most _GZIP_SLICE bytes (one plane if a plane is larger), and
    each slab goes to the file, or for a .gz path through one gzip stream
    with no file name and mtime 0 (wbits 31), byte-equal to
    gzip.compress(header + voxels, level, mtime=0).
    """
    dtype = np.dtype("<" + _DTYPES[datatype][0])
    planes = volume.data.T  # disk plane k is planes[k], a strided view
    step = max(1, _GZIP_SLICE // (planes[0].size * dtype.itemsize))
    stream = None
    if str(path).endswith(".gz"):
        stream = zlib.compressobj(_GZIP_LEVEL[datatype], zlib.DEFLATED, 31)
    encode = stream.compress if stream else (lambda chunk: chunk)
    header = _build_header(volume, datatype)  # before open, so a refused header leaves no file
    with open(path, "wb") as fh:
        fh.write(encode(header))
        for start in range(0, len(planes), step):
            fh.write(encode(np.ascontiguousarray(planes[start : start + step], dtype=dtype)))
        if stream:
            fh.write(stream.flush())


def write_label_volume(labels: LabelVolume, path) -> None:
    """Write labels as uint8, gzip-compressed when the path ends in .gz."""
    _write_file(labels, path, DT_UINT8)


def write_scalar_volume(volume: ScalarVolume, path) -> None:
    """Write intensities as float32, gzip-compressed for .gz paths."""
    data = volume.data
    if data.dtype.kind == "f" and max(-data.min(), data.max()) > np.finfo(np.float32).max:
        # the cast would write inf, which no reader takes back
        raise ValueError(f"intensities in [{data.min()}, {data.max()}] exceed float32's range")
    _write_file(volume, path, DT_FLOAT32)
