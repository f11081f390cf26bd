"""Seeded generator of BraTS-grid cohorts, and a minimal NIfTI-1 codec.

Every case is a 240x240x155 grid at 1 mm. Label maps use the BraTS codes
(0 background, 1 necrotic core, 2 edema, 3 enhancing tumour); modality
volumes are int16 with zero outside a brain-shaped ellipsoid, as in
skull-stripped BraTS releases.

The codec here is written independently of ``glioseg.nifti`` on purpose:
the inputs must not change when the program's writer changes, and the
output checks must not trust the program's own reader.

Two cohort kinds:

* ``focal``: one compact nested tumour (edema shell, enhancing rim,
  necrotic centre) whose bounding box is about 2-3 % of the grid. The
  ensemble members are the truth with independent smooth boundary jitter.
* ``diffuse``: the same tumour and members, plus 1600 small
  enhancing specks scattered over the brain. Each member keeps each speck
  with probability 0.8, sometimes shifted by one voxel, so the specks are
  correlated false positives that survive fusion. Some specks are at most
  50 voxels (the cleanup removes them), some are hollow shells whose
  centre is a core hole (the cleanup fills it).
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

GRID = (240, 240, 155)
MEMBERS = 5
MODALITY_SUFFIXES = ("-t1n.nii.gz", "-t1c.nii.gz", "-t2w.nii.gz", "-t2f.nii.gz")
LABEL_SUFFIX = "-seg.nii.gz"

BRAIN_SEMI_AXES = (80.0, 96.0, 64.0)
TUMOUR_RADIUS = 28.0  # whole-tumour radius in voxels
TUMOUR_BOX = 72  # side of the local box the tumour is drawn in
# normalised-radius thresholds of the nested regions
WT_LEVEL, TC_LEVEL, NCR_LEVEL = 1.0, 0.6, 0.35
TRUTH_ROUGHNESS = 0.08
MEMBER_JITTER = 0.07

SPECK_SITES = 1600
SPECK_KEEP = 0.8
SPECK_SHIFT = 0.3

_HEADER_SIZE = 348
_VOX_OFFSET = 352
_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}  # NIfTI code -> dtype
_DT_CODE = {dtype: code for code, dtype in _DTYPES.items()}


# ---------------------------------------------------------------- codec


def encode_nifti(data: np.ndarray) -> bytes:
    """Gzip-compressed NIfTI-1 bytes of a uint8, int16 or float32 [x, y, z] array."""
    dtype = data.dtype.newbyteorder("<")
    code = _DT_CODE[dtype]
    header = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", header, 0, _HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, *data.shape, 1, 1, 1, 1)
    struct.pack_into("<hh", header, 70, code, dtype.itemsize * 8)
    struct.pack_into("<8f", header, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
    struct.pack_into("<ff", header, 108, float(_VOX_OFFSET), 1.0)
    struct.pack_into("<b", header, 123, 2)
    struct.pack_into("<hh", header, 252, 0, 1)
    for row in range(3):
        srow = [0.0, 0.0, 0.0, 0.0]
        srow[row] = 1.0
        struct.pack_into("<4f", header, 280 + 16 * row, *srow)
    struct.pack_into("<4s", header, 344, b"n+1\x00")
    # disk order is first axis fastest
    body = np.ascontiguousarray(data.astype(dtype).transpose(2, 1, 0)).tobytes()
    # level 1 keeps generation cheap; mtime=0 keeps the bytes seed-determined
    return gzip.compress(bytes(header) + b"\x00" * 4 + body, compresslevel=1, mtime=0)


def decode_nifti(path) -> np.ndarray:
    """Voxel array [x, y, z] of a single-file little-endian NIfTI-1 volume."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if len(raw) < _HEADER_SIZE or struct.unpack_from("<i", raw, 0)[0] != _HEADER_SIZE:
        raise ValueError(f"{path}: not a little-endian NIfTI-1 file")
    dim = struct.unpack_from("<8h", raw, 40)
    code, _ = struct.unpack_from("<hh", raw, 70)
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    if code not in _DTYPES:
        raise ValueError(f"{path}: unexpected datatype code {code}")
    dtype = _DTYPES[code]
    nx, ny, nz = dim[1:4]
    count = nx * ny * nz
    if len(raw) < offset + count * dtype.itemsize:
        raise ValueError(f"{path}: truncated data section")
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return flat.reshape(nz, ny, nx).transpose(2, 1, 0)


# ------------------------------------------------------------ generator


@dataclass(frozen=True)
class CaseFiles:
    """Where one generated case lives, and facts the checks need."""

    case: str
    modality_dir: Path | None  # holds <case>/<case><suffix> for normalize
    member_dirs: tuple[Path, ...]  # each holds <case>-seg.nii.gz
    truth_dir: Path  # holds <case>-seg.nii.gz
    mean_member_wt_dice: float


def _smooth_noise(rng: np.random.Generator, shape, coarse: int) -> np.ndarray:
    """Unit-scale noise varying smoothly over roughly shape/coarse voxels."""
    grid = rng.standard_normal((coarse, coarse, coarse))
    zoom = [s / coarse for s in shape]
    return ndimage.zoom(grid, zoom, order=3, mode="nearest")[: shape[0], : shape[1], : shape[2]]


def _labels_from_radius(radius: np.ndarray) -> np.ndarray:
    labels = np.zeros(radius.shape, dtype=np.uint8)
    labels[radius <= WT_LEVEL] = 2
    labels[radius <= TC_LEVEL] = 3
    labels[radius <= NCR_LEVEL] = 1
    return labels


def _wt_dice(a: np.ndarray, b: np.ndarray) -> float:
    fa, fb = a > 0, b > 0
    return 2.0 * np.count_nonzero(fa & fb) / (np.count_nonzero(fa) + np.count_nonzero(fb))


def _brain_mask(shape=GRID) -> np.ndarray:
    axes = [np.arange(n, dtype=np.float64) - (n - 1) / 2.0 for n in shape]
    x, y, z = np.ix_(*axes)
    a, b, c = BRAIN_SEMI_AXES
    return (x / a) ** 2 + (y / b) ** 2 + (z / c) ** 2 <= 1.0


def _tumour(rng: np.random.Generator):
    """Truth and member label boxes plus the box's corner in the grid."""
    half = TUMOUR_BOX // 2
    # keep the tumour inside the brain, off-centre like a real lesion
    centre = np.array(GRID) // 2 + rng.integers(-20, 21, size=3) * np.array([1, 1, 0.5])
    corner = tuple(int(c) - half for c in centre)
    axes = [np.arange(TUMOUR_BOX, dtype=np.float64) - half for _ in range(3)]
    x, y, z = np.meshgrid(*axes, indexing="ij")
    stretch = rng.uniform(0.85, 1.15, size=3)
    radius = np.sqrt(
        (x / stretch[0]) ** 2 + (y / stretch[1]) ** 2 + (z / stretch[2]) ** 2
    ) / TUMOUR_RADIUS
    radius += TRUTH_ROUGHNESS * _smooth_noise(rng, radius.shape, 6)
    truth = _labels_from_radius(radius)
    members = [
        _labels_from_radius(radius + MEMBER_JITTER * _smooth_noise(rng, radius.shape, 9))
        for _ in range(MEMBERS)
    ]
    return truth, members, corner


def _paste(box: np.ndarray, corner) -> np.ndarray:
    full = np.zeros(GRID, dtype=np.uint8)
    x, y, z = corner
    sx, sy, sz = box.shape
    full[x : x + sx, y : y + sy, z : z + sz] = box
    return full


def _speck_shapes():
    """Enhancing speck stencils: removed (<= 50 voxels), kept, and hollow."""
    r = np.arange(5) - 2.0
    ball = r[:, None, None] ** 2 + r[None, :, None] ** 2 + r[None, None, :] ** 2 <= 4.0
    shell = np.ones((5, 5, 5), dtype=bool)
    shell[1:4, 1:4, 1:4] = False  # 27-voxel cavity, filled as core by the cleanup
    return [
        np.ones((3, 3, 3), dtype=bool),  # 27 voxels, removed
        ball,  # 33 voxels, removed
        np.ones((4, 4, 4), dtype=bool),  # 64 voxels, kept
        shell,  # 98 voxels, kept, hole filled
    ]


def _add_specks(rng: np.random.Generator, members: list[np.ndarray], corner) -> None:
    """Paste shared enhancing specks into every member, in place."""
    allowed = _brain_mask()
    # keep specks off the tumour itself, with a margin
    lo = [max(c - 6, 0) for c in corner]
    allowed[lo[0] : corner[0] + TUMOUR_BOX + 6, lo[1] : corner[1] + TUMOUR_BOX + 6,
            lo[2] : corner[2] + TUMOUR_BOX + 6] = False
    candidates = np.argwhere(allowed)
    shapes = _speck_shapes()
    sites = candidates[rng.integers(0, len(candidates), size=SPECK_SITES)]
    kinds = rng.integers(0, len(shapes), size=SPECK_SITES)
    keep = rng.random((len(members), SPECK_SITES)) < SPECK_KEEP
    shift = rng.integers(-1, 2, size=(len(members), SPECK_SITES, 3))
    shift *= rng.random((len(members), SPECK_SITES, 1)) < SPECK_SHIFT
    # the brain ellipsoid sits far enough from the grid faces that every
    # shifted stencil stays inside the grid
    for s, (site, kind) in enumerate(zip(sites, kinds)):
        stencil = shapes[kind]
        for m, member in enumerate(members):
            if keep[m, s]:
                a = site + shift[m, s] - np.array(stencil.shape) // 2
                b = a + stencil.shape
                member[a[0] : b[0], a[1] : b[1], a[2] : b[2]][stencil] = 3


def _modalities(rng: np.random.Generator, truth: np.ndarray) -> list[np.ndarray]:
    """Four int16 intensity volumes, zero outside the brain."""
    brain = _brain_mask()
    inside = np.count_nonzero(brain)
    volumes = []
    # per-modality (tissue, edema, core, enhancing) mean intensities
    contrasts = ((500, 420, 350, 450), (500, 480, 380, 900), (400, 800, 650, 700), (450, 700, 500, 600))
    for tissue, edema, core, enhancing in contrasts:
        means = np.array([tissue, core, edema, enhancing], dtype=np.float64)
        base = means[truth[brain]]
        noisy = base + rng.normal(0.0, 40.0, size=inside)
        volume = np.zeros(GRID, dtype=np.int16)
        volume[brain] = np.clip(np.rint(noisy), 1, 32767).astype(np.int16)
        volumes.append(volume)
    return volumes


def generate_case(kind: str, seed: int, index: int, root: Path) -> CaseFiles:
    """Write one case's inputs under root and describe them.

    The same (kind, seed, index) always writes the same bytes.
    """
    if kind not in ("focal", "diffuse"):
        raise ValueError(f"unknown cohort kind {kind!r}")
    rng = np.random.default_rng([seed, index, 0 if kind == "focal" else 1])
    case = f"{kind}{seed:04d}x{index:03d}"
    truth_box, member_boxes, corner = _tumour(rng)
    truth = _paste(truth_box, corner)
    members = [_paste(box, corner) for box in member_boxes]
    dice = float(np.mean([_wt_dice(truth_box, box) for box in member_boxes]))
    if kind == "diffuse":
        _add_specks(rng, members, corner)
    truth_dir = root / "truth"
    files = [(truth_dir / (case + LABEL_SUFFIX), truth)]
    member_dirs = tuple(root / f"member{m}" for m in range(MEMBERS))
    files += [(d / (case + LABEL_SUFFIX), labels) for d, labels in zip(member_dirs, members)]
    modality_dir = None
    if kind == "focal":
        modality_dir = root / "raw"
        for suffix, volume in zip(MODALITY_SUFFIXES, _modalities(rng, truth)):
            files.append((modality_dir / case / (case + suffix), volume))
    for path, data in files:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(encode_nifti(data))
    return CaseFiles(case, modality_dir, member_dirs, truth_dir, dice)
