"""Core volumetric types and tumor-region extraction.

Label codes follow the BraTS 2024 convention:

    0 = background, 1 = NCR (non-enhancing core), 2 = ED (edema), 3 = ET.

Evaluation regions are overlapping label sets: ET = {3}, TC = {1, 3},
WT = {1, 2, 3}, so ET <= TC <= WT voxel-wise by construction.

Voxel data is kept in C-contiguous arrays indexed ``[i, j, k]`` with the
last axis fastest in memory. Volumes, label maps and region masks are
built alike as ``(data, spacing=(1, 1, 1), orientation=None)``: ``dims`` is
``data.shape``, ``dims[a]`` pairs with ``spacing[a]`` (mm), and a missing
orientation is the spacing-scaled identity affine. ``require_same_grid`` is
the one rule for two grids. All types are immutable values and all
operations are pure.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real

import numpy as np

LABEL_BACKGROUND = 0
LABEL_NCR = 1
LABEL_ED = 2
LABEL_ET = 3

VALID_LABELS = (LABEL_BACKGROUND, LABEL_NCR, LABEL_ED, LABEL_ET)


class Region(Enum):
    """Overlapping tumor evaluation regions."""

    ET = "ET"
    TC = "TC"
    WT = "WT"

    @property
    def labels(self) -> tuple[int, ...]:
        return _REGION_LABELS[self]


_REGION_LABELS = {
    Region.ET: (LABEL_ET,),
    Region.TC: (LABEL_NCR, LABEL_ET),
    Region.WT: (LABEL_NCR, LABEL_ED, LABEL_ET),
}


def check_field_types(settings) -> None:
    """Raise TypeError naming the first field of a settings dataclass that does not fit its type.

    bool takes only a bool, int a non-bool integer (NumPy's included), float a
    non-bool real, any other type its instances. An accepted real is stored as
    a Python int in an int field and a float otherwise, so settings hold the
    plain numbers ``json`` writes. Ranges are each class's own checks.
    """
    for name, hint in typing.get_type_hints(type(settings)).items():
        types, value = typing.get_args(hint) or (hint,), getattr(settings, name)
        if isinstance(value, bool):
            fits = bool in types
        elif isinstance(value, Real):
            integer = int in types and isinstance(value, Integral)
            fits = integer or float in types
            if integer:
                object.__setattr__(settings, name, int(value))
            elif fits:
                try:
                    object.__setattr__(settings, name, float(value))
                except OverflowError:  # an integer past float range, never a setting
                    raise ValueError(f"{name} is too large for a float") from None
        else:
            fits = isinstance(value, types)
        if not fits:
            raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in types)}, got {value!r}")


SPACING_TOL = 1e-6  # mm; spacings closer than this count as equal

# mm per affine entry: the sform is stored as float32, which rounds a
# translation of a few hundred mm by up to ~1.5e-5 mm
ORIENTATION_TOL = 1e-4

_FINITE_BLOCK = 1 << 20  # voxels per finiteness pass, so no grid-sized bool is made


def require_same_grid(a, b, what: str = "volumes") -> None:
    """Raise ValueError naming both grids unless dims, spacing and affine agree."""
    if (
        a.data.shape != b.data.shape
        or any(abs(sa - sb) > SPACING_TOL for sa, sb in zip(a.spacing, b.spacing))
        or np.abs(a.orientation - b.orientation).max() > ORIENTATION_TOL
    ):
        raise ValueError(
            f"{what} disagree on grid: dims {a.data.shape} vs {b.data.shape}, "
            f"spacing {a.spacing} vs {b.spacing}, "
            f"affine {a.orientation.tolist()} vs {b.orientation.tolist()}"
        )


@dataclass(frozen=True, eq=False)
class _GridVolume:
    """Voxel data on a validated grid; subclasses check the data itself."""

    data: np.ndarray  # 3-D, C-order
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    orientation: np.ndarray | None = None  # (3, 4) voxel-to-world affine rows

    def __post_init__(self):
        data = np.asarray(self.data)
        spacing = tuple(float(s) for s in np.atleast_1d(self.spacing))
        if data.ndim != 3 or 0 in data.shape:
            raise ValueError(f"dims must be 3 positive integers, got {data.shape}")
        if len(spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise ValueError(f"spacing must be 3 positive finite reals, got {spacing}")
        object.__setattr__(self, "spacing", spacing)
        orientation = np.ascontiguousarray(  # by default the identity scaled by spacing
            np.eye(3, 4) * (*spacing, 0.0) if self.orientation is None else self.orientation,
            dtype=np.float64,
        )
        if orientation.shape != (3, 4):
            raise ValueError(f"orientation must be 3x4, got {orientation.shape}")
        if not np.all(np.isfinite(orientation)):
            raise ValueError("orientation contains non-finite values")
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "data", self._checked_data(data))

    def _checked_data(self, data: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def with_data(self, data):
        """Same grid and orientation, new voxel values."""
        data = np.asarray(data)
        if data.shape != self.dims:
            raise ValueError(f"data shape {data.shape} does not match dims {self.dims}")
        return type(self)(data, self.spacing, self.orientation)


@dataclass(frozen=True, eq=False)
class ScalarVolume(_GridVolume):
    """3D grid of finite intensities with spacing and orientation.

    Integer and float data keep their dtype; any other data becomes float64.
    """

    def _checked_data(self, data):
        data = np.ascontiguousarray(data, dtype=data.dtype if data.dtype.kind in "iuf" else np.float64)
        if data.dtype.kind == "f":  # integers are always finite
            flat = data.reshape(-1)
            for start in range(0, flat.size, _FINITE_BLOCK):
                if not np.isfinite(flat[start : start + _FINITE_BLOCK]).all():
                    raise ValueError("volume data contains non-finite values")
        return data


@dataclass(frozen=True, eq=False)
class LabelVolume(_GridVolume):
    """3D grid of uint8 tumor labels in {0, 1, 2, 3}."""

    def _checked_data(self, data):
        data = np.ascontiguousarray(data)
        if data.dtype == np.uint8 and data.max(initial=0) <= LABEL_ET:
            return data
        outside = ~np.isin(data, VALID_LABELS)
        if outside.any():
            raise ValueError(f"labels outside {{0,1,2,3}}: {np.unique(data[outside])[:8]}")
        return data.astype(np.uint8)


@dataclass(frozen=True, eq=False)
class RegionMask(_GridVolume):
    """3D grid of bools: one evaluation region's voxels."""

    def _checked_data(self, data):
        return np.ascontiguousarray(data, dtype=bool)


def extract_region(labels: np.ndarray, region: Region) -> np.ndarray:
    """Bool array, of the shape of ``labels``, of the labels in ``region``."""
    return np.isin(labels, region.labels)


def reconstruct_labels(et: np.ndarray, tc: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """Rebuild uint8 labels, of the masks' common shape, from per-region bool masks.

    Nesting is enforced first (ET within TC within WT) by intersection, so
    independently fused masks never produce an invalid labeling.
    """
    et, tc, wt = (np.asarray(mask, dtype=bool) for mask in (et, tc, wt))
    if not et.shape == tc.shape == wt.shape:
        raise ValueError(f"region masks disagree on shape: {et.shape}, {tc.shape}, {wt.shape}")
    out = np.zeros(wt.shape, dtype=np.uint8)
    out[wt] = LABEL_ED
    out[tc & wt] = LABEL_NCR
    out[et & tc & wt] = LABEL_ET
    return out
