"""Per-modality intensity preprocessing.

Two steps, applied per volume: z-score normalization (subtract mean,
divide by standard deviation) and percentile rescaling (stretch the
2nd..98th percentile range onto [0, 1], clamping the tails). Statistics
are computed over the included voxel set; by default exact-zero voxels
are excluded, since skull-stripped volumes are dominated by zero
background. Excluded voxels do not enter the statistics and are written
as 0 (z-score) or out_min (rescale) in the output.

zscore_normalize and rescale_percentiles each write one float64 output
grid; preprocess_volume writes one float32 grid, Fortran-ordered as a
modality is stored. Each does its arithmetic on the included values:
it gathers them into a float64 1-D copy, works on that copy in place and
scatters it into the output, whose excluded voxels already hold their
fill value. Only that copy is widened; the input keeps its stored dtype,
and since the copy holds the same numbers in the same order, an int16
volume and a float64 copy of it give bit-identical results. Each formula
lives in one value-level helper that all three functions share. The
input volume is never modified. preprocess_volume logs one INFO line per
call on the ``glioseg.preprocess`` logger: the included voxel count, the
mean, the std and the percentile window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from glioseg.nifti import FLOAT32_MAX
from glioseg.volume import ScalarVolume, check_field_types

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class NormalizationPolicy:
    """Controls which voxels enter intensity statistics."""

    include_background: bool = False
    epsilon: Annotated[float, "(0, inf)"] = 1e-8  # minimum admissible standard deviation

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class RescaleSpec:
    """Percentile window and output range for intensity stretching."""

    lo_percentile: float = 2.0
    hi_percentile: float = 98.0
    out_min: float = 0.0
    out_max: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.lo_percentile < self.hi_percentile <= 100.0:
            raise ValueError(
                f"need 0 <= lo < hi <= 100, got ({self.lo_percentile}, {self.hi_percentile})"
            )
        if not -np.inf < self.out_min < self.out_max < np.inf:
            raise ValueError(
                f"need finite out_min < out_max, got ({self.out_min}, {self.out_max})"
            )
        for name in ("out_min", "out_max"):
            value = getattr(self, name)
            if abs(value) > FLOAT32_MAX:  # preprocess_volume's grid and the file could not hold it
                raise ValueError(
                    f"rescale {name} {value:g} exceeds float32's range (+-{FLOAT32_MAX:g}), "
                    "which normalized modalities are written in"
                )


def _included_mask(volume: ScalarVolume, policy: NormalizationPolicy) -> np.ndarray:
    """The policy's included set; an empty one raises ValueError."""
    if policy.include_background:
        return np.ones(volume.dims, dtype=bool)
    mask = volume.data != 0
    if not mask.any():
        raise ValueError("no voxels in the included set; volume is all background")
    return mask


def _included_values(volume: ScalarVolume, mask: np.ndarray) -> np.ndarray:
    """A float64 copy of the included values, in C order."""
    return volume.data[mask].astype(np.float64, copy=False)


def _zscore_values(
    values: np.ndarray, policy: NormalizationPolicy, stats: tuple[float, float] | None = None
) -> tuple[float, float]:
    """Z-score the included values in place and return the (mean, std) used.

    Without ``stats`` these are the values' own, checked against the policy;
    preprocess_volume passes them back to z-score a second gather the same way.
    """
    if stats is None:
        if values.size < 2:
            raise ValueError(f"need at least 2 included voxels, got {values.size}")
        stats = float(values.mean()), float(values.std())
    mean, std = stats
    if std <= policy.epsilon:
        raise ValueError(f"intensity spread {std:.3g} is at or below epsilon {policy.epsilon:.3g}")
    values -= mean
    values /= std
    return stats


def _percentile_window(values: np.ndarray, spec: RescaleSpec) -> tuple[float, float]:
    """P_lo and P_hi of the included values; the partial sort reorders ``values``."""
    p_lo, p_hi = np.percentile(
        values, [spec.lo_percentile, spec.hi_percentile], overwrite_input=True
    )
    if not p_lo < p_hi:
        raise ValueError(
            f"degenerate percentile window: P{spec.lo_percentile:g} == P{spec.hi_percentile:g}"
            f" == {p_lo:.6g}"
        )
    return p_lo, p_hi


def _rescale_values(values: np.ndarray, window: tuple[float, float], spec: RescaleSpec) -> None:
    """Stretch the included values in place from the window onto [out_min, out_max]."""
    p_lo, p_hi = window
    values -= p_lo
    values /= p_hi - p_lo
    np.clip(values, 0.0, 1.0, out=values)
    values *= spec.out_max - spec.out_min
    values += spec.out_min


def zscore_normalize(
    volume: ScalarVolume,
    policy: NormalizationPolicy = NormalizationPolicy(),
) -> ScalarVolume:
    """Map included voxels to (x - mean) / std; excluded voxels become 0.

    Mean and standard deviation are the population form (divisor N) over
    the included set. Raises ValueError when the included set is smaller
    than two voxels or its spread is at or below policy.epsilon.
    """
    mask = _included_mask(volume, policy)
    values = _included_values(volume, mask)
    _zscore_values(values, policy)
    out = np.zeros(volume.dims, dtype=np.float64)
    out[mask] = values
    return volume.with_data(out)


def rescale_percentiles(
    volume: ScalarVolume,
    spec: RescaleSpec = RescaleSpec(),
    policy: NormalizationPolicy = NormalizationPolicy(),
) -> ScalarVolume:
    """Stretch the lo..hi percentile window onto [out_min, out_max].

    Percentiles use linear interpolation between closest ranks over the
    included set. Values outside the window clamp to the range ends;
    excluded voxels become out_min. Raises ValueError when the window is
    degenerate (P_lo == P_hi).
    """
    mask = _included_mask(volume, policy)
    window = _percentile_window(_included_values(volume, mask), spec)
    values = _included_values(volume, mask)
    _rescale_values(values, window, spec)
    out = np.full(volume.dims, spec.out_min, dtype=np.float64)
    out[mask] = values
    return volume.with_data(out)


def preprocess_volume(
    volume: ScalarVolume,
    policy: NormalizationPolicy = NormalizationPolicy(),
    spec: RescaleSpec = RescaleSpec(),
) -> ScalarVolume:
    """Full preprocessing for one modality: z-score, then percentile rescale.

    Both steps use the input's included set, built once, so a voxel at
    exactly the mean (z-score 0) stays in the rescale window. The output
    is one float32 grid. The percentile search consumes the z-scored
    values, so they are gathered and z-scored again with the same mean
    and std, the same operations in the same order, then rescaled and
    scattered. The float32 assignment rounds as the writer's cast does,
    so the grid equals the float32 cast of the same arithmetic done in a
    float64 grid. Its Fortran order is the file's, which the writer streams
    without a copy; the scatter visits voxels in C order all the same.
    """
    mask = _included_mask(volume, policy)
    values = _included_values(volume, mask)
    mean, std = _zscore_values(values, policy)
    window = _percentile_window(values, spec)
    logger.info(
        "normalization: %d included voxel(s), mean %.6g, std %.6g, z-score window P%g..P%g [%.6g, %.6g]",
        values.size, mean, std, spec.lo_percentile, spec.hi_percentile, *window,
    )
    del values  # the first gather is freed before the second is made
    values = _included_values(volume, mask)
    _zscore_values(values, policy, (mean, std))
    _rescale_values(values, window, spec)
    out = np.full(volume.dims, spec.out_min, dtype=np.float32, order="F")
    out[mask] = values
    return volume.with_data(out)
