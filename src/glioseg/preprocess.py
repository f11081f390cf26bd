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
modality is stored. Each does its arithmetic on the included values, in
two passes. The statistics pass gathers them once into a float64 1-D copy
and takes the mean, the std or the percentile window from it; that copy
and the grid-sized mask are freed before the output grid is made. The
output pass fills the grid one slab of first-axis rows at a time: it
gathers the slab's included values as float64, works on them in place and
assigns them, and excluded voxels keep the grid's fill value. Every output
voxel is a function of its own input value and the statistics, so the
slabs write what one whole-grid pass would. Only the gathered copies are
widened; the input keeps its stored dtype, and since they hold the same
numbers in the same order, an int16 volume and a float64 copy of it give
bit-identical results. Each formula lives in one value-level helper that
all three functions share. The input volume is never modified.
preprocess_volume logs one INFO line per call on the
``glioseg.preprocess`` logger: the included voxel count, the mean, the std
and the percentile window.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from glioseg.nifti import FLOAT32_MAX
from glioseg.volume import ScalarVolume, check_field_types

logger = logging.getLogger(__name__)

_SLAB_ROWS = 16  # first-axis rows per slab of the output pass


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


def _included_mask(data: np.ndarray, policy: NormalizationPolicy) -> np.ndarray:
    """The policy's included set over ``data``: a whole grid, or a slab of one."""
    if policy.include_background:
        return np.ones(data.shape, dtype=bool)
    return data != 0


def _included_values(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """A float64 copy of the included values, in C order."""
    return data[mask].astype(np.float64, copy=False)


def _statistics_values(volume: ScalarVolume, policy: NormalizationPolicy) -> np.ndarray:
    """The whole grid's included values, gathered once for the statistics.

    The grid-sized mask is freed on return. An empty included set raises
    ValueError.
    """
    values = _included_values(volume.data, _included_mask(volume.data, policy))
    if values.size == 0:
        raise ValueError("no voxels in the included set; volume is all background")
    return values


def _fill_slabs(volume: ScalarVolume, policy: NormalizationPolicy, out: np.ndarray, step) -> None:
    """Write ``step`` of the included values into ``out``, _SLAB_ROWS first-axis rows at a time.

    Each slab's included values are gathered as float64 in C order, passed
    to ``step``, which works on them in place, and assigned to ``out``,
    whose excluded voxels keep their fill value. A slab of first-axis rows
    is contiguous in a C-ordered input.
    """
    data = volume.data
    for start in range(0, data.shape[0], _SLAB_ROWS):
        rows = slice(start, start + _SLAB_ROWS)
        keep = _included_mask(data[rows], policy)
        values = _included_values(data[rows], keep)
        step(values)
        out[rows][keep] = values


def _zscore_values(
    values: np.ndarray, policy: NormalizationPolicy, stats: tuple[float, float] | None = None
) -> tuple[float, float]:
    """Z-score the included values in place and return the (mean, std) used.

    Without ``stats`` these are the values' own, checked against the policy;
    the output pass passes them back to z-score each slab's values the same way.
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
    stats = _zscore_values(_statistics_values(volume, policy), policy)
    out = np.zeros(volume.dims, dtype=np.float64)
    _fill_slabs(volume, policy, out, lambda values: _zscore_values(values, policy, stats))
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
    window = _percentile_window(_statistics_values(volume, policy), spec)
    out = np.full(volume.dims, spec.out_min, dtype=np.float64)
    _fill_slabs(volume, policy, out, lambda values: _rescale_values(values, window, spec))
    return volume.with_data(out)


def preprocess_volume(
    volume: ScalarVolume,
    policy: NormalizationPolicy = NormalizationPolicy(),
    spec: RescaleSpec = RescaleSpec(),
) -> ScalarVolume:
    """Full preprocessing for one modality: z-score, then percentile rescale.

    Both steps use the input's included set, so a voxel at exactly the
    mean (z-score 0) stays in the rescale window. The statistics pass
    gathers the included values once, z-scores them and takes the
    percentile window from them, which consumes them. The output is one
    float32 grid, allocated only after that gather is freed and filled
    slab by slab: each slab's values are gathered again and z-scored with
    the same mean and std, the same operations in the same order, then
    rescaled. The float32 assignment rounds as the writer's cast does, so
    the grid equals the float32 cast of the same arithmetic done in a
    float64 grid. Its Fortran order is the file's, which the writer streams
    without a copy.
    """
    values = _statistics_values(volume, policy)
    stats = _zscore_values(values, policy)
    window = _percentile_window(values, spec)
    logger.info(
        "normalization: %d included voxel(s), mean %.6g, std %.6g, z-score window P%g..P%g [%.6g, %.6g]",
        values.size, *stats, spec.lo_percentile, spec.hi_percentile, *window,
    )
    del values  # freed before the output grid is made

    def zscore_and_rescale(values: np.ndarray) -> None:
        _zscore_values(values, policy, stats)
        _rescale_values(values, window, spec)

    out = np.full(volume.dims, spec.out_min, dtype=np.float32, order="F")
    _fill_slabs(volume, policy, out, zscore_and_rescale)
    return volume.with_data(out)
