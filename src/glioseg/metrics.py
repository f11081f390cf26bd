"""Segmentation evaluation: Dice overlap and 95th-percentile Hausdorff.

Scores are computed per region (ET, TC, WT) between a predicted and a
reference label map, then aggregated over a cohort. Empty-mask cases
follow the conventions of the online evaluation platforms this kind of
work is scored on: both masks empty scores a perfect dice of 1.0 and an
hd95 of 0.0, while exactly one empty mask scores dice 0.0 and a fixed
distance penalty (373.13 mm by default). Both are configurable.

``evaluate_case`` scores the regions on the two label maps' joint box
of labelled voxels, not the grid: outside it both maps are background,
so no mask voxel, Dice count or surface voxel lies there, and the result
is that of the whole grid.

Both steps return the JSON report's own mappings, regions in ``Region``
order and values plain floats: ``evaluate_case`` gives ``{region:
{"dice", "hd95_mm"}}`` and ``aggregate`` gives ``{region: {metric:
{"mean", "std", "median"}}}``.

hd95 details, since published implementations disagree: the surface of a
mask is the set of foreground voxels with at least one face neighbor
(6-adjacency) outside the mask, the volume border counting as outside.
Directed distances are Euclidean in millimeters under the grid spacing,
each surface voxel of one mask to the nearest surface voxel of the
other. hd95 is the maximum of the two directed 95th percentiles (linear
interpolation), not the percentile of the pooled distances.

Each directed distance is exact and comes from scipy's EDT, split over
the first axis (Saito & Toriwaki 1994; Meijster et al. 2000): one 2-D
feature transform (nearest-voxel indices only) per plane of the joint box
that holds a surface voxel of the other mask, read at the query voxels
alone, with each query keeping its least distance over the planes. No
dense distance map and no index array of the box is built (see
``_directed_p95``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np
from scipy import ndimage

from glioseg.volume import (
    LabelVolume,
    Region,
    RegionMask,
    check_field_types,
    extract_region,
    label_box,
    require_same_grid,
)

_FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


@dataclass(frozen=True)
class MetricConfig:
    empty_pred_penalty_mm: Annotated[float, "(0, inf)"] = 373.13  # one mask empty, the other not
    empty_empty_dice: Annotated[float, "[0, 1]"] = 1.0
    empty_empty_hd95: Annotated[float, "[0, inf)"] = 0.0

    def __post_init__(self):
        check_field_types(self)


def dice(a: RegionMask, b: RegionMask, config: MetricConfig = MetricConfig()) -> float:
    """2|A∩B| / (|A|+|B|); both-empty returns config.empty_empty_dice."""
    require_same_grid(a, b, "masks")
    size_a = int(np.count_nonzero(a.data))
    size_b = int(np.count_nonzero(b.data))
    if size_a == 0 and size_b == 0:
        return config.empty_empty_dice
    overlap = int(np.count_nonzero(a.data & b.data))
    return 2.0 * overlap / (size_a + size_b)


def surface_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a face neighbor outside (border is outside)."""
    eroded = ndimage.binary_erosion(mask, structure=_FACE_STRUCTURE, border_value=0)
    return mask & ~eroded


def _directed_p95(from_surface: np.ndarray, to_surface: np.ndarray, spacing) -> float:
    """95th percentile of each from-surface voxel's distance to to_surface.

    The squared distance separates over the first axis: within plane i, a
    query q's nearest target is the plane's in-plane nearest one, and its
    squared distance is ((i - q_0) * spacing_0)^2 plus the in-plane one. So
    each plane that holds a target gets one 2-D feature transform, each
    query keeps its least squared distance over those planes, and memory is
    the queries plus one plane instead of a (3, box) index array.
    """
    at = np.nonzero(from_surface)
    best = np.full(at[0].size, np.inf)
    for plane in np.flatnonzero(to_surface.any(axis=(1, 2))):
        nearest = ndimage.distance_transform_edt(
            ~to_surface[plane], sampling=spacing[1:], return_distances=False, return_indices=True
        )
        # scipy's own distance formula, so the floats are bit-identical to its
        # dense map: the integer offset as float64 times the spacing, squared,
        # summed over axes 0, 1, 2 in that order
        squared = np.square((plane - at[0]).astype(np.float64) * spacing[0])
        for axis in (1, 2):
            offset = nearest[axis - 1][at[1], at[2]] - at[axis]
            squared += np.square(offset.astype(np.float64) * spacing[axis])
        np.minimum(best, squared, out=best)
    return float(np.percentile(np.sqrt(best, out=best), 95.0, overwrite_input=True))


def hd95(a: RegionMask, b: RegionMask, config: MetricConfig = MetricConfig()) -> float:
    """95th-percentile symmetric surface distance in millimeters.

    Distances use the masks' common grid spacing; empty-mask conventions
    come from config.

    Surfaces and the per-plane feature transforms (each read only at the
    other mask's surface voxels) cover only the box of a|b
    (volume.label_box), which is exact: every surface voxel lies in the
    box, and the voxels just outside it are background, as the erosion
    assumes.
    """
    require_same_grid(a, b, "masks")
    a_empty = not a.data.any()
    b_empty = not b.data.any()
    if a_empty and b_empty:
        return config.empty_empty_hd95
    if a_empty or b_empty:
        return config.empty_pred_penalty_mm
    box = label_box(a.data, b.data)
    surf_a = surface_mask(a.data[box])
    surf_b = surface_mask(b.data[box])
    return max(_directed_p95(surf_a, surf_b, a.spacing), _directed_p95(surf_b, surf_a, a.spacing))


def evaluate_case(
    pred: LabelVolume, truth: LabelVolume, config: MetricConfig = MetricConfig()
) -> dict[str, dict[str, float]]:
    """Score one prediction against its reference, all three regions.

    The region masks cover the two maps' joint label box
    (volume.label_box), on the box's own grid: the prediction's spacing,
    with the origin at the box's first voxel. Every region voxel of either
    map lies inside it, so the Dice counts are those of the whole grid,
    and hd95's own a|b box lies inside it too, its border rule unchanged.
    """
    require_same_grid(pred, truth, "label maps")
    box = label_box(pred.data, truth.data)
    spacing, orientation = pred.spacing, pred.box_orientation(box)
    report = {}
    for region in Region:
        mask_p = RegionMask(extract_region(pred.data[box], region), spacing, orientation)
        mask_t = RegionMask(extract_region(truth.data[box], region), spacing, orientation)
        report[region.name] = {
            "dice": dice(mask_p, mask_t, config),
            "hd95_mm": hd95(mask_p, mask_t, config=config),
        }
    return report


def _stats(values) -> dict[str, float]:
    arr = np.asarray(values, dtype=np.float64)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0  # sample std, 0 for one case
    return {"mean": float(arr.mean()), "std": std, "median": float(np.median(arr))}


def aggregate(reports: list[dict]) -> dict[str, dict[str, dict[str, float]]]:
    """Cohort mean / sample std / median per region and metric."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    return {
        region.name: {
            metric: _stats([report[region.name][metric] for report in reports])
            for metric in ("dice", "hd95_mm")
        }
        for region in Region
    }
