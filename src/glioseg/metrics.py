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

Each directed distance comes from a feature transform of the other
mask's surface (scipy's exact EDT, nearest-voxel indices only), read at
the surface voxels alone; no dense distance map is built. The transform
covers the joint box of the two masks or, when the query surface's box is
under half of it, that box grown by the largest distance a first
transform of it finds (see ``_directed_p95``).
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
    size_a = int(a.data.sum())
    size_b = int(b.data.sum())
    if size_a == 0 and size_b == 0:
        return config.empty_empty_dice
    overlap = int((a.data & b.data).sum())
    return 2.0 * overlap / (size_a + size_b)


def surface_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a face neighbor outside (border is outside)."""
    eroded = ndimage.binary_erosion(mask, structure=_FACE_STRUCTURE, border_value=0)
    return mask & ~eroded


def _query_distances(from_surface, to_surface, spacing, box) -> np.ndarray:
    """Distance from each from-surface voxel in box to its nearest to_surface voxel in box."""
    nearest = ndimage.distance_transform_edt(
        ~to_surface[box], sampling=spacing, return_distances=False, return_indices=True
    )
    # found after the transform, so the query coordinates never coexist
    # with its temporaries
    at = np.nonzero(from_surface[box])
    # scipy's own distance formula, so the floats are bit-identical to its
    # dense map: the integer offset as float64 times the spacing, squared,
    # summed over axes 0, 1, 2 in that order, then sqrt
    squared = [
        np.square((nearest[axis][at] - at[axis]).astype(np.float64) * step)
        for axis, step in enumerate(spacing)
    ]
    return np.sqrt(squared[0] + squared[1] + squared[2])


def _directed_p95(from_surface: np.ndarray, to_surface: np.ndarray, spacing) -> float:
    """95th percentile of each from-surface voxel's distance to to_surface.

    When the queries' bounding box Q is under half the array and meets
    to_surface, a transform of Q alone gives distances whose maximum U
    bounds every true one; the nearest voxel t* of a query q then has
    |q_a - t*_a| * spacing_a <= U, so Q grown by ceil(U / spacing_a) on
    each axis holds it, and a second transform of that box is exact (ceil,
    not floor, so a quotient rounded just under an integer keeps that
    plane). Two transforms can only beat one over the array if vol(Q) is
    under half of it, since the grown box contains Q.
    """
    queries = label_box(from_surface)
    box = (slice(None),) * from_surface.ndim
    volume = int(np.prod([s.stop - s.start for s in queries]))
    if 2 * volume < from_surface.size and to_surface[queries].any():
        bound = _query_distances(from_surface, to_surface, spacing, queries).max()
        reach = np.ceil(bound / np.asarray(spacing)).astype(np.intp)
        box = tuple(slice(max(s.start - r, 0), s.stop + r) for s, r in zip(queries, reach))
    return float(np.percentile(_query_distances(from_surface, to_surface, spacing, box), 95.0))


def hd95(a: RegionMask, b: RegionMask, config: MetricConfig = MetricConfig()) -> float:
    """95th-percentile symmetric surface distance in millimeters.

    Distances use the masks' common grid spacing; empty-mask conventions
    come from config.

    Surfaces and the feature transforms (each read only at the other
    mask's surface voxels) cover only the box of a|b (volume.label_box),
    which is exact: every surface voxel lies in the box, and the voxels just
    outside it are background, as the erosion assumes. A direction transforms the
    box once, unless its queries' own box is under half of it and meets
    the other surface: then it transforms the queries' box, and that box
    grown by the largest distance found in it.
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
