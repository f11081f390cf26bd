"""Label-map post-processing: small-component removal and hole repair.

Two rules, applied in order. First, every connected component of the
enhancing-tumor mask (label 3) whose volume is at or below a threshold
(default 50 voxels) is erased to background. Second, the tumor core
(labels 1 and 3) is checked for interior cavities the removal may have
opened: background voxels enclosed by the core, unreachable from the
volume boundary through non-core voxels, are relabeled (default to NCR).
Edema voxels inside such cavities are left alone, so voxels outside the
core other than true background are never rewritten.

Both rules run on one labeller, connected_components, applied to a plain
bool array cut to the label map's box (volume.label_box): the ET mask,
and the core's complement, where a cavity is a component that touches no
face of the box. Nothing outside the box is compared or counted; the one
grid-sized array is the output copy, made only when a voxel changes.
With fill_holes=False hole repair counts and logs the holes and returns
its input. Holes are 0 and the fill label 1 or 3, so the hole mask is
the repair's diff, repair_tc_holes(labels).data != labels.data.

Foreground components use 26-adjacency and cavities 6-adjacency by
default, the complementary pairing that keeps foreground/background
topology consistent. Any other adjacency or fill label is refused as
``<name> must be one of ..., got <value>`` (volume.check_value).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np
from scipy import ndimage

from glioseg.volume import (
    LABEL_BACKGROUND,
    LABEL_ET,
    LABEL_NCR,
    LabelVolume,
    Region,
    check_field_types,
    check_value,
    extract_region,
    label_box,
)

logger = logging.getLogger(__name__)

CONNECTIVITIES = (6, 18, 26)  # face, edge and corner adjacency
_STRUCTURES = {
    n: ndimage.generate_binary_structure(3, rank) for rank, n in enumerate(CONNECTIVITIES, 1)
}


@dataclass(frozen=True)
class PostprocessConfig:
    et_min_volume: Annotated[int, "[0, inf)"] = 50  # components of size <= this are removed
    foreground_connectivity: Literal[CONNECTIVITIES] = 26
    hole_connectivity: Literal[CONNECTIVITIES] = 6
    hole_fill_label: Literal[LABEL_NCR, LABEL_ET] = LABEL_NCR  # a tumor-core label
    fill_holes: bool = True  # False: count and log only

    def __post_init__(self):
        check_field_types(self)


def connected_components(
    mask: np.ndarray, connectivity: int = 26
) -> tuple[np.ndarray, np.ndarray]:
    """Component ids of a bool mask and their sizes, the module's one labeller.

    ids are int32 and C-ordered whatever the mask's layout, 0 for background
    and from 1 in raster order of each component's first voxel; sizes[i]
    counts id i, sizes[0] the background.
    """
    connectivity = check_value("connectivity", connectivity, Literal[CONNECTIVITIES])
    ids, count = ndimage.label(
        np.ascontiguousarray(mask), structure=_STRUCTURES[connectivity], output=np.int32
    )
    return ids, np.bincount(ids.ravel(), minlength=count + 1)


def filter_small_et(labels: LabelVolume, config: PostprocessConfig = PostprocessConfig()) -> LabelVolume:
    """Erase enhancing-tumor components of size <= et_min_volume to background.

    Components are labelled on the label map's box (volume.label_box)
    only, which is exact: no component has a voxel outside the box. Logs
    the components and voxels removed at INFO on glioseg.postprocess.
    """
    box = label_box(labels.data)
    ids, sizes = connected_components(labels.data[box] == LABEL_ET, config.foreground_connectivity)
    small = sizes <= config.et_min_volume
    small[0] = False
    removed = int(np.count_nonzero(small))
    voxels = 0
    out = labels
    if removed:
        erase = small[ids]
        voxels = int(np.count_nonzero(erase))
        data = labels.data.copy(order="K")  # the layout it is given
        data[box][erase] = LABEL_BACKGROUND
        out = labels.with_data(data)
    logger.info(
        "small-ET filter removed %d of %d ET component(s), %d voxel(s)",
        removed, len(sizes) - 1, voxels,
    )
    return out


def repair_tc_holes(
    labels: LabelVolume, config: PostprocessConfig = PostprocessConfig()
) -> LabelVolume:
    """Relabel the background voxels enclosed by the tumor core to hole_fill_label.

    A cavity is a connected component of the core's complement (under
    hole_connectivity) that touches no face of the volume; its label-0
    voxels are the holes, and enclosed edema stays edema. The complement
    is labelled, and the holes counted and filled, on the label map's box
    (volume.label_box), where a cavity touches no box face. That is exact
    for any box holding every core voxel: each voxel outside it reaches a
    volume face along a straight line of non-core voxels, a non-core voxel
    on its border has a face neighbor outside it or lies on a volume face,
    and a component touching no box face has no neighbor outside the box.

    With fill_holes=False the holes are counted and logged, and the input
    itself is returned. Logs the hole voxels found and filled at INFO on
    glioseg.postprocess.
    """
    box = label_box(labels.data)
    inside = labels.data[box]
    ids, sizes = connected_components(~extract_region(inside, Region.TC), config.hole_connectivity)
    enclosed = np.ones(len(sizes), dtype=bool)
    enclosed[0] = False  # the core itself
    for axis in range(3):
        enclosed[np.take(ids, [0, -1], axis=axis)] = False
    # the complement holds labels 0 and 2, so this keeps only background cavities
    holes = enclosed[ids] & (inside == LABEL_BACKGROUND)
    found = int(np.count_nonzero(holes))
    out = labels
    if found and config.fill_holes:
        data = labels.data.copy(order="K")  # the layout it is given
        data[box][holes] = config.hole_fill_label
        out = labels.with_data(data)
    filled = found if config.fill_holes else 0
    logger.info("core hole repair found %d hole voxel(s), filled %d", found, filled)
    return out


def postprocess_case(
    labels: LabelVolume, config: PostprocessConfig = PostprocessConfig()
) -> LabelVolume:
    """Full post-processing: small-ET removal, then core hole repair."""
    return repair_tc_holes(filter_small_et(labels, config), config)
