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
bool array cut to a bounding box: the ET components of the ET box, and
the components of the core's complement within the core box, where a
cavity is a component that touches no face of the box.

Foreground components use 26-adjacency and cavities 6-adjacency by
default, the complementary pairing that keeps foreground/background
topology consistent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from glioseg.volume import (
    LABEL_BACKGROUND,
    LABEL_ET,
    LABEL_NCR,
    LabelVolume,
    Region,
    check_field_types,
    extract_region,
)

logger = logging.getLogger(__name__)

CONNECTIVITIES = (6, 18, 26)  # face, edge and corner adjacency
_STRUCTURES = {
    n: ndimage.generate_binary_structure(3, rank) for rank, n in enumerate(CONNECTIVITIES, 1)
}
_CONNECTIVITY_TEXT = ", ".join(map(str, CONNECTIVITIES))


@dataclass(frozen=True)
class PostprocessConfig:
    et_min_volume: int = 50  # components of size <= this are removed
    foreground_connectivity: int = 26
    hole_connectivity: int = 6
    hole_fill_label: int = LABEL_NCR
    fill_holes: bool = True  # False: detect only, leave labels untouched

    def __post_init__(self):
        check_field_types(self)
        if self.et_min_volume < 0:
            raise ValueError(f"et_min_volume must be >= 0, got {self.et_min_volume}")
        for name in ("foreground_connectivity", "hole_connectivity"):
            value = getattr(self, name)
            if value not in CONNECTIVITIES:
                raise ValueError(f"{name} must be one of {_CONNECTIVITY_TEXT}, got {value}")
        if self.hole_fill_label not in (LABEL_NCR, LABEL_ET):
            raise ValueError(
                f"hole_fill_label must be a tumor-core label (1 or 3), got {self.hole_fill_label}"
            )


def connected_components(
    mask: np.ndarray, connectivity: int = 26
) -> tuple[np.ndarray, np.ndarray]:
    """Component ids of a bool mask and their sizes, the module's one labeller.

    ids are int32, 0 for background and from 1 in raster order of each
    component's first voxel; sizes[i] counts id i, sizes[0] the background.
    """
    if connectivity not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be one of {_CONNECTIVITY_TEXT}, got {connectivity}")
    ids, count = ndimage.label(mask, structure=_STRUCTURES[connectivity], output=np.int32)
    return ids, np.bincount(ids.ravel(), minlength=count + 1)


def filter_small_et(labels: LabelVolume, config: PostprocessConfig = PostprocessConfig()) -> LabelVolume:
    """Erase enhancing-tumor components of size <= et_min_volume to background.

    Components are labelled on the ET mask's bounding box only, which is
    exact: no component has a voxel outside the box. Logs the components
    and voxels removed at INFO on glioseg.postprocess.
    """
    et = labels.data == LABEL_ET
    components = removed = voxels = 0
    out = labels
    for box in ndimage.find_objects(et.view(np.uint8)):  # one box, none if et is empty
        ids, sizes = connected_components(et[box], config.foreground_connectivity)
        components = len(sizes) - 1
        small = sizes <= config.et_min_volume
        small[0] = False
        removed = int(np.count_nonzero(small))
        if removed:
            erase = small[ids]
            voxels = int(np.count_nonzero(erase))
            data = labels.data.copy()
            data[box][erase] = LABEL_BACKGROUND
            out = labels.with_data(data)
    logger.info(
        "small-ET filter removed %d of %d ET component(s), %d voxel(s)",
        removed, components, voxels,
    )
    return out


def find_tc_hole_voxels(
    labels: LabelVolume, config: PostprocessConfig = PostprocessConfig()
) -> np.ndarray:
    """Bool mask of background voxels enclosed by the tumor core.

    A cavity is a connected component of the core's complement (under
    hole_connectivity) that touches no face of the volume. Only label-0
    voxels inside cavities are reported; enclosed edema stays edema.

    The complement is labelled on the core's bounding box only, and a
    component is a cavity iff it touches no face of the box. This is
    exact: every voxel outside the box reaches a volume face in a
    straight line of non-core voxels, every voxel on the box's border
    has a face neighbor outside it or lies on a volume face, and a
    component that touches no box face has no neighbor outside the box.
    """
    tc = extract_region(labels.data, Region.TC)
    holes = np.zeros(labels.dims, dtype=bool)
    for box in ndimage.find_objects(tc.view(np.uint8)):  # one box, none if tc is empty
        ids, sizes = connected_components(~tc[box], config.hole_connectivity)
        enclosed = np.ones(len(sizes), dtype=bool)
        enclosed[0] = False  # the core itself
        for axis in range(3):
            enclosed[np.take(ids, [0, -1], axis=axis)] = False
        # the complement holds labels 0 and 2, so this keeps only background cavities
        holes[box] = enclosed[ids] & (labels.data[box] == LABEL_BACKGROUND)
    return holes


def repair_tc_holes(
    labels: LabelVolume, config: PostprocessConfig = PostprocessConfig()
) -> LabelVolume:
    """Relabel enclosed background cavities in the tumor core.

    With fill_holes=False the input is returned unchanged; callers can
    still inspect find_tc_hole_voxels for reporting. Logs the hole voxels
    found and filled at INFO on glioseg.postprocess.
    """
    holes = find_tc_hole_voxels(labels, config)
    found = int(np.count_nonzero(holes))
    filled = found if config.fill_holes else 0
    logger.info("core hole repair found %d hole voxel(s), filled %d", found, filled)
    if not filled:
        return labels
    out = labels.data.copy()
    out[holes] = config.hole_fill_label
    return labels.with_data(out)


def postprocess_case(
    labels: LabelVolume, config: PostprocessConfig = PostprocessConfig()
) -> LabelVolume:
    """Full post-processing: small-ET removal, then core hole repair."""
    return repair_tc_holes(filter_small_et(labels, config), config)
