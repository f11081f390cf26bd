"""Binary STAPLE fusion of multiple segmentation masks.

Each model's binary mask is treated as one rater. The EM algorithm
alternates between estimating the per-voxel foreground posterior W_i
from the current rater sensitivities p_j and specificities q_j (E-step)
and re-estimating p_j, q_j from the weighted votes (M-step), starting
from a high-confidence (0.99999) performance guess:

    a_i = f * prod_j p_j^D_ij (1-p_j)^(1-D_ij)
    b_i = (1-f) * prod_j (1-q_j)^D_ij q_j^(1-D_ij)
    W_i = a_i / (a_i + b_i)

    p_j = sum_i W_i D_ij / sum_i W_i
    q_j = sum_i (1-W_i)(1-D_ij) / sum_i (1-W_i)

W_i depends on voxel i only through its vote column D_:i, so EM runs on
the K <= min(2^J, N) distinct columns (vote patterns) and their voxel
counts: every sum over voxels above is a count-weighted sum over patterns,
an iteration costs O(J*K), and the K weights are scattered back once at
the end. The votes themselves may arrive as columns that each stand for
a count of voxels (RaterDecisions.counts, one voxel per column by
default); the pattern counts then sum those counts.

The scalar prior f defaults to the mean rater foreground fraction. When
that fraction is exactly 0 or 1, every voxel has the one all-empty or
all-full vote pattern, whose weight is f itself: EM is skipped, and the
result reports 0 iterations, converged, the initial performance and the
degenerate flag.
Products run in log space with a per-pattern max subtraction so dozens of
raters cannot underflow; p and q are clamped to [1e-6, 1-1e-6] after
every M-step. Iteration stops when the mean absolute change in W over the
voxels falls to the tolerance or at max_iterations. The fused mask is
W >= threshold (ties to foreground).

Label maps are fused per region: ET, TC, and WT are each fused as an
independent binary problem and the results recombined with nesting
repair, so the output always satisfies ET within TC within WT. A voxel's
fused label depends only on the tuple of member labels there, so
fuse_labels folds the members once into their T distinct label tuples,
fuses each region on those T columns weighted by their voxel counts, and
writes the output as one gather of the T fused labels. Majority vote
takes the same path. staple_binary and majority_vote work on plain vote
columns and return one value per column, and extract_region and
reconstruct_labels work on the J x T table and the T fused columns as
they are.
Each region's EM outcome is logged on the glioseg.staple logger, at INFO
when it converged and at WARNING when it stopped at max_iterations, with
the iterations, the tolerance and each member's estimated sensitivity
and specificity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from glioseg.volume import (
    LabelVolume,
    Region,
    check_field_types,
    extract_region,
    reconstruct_labels,
    require_same_grid,
)

logger = logging.getLogger(__name__)

PERFORMANCE_CLAMP = 1e-6  # p, q kept inside [clamp, 1 - clamp]

FUSION_METHODS = ("staple", "majority")


@dataclass(frozen=True)
class StapleConfig:
    prior: float | str = "auto"  # scalar foreground prior, or "auto"
    tolerance: float = 1e-7  # on mean |change in W| between iterations
    max_iterations: int = 100
    decision_threshold: float = 0.5
    initial_sensitivity: float = 0.99999
    initial_specificity: float = 0.99999

    def __post_init__(self):
        check_field_types(self)
        if isinstance(self.prior, str):
            if self.prior != "auto":
                raise ValueError(f"prior must be 'auto' or a real in (0,1), got {self.prior!r}")
        elif not 0.0 < self.prior < 1.0:
            raise ValueError(f"prior must lie in (0,1), got {self.prior}")
        if not 0.0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError(
                f"decision_threshold must lie in (0,1), got {self.decision_threshold}"
            )
        for name in ("initial_sensitivity", "initial_specificity"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0,1), got {value}")


@dataclass(frozen=True)
class RaterDecisions:
    """Complete binary votes of J raters over C columns.

    Column c stands for counts[c] voxels that share its votes; by default
    every column is one voxel. fuse_labels passes one column per distinct
    member label tuple with its voxel count, which is all EM needs.
    """

    decisions: np.ndarray  # bool [J, C], one row per rater
    counts: np.ndarray | None = None  # integer [C] >= 1, voxels per column

    def __post_init__(self):
        decisions = np.ascontiguousarray(self.decisions, dtype=bool)
        if decisions.ndim != 2:
            raise ValueError(f"decisions must be 2-D (raters, columns), got {decisions.shape}")
        if decisions.shape[0] < 1:
            raise ValueError("need at least one rater")
        if decisions.shape[1] < 1:
            raise ValueError("need at least one column")
        if self.counts is None:
            counts = np.broadcast_to(np.int64(1), decisions.shape[1:])
        else:
            counts = np.asarray(self.counts)
            if counts.shape != decisions.shape[1:]:
                raise ValueError(
                    f"counts shape {counts.shape} does not match "
                    f"{decisions.shape[1]} decision columns"
                )
            if counts.dtype.kind not in "iu" or not np.all(counts >= 1):
                raise ValueError("counts must be positive integers")
        object.__setattr__(self, "decisions", decisions)
        object.__setattr__(self, "counts", counts)

    @property
    def num_raters(self) -> int:
        return self.decisions.shape[0]

    @property
    def num_voxels(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class StapleResult:
    foreground: np.ndarray  # bool [C], W >= decision_threshold
    weights: np.ndarray  # float64 [C], foreground posterior W per column
    sensitivity: np.ndarray  # float64 [J], strictly inside (0,1)
    specificity: np.ndarray  # float64 [J]
    iterations: int
    converged: bool
    degenerate: bool  # auto prior hit 0 or 1, EM skipped


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.clip(values, PERFORMANCE_CLAMP, 1.0 - PERFORMANCE_CLAMP)


def _distinct_columns(rows, base: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct columns of J equal-length rows of digits in [0, base).

    Returns (columns uint8 [J, K], counts [K], ids intp [N]): input column i
    is columns[:, ids[i]], and the columns are in lexicographic order.
    Folds in one row at a time (id = base * id + digit). After the last row,
    and whenever the next fold could take the ids past N, the ids that occur
    are renumbered to 0..K-1 in place, so they stay below max(N, base) for
    any J, and no sort and no second id array over N is needed.
    """
    num_rows, num_columns = len(rows), len(rows[0])
    ids = np.zeros(num_columns, dtype=np.intp)
    columns = np.zeros((0, 1), dtype=np.uint8)  # column of each renumbered id
    fresh = 0  # rows folded in since the last renumbering
    for j, row in enumerate(rows):
        ids *= base
        ids += row
        fresh += 1
        if j + 1 < num_rows and columns.shape[1] * base ** (fresh + 1) <= num_columns:
            continue
        hits = np.bincount(ids)
        present = np.flatnonzero(hits)
        np.take(np.cumsum(hits > 0) - 1, ids, out=ids, mode="clip")
        digits = present // base ** np.arange(fresh - 1, -1, -1)[:, None] % base
        columns = np.vstack([columns[:, present // base**fresh], digits.astype(np.uint8)])
        fresh = 0
    # C order, so EM's sums do not depend on when the fold renumbered
    return np.ascontiguousarray(columns), hits[present], ids


def staple_binary(decisions: RaterDecisions, config: StapleConfig = StapleConfig()) -> StapleResult:
    """Run the EM fusion on one binary problem.

    An auto prior of exactly 0 (all raters empty) or 1 (all raters full)
    gives the unanimous answer after 0 iterations, converged, with the
    initial performance and the degenerate flag set.
    """
    patterns, _, ids = _distinct_columns(decisions.decisions, 2)
    d = patterns.astype(np.float64)  # [J, K]
    n = np.bincount(ids, weights=decisions.counts)  # voxels per pattern
    num_raters, num_voxels = decisions.num_raters, decisions.num_voxels
    votes_per_rater = d @ n  # reused by every M-step
    if isinstance(config.prior, str):
        prior = float(votes_per_rater.sum()) / (num_raters * num_voxels)
    else:
        prior = float(config.prior)
    degenerate = prior in (0.0, 1.0)
    w = np.full(len(n), prior)  # when degenerate, the one pattern and its weight
    p = _clamp(np.full(num_raters, config.initial_sensitivity))
    q = _clamp(np.full(num_raters, config.initial_specificity))
    w_prev = None
    converged = degenerate
    iterations = 0
    for iterations in range(1, 0 if degenerate else config.max_iterations + 1):
        # E-step, log space: log a_k and log b_k share the structure
        # const + D^T (on - off), so one matvec each.
        log_p, log_1p = np.log(p), np.log1p(-p)
        log_q, log_1q = np.log(q), np.log1p(-q)
        log_a = np.log(prior) + log_1p.sum() + d.T @ (log_p - log_1p)
        log_b = np.log1p(-prior) + log_q.sum() + d.T @ (log_1q - log_q)
        peak = np.maximum(log_a, log_b)
        a = np.exp(log_a - peak)
        b = np.exp(log_b - peak)
        w = a / (a + b)

        # mean |change in W| over voxels
        if w_prev is not None and n @ np.abs(w - w_prev) / num_voxels <= config.tolerance:
            converged = True
            break
        w_prev = w

        # M-step
        w_total = n @ w
        complement_total = num_voxels - w_total
        weighted_votes = d @ (n * w)
        if w_total > 0.0:
            p = _clamp(weighted_votes / w_total)
        if complement_total > 0.0:
            q = _clamp(
                (complement_total - (votes_per_rater - weighted_votes)) / complement_total
            )

    return StapleResult(
        foreground=(w >= config.decision_threshold)[ids],
        weights=w[ids],
        sensitivity=p,
        specificity=q,
        iterations=iterations,
        converged=converged,
        degenerate=degenerate,
    )


def majority_vote(decisions: RaterDecisions) -> np.ndarray:
    """Bool [C]: foreground where strictly more than half the raters vote; ties lose."""
    return 2 * decisions.decisions.sum(axis=0) > decisions.num_raters


def _staple_foreground(
    decisions: RaterDecisions, region: Region, config: StapleConfig
) -> np.ndarray:
    """staple_binary's foreground, with the region's EM outcome logged (INFO,
    or WARNING if EM stopped before converging)."""
    result = staple_binary(decisions, config)
    logger.log(
        logging.INFO if result.converged else logging.WARNING,
        "STAPLE %s %s after %d iteration(s) (tolerance %g); sensitivity [%s], specificity [%s]",
        region.name,
        "converged" if result.converged else "stopped without converging",
        result.iterations,
        config.tolerance,
        ", ".join(f"{v:.4f}" for v in result.sensitivity),
        ", ".join(f"{v:.4f}" for v in result.specificity),
    )
    return result.foreground


def fuse_labels(
    predictions: list[LabelVolume],
    config: StapleConfig = StapleConfig(),
    method: str = "staple",
) -> LabelVolume:
    """Fuse label maps region by region into one consensus label map.

    The members are folded once into their T distinct label tuples, a
    J x T table. Each region's votes are one extraction from that table,
    fused on the T columns weighted by the tuples' voxel counts, and the
    output is one gather of the fused labels of the T tuples, on the grid
    and orientation of the first member.
    """
    if not predictions:
        raise ValueError("need at least one prediction to fuse")
    if method not in FUSION_METHODS:
        raise ValueError(f"method must be one of {FUSION_METHODS}, got {method!r}")
    first = predictions[0]
    for other in predictions[1:]:
        require_same_grid(first, other, "predictions")
    tuples, counts, ids = _distinct_columns([p.data.ravel() for p in predictions], 4)
    fused = {}
    for region in Region:
        decisions = RaterDecisions(extract_region(tuples, region), counts)
        if method == "majority":
            fused[region] = majority_vote(decisions)
        else:
            fused[region] = _staple_foreground(decisions, region, config)
    lut = reconstruct_labels(fused[Region.ET], fused[Region.TC], fused[Region.WT])
    return first.with_data(lut[ids].reshape(first.dims))
