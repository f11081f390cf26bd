"""Loss and learning-rate formulas used during model training.

Only the pieces that are verifiable as pure functions live here: the
soft Dice loss, its analytic gradient with respect to the predictions,
and the cosine-annealing schedule. The optimization loop itself is out
of scope for this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from glioseg.netkit.layers import require_tensor5
from glioseg.volume import check_field_types

DEFAULT_INITIAL_LR = 6e-5
DEFAULT_WEIGHT_DECAY = 1e-5
DEFAULT_EPOCHS = 40
DEFAULT_BATCH_SIZE = 4


@dataclass(frozen=True)
class TrainingSchedule:
    initial_lr: float = DEFAULT_INITIAL_LR
    weight_decay: Annotated[float, "[0, inf)"] = DEFAULT_WEIGHT_DECAY
    epochs: Annotated[int, "[1, inf)"] = DEFAULT_EPOCHS
    batch_size: Annotated[int, "[1, inf)"] = DEFAULT_BATCH_SIZE
    eta_min: Annotated[float, "[0, inf)"] = 0.0

    def __post_init__(self):
        check_field_types(self)
        if not self.eta_min < self.initial_lr < np.inf:
            raise ValueError(
                f"initial_lr must be finite and exceed eta_min, "
                f"got {self.initial_lr} with eta_min {self.eta_min}"
            )


def _check_loss_inputs(pred, target, eps):
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be non-negative and finite, got {eps}")
    pred = require_tensor5(pred, what="pred")
    target = require_tensor5(target, what="target")
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} does not match target shape {target.shape}")
    if not np.all((pred >= 0.0) & (pred <= 1.0)):  # False for NaN, too
        raise ValueError("pred values must lie in [0, 1]")
    if not np.all((target == 0.0) | (target == 1.0)):
        raise ValueError("target values must be exactly 0 or 1")
    return pred, target


def _dice_sums(pred, target, eps):
    """Per-(batch, class) overlap and mass sums over the voxel axes."""
    axes = (2, 3, 4)
    overlap = np.sum(pred * target, axis=axes)
    denom = np.sum(pred, axis=axes) + np.sum(target, axis=axes) + eps
    return overlap, denom


def soft_dice_loss(pred: np.ndarray, target: np.ndarray, eps: float = 1e-5) -> float:
    """1 minus the smoothed Dice ratio, averaged over batch and class.

    Per (batch, class) pair the ratio is (2*sum(p*g) + eps) / (sum(p) +
    sum(g) + eps). An all-zero pair with eps == 0 is treated as a
    perfect match (ratio 1), the eps -> 0 limit.
    """
    pred, target = _check_loss_inputs(pred, target, eps)
    overlap, denom = _dice_sums(pred, target, eps)
    ratio = np.ones_like(denom)
    np.divide(2.0 * overlap + eps, denom, out=ratio, where=denom > 0.0)
    return float(1.0 - np.mean(ratio))


def soft_dice_grad(pred: np.ndarray, target: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Analytic d(loss)/d(pred), same shape as pred.

    With S_pg = sum(p*g) and S = sum(p) + sum(g) + eps per (batch,
    class), the voxelwise derivative of the ratio is (2*g_i*S -
    (2*S_pg + eps)) / S^2; the loss negates it and averages over the
    batch*class pairs. Pairs with S == 0 contribute zero gradient.
    """
    pred, target = _check_loss_inputs(pred, target, eps)
    overlap, denom = _dice_sums(pred, target, eps)
    batch, channels = pred.shape[:2]
    safe = np.where(denom > 0.0, denom, 1.0)
    numer = 2.0 * target * denom[:, :, None, None, None] - (2.0 * overlap + eps)[
        :, :, None, None, None
    ]
    grad = -numer / (safe * safe)[:, :, None, None, None] / (batch * channels)
    return np.where(denom[:, :, None, None, None] > 0.0, grad, 0.0)


def cosine_lr(step: int, total_steps: int, schedule: TrainingSchedule) -> float:
    """Cosine-annealed rate: eta_min + (lr0 - eta_min)(1 + cos(pi t/T))/2.

    Both endpoints are returned exactly rather than through the cosine,
    so lr(0) == initial_lr and lr(T) == eta_min bit for bit.
    """
    if total_steps < 1:
        raise ValueError(f"total_steps must be at least 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step must lie in [0, {total_steps}], got {step}")
    if step == 0:
        return schedule.initial_lr
    if step == total_steps:
        return schedule.eta_min
    span = schedule.initial_lr - schedule.eta_min
    return float(schedule.eta_min + 0.5 * span * (1.0 + np.cos(np.pi * step / total_steps)))
