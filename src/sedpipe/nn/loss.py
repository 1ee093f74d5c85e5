"""Masked binary cross-entropy for multi-label frame activity."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import SIGMOID_CLAMP


def bce_loss(pred, target, mask):
    """Mean binary cross-entropy over valid frame-class cells.

    ``pred`` holds probabilities in (0, 1) (the sigmoid head already clamps
    them to [1e-7, 1 - 1e-7]); ``target`` is binary with the same shape;
    ``mask`` flags valid frames (one bool per frame, broadcast over classes).
    Masked cells contribute exactly zero loss and zero gradient.

    The loss sums in float64; ``dpred`` comes in ``pred``'s dtype. Returns
    ``(loss, dpred)``.
    """
    dtype = np.asarray(pred).dtype
    p = np.clip(np.asarray(pred, dtype=np.float64), SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    y = np.asarray(target, dtype=np.float64)
    if p.shape != y.shape:
        raise ShapeError(f"pred shape {p.shape} != target shape {y.shape}")
    valid = np.broadcast_to(np.asarray(mask, dtype=np.float64)[..., None], p.shape)
    m = valid.sum()
    if m == 0:
        return 0.0, np.zeros_like(p, dtype=dtype)
    cell = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    loss = float((cell * valid).sum() / m)
    dpred = valid * (p - y) / (p * (1.0 - p)) / m
    return loss, dpred.astype(dtype, copy=False)
