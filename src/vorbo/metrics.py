"""Distance metrics on the unit hypercube."""

from __future__ import annotations

import enum

import numpy as np


class Metric(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @property
    def p(self) -> float:
        """Minkowski exponent, usable directly with scipy spatial routines."""
        return {Metric.L1: 1.0, Metric.L2: 2.0, Metric.LINF: np.inf}[self]


def distance(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between points under `metric`, broadcasting over leading axes.

    `a` and `b` are arrays whose last axis is the coordinate axis; the result
    has the broadcast shape of the leading axes (a scalar for two points).
    """
    diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    if metric is Metric.L1:
        return diff.sum(axis=-1)
    if metric is Metric.L2:
        return np.sqrt((diff * diff).sum(axis=-1))
    return diff.max(axis=-1)

