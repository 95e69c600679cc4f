"""Normal-cloud arithmetic for trust concepts.

A qualitative trust concept is represented by three numbers: the expectation
``ex`` of its drops, the entropy ``en`` measuring how fuzzy the concept is,
and the hyper-entropy ``he`` measuring how uncertain that fuzziness itself is.
This module provides the backward estimator (drops -> cloud), one window at
a time or over the columns of a block.  The forward generator and the
drop-sampled similarities live in the classifier, ``runtime.similarities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class TrustCloud:
    """Numerical characteristics (ex, en, he) of a trust concept."""

    ex: float
    en: float
    he: float

    def __post_init__(self):
        if not 0.0 <= self.ex <= 1.0:
            raise DomainError(f"expectation must be in [0, 1], got {self.ex}")
        if self.en < 0.0:
            raise DomainError(f"entropy must be non-negative, got {self.en}")
        if self.he < 0.0:
            raise DomainError(f"hyper-entropy must be non-negative, got {self.he}")


def backward_cloud(drops: Sequence[float]) -> TrustCloud:
    """Estimate (ex, en, he) from observed drops.

    ex is the sample mean, en is sqrt(pi/2) times the mean absolute
    deviation, and he comes from the n-1 sample variance minus en^2 with a
    negative radicand clamped to zero (he is an uncertainty magnitude).
    """
    n = len(drops)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 drops, got {n}")
    total = 0.0
    for d in drops:
        if not 0.0 <= d <= 1.0:
            raise DomainError(f"drop must be in [0, 1], got {d}")
        total += d
    ex = total / n
    abs_dev = 0.0
    sq_dev = 0.0
    for d in drops:
        dev = d - ex
        abs_dev += dev if dev >= 0.0 else -dev
        sq_dev += dev * dev
    en = SQRT_HALF_PI * (abs_dev / n)
    var = sq_dev / (n - 1)
    he = math.sqrt(max(var - en * en, 0.0))
    return TrustCloud(ex, en, he)


def backward_clouds(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """backward_cloud over the columns of a (n, k) array of oldest-first drops.

    Returns the (ex, en, he) arrays of the k windows, equal bit for bit to
    backward_cloud of each column: every sum adds the rows in window order,
    as the scalar loop does.  On a C-ordered block of two or more columns,
    ``np.add.reduce(axis=0)`` adds whole rows in that order; on a single
    column, or on another layout, it sums pairwise, which rounds
    differently, so those take a sequential accumulate.  The drops are not
    range-checked.
    """
    windows = np.asarray(windows, dtype=float)
    n = len(windows)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 drops, got {n}")

    def sequential_sum(rows: np.ndarray) -> np.ndarray:
        if rows.ndim == 2 and rows.shape[1] > 1 and rows.flags.c_contiguous:
            return np.add.reduce(rows, axis=0)
        return np.cumsum(rows, axis=0)[-1]

    ex = sequential_sum(windows) / n
    dev = windows - ex
    en = SQRT_HALF_PI * (sequential_sum(np.abs(dev)) / n)
    var = sequential_sum(dev * dev) / (n - 1)
    he = np.sqrt(np.maximum(var - en * en, 0.0))
    return ex, en, he
