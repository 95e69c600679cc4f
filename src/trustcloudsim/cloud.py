"""Normal-cloud arithmetic for trust concepts.

A qualitative trust concept is represented by three numbers: the expectation
``ex`` of its drops, the entropy ``en`` measuring how fuzzy the concept is,
and the hyper-entropy ``he`` measuring how uncertain that fuzziness itself is.
This module provides the backward estimator (drops -> cloud), the forward
generator (cloud -> drops), the membership degree of a drop in a standard
cloud, and the drop-sampled similarity between two clouds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, InsufficientDataError, ZeroEntropyError

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


class DropSet:
    """Sliding window of trust values with a fixed capacity.

    Adding a value beyond capacity evicts the oldest one.
    """

    __slots__ = ("capacity", "_drops")

    def __init__(self, capacity: int, values: Iterable[float] = ()):
        if capacity < 1:
            raise DomainError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._drops = deque(values, maxlen=capacity)

    def add(self, value: float) -> float | None:
        """Append a drop, returning the evicted oldest drop if any."""
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"drop must be in [0, 1], got {value}")
        evicted = None
        if len(self._drops) == self.capacity:
            evicted = self._drops[0]
        self._drops.append(value)
        return evicted

    def clear(self) -> None:
        self._drops.clear()

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._drops)

    @property
    def full(self) -> bool:
        return len(self._drops) >= self.capacity

    def __len__(self) -> int:
        return len(self._drops)

    def __iter__(self):
        return iter(self._drops)

    def __repr__(self):
        return f"DropSet(capacity={self.capacity}, n={len(self._drops)})"


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


def generate_drop(cloud: TrustCloud, rng: Random) -> float:
    """Sample one drop from a cloud.

    Two-stage sampling: a standard deviation is drawn around the entropy
    (spread given by the hyper-entropy), then the drop is drawn around the
    expectation with that deviation.  The absolute value guards against
    negative deviations when he is large; the result is clamped to [0, 1].
    """
    sigma = abs(rng.gauss(cloud.en, cloud.he))
    if sigma == 0.0:
        return cloud.ex
    drop = rng.gauss(cloud.ex, sigma)
    return min(max(drop, 0.0), 1.0)


def membership_degree(drop: float, standard: TrustCloud, rng: Random) -> float:
    """Degree to which a drop belongs to a standard cloud.

    A deviation sigma_s is sampled around the standard cloud's entropy and
    the degree is exp(-(drop - ex)^2 / (2 sigma_s^2)).  A drop equal to the
    expectation has degree 1 regardless of entropy; otherwise a zero-entropy
    standard cloud leaves the degree undefined.
    """
    if drop == standard.ex:
        return 1.0
    if standard.en == 0.0:
        raise ZeroEntropyError(
            "membership degree undefined: standard cloud has zero entropy "
            f"and drop {drop} differs from expectation {standard.ex}"
        )
    sigma_s = abs(rng.gauss(standard.en, standard.he))
    if sigma_s == 0.0:
        raise ZeroEntropyError("sampled standard deviation is zero")
    return math.exp(-((drop - standard.ex) ** 2) / (2.0 * sigma_s * sigma_s))


def similarity(
    individual: TrustCloud,
    standard: TrustCloud,
    n_drp: int,
    rng: Random | None = None,
) -> float:
    """Mean membership of drops generated from one cloud in another.

    For each of the n_drp drops the four-step procedure runs in order: sample
    the individual deviation, sample the drop with it, sample the standard
    deviation, and evaluate the membership degree.
    """
    if n_drp < 1:
        raise DomainError(f"n_drp must be at least 1, got {n_drp}")
    if rng is None:
        rng = Random()
    total = 0.0
    for _ in range(n_drp):
        drop = generate_drop(individual, rng)
        total += membership_degree(drop, standard, rng)
    return total / n_drp
