"""The raw forward-cloud law and the channel draw, one value at a time.

Li, Meng and Shi's forward generator and membership degree, with each
standard cloud's own dispersion sigma_s, and one reception opportunity of
the channel.  The simulator runs array forms instead: the classifier's
``runtime.similarities`` (which pools sigma_s over the two standards) and
the channel draws of ``protocol``.  These serve as independent statements
of the laws for the tests.
"""

from __future__ import annotations

import math
from random import Random

from trustcloudsim.cloud import TrustCloud
from trustcloudsim.errors import DomainError, TrustCloudSimError
from trustcloudsim.medium import ChannelPhase


class ZeroEntropyError(TrustCloudSimError):
    """Membership degree is undefined for a zero-entropy standard cloud."""


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


def channel_ok(phase: ChannelPhase, rng: Random) -> bool:
    """One independent reception/overhearing opportunity.

    Each opportunity draws independently at the stationary bad probability,
    so per-device channel quality is independent by construction.
    """
    p0 = phase.bad_prob
    if p0 == 0.0:
        return True
    return rng.random() >= p0
