"""Forwarding evidence and the interval type-2 fuzzy trust estimator.

Overheard forwarding behavior accumulates in an evidence window, turns into
two rate attributes (timely forwarding rate and successful forwarding rate),
and maps to a single trust value through a small interval type-2 fuzzy
system.  Each attribute is fuzzified into Low/Medium/High interval sets, the
per-attribute interval grade is reduced with the center-of-sets procedure,
and the rule table (output grade = the lower of the two attribute grades)
combines the midpoints with a minimum.

The two attributes carry very different noise: a delayed forwarding is
observed directly, while a missed overhearing is indistinguishable from a
malicious drop, so the success rate is confounded with the medium's loss
rate.  The timeliness sets are therefore steep near 1 and the success-rate
sets are forgiving, letting the cleaner signal dominate the estimate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, NoEvidenceError

OUTPUT_CENTROIDS = (0.1, 0.5, 0.9)

# Each set is (left_foot, apex_lo, apex_hi, right_foot) for the upper
# membership; the lower membership shrinks the slopes toward the apex by the
# footprint scale.  apex_lo == apex_hi gives a triangle, a flat top a
# shoulder.
TFR_SETS = (
    (-1.0, 0.0, 0.0, 0.70),
    (0.0, 0.70, 0.70, 1.0),
    (0.93, 1.0, 1.0, 2.0),
)
SFR_SETS = (
    (-1.0, 0.0, 0.0, 0.30),
    (0.0, 0.25, 0.25, 0.50),
    (0.18, 0.45, 1.0, 2.0),
)
FOOTPRINT_SCALE = 0.8


class ForwardingEvent(enum.Enum):
    """One overheard outcome for a packet handed over for forwarding."""

    FORWARDED_TIMELY = "forwarded_timely"
    FORWARDED_DELAYED = "forwarded_delayed"
    DROPPED = "dropped"


@dataclass(frozen=True)
class EvidenceWindow:
    """Counters of forwarding behavior observed about one device."""

    sent: int = 0
    forwarded: int = 0
    timely: int = 0

    def __post_init__(self):
        if not 0 <= self.timely <= self.forwarded <= self.sent:
            raise DomainError(
                f"need 0 <= timely <= forwarded <= sent, got "
                f"({self.sent}, {self.forwarded}, {self.timely})"
            )


@dataclass(frozen=True)
class TrustAttributes:
    """Rate attributes derived from an evidence window."""

    tfr: float
    sfr: float

    def __post_init__(self):
        if not (0.0 <= self.tfr <= 1.0 and 0.0 <= self.sfr <= 1.0):
            raise DomainError(f"attributes must be in [0, 1], got {self}")


def record_event(window: EvidenceWindow, event: ForwardingEvent) -> EvidenceWindow:
    """Add one observed outcome to a window.

    Tampered packets fail authentication downstream and are counted as drops.
    """
    sent = window.sent + 1
    forwarded = window.forwarded + (event is not ForwardingEvent.DROPPED)
    timely = window.timely + (event is ForwardingEvent.FORWARDED_TIMELY)
    return EvidenceWindow(sent, forwarded, timely)


def compute_attributes(window: EvidenceWindow) -> TrustAttributes:
    """Derive (tfr, sfr) from a window.

    sfr = forwarded/sent.  tfr = timely/forwarded, defined as 1 when nothing
    was forwarded so that sfr alone carries the penalty for drops.
    """
    if window.sent == 0:
        raise NoEvidenceError("no packets recorded in evidence window")
    sfr = window.forwarded / window.sent
    tfr = window.timely / window.forwarded if window.forwarded else 1.0
    return TrustAttributes(tfr, sfr)


def _upper_membership(x: float, fset: tuple[float, float, float, float]) -> float:
    left, apex_lo, apex_hi, right = fset
    if apex_lo <= x <= apex_hi:
        return 1.0
    if x < apex_lo:
        if x <= left:
            return 0.0
        return (x - left) / (apex_lo - left)
    if x >= right:
        return 0.0
    return (right - x) / (right - apex_hi)


def _lower_membership(x: float, fset: tuple[float, float, float, float]) -> float:
    left, apex_lo, apex_hi, right = fset
    scaled = (
        apex_lo - (apex_lo - left) * FOOTPRINT_SCALE,
        apex_lo,
        apex_hi,
        apex_hi + (right - apex_hi) * FOOTPRINT_SCALE,
    )
    return _upper_membership(x, scaled)


def _grade_for(x: float, sets) -> float:
    """Interval type-2 grade of one attribute value.

    Lower/upper memberships of the three sets give each output centroid a
    firing interval; the center-of-sets bounds are located by switch-point
    enumeration and the grade is the interval midpoint.
    """
    lowers = [_lower_membership(x, s) for s in sets]
    uppers = [_upper_membership(x, s) for s in sets]
    n = len(sets)
    y_left = None
    y_right = None
    for k in range(n + 1):
        num_l = den_l = num_r = den_r = 0.0
        for i in range(n):
            w_l = uppers[i] if i < k else lowers[i]
            w_r = lowers[i] if i < k else uppers[i]
            num_l += w_l * OUTPUT_CENTROIDS[i]
            den_l += w_l
            num_r += w_r * OUTPUT_CENTROIDS[i]
            den_r += w_r
        if den_l > 0.0:
            v = num_l / den_l
            y_left = v if y_left is None else min(y_left, v)
        if den_r > 0.0:
            v = num_r / den_r
            y_right = v if y_right is None else max(y_right, v)
    return (y_left + y_right) / 2.0


def infer_trust(attrs: TrustAttributes) -> float:
    """Deterministic trust value in [0, 1] for a pair of attributes.

    With the output grade of every rule equal to the lower of its two
    antecedent grades, the nine-rule table reduces to the minimum of the two
    per-attribute grades; the result is monotone non-decreasing in both
    attributes.
    """
    return min(_grade_for(attrs.tfr, TFR_SETS), _grade_for(attrs.sfr, SFR_SETS))


@lru_cache(maxsize=65536)
def trust_from_counts(sent: int, forwarded: int, timely: int) -> float:
    """infer_trust of the evidence window with these counts.

    A round's windows repeat the same few count triples across pairs and
    rounds, so the trust value is memoised by the triple.  Training and the
    protocol rounds both infer through this one cache.
    """
    return infer_trust(compute_attributes(EvidenceWindow(sent, forwarded, timely)))
