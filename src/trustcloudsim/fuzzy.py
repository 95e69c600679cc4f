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

``TrustTable`` gives the same trust values looked up by a window's counts,
which is how training and the protocol rounds infer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

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


class _GradeRows:
    """Grades of the rates num/den, 0 <= num <= den, one row per denominator.

    A denominator's row is filled from the scalar ``_grade_for`` on its first
    use, so every entry is bit-equal to grading that rate directly.  A
    denominator of 0 has the one rate 1.0, as in ``compute_attributes``.
    """

    def __init__(self, sets):
        self._sets = sets
        self._grades = np.zeros((0, 0))
        self._filled = np.zeros(0, dtype=bool)

    def lookup(self, den: np.ndarray, num: np.ndarray) -> np.ndarray:
        """Grades of num/den for non-empty arrays with 0 <= num <= den."""
        top = int(den.max())
        if top >= len(self._filled):
            self._grow(max(top + 1, 2 * len(self._filled)))
        filled = self._filled.take(den)
        if not filled.all():
            # a set, not np.unique: with np.unique here a 300-round sweep
            # replica's peak RSS (ru_maxrss) was ≈1 MB higher
            for d in set(den[~filled].tolist()):
                row = [
                    _grade_for(k / d if d else 1.0, self._sets) for k in range(d + 1)
                ]
                self._grades[d, : d + 1] = row
                self._filled[d] = True
        return self._grades.take(den * self._grades.shape[1] + num)

    def _grow(self, size: int) -> None:
        grades = np.zeros((size, size))
        old = len(self._filled)
        grades[:old, :old] = self._grades
        filled = np.zeros(size, dtype=bool)
        filled[:old] = self._filled
        self._grades, self._filled = grades, filled


class TrustTable:
    """infer_trust of evidence windows, looked up by their counts.

    Trust is the minimum of a TFR grade and an SFR grade, and each grade
    depends on one rate only, so a table of TFR grades by (forwarded,
    timely) and one of SFR grades by (sent, forwarded) give a window's trust
    as the minimum of two lookups, bit-equal to
    ``infer_trust(compute_attributes(window))``.  Rows are filled on first
    use, in any order, with the same values.
    """

    def __init__(self):
        self._tfr = _GradeRows(TFR_SETS)
        self._sfr = _GradeRows(SFR_SETS)

    def trust(self, sent, forwarded, timely) -> np.ndarray:
        """Trust values of the windows with these counts, one per entry."""
        sent, forwarded, timely = (
            np.asarray(a, dtype=np.intp) for a in (sent, forwarded, timely)
        )
        if not sent.size:
            return np.zeros(0)
        if sent.min() < 1:
            raise NoEvidenceError("no packets recorded in evidence window")
        if ((timely < 0) | (timely > forwarded) | (forwarded > sent)).any():
            raise DomainError("need 0 <= timely <= forwarded <= sent in every window")
        return np.minimum(
            self._tfr.lookup(forwarded, timely), self._sfr.lookup(sent, forwarded)
        )


#: The process's trust table.  Training and the protocol rounds both infer
#: through it, so a worker process fills each row once for all its runs.
trust_table = TrustTable()
