"""The interval type-2 fuzzy trust estimator, looked up by window counts.

Overheard forwarding behavior is counted in an evidence window (sent,
forwarded, timely; a tampered packet fails authentication downstream and
counts as a drop), turns into two rate attributes (timely forwarding rate
timely/forwarded and successful forwarding rate forwarded/sent), and maps
to a single trust value through a small interval type-2 fuzzy system.
Each attribute is fuzzified into Low/Medium/High interval sets, the
per-attribute interval grade is reduced with the center-of-sets procedure,
and the rule table (output grade = the lower of the two attribute grades)
combines the midpoints with a minimum.

The two attributes carry very different noise: a delayed forwarding is
observed directly, while a missed overhearing is indistinguishable from a
malicious drop, so the success rate is confounded with the medium's loss
rate.  The timeliness sets are therefore steep near 1 and the success-rate
sets are forgiving, letting the cleaner signal dominate the estimate.

``TrustTable`` looks those trust values up by a window's counts; training
and the protocol rounds infer through it.
"""

from __future__ import annotations

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


def _membership(x: np.ndarray, fset: tuple[float, float, float, float]) -> np.ndarray:
    """Membership of each x in a set (left_foot, apex_lo, apex_hi, right_foot)."""
    left, apex_lo, apex_hi, right = fset
    rising = np.where(x <= left, 0.0, (x - left) / (apex_lo - left))
    falling = np.where(x >= right, 0.0, (right - x) / (right - apex_hi))
    return np.where(x < apex_lo, rising, np.where(x <= apex_hi, 1.0, falling))


def _grades(x: np.ndarray, sets) -> np.ndarray:
    """Interval type-2 grade of each attribute value in x.

    Lower/upper memberships of the three sets give each output centroid a
    firing interval; the center-of-sets bounds are located by switch-point
    enumeration and the grade is the interval midpoint.  Every sum adds the
    sets in order, starting from 0, so each grade is bit-equal to the
    scalar statement of the law (``tests/trust_oracle.py``).
    """
    lowers = [
        _membership(x, (lo - (lo - left) * FOOTPRINT_SCALE, lo, hi,
                        hi + (right - hi) * FOOTPRINT_SCALE))
        for left, lo, hi, right in sets
    ]
    uppers = [_membership(x, s) for s in sets]
    y_left = np.full(x.shape, np.inf)
    y_right = np.full(x.shape, -np.inf)
    for k in range(len(sets) + 1):
        for weights, y, pick in (
            (uppers[:k] + lowers[k:], y_left, np.minimum),
            (lowers[:k] + uppers[k:], y_right, np.maximum),
        ):
            num = sum(w * c for w, c in zip(weights, OUTPUT_CENTROIDS))
            den = sum(weights)
            # a switch point that fires no set leaves the bound as it is
            pick(y, np.divide(num, den, out=y.copy(), where=den > 0.0), out=y)
    return (y_left + y_right) / 2.0


class _GradeRows:
    """Grades of the rates num/den, 0 <= num <= den, one row per denominator.

    The rows of new denominators are graded together, as arrays, on their
    first use, so every entry is bit-equal to grading that rate directly.  A
    denominator of 0 has the one rate 1.0: a window with nothing forwarded
    has a TFR of 1, so that the SFR alone carries the penalty for drops.
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
            new = sorted(set(den[~filled].tolist()))
            k = np.concatenate([np.arange(d + 1) for d in new])
            d = np.repeat(new, np.add(new, 1))
            rates = np.divide(k, d, out=np.ones(len(d)), where=d > 0)
            self._grades[d, k] = _grades(rates, self._sets)
            self._filled[new] = True
        return self._grades.take(den * self._grades.shape[1] + num)

    def _grow(self, size: int) -> None:
        grades = np.zeros((size, size))
        old = len(self._filled)
        grades[:old, :old] = self._grades
        filled = np.zeros(size, dtype=bool)
        filled[:old] = self._filled
        self._grades, self._filled = grades, filled


class TrustTable:
    """Trust values of evidence windows, looked up by their counts.

    With the output grade of every rule equal to the lower of its two
    antecedent grades, the nine-rule table reduces to the minimum of the two
    per-attribute grades; the result is monotone non-decreasing in both
    attributes.  Each grade depends on one rate only, so a table of TFR
    grades by (forwarded, timely) and one of SFR grades by (sent, forwarded)
    give a window's trust as the minimum of two lookups, bit-equal to the
    minimum of the two grades of its rates.  Rows are filled on
    first use, in any order, with the same values.
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
