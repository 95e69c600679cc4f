"""The scalar trust of one evidence window: the oracle for ``TrustTable``.

TFR = timely/forwarded, or 1.0 when nothing was forwarded; SFR =
forwarded/sent; the trust is the smaller of the two attribute grades.  Each
grade is the interval type-2 estimator written one value at a time, as
Mendel, John and Liu state it; ``fuzzy`` fills its table from an array form
of the same law, which must equal this one bit for bit.
"""

from trustcloudsim.fuzzy import FOOTPRINT_SCALE, OUTPUT_CENTROIDS, SFR_SETS, TFR_SETS


def upper_membership(x: float, fset: tuple[float, float, float, float]) -> float:
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


def lower_membership(x: float, fset: tuple[float, float, float, float]) -> float:
    left, apex_lo, apex_hi, right = fset
    scaled = (
        apex_lo - (apex_lo - left) * FOOTPRINT_SCALE,
        apex_lo,
        apex_hi,
        apex_hi + (right - apex_hi) * FOOTPRINT_SCALE,
    )
    return upper_membership(x, scaled)


def grade_for(x: float, sets) -> float:
    """Interval type-2 grade of one attribute value.

    Lower/upper memberships of the three sets give each output centroid a
    firing interval; the center-of-sets bounds are located by switch-point
    enumeration and the grade is the interval midpoint.
    """
    lowers = [lower_membership(x, s) for s in sets]
    uppers = [upper_membership(x, s) for s in sets]
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


def rate_trust(tfr: float, sfr: float) -> float:
    return min(grade_for(tfr, TFR_SETS), grade_for(sfr, SFR_SETS))


def scalar_trust(sent: int, forwarded: int, timely: int) -> float:
    return rate_trust(timely / forwarded if forwarded else 1.0, forwarded / sent)
