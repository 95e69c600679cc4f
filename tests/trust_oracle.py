"""The scalar trust of one evidence window: the oracle for ``TrustTable``.

TFR = timely/forwarded, or 1.0 when nothing was forwarded; SFR =
forwarded/sent; the trust is the smaller of the two attribute grades.
"""

from trustcloudsim.fuzzy import SFR_SETS, TFR_SETS, _grade_for


def rate_trust(tfr: float, sfr: float) -> float:
    return min(_grade_for(tfr, TFR_SETS), _grade_for(sfr, SFR_SETS))


def scalar_trust(sent: int, forwarded: int, timely: int) -> float:
    return rate_trust(timely / forwarded if forwarded else 1.0, forwarded / sent)
