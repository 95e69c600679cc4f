"""The equivalence gate's statistics on samples with known answers.

Reference quantiles and intervals are Student's t values from published
tables and from the closed-form Welch interval of small hand-checked
samples.
"""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
_SPEC = importlib.util.spec_from_file_location("equivalence", _PATH)
eq = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(eq)


@pytest.mark.parametrize(
    "p, df, t",
    [
        (0.975, 1, 12.706204736174694),
        (0.975, 8, 2.306004135204166),
        (0.975, 10, 2.228138851986274),
        (0.995, 30, 2.749995653567225),
        (0.9, 2.5, 1.7302509288071766),
        (0.975, 1000, 1.9623390808264078),
    ],
)
def test_t_quantile_matches_tables(p, df, t):
    assert eq.t_quantile(p, df) == pytest.approx(t, rel=1e-9)
    assert eq.t_cdf(t, df) == pytest.approx(p, rel=1e-10)
    assert eq.t_cdf(-t, df) == pytest.approx(1.0 - p, rel=1e-9)


def test_welch_ci_of_hand_checked_samples():
    # Both variances of the mean are 0.5, so se = 1 and the Welch
    # degrees of freedom are 1 / (2 * 0.25 / 4) = 8.
    diff, low, high = eq.welch_ci([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], 0.95)
    assert diff == 1.0
    assert (low, high) == pytest.approx((1 - 2.306004135204166, 1 + 2.306004135204166))


def test_welch_ci_unequal_sizes_and_variances():
    base = [0.0, 2.0]
    cand = [1.0, 1.0, 4.0, 6.0]
    # variances 2 and 6: se^2 = 2/2 + 6/4 = 2.5, df = 2.5^2 / (1^2/1 + 1.5^2/3)
    se = math.sqrt(2.5)
    df = 2.5**2 / (1.0 + 1.5**2 / 3.0)
    half = eq.t_quantile(0.995, df) * se
    assert eq.welch_ci(base, cand, 0.99) == pytest.approx((2.0, 2.0 - half, 2.0 + half))


def test_welch_ci_of_constant_samples_is_a_point():
    assert eq.welch_ci([3.0, 3.0], [3.0, 3.0, 3.0], 0.99) == (0.0, 0.0, 0.0)
    assert eq.welch_ci([3.0, 3.0], [4.0, 4.0], 0.99) == (1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        eq.welch_ci([1.0], [1.0, 2.0], 0.95)


def test_bonferroni_level_spreads_alpha_over_the_comparisons():
    assert eq.bonferroni_level(21) == pytest.approx(1 - 0.05 / 21)
    assert eq.bonferroni_level(1) == pytest.approx(0.95)
    rows = eq.compare(*(_arms(0.0)))
    assert len(rows) == 21
    assert all(r["level"] == eq.bonferroni_level(21) for r in rows)


@pytest.mark.parametrize(
    "low, high, base_mean, expected",
    [
        (-1.0, 2.0, 100.0, True),  # contains 0
        (0.0, 3.0, 100.0, True),  # touches 0
        (0.2, 0.9, 100.0, True),  # inside the ±1 band
        (-1.0, -0.2, -100.0, True),  # the band scales with |mean|
        (0.5, 1.5, 100.0, False),  # excludes 0 and leaves the band
        (-2.0, -1.2, 100.0, False),
        (0.001, 0.002, 0.0, False),  # a zero mean leaves no band
    ],
)
def test_pass_rule(low, high, base_mean, expected):
    assert eq.passes(low, high, base_mean) is expected


def test_block_means_split_quarter_half_quarter():
    assert eq.block_means([1, 1, 2, 2, 2, 2, 3, 3]) == [1.0, 2.0, 3.0]
    assert eq.block_means([4.0] * 20) == [4.0, 4.0, 4.0]
    first, middle, last = eq.block_means([1.0, 5.0])
    assert (first, last) == (1.0, 5.0) and math.isnan(middle)


def _arms(shift, n=20):
    """Two arms of tightly spread samples around 10; the candidate's timely
    rate at fraction 0.2 is shifted by ``shift`` times 10."""

    def arm(offset, bump):
        return {
            str(f): {
                m: [
                    10.0 + 0.01 * ((i * 7 + offset) % 13) / 13
                    + (bump if (f, m) == (0.2, "timely_rate") else 0.0)
                    for i in range(n)
                ]
                for m in eq.METRICS
            }
            for f in eq.FRACTIONS
        }

    return arm(0, 0.0), arm(5, shift * 10.0)


def test_compare_passes_equal_arms_and_fails_a_shift():
    assert all(r["passed"] for r in eq.compare(*_arms(0.0)))
    # a 0.5 % shift is significant here, but inside the band
    rows = eq.compare(*_arms(0.005))
    shifted = [r for r in rows if (r["fraction"], r["metric"]) == (0.2, "timely_rate")]
    assert shifted[0]["low"] > 0.0
    assert all(r["passed"] for r in rows)
    rows = eq.compare(*_arms(0.05))
    failed = [(r["fraction"], r["metric"]) for r in rows if not r["passed"]]
    assert failed == [(0.2, "timely_rate")]
