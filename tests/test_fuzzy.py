from functools import lru_cache
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from trust_oracle import grade_for, rate_trust, scalar_trust

from trustcloudsim.errors import DomainError, NoEvidenceError
from trustcloudsim.fuzzy import SFR_SETS, TFR_SETS, TrustTable, _GradeRows

TABLES = {"tfr": TFR_SETS, "sfr": SFR_SETS}


@lru_cache(maxsize=None)
def oracle_row(table: str, den: int) -> tuple[float, ...]:
    """The scalar grades of the rates k/den, k = 0..den (1.0 alone at 0)."""
    sets = TABLES[table]
    return tuple(grade_for(k / den if den else 1.0, sets) for k in range(den + 1))


def filled_row(rows: _GradeRows, den: int) -> tuple[float, ...]:
    return tuple(rows.lookup(np.full(den + 1, den), np.arange(den + 1)).tolist())


def trust(sent, forwarded, timely) -> float:
    """One window's trust from a fresh table."""
    return TrustTable().trust([sent], [forwarded], [timely]).item()


def test_evidence_window_invariant():
    with pytest.raises(DomainError):
        trust(5, 6, 2)
    with pytest.raises(DomainError):
        trust(5, 3, 4)


def test_compute_attributes_examples():
    assert trust(20, 20, 20) == rate_trust(1.0, 1.0)
    assert trust(20, 18, 15) == rate_trust(15 / 18, 0.9)
    assert trust(20, 18, 15) == scalar_trust(20, 18, 15)

    # no forwarding evidence: no timeliness penalty
    assert trust(20, 0, 0) == rate_trust(1.0, 0.0)

    with pytest.raises(NoEvidenceError):
        trust(0, 0, 0)


def test_compute_attributes_always_in_range():
    rng = Random(5)
    table = TrustTable()
    for _ in range(500):
        sent = rng.randint(1, 40)
        forwarded = rng.randint(0, sent)
        timely = rng.randint(0, forwarded)
        value = table.trust([sent], [forwarded], [timely]).item()
        assert 0.0 <= value <= 1.0
        assert value == scalar_trust(sent, forwarded, timely)


def test_infer_trust_endpoints():
    assert rate_trust(1.0, 1.0) >= 0.9 - 1e-12
    assert rate_trust(0.0, 0.0) <= 0.1 + 1e-12


def test_infer_trust_strictly_increases_mid_range():
    assert rate_trust(0.6, 0.6) > rate_trust(0.5, 0.5)


def test_infer_trust_monotone_on_grid():
    grid = [i / 100 for i in range(101)]
    for t in grid:
        prev = None
        for s in grid:
            v = rate_trust(t, s)
            assert 0.0 <= v <= 1.0
            if prev is not None:
                assert v >= prev - 1e-12
            prev = v
    for s in grid:
        prev = None
        for t in grid:
            v = rate_trust(t, s)
            if prev is not None:
                assert v >= prev - 1e-12
            prev = v


def test_infer_trust_deterministic_on_window_ratios():
    # counts up to the usual window size reproduce identical values
    table = TrustTable()
    for sent in range(1, 25):
        for forwarded in range(sent + 1):
            timely = forwarded // 2
            a = table.trust([sent], [forwarded], [timely]).item()
            assert a == table.trust([sent], [forwarded], [timely]).item()
            assert a == scalar_trust(sent, forwarded, timely)


@pytest.mark.parametrize("table", sorted(TABLES))
def test_filled_rows_equal_the_scalar_grades(table):
    # every rate k/d with d < 600, filled in one lookup
    rows = _GradeRows(TABLES[table])
    den = np.repeat(np.arange(600), np.arange(1, 601))
    num = np.concatenate([np.arange(d + 1) for d in range(600)])
    got = rows.lookup(den, num).tolist()
    assert got == [g for d in range(600) for g in oracle_row(table, d)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(TABLES)),
    st.lists(st.lists(st.integers(0, 120), min_size=1, max_size=6), max_size=6),
)
def test_rows_fill_alike_in_any_order(table, batches):
    # each lookup fills the new denominators among its rows together
    rows = _GradeRows(TABLES[table])
    for batch in batches:
        den = np.array(batch)
        rows.lookup(den, den // 2)
        for d in batch:
            assert filled_row(rows, d) == oracle_row(table, d)
