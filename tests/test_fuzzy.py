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


@lru_cache(maxsize=None)
def oracle_trust(sent: int, forwarded: int, timely: int) -> float:
    return scalar_trust(sent, forwarded, timely)


def windows_up_to(top: int) -> list[tuple[int, int, int]]:
    """Every (sent, forwarded, timely) window with 1 <= sent <= top."""
    return [(s, f, t) for s in range(1, top + 1)
            for f in range(s + 1) for t in range(f + 1)]


def listed_trust(table: TrustTable, top: int, window) -> float:
    """A window's trust read as training reads it, from the grade lists."""
    tfr, sfr = table.grade_lists(top)
    sent, forwarded, timely = window
    t, s = tfr[forwarded][timely], sfr[sent][forwarded]
    return t if t < s else s


@pytest.mark.parametrize("top", [1, 20, 40])
def test_grade_lists_give_the_trust_of_every_window(top):
    # by float.hex, so that a signed zero or a swapped index shows; the
    # lists are read before any trust() call on one table and after one on
    # the other
    windows = windows_up_to(top)
    sent, forwarded, timely = (list(c) for c in zip(*windows))
    lists_first, trust_first = TrustTable(), TrustTable()
    lists_first.grade_lists(top)
    batches = [table.trust(sent, forwarded, timely).tolist()
               for table in (lists_first, trust_first)]
    for table, batch in zip((lists_first, trust_first), batches):
        for window, value in zip(windows, batch):
            want = oracle_trust(*window).hex()
            assert value.hex() == want, window
            assert listed_trust(table, top, window).hex() == want, window
    assert [[g.hex() for row in rows for g in row]
            for rows in lists_first.grade_lists(top)] == [
        [g.hex() for row in rows for g in row]
        for rows in trust_first.grade_lists(top)
    ]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=1, max_size=4), st.integers(0, 40))
def test_grade_lists_agree_after_rows_filled_in_any_order(dens, top):
    # rows filled by earlier lookups, below or above top, change nothing
    table = TrustTable()
    for d in dens:
        table.trust([d], [d // 2], [d // 3])
    tfr, sfr = table.grade_lists(top)
    assert len(tfr) == len(sfr) == top + 1
    for den in range(top + 1):
        for name, rows in (("tfr", tfr), ("sfr", sfr)):
            assert [g.hex() for g in rows[den][: den + 1]] == [
                g.hex() for g in oracle_row(name, den)
            ]
    assert table.grade_lists(top) is table.grade_lists(top)
