from random import Random

import pytest
from trust_oracle import rate_trust, scalar_trust

from trustcloudsim.errors import DomainError, NoEvidenceError
from trustcloudsim.fuzzy import TrustTable


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
