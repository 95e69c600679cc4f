from random import Random

import numpy as np
import pytest

from trustcloudsim.cloud import TrustCloud, backward_cloud
from trustcloudsim.errors import ConfigError, DomainError, InsufficientEvidenceError
from trustcloudsim.runtime import (
    TrustState,
    UpdatePools,
    classify_pairs,
    record_trust,
    recommend_trust,
    standard_table,
    update_standard_cloud,
)
from trustcloudsim.training import StandardClouds

REL = 1e-9


def test_recommend_trust_examples():
    assert recommend_trust(0.0, 0.9, 0.8) == pytest.approx(0.72, rel=REL)
    assert recommend_trust(0.6, 0.9, 0.8) == pytest.approx(1.32 / 1.8, rel=REL)
    assert recommend_trust(0.6, 0.4, 0.0) == pytest.approx(0.6, rel=REL)


def test_recommend_trust_bounds_over_random_triples():
    rng = Random(6)
    t_ik, t_jk, t_ij = np.array(
        [(rng.random(), rng.random(), rng.random()) for _ in range(100_000)]
    ).T
    value = recommend_trust(t_ik, t_jk, t_ij)
    assert np.all((0.0 <= value) & (value <= 1.0))
    # fresh-target branch never exceeds either input
    t_jk, t_ij = np.array([(rng.random(), rng.random()) for _ in range(1000)]).T
    v = recommend_trust(np.zeros(1000), t_jk, t_ij)
    assert np.all((v <= t_jk) & (v <= t_ij))
    # one array call gives what element-wise calls give
    assert [recommend_trust(0.0, a, b) for a, b in zip(t_jk[:50], t_ij[:50])] \
        == v[:50].tolist()


def test_recommend_trust_rejects_out_of_range():
    with pytest.raises(DomainError):
        recommend_trust(1.2, 0.5, 0.5)


STD = StandardClouds(TrustCloud(0.3, 0.05, 0.01), TrustCloud(0.7, 0.05, 0.01))


def filled(windows, window=20):
    """A TrustState where observer 0 holds windows[i] (oldest first) on target i."""
    state = TrustState(max(len(windows), 2), window)
    for target, values in enumerate(windows):
        for v in values:
            record_trust(state, [0], [target], [v])
    return state


def classify_windows(windows, np_rng, std=STD):
    state = filled(windows)
    targets = list(range(len(windows)))
    table = standard_table([std] * len(state.count))
    return classify_pairs(state, table, [0] * len(windows), targets, np_rng).tolist()


def test_record_trust_window_and_cloud():
    state = TrustState(8, 20)
    for i in range(19):
        record_trust(state, [7], [3], [0.5])
    assert not state.full[7, 3]
    with pytest.raises(InsufficientEvidenceError):
        state.clouds([7], [3])
    record_trust(state, [7], [3], [0.5])
    assert state.full[7, 3]

    # sliding: oldest evicted, cloud rebuilt over the latest 20
    record_trust(state, [7], [3], [1.0])
    values = [0.5] * 19 + [1.0]
    expected = backward_cloud(values)
    ex, en, he = state.clouds([7], [3])
    assert (ex[0], en[0], he[0]) == (expected.ex, expected.en, expected.he)
    assert state.mean[7, 3] == pytest.approx(sum(values) / 20, rel=1e-9)
    assert state.count[7, 3] == 21 and not state.immature[7, 3]


def test_record_trust_all_zero_window():
    state = filled([[0.0] * 20])
    assert [float(a[0]) for a in state.clouds([0], [0])] == [0.0, 0.0, 0.0]


def test_classify_margin_rules():
    # margin decisions never touch the random source: seed-independent
    for seed in (8, 9, 1234):
        np_rng = np.random.default_rng(seed)
        before = np_rng.bit_generator.state
        assert classify_windows([[0.05] * 20, [0.95] * 20], np_rng) == [True, False]
        assert np_rng.bit_generator.state == before


def test_classify_similarity_fallback():
    near_malicious = [0.29, 0.35] * 10  # cloud (0.32, 0.038, 0.0): no margin
    np_rng = np.random.default_rng(123)
    before = np_rng.bit_generator.state
    assert classify_windows([near_malicious], np_rng) == [True]
    assert np_rng.bit_generator.state != before
    # deterministic for a fixed seed
    assert classify_windows([near_malicious], np.random.default_rng(9)) == \
        classify_windows([near_malicious], np.random.default_rng(9))


def test_classify_requires_cloud():
    with pytest.raises(InsufficientEvidenceError):
        classify_windows([[0.5] * 19], np.random.default_rng(1))
    state = filled([[0.5] * 20])
    no_standards = standard_table([None, STD])
    with pytest.raises(InsufficientEvidenceError):
        classify_pairs(state, no_standards, [0], [0], np.random.default_rng(1))


def test_classify_batch_matches_scalar_on_margins():
    windows = [[0.05] * 20, [0.29, 0.35] * 10, [0.95] * 20, [0.66, 0.7] * 10]
    state = filled(windows)
    ex, en, _ = state.clouds([0] * 4, [0, 1, 2, 3])
    out = classify_windows(windows, np.random.default_rng(1))
    for i in range(4):
        if ex[i] < STD.malicious.ex - 3.0 * STD.malicious.en:
            assert out[i] is True
        elif ex[i] > STD.normal.ex + 3.0 * STD.normal.en:
            assert out[i] is False
    assert out[0] is True and out[2] is False


def test_classify_batch_gray_zone_agreement():
    near_mal = [0.32, 0.38] * 10
    near_norm = [0.63, 0.69] * 10
    out = classify_windows([near_mal, near_norm], np.random.default_rng(2))
    assert out == [True, False]


def test_update_standard_cloud():
    prior = TrustCloud(0.5, 0.1, 0.02)
    fresh = TrustCloud(0.4, 0.2, 0.04)
    updated = update_standard_cloud(prior, fresh, 0.8, 0.2)
    assert updated.ex == pytest.approx(0.48, rel=REL)
    assert updated.en == pytest.approx(0.12, rel=REL)
    assert updated.he == pytest.approx(0.024, rel=REL)

    same = update_standard_cloud(prior, prior, 0.8, 0.2)
    assert same.ex == pytest.approx(prior.ex, rel=1e-12)
    assert same.en == pytest.approx(prior.en, rel=1e-12)
    assert same.he == pytest.approx(prior.he, rel=1e-12)
    assert update_standard_cloud(prior, fresh, 1.0, 0.0) == prior
    with pytest.raises(ConfigError):
        update_standard_cloud(prior, fresh, 0.8, 0.3)


def test_accumulate_triggers_update_and_clears_pool():
    std = StandardClouds(TrustCloud(0.3, 0.05, 0.01), TrustCloud(0.7, 0.05, 0.01))
    pools = UpdatePools(1, 100)
    for _ in range(99):
        assert pools.add([0], [True], [0.2], [std]) == {}
    assert pools.fill[0, 0] == 99
    before = std.malicious
    std = pools.add([0], [True], [0.2], [std])[0]
    assert pools.fill[0, 0] == 0
    after = std.malicious
    assert after != before
    # updated components lie between prior and fresh estimate components
    fresh = backward_cloud([0.2] * 100)
    assert min(before.ex, fresh.ex) <= after.ex <= max(before.ex, fresh.ex)
    assert min(before.en, fresh.en) <= after.en <= max(before.en, fresh.en)


def test_accumulate_below_capacity_no_update():
    std = StandardClouds(TrustCloud(0.3, 0.05, 0.01), TrustCloud(0.7, 0.05, 0.01))
    pools = UpdatePools(1, 100)
    for _ in range(51):
        assert pools.add([0], [False], [0.8], [std]) == {}
    assert pools.fill[0, 1] == 51


def test_accumulate_fixed_point():
    prior = backward_cloud([0.8] * 100)
    std = StandardClouds(TrustCloud(0.3, 0.05, 0.01), prior)
    pools = UpdatePools(1, 100)
    for _ in range(100):
        std = pools.add([0], [False], [0.8], [std]).get(0, std)
    assert std.normal.ex == pytest.approx(prior.ex, rel=1e-12)
    assert std.normal.en == pytest.approx(prior.en, abs=1e-12)
