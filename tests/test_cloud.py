import math
from random import Random

import numpy as np
import pytest
from cloud_oracle import ZeroEntropyError, generate_drop, membership_degree, similarity
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trustcloudsim.cloud import TrustCloud, backward_cloud, backward_clouds
from trustcloudsim.errors import DomainError, InsufficientDataError

REL = 1e-9


def test_backward_cloud_constant_drops():
    cloud = backward_cloud([0.5, 0.5, 0.5, 0.5])
    assert cloud.ex == 0.5
    assert cloud.en == 0.0
    assert cloud.he == 0.0


def test_backward_cloud_hand_example():
    cloud = backward_cloud([0.2, 0.4, 0.6, 0.8])
    en = math.sqrt(math.pi / 2) * 0.2
    he = math.sqrt(0.2 / 3 - en * en)
    assert cloud.ex == pytest.approx(0.5, rel=REL)
    assert cloud.en == pytest.approx(en, rel=REL)
    assert cloud.he == pytest.approx(he, rel=REL)


def test_backward_cloud_clamps_negative_radicand():
    cloud = backward_cloud([0.4, 0.4, 0.6, 0.6])
    assert cloud.ex == pytest.approx(0.5, rel=REL)
    assert cloud.en == pytest.approx(math.sqrt(math.pi / 2) * 0.1, rel=REL)
    assert cloud.he == 0.0


def test_backward_cloud_errors():
    with pytest.raises(InsufficientDataError):
        backward_cloud([0.5])
    with pytest.raises(DomainError):
        backward_cloud([0.5, 1.5])


def assert_columns_match_scalar(windows):
    ex, en, he = backward_clouds(windows)
    for j in range(windows.shape[1]):
        c = backward_cloud(windows[:, j].tolist())
        assert (ex[j], en[j], he[j]) == (c.ex, c.en, c.he)


@pytest.mark.parametrize("k", [1, 2, 7, 300])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 20, 25, 100])
def test_backward_clouds_equal_scalar_bit_for_bit(n, k):
    rng = np.random.default_rng(n * 1000 + k)
    assert_columns_match_scalar(rng.random((n, k)))
    # trust-like values: clustered near one end, with exact 0s and 1s
    windows = np.clip(rng.normal(0.9, 0.2, (n, k)), 0.0, 1.0)
    windows[rng.random((n, k)) < 0.1] = 0.0
    assert_columns_match_scalar(windows)


drops = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 100).flatmap(
        lambda n: st.one_of(st.just(1), st.integers(1, 300)).flatmap(
            lambda k: arrays(np.float64, (n, k), elements=drops)
        )
    ),
    st.sampled_from(["C", "F", "strided"]),
)
def test_backward_clouds_equal_scalar_on_any_block(windows, layout):
    """Any window count and column count, one column included, any layout.

    ``np.add.reduce`` over axis 0 sums a single column or a block not in C
    order pairwise, which rounds differently from the scalar loop.
    """
    if layout == "F":
        windows = np.asfortranarray(windows)
    elif layout == "strided":
        windows = np.repeat(windows, 2, axis=1)[:, ::2]
    assert_columns_match_scalar(windows)


@pytest.mark.parametrize("value", [0.0, 0.1, 1 / 3, 0.7, 1.0])
def test_backward_clouds_constant_and_zero_windows(value):
    windows = np.full((20, 5), value)
    assert_columns_match_scalar(windows)
    if value in (0.0, 1.0):  # sums of these are exact
        ex, en, he = backward_clouds(windows)
        assert np.all(ex == value) and np.all(en == 0.0) and np.all(he == 0.0)


def test_backward_clouds_needs_two_drops():
    with pytest.raises(InsufficientDataError):
        backward_clouds(np.zeros((1, 3)))


def test_backward_cloud_permutation_invariant():
    rng = Random(11)
    for _ in range(25):
        drops = [rng.random() for _ in range(12)]
        mixed = drops[:]
        rng.shuffle(mixed)
        a = backward_cloud(drops)
        b = backward_cloud(mixed)
        assert a.ex == pytest.approx(b.ex, rel=1e-12)
        assert a.en == pytest.approx(b.en, rel=1e-12)
        assert a.he == pytest.approx(b.he, abs=1e-12)


def test_trust_cloud_validation():
    with pytest.raises(DomainError):
        TrustCloud(1.2, 0.1, 0.0)
    with pytest.raises(DomainError):
        TrustCloud(0.5, -0.1, 0.0)


def test_generate_drop_degenerate_cloud():
    rng = Random(1)
    cloud = TrustCloud(0.5, 0.0, 0.0)
    assert all(generate_drop(cloud, rng) == 0.5 for _ in range(50))


def test_generate_drop_empirical_mean():
    rng = Random(42)
    cloud = TrustCloud(0.5, 0.1, 0.0)
    n = 100_000
    mean = sum(generate_drop(cloud, rng) for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.002


def test_generate_drop_clamped():
    rng = Random(7)
    cloud = TrustCloud(0.99, 0.1, 0.0)
    drops = [generate_drop(cloud, rng) for _ in range(5000)]
    assert max(drops) <= 1.0
    assert min(drops) >= 0.0


def test_membership_exact_match_is_one():
    rng = Random(3)
    assert membership_degree(0.7, TrustCloud(0.7, 0.2, 0.1), rng) == 1.0
    assert membership_degree(0.7, TrustCloud(0.7, 0.0, 0.0), rng) == 1.0


def test_membership_fixed_sigma_values():
    rng = Random(3)
    std = TrustCloud(0.5, 0.1, 0.0)  # he = 0 pins sigma at en
    assert membership_degree(0.6, std, rng) == pytest.approx(
        math.exp(-0.5), rel=REL
    )
    assert membership_degree(0.8, std, rng) == pytest.approx(
        math.exp(-4.5), rel=REL
    )


def test_membership_decreasing_in_distance():
    rng = Random(3)
    std = TrustCloud(0.5, 0.08, 0.0)
    values = [membership_degree(0.5 + d, std, rng) for d in (0.01, 0.05, 0.1, 0.2)]
    assert values == sorted(values, reverse=True)


def test_membership_zero_entropy_error():
    rng = Random(3)
    with pytest.raises(ZeroEntropyError):
        membership_degree(0.4, TrustCloud(0.5, 0.0, 0.0), rng)


def test_similarity_constant_individual():
    rng = Random(9)
    sim = similarity(TrustCloud(0.5, 0.0, 0.0), TrustCloud(0.5, 0.1, 0.0), 50, rng)
    assert sim == 1.0


def test_similarity_self_close_to_closed_form():
    rng = Random(10)
    c = TrustCloud(0.5, 0.1, 0.0)
    sim = similarity(c, c, 20_000, rng)
    assert abs(sim - 1 / math.sqrt(2)) < 0.03


def test_similarity_distant_clouds_negligible():
    rng = Random(12)
    sim = similarity(
        TrustCloud(0.1, 0.02, 0.0), TrustCloud(0.9, 0.02, 0.0), 2000, rng
    )
    assert sim < 1e-6


def test_similarity_prefers_matching_expectation():
    wins = 0
    for seed in range(100):
        rng = Random(seed)
        c = TrustCloud(0.5, 0.05, 0.01)
        shifted = TrustCloud(0.8, 0.05, 0.01)
        if similarity(c, c, 50, rng) >= similarity(c, shifted, 50, rng):
            wins += 1
    assert wins > 50


def test_similarity_rejects_bad_count():
    with pytest.raises(DomainError):
        similarity(TrustCloud(0.5, 0.1, 0), TrustCloud(0.5, 0.1, 0), 0, Random(1))

