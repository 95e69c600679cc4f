"""classify_pairs against the sampling expressions it replaced and its oracle.

``reference_classify`` is the classifier as it was written before its kernel
moved into place: three separate normal draws, temporary arrays for every
step and ``np.where`` on each similarity, with a sampled dispersion whose
2 sigma^2 is zero scored by the membership's limit (1 on the expectation,
0 elsewhere).  On the same trust state, standard table and generator, the
in-place kernel must return the same verdicts and leave the generator in the
same state.  ``classifier_oracle.classify`` states the law one drop at a
time from the same normals; its verdicts must agree wherever its two mean
memberships are more than 1e-12 apart (numpy sums a row's memberships
pairwise, the oracle in order).
"""

import math
from random import Random

import classifier_oracle
import numpy as np
import pytest
from cloud_oracle import similarity
from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim.cloud import TrustCloud
from trustcloudsim.errors import InsufficientEvidenceError
from trustcloudsim.runtime import TrustState, classify_pairs, record_trust, similarities


def reference_classify(state, stds, observers, targets, np_rng, kappa, n_drp):
    ex, en, he = state.clouds(observers, targets)
    ex_m, en_m, he_m, ex_n, en_n, he_n = stds[observers].T
    if np.isnan(ex_m).any():
        raise InsufficientEvidenceError("observer has no standard clouds")
    malicious = ex < ex_m - kappa * en_m
    gray = np.flatnonzero(~malicious & ~(ex > ex_n + kappa * en_n))
    # np.where evaluates both branches; the one it discards overflows on a
    # subnormal denominator, so its warnings are silenced.
    with np.errstate(over="ignore"):
        if len(gray):
            shape = (len(gray), n_drp)
            ex_i, en_i, he_i = ex[gray, None], en[gray, None], he[gray, None]
            ex_m, ex_n = ex_m[gray, None], ex_n[gray, None]
            en_p = ((en_m + en_n) / 2.0)[gray, None]
            he_p = ((he_m + he_n) / 2.0)[gray, None]
            sigma_i = np.abs(np_rng.standard_normal(shape) * he_i + en_i)
            drops = np.clip(np_rng.standard_normal(shape) * sigma_i + ex_i, 0.0, 1.0)
            sigma_s = np.abs(np_rng.standard_normal(shape) * he_p + en_p)
            denom = 2.0 * sigma_s * sigma_s
            zero = denom == 0.0
            denom = np.where(zero, 1.0, denom)
            sim_m = np.where(
                drops == ex_m,
                1.0,
                np.where(zero, 0.0, np.exp(-((drops - ex_m) ** 2) / denom)),
            ).mean(axis=1)
            sim_n = np.where(
                drops == ex_n,
                1.0,
                np.where(zero, 0.0, np.exp(-((drops - ex_n) ** 2) / denom)),
            ).mean(axis=1)
            malicious[gray] = sim_m >= sim_n
    return malicious


def outcome(classify, state, stds, obs, tgt, seed, kappa, n_drp):
    """(verdicts, generator state afterwards)."""
    np_rng = np.random.default_rng(seed)
    result = classify(state, stds, obs, tgt, np_rng, kappa=kappa, n_drp=n_drp)
    return result.tolist(), np_rng.bit_generator.state


def assert_same(state, stds, obs, tgt, seed, kappa=3.0, n_drp=50):
    obs, tgt = np.asarray(obs), np.asarray(tgt)
    ours = outcome(classify_pairs, state, stds, obs, tgt, seed, kappa, n_drp)
    ref = outcome(reference_classify, state, stds, obs, tgt, seed, kappa, n_drp)
    assert ours == ref
    np_rng = np.random.default_rng(seed)
    verdicts, sims = classifier_oracle.classify(
        state, stds, obs, tgt, np_rng, kappa=kappa, n_drp=n_drp
    )
    assert np_rng.bit_generator.state == ours[1]
    for ours_v, oracle_v, row in zip(ours[0], verdicts.tolist(), sims):
        if row is None or abs(row[0] - row[1]) > 1e-12:
            assert ours_v == oracle_v
    return ours[0]


#: Trust values with the window edges 0.0 and 1.0 well represented, so that
#: sampled drops get clipped at both ends.
values = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))

#: Standard clouds: expectation, entropy and hyper-entropy of each standard.
standard = st.tuples(
    st.floats(0.0, 1.0), st.floats(0.0, 0.5), st.floats(0.0, 0.2),
    st.floats(0.0, 1.0), st.floats(0.0, 0.5), st.floats(0.0, 0.2),
)


@st.composite
def batches(draw):
    n = draw(st.integers(2, 6))
    window = draw(st.integers(2, 6))
    state = TrustState(n, window)
    obs, tgt = np.nonzero(~np.eye(n, dtype=bool))
    for _ in range(window + draw(st.integers(0, 3))):
        batch = draw(st.lists(values, min_size=len(obs), max_size=len(obs)))
        record_trust(state, obs, tgt, batch)
    stds = np.array(draw(st.lists(standard, min_size=n, max_size=n)))
    rows = draw(st.lists(st.integers(0, len(obs) - 1), min_size=1, max_size=40))
    return state, stds, obs[rows], tgt[rows]


@settings(max_examples=300, deadline=None)
@given(
    batches(),
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.0, 0.05, 0.3, 3.0)),
    st.integers(1, 60),
)
def test_kernel_matches_reference(batch, seed, kappa, n_drp):
    state, stds, obs, tgt = batch
    assert_same(state, stds, obs, tgt, seed, kappa, n_drp)


def constant_state(value, window=4):
    """Observer 0 holds a constant window on target 1: en = he = 0."""
    state = TrustState(2, window)
    for _ in range(window):
        record_trust(state, [0], [1], [value])
    return state


def test_small_kappa_settles_rows_without_sampling():
    state = TrustState(3, 3)
    for v in (0.1, 0.15, 0.12):
        record_trust(state, [0, 0], [1, 2], [v, 1.0 - v])
    stds = np.array([[0.5, 0.01, 0.001, 0.6, 0.01, 0.001]] * 3)
    np_rng = np.random.default_rng(1)
    before = np_rng.bit_generator.state
    verdicts = classify_pairs(state, stds, [0, 0], [1, 2], np_rng, kappa=0.5, n_drp=50)
    assert verdicts.tolist() == [True, False]
    assert np_rng.bit_generator.state == before
    assert_same(state, stds, [0, 0], [1, 2], 1, kappa=0.5)


def test_zero_pooled_entropy_scores_the_limit():
    # Zero-entropy individual clouds put every drop on their expectation,
    # and zero-entropy standards score it 1 on a standard's expectation and
    # 0 elsewhere: a drop on neither ties, which breaks to malicious, even
    # at 0.8, next to the normal expectation 0.9.
    state = TrustState(5, 4)
    for _ in range(4):
        record_trust(state, [0, 0, 0, 0], [1, 2, 3, 4], [0.5, 0.9, 0.2, 0.8])
    stds = np.array([[0.2, 0.0, 0.0, 0.9, 0.0, 0.0]] * 5)
    verdicts = assert_same(state, stds, [0, 0, 0, 0], [1, 2, 3, 4], 3)
    assert verdicts == [True, False, True, True]


def test_zero_pooled_entropy_on_the_expectation_does_not_raise():
    # Every drop lands on the malicious expectation, where the membership is
    # 1.0 whatever the entropy, so the verdict is defined.
    state = constant_state(0.5)
    stds = np.array([[0.5, 0.0, 0.0, 0.9, 0.0, 0.0]] * 2)
    assert assert_same(state, stds, [0], [1], 3) == [True]


def test_zero_pooled_entropy_mixed_with_positive_rows():
    state = TrustState(3, 4)
    for v in (0.5, 0.5, 0.5, 0.5):
        record_trust(state, [0, 1], [1, 2], [v, v])
    for v in (0.55, 0.6, 0.65, 0.58):
        record_trust(state, [0], [2], [v])
    stds = np.array([
        [0.5, 0.0, 0.0, 0.7, 0.0, 0.0],
        [0.3, 0.05, 0.01, 0.5, 0.05, 0.01],
        [0.3, 0.05, 0.01, 0.8, 0.05, 0.01],
    ])
    assert assert_same(state, stds, [0, 1], [1, 2], 7) == [True, False]
    # Observer 0's drops on target 2 scatter off both expectations, where
    # its zero-entropy standards score 0: a tie, judged malicious.
    assert assert_same(state, stds, [0, 0], [1, 2], 7) == [True, True]


def test_underflowing_denominator_matches_reference():
    # 2 * sigma_s**2 underflows to 0.0 for a tiny but positive pooled
    # entropy; a drop on the expectation still scores 1.0 and the others 0.
    state = TrustState(2, 4)
    for v in (0.5, 0.5, 0.5, 0.52):
        record_trust(state, [0], [1], [v])
    tiny = 1e-170
    stds = np.array([[0.5, tiny, tiny, 0.52, tiny, tiny]] * 2)
    assert_same(state, stds, [0], [1], 11, kappa=0.0)
    assert_same(constant_state(0.5), stds, [0], [1], 11, kappa=0.0)
    # A drop within 1e-162 of the malicious expectation but not on it scores
    # the limit 0 under both standards, so the tie judges it malicious.
    stds = np.array([[0.0, tiny, 0.0, 0.9, tiny, 0.0]] * 2)
    verdicts = assert_same(constant_state(1e-200), stds, [0], [1], 11, kappa=0.0)
    assert verdicts == [True]


def test_missing_standard_clouds_raise():
    state = constant_state(0.5)
    stds = np.full((2, 6), np.nan)
    with pytest.raises(InsufficientEvidenceError):
        classify_pairs(
            state, stds, [0], [1], np.random.default_rng(0), kappa=3.0, n_drp=50
        )


def test_similarities_match_the_closed_form_without_hyper_entropy():
    # With he = 0 and no clipping, a drop is N(ex, en^2) and the pooled
    # dispersion is fixed at s = (en_m + en_n) / 2, so the mean membership
    # in a standard of expectation mu is
    # s / sqrt(s^2 + en^2) * exp(-(ex - mu)^2 / (2 (s^2 + en^2))).
    ex = np.array([0.5, 0.6, 0.45])
    en = np.array([0.1, 0.05, 0.08])
    stds = np.array([
        [0.5, 0.1, 0.0, 0.5, 0.1, 0.0],
        [0.3, 0.04, 0.0, 0.7, 0.08, 0.0],
        [0.35, 0.1, 0.0, 0.8, 0.02, 0.0],
    ])
    sims = similarities(ex, en, np.zeros(3), stds, np.random.default_rng(5), 200_000)
    for r in range(3):
        s = (stds[r, 1] + stds[r, 4]) / 2.0
        var = s * s + en[r] ** 2
        for sim, mu in zip(sims, stds[r, [0, 3]]):
            closed = s / math.sqrt(var) * math.exp(-((ex[r] - mu) ** 2) / (2.0 * var))
            assert abs(sim[r] - closed) <= 3e-3


def test_pooled_dispersion_keeps_a_tight_normal_standard_winning_at_its_center():
    # The individual cloud (0.8, 0.1, 0) sits on the tight normal standard's
    # center.  Under the raw law, each standard with its own dispersion, the
    # wide malicious standard outscores it (about 0.272 against 0.198), so
    # the target would be judged malicious; the pooled dispersion judges it
    # normal (about 0.025 against 0.851).
    individual = TrustCloud(0.8, 0.1, 0.0)
    malicious, normal = TrustCloud(0.3, 0.3, 0.0), TrustCloud(0.8, 0.02, 0.0)
    rng = Random(5)
    raw_m = similarity(individual, malicious, 20_000, rng)
    raw_n = similarity(individual, normal, 20_000, rng)
    assert raw_m > raw_n + 0.05

    # A window of two values at each of 0.8 -/+ a has en = sqrt(pi/2) a and
    # a negative radicand for he, clamped to 0.
    a = 0.1 / math.sqrt(math.pi / 2.0)
    state = TrustState(2, 4)
    for v in (0.8 - a, 0.8 - a, 0.8 + a, 0.8 + a):
        record_trust(state, [0], [1], [v])
    cloud = [c.item() for c in state.clouds([0], [1])]
    assert cloud == pytest.approx([0.8, 0.1, 0.0], abs=1e-12)
    stds = np.array([[0.3, 0.3, 0.0, 0.8, 0.02, 0.0]] * 2)
    verdict = classify_pairs(
        state, stds, [0], [1], np.random.default_rng(5), kappa=3.0, n_drp=20_000
    )
    assert verdict.tolist() == [False]
    sim_m, sim_n = similarities(
        np.array([0.8]), np.array([0.1]), np.zeros(1), stds[:1],
        np.random.default_rng(5), 20_000,
    )
    assert sim_n[0] > sim_m[0] + 0.5
