from random import Random

import numpy as np
import pytest

from trustcloudsim.cloud import DropSet, TrustCloud
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.errors import DomainError, NoNeighborError
from trustcloudsim.medium import ChannelPhase
from trustcloudsim.protocol import DeviceState
from trustcloudsim.training import (
    StandardClouds,
    TrainingState,
    merge_recommendations,
    run_training_round,
    training_complete,
    training_step,
)

CLEAR = ChannelPhase(0.0, 1.0)
JAMMED = ChannelPhase(1.0, 0.0)
DEFAULT = ChannelPhase(1.0, 9.0)

CFG = ScenarioConfig()
MAX_TR = CFG.max_tr
ROUND = dict(
    n_f=CFG.n_f, p_dp=CFG.p_dp, p_dy=CFG.p_dy, max_dur=CFG.max_dur,
    bits=CFG.training_bits,
)


def new_state(**progress):
    return TrainingState(DropSet(CFG.max_drp), DropSet(CFG.max_drp), **progress)


def devices(n, spacing=5.0):
    return [DeviceState(id=i, x=i * spacing, y=0.0, energy=1.0) for i in range(n)]


def test_training_step_builds_clouds_at_capacity():
    state = new_state()
    for _ in range(4):
        training_step(state, [0.3] * 20, [0.8] * 20, max_tr=MAX_TR)
    assert not state.initial_built
    training_step(state, [0.3] * 20, [0.8] * 20, max_tr=MAX_TR)
    assert state.initial_built
    assert state.stc_m.ex == pytest.approx(0.3)
    assert state.stc_n.ex == pytest.approx(0.8)
    assert state.rounds_done == 5


def test_training_step_rejected_after_max_rounds():
    state = new_state(rounds_done=20)
    with pytest.raises(DomainError):
        training_step(state, [0.5], [0.5], max_tr=MAX_TR)


def test_training_complete_rules():
    ordered = new_state(
        rounds_done=6,
        initial_built=True,
        stc_m=TrustCloud(0.3, 0.1, 0.0),
        stc_n=TrustCloud(0.8, 0.1, 0.0),
    )
    assert training_complete(ordered, max_tr=MAX_TR)

    inverted = new_state(
        rounds_done=10,
        initial_built=True,
        stc_m=TrustCloud(0.8, 0.1, 0.0),
        stc_n=TrustCloud(0.3, 0.1, 0.0),
    )
    assert not training_complete(inverted, max_tr=MAX_TR)

    forced = new_state(rounds_done=20)
    assert training_complete(forced, max_tr=MAX_TR)


def test_training_terminates_within_max_rounds():
    state = new_state()
    rounds = 0
    while not training_complete(state, max_tr=MAX_TR):
        # adversarial drops that never produce an ordered boundary
        training_step(state, [0.9] * 20, [0.1] * 20, max_tr=MAX_TR)
        rounds += 1
        assert rounds <= 20
    assert rounds == 20


def test_merge_recommendations():
    own = StandardClouds(TrustCloud(0.3, 0.1, 0.02), TrustCloud(0.8, 0.1, 0.02))
    assert merge_recommendations(own, []) == own

    other = StandardClouds(TrustCloud(0.5, 0.2, 0.04), TrustCloud(0.6, 0.2, 0.04))
    merged = merge_recommendations(own, [other])
    assert merged.malicious.ex == pytest.approx(0.4)
    assert merged.malicious.en == pytest.approx(0.15)
    assert merged.malicious.he == pytest.approx(0.03)

    same = merge_recommendations(own, [own, own])
    assert same.malicious.ex == pytest.approx(own.malicious.ex)
    assert same.normal.en == pytest.approx(own.normal.en)


def test_merge_permutation_invariant():
    rng = Random(4)
    clouds = [
        StandardClouds(
            TrustCloud(rng.random(), rng.random(), rng.random()),
            TrustCloud(rng.random(), rng.random(), rng.random()),
        )
        for _ in range(5)
    ]
    own = clouds[0]
    received = clouds[1:]
    a = merge_recommendations(own, received)
    b = merge_recommendations(own, list(reversed(received)))
    assert a.malicious.ex == pytest.approx(b.malicious.ex, rel=1e-12)
    assert a.normal.he == pytest.approx(b.normal.he, rel=1e-12)


def test_run_training_round_requires_two_neighbors():
    devs = devices(2)
    with pytest.raises(NoNeighborError):
        run_training_round(devs[0], devs[1:], DEFAULT, Random(1), **ROUND)


def test_run_training_round_perfect_channel_normal_label():
    devs = devices(4)
    malicious, normal = run_training_round(
        devs[0], devs[1:], CLEAR, Random(2), **dict(ROUND, p_dp=0.0, p_dy=0.0)
    )
    # no loss, no retransmission, no role-played attacks: perfect evidence
    assert len(normal) == 20
    assert all(v >= 0.9 - 1e-12 for v in normal)
    assert all(v >= 0.9 - 1e-12 for v in malicious)


def test_run_training_round_jammed_channel_indistinguishable():
    devs = devices(4)
    malicious, normal = run_training_round(
        devs[0], devs[1:], JAMMED, Random(3), **ROUND
    )
    # nothing is ever overheard: both labels collapse to the same evidence
    assert malicious == normal
    assert all(v <= 0.2 for v in malicious)


def test_run_training_round_label_separation_majority():
    devs = devices(5)
    wins = 0
    for seed in range(100):
        malicious, normal = run_training_round(
            devs[0], devs[1:], DEFAULT, Random(seed), **ROUND
        )
        if sum(malicious) / len(malicious) < sum(normal) / len(normal):
            wins += 1
    assert wins > 50


def test_training_boundary_holds_across_seeds():
    from random import Random

    from trustcloudsim.config import ScenarioConfig
    from trustcloudsim.engine import build_scenario, run_training_phase

    satisfied = total = 0
    for seed in range(50):
        cfg = ScenarioConfig(device_count=100, malicious_fraction=0.2, seed=seed)
        net = build_scenario(cfg, Random(seed))
        run_training_phase(net, Random(seed))
        trained = net.std_table[~np.isnan(net.std_table[:, 0])]
        total += len(trained)
        # columns 0 and 3: the malicious and the normal expectation
        satisfied += np.count_nonzero(trained[:, 0] < trained[:, 3])
    assert total > 0
    assert satisfied / total >= 0.95
