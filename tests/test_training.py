import copy
import math
from random import Random
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim.cloud import DropSet, TrustCloud
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.errors import DomainError, NoNeighborError
from trustcloudsim.fuzzy import (
    EvidenceWindow,
    ForwardingEvent,
    compute_attributes,
    infer_trust,
    record_event,
)
from trustcloudsim.medium import (
    ChannelPhase,
    EnergyParams,
    channel_ok,
    overhear_energy,
    rx_energy,
    tx_energy,
)
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


def reference_training_round(
    initiator,
    neighborhood: Sequence,
    channel: ChannelPhase,
    rng: Random,
    *,
    n_f: int,
    p_dp: float,
    p_dy: float,
    max_dur: float,
    bits: int,
    energy: Optional[EnergyParams] = None,
) -> tuple[list[float], list[float]]:
    """run_training_round as it was written per packet, kept as the reference.

    It builds an EvidenceWindow per packet, charges through a closure and
    calls tx_energy per transmission; the one change from that code is that
    a window's trust comes from the scalar infer_trust directly.
    """
    candidates = [d for d in neighborhood if d.alive and d.id != initiator.id]
    if len(candidates) < 2:
        raise NoNeighborError(
            f"device {initiator.id}: no router/destination pair in range"
        )
    candidates.sort(key=lambda d: d.id)
    router, dest = rng.sample(candidates, 2)
    d_ij = math.hypot(initiator.x - router.x, initiator.y - router.y)
    d_jk = math.hypot(router.x - dest.x, router.y - dest.y)

    def pay(device, cost: float) -> bool:
        return device.spend(cost) if energy is not None else True

    def trust_of(window: EvidenceWindow) -> float:
        return infer_trust(compute_attributes(window))

    def send_to_router() -> bool:
        if not pay(initiator, tx_energy(bits, d_ij, energy) if energy else 0.0):
            return False
        if not channel_ok(channel, rng):
            return False
        return pay(router, rx_energy(bits, energy) if energy else 0.0)

    def forward_once(delayed: bool) -> tuple[ForwardingEvent, bool]:
        if not pay(router, tx_energy(bits, d_jk, energy) if energy else 0.0):
            return ForwardingEvent.DROPPED, False
        delivered = channel_ok(channel, rng)
        if delivered:
            pay(dest, rx_energy(bits, energy) if energy else 0.0)
        if channel_ok(channel, rng):
            pay(initiator, overhear_energy(bits, energy) if energy else 0.0)
            event = (
                ForwardingEvent.FORWARDED_DELAYED
                if delayed
                else ForwardingEvent.FORWARDED_TIMELY
            )
        else:
            event = ForwardingEvent.DROPPED
        return event, delivered

    malicious_values: list[float] = []
    window = EvidenceWindow()
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if not send_to_router():
            event = ForwardingEvent.DROPPED
        elif rng.random() < p_dp:
            event = ForwardingEvent.DROPPED
        elif rng.random() < p_dy:
            rng.uniform(0.0, max_dur)  # attack delay duration, within the slot
            event, _ = forward_once(delayed=True)
        else:
            event, _ = forward_once(delayed=False)
        window = record_event(window, event)
        malicious_values.append(trust_of(window))

    normal_values: list[float] = []
    window = EvidenceWindow()
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if not send_to_router():
            window = record_event(window, ForwardingEvent.DROPPED)
            normal_values.append(trust_of(window))
            continue
        first, delivered = forward_once(delayed=False)
        reply_seen = False
        if delivered:
            pay(dest, tx_energy(bits, d_jk, energy) if energy else 0.0)
            reply_seen = channel_ok(channel, rng)
            if reply_seen:
                pay(router, rx_energy(bits, energy) if energy else 0.0)
        event = first
        if not reply_seen:
            retrans, _ = forward_once(delayed=True)
            if first is ForwardingEvent.DROPPED:
                event = retrans
        window = record_event(window, event)
        normal_values.append(trust_of(window))

    return malicious_values, normal_values


ENERGY = EnergyParams()
#: The smallest charge of a training round (an overhearing) at training bits.
OVERHEAR = overhear_energy(CFG.training_bits, ENERGY)

probability = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
channels = st.one_of(
    st.sampled_from([CLEAR, JAMMED]),
    st.builds(ChannelPhase, st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
)
# From empty to a few dozen overhearings deep (one transmission is ten or
# more), exact multiples included, so that any role can die mid-label.
energies = st.one_of(
    st.just(1.0),
    st.integers(0, 60).map(lambda k: k * OVERHEAR),
    st.floats(0.0, 60 * OVERHEAR),
)


@st.composite
def training_rounds(draw):
    size = draw(st.integers(2, 6))
    devs = [
        DeviceState(
            id=i,
            x=draw(st.floats(0.0, 40.0)),
            y=draw(st.floats(0.0, 40.0)),
            energy=draw(energies),
        )
        for i in range(size)
    ]
    for dev in devs:
        # about one neighbour in five dead; the initiator trains while alive
        dev.alive = dev.energy > 0.0 and draw(st.integers(0, 4)) > 0
    devs[0].alive = devs[0].energy > 0.0
    kwargs = dict(
        n_f=draw(st.integers(0, 25)),
        p_dp=draw(probability),
        p_dy=draw(probability),
        max_dur=draw(st.floats(0.0, 20.0)),
        bits=draw(st.sampled_from([CFG.training_bits, 1, 3000])),
        energy=draw(st.sampled_from([None, ENERGY])),
    )
    return devs, draw(channels), draw(st.integers(0, 2**32)), kwargs


@settings(max_examples=400, deadline=None)
@given(training_rounds())
def test_training_round_matches_reference(case):
    devs, channel, seed, kwargs = case
    outcomes = []
    for run in (reference_training_round, run_training_round):
        mine = copy.deepcopy(devs)
        rng = Random(seed)
        try:
            result = run(mine[0], mine[1:], channel, rng, **kwargs)
        except NoNeighborError:
            result = NoNeighborError
        outcomes.append(
            (result, [(d.energy, d.alive) for d in mine], rng.getstate())
        )
    assert outcomes[0] == outcomes[1]


def test_training_round_matches_reference_when_roles_die():
    # Exactly enough energy for a few packets: the router dies first, then
    # the initiator, mid-label, on a lossy channel with attacks.
    for seed in range(200):
        devs = devices(4)
        for dev, packets in zip(devs, (30, 7, 4, 12)):
            dev.energy = packets * OVERHEAR * 10
        outcomes = []
        for run in (reference_training_round, run_training_round):
            mine = copy.deepcopy(devs)
            rng = Random(seed)
            result = run(
                mine[0], mine[1:], DEFAULT, rng, **dict(ROUND, energy=ENERGY)
            )
            outcomes.append(
                (result, [(d.energy, d.alive) for d in mine], rng.getstate())
            )
        assert outcomes[0] == outcomes[1]
        assert not all(alive for _, alive in outcomes[0][1])
