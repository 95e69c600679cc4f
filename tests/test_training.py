import copy
import math
from collections import deque
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

import numpy as np
import pytest
from cloud_oracle import channel_ok
from device_oracle import DeviceState, network, state
from hypothesis import given, settings
from hypothesis import strategies as st
from trust_oracle import scalar_trust

from trustcloudsim.cloud import TrustCloud, backward_cloud
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.errors import DomainError, NoNeighborError
from trustcloudsim.medium import (
    ChannelPhase,
    EnergyParams,
    overhear_energy,
    rx_energy,
    tx_energy,
)
from trustcloudsim.training import (
    StandardClouds,
    merge_recommendations,
    run_training_round,
    train,
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


def devices(n, spacing=5.0):
    return [DeviceState(id=i, x=i * spacing, y=0.0, energy=1.0) for i in range(n)]


def play(run, devs, channel, rng, **kwargs):
    """A training round of devs[0] among devs[1:], charged on list copies
    of the arrays of a network of them (``run_training_round``) or on the
    objects (the reference); returns (drops, (levels, alive flags))."""
    if run is not run_training_round:
        result = run(devs[0], devs[1:], channel, rng, energy=ENERGY, **kwargs)
        return result, state(devs)
    net = network(CFG, devs)
    level, alive = state(net)
    ids = [d.id for d in devs]
    result = run(net, level, alive, ids[0], ids[1:], channel, rng, **kwargs)
    return result, (level, alive)


class Rounds:
    """A stub labeling round: plays the given rounds in turn, counting calls.

    An entry is a (malicious, normal) pair of drop lists, or an exception
    to raise.
    """

    def __init__(self, rounds):
        self.rounds = list(rounds)
        self.calls = 0

    def __call__(self):
        entry = self.rounds[self.calls]
        self.calls += 1
        if isinstance(entry, Exception):
            raise entry
        return entry


def train_with(rounds, *, level=None, alive=None, max_drp=CFG.max_drp,
               max_tr=MAX_TR, monitor_cost=0.0):
    level, alive = level or [1.0], alive or [True]
    play = Rounds(rounds)
    used, clouds = train(
        level, alive, 0, play, max_drp=max_drp, max_tr=max_tr,
        monitor_cost=monitor_cost,
    )
    return used, clouds, play.calls


def test_training_step_builds_clouds_at_capacity():
    # four rounds of 20 drops leave the 100-drop lists short of full
    used, clouds, _ = train_with([([0.3] * 20, [0.8] * 20)] * 4, max_tr=4)
    assert (used, clouds) == (4, None)
    used, clouds, _ = train_with([([0.3] * 20, [0.8] * 20)] * MAX_TR)
    assert clouds.malicious.ex == pytest.approx(0.3)
    assert clouds.normal.ex == pytest.approx(0.8)
    assert used == 5


def test_training_complete_rules():
    # ordered clouds end training on the round that builds them
    used, clouds, calls = train_with([([0.3] * 100, [0.8] * 100)] * MAX_TR)
    assert (used, calls) == (1, 1)
    assert clouds.malicious.ex < clouds.normal.ex

    # inverted clouds keep it going, rebuilt every round, to the last round
    rounds = [([0.8] * 100, [0.3] * 100)] * 9 + [([0.6] * 100, [0.5] * 100)] * 11
    used, clouds, calls = train_with(rounds)
    assert (used, calls) == (MAX_TR, MAX_TR)
    assert clouds.malicious.ex == pytest.approx(0.6)
    assert clouds.normal.ex == pytest.approx(0.5)

    # no round at all once the rounds are exhausted
    assert train_with([], max_tr=0) == (0, None, 0)

    # a device without a route stops at once, one that dies after paying
    used, clouds, calls = train_with([NoNeighborError("alone")])
    assert (used, clouds, calls) == (0, None, 1)
    alive = [True]
    used, clouds, calls = train_with(
        [([0.8] * 100, [0.3] * 100)] * MAX_TR, level=[3.0], alive=alive,
        monitor_cost=1.0,
    )
    assert (used, calls, alive[0]) == (3, 3, False)
    assert clouds.malicious.ex == pytest.approx(0.8)


def test_training_terminates_within_max_rounds():
    # adversarial drops that never produce an ordered boundary
    used, clouds, calls = train_with([([0.9] * 20, [0.1] * 20)] * MAX_TR)
    assert used == calls == 20
    assert clouds.malicious.ex > clouds.normal.ex


def test_train_keeps_the_last_drops():
    # each round's drops are a rising run, so the lists' content shows in ex
    rounds = [([r / 100] * 30, [0.5 + r / 100] * 30) for r in range(10)]
    used, clouds, _ = train_with(rounds, max_drp=50, max_tr=2)
    assert used == 2
    assert clouds.malicious == backward_cloud([0.0] * 20 + [0.01] * 30)
    assert clouds.normal == backward_cloud([0.5] * 20 + [0.51] * 30)


def test_train_rejects_drops_out_of_range_once_full():
    with pytest.raises(DomainError):
        train_with([([1.5] * 100, [0.5] * 100)])


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
        play(run_training_round, devs, DEFAULT, Random(1), **ROUND)


def test_run_training_round_perfect_channel_normal_label():
    devs = devices(4)
    (malicious, normal), _ = play(
        run_training_round, devs, CLEAR, Random(2), **dict(ROUND, p_dp=0.0, p_dy=0.0)
    )
    # no loss, no retransmission, no role-played attacks: perfect evidence
    assert len(normal) == 20
    assert all(v >= 0.9 - 1e-12 for v in normal)
    assert all(v >= 0.9 - 1e-12 for v in malicious)


def test_run_training_round_jammed_channel_indistinguishable():
    devs = devices(4)
    (malicious, normal), _ = play(run_training_round, devs, JAMMED, Random(3), **ROUND)
    # nothing is ever overheard: both labels collapse to the same evidence
    assert malicious == normal
    assert all(v <= 0.2 for v in malicious)


def test_run_training_round_label_separation_majority():
    devs = devices(5)
    wins = 0
    for seed in range(100):
        (malicious, normal), _ = play(
            run_training_round, devs, DEFAULT, Random(seed), **ROUND
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


TIMELY, DELAYED, DROPPED = "forwarded timely", "forwarded delayed", "dropped"


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
    energy: EnergyParams,
) -> tuple[list[float], list[float]]:
    """run_training_round as it was written per packet, kept as the reference.

    It records each packet's outcome in the label's (sent, forwarded,
    timely) window, charges through a closure and calls tx_energy per
    transmission; a window's trust comes from the scalar oracle.
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
        return device.spend(cost)

    def record(window: tuple[int, int, int], event: str) -> tuple[int, int, int]:
        sent, forwarded, timely = window
        return sent + 1, forwarded + (event != DROPPED), timely + (event == TIMELY)

    def send_to_router() -> bool:
        if not pay(initiator, tx_energy(bits, d_ij, energy)):
            return False
        if not channel_ok(channel, rng):
            return False
        return pay(router, rx_energy(bits, energy))

    def forward_once(delayed: bool) -> tuple[str, bool]:
        if not pay(router, tx_energy(bits, d_jk, energy)):
            return DROPPED, False
        delivered = channel_ok(channel, rng)
        if delivered:
            pay(dest, rx_energy(bits, energy))
        if channel_ok(channel, rng):
            pay(initiator, overhear_energy(bits, energy))
            event = DELAYED if delayed else TIMELY
        else:
            event = DROPPED
        return event, delivered

    malicious_values: list[float] = []
    window = (0, 0, 0)
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if not send_to_router():
            event = DROPPED
        elif rng.random() < p_dp:
            event = DROPPED
        elif rng.random() < p_dy:
            rng.uniform(0.0, max_dur)  # attack delay duration, within the slot
            event, _ = forward_once(delayed=True)
        else:
            event, _ = forward_once(delayed=False)
        window = record(window, event)
        malicious_values.append(scalar_trust(*window))

    normal_values: list[float] = []
    window = (0, 0, 0)
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if not send_to_router():
            window = record(window, DROPPED)
            normal_values.append(scalar_trust(*window))
            continue
        first, delivered = forward_once(delayed=False)
        reply_seen = False
        if delivered:
            pay(dest, tx_energy(bits, d_jk, energy))
            reply_seen = channel_ok(channel, rng)
            if reply_seen:
                pay(router, rx_energy(bits, energy))
        event = first
        if not reply_seen:
            retrans, _ = forward_once(delayed=True)
            if first == DROPPED:
                event = retrans
        window = record(window, event)
        normal_values.append(scalar_trust(*window))

    return malicious_values, normal_values


ENERGY = CFG.energy_params()
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
            result, levels = play(run, mine, channel, rng, **kwargs)
        except NoNeighborError:
            result, levels = NoNeighborError, state(mine)
        outcomes.append((result, levels, rng.getstate()))
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
            result, levels = play(run, mine, DEFAULT, rng, **ROUND)
            outcomes.append((result, levels, rng.getstate()))
        assert outcomes[0] == outcomes[1]
        assert not all(outcomes[0][1][1])


class ReferenceDropSet:
    """The drop window training kept before ``train``: a bounded deque."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise DomainError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._drops = deque(maxlen=capacity)

    def add(self, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"drop must be in [0, 1], got {value}")
        self._drops.append(value)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._drops)

    @property
    def full(self) -> bool:
        return len(self._drops) >= self.capacity


@dataclass
class ReferenceTrainingState:
    malicious_drops: ReferenceDropSet
    normal_drops: ReferenceDropSet
    rounds_done: int = 0
    initial_built: bool = False
    stc_m: Optional[TrustCloud] = None
    stc_n: Optional[TrustCloud] = None


def reference_training_step(state, malicious_values, normal_values, *, max_tr):
    if state.rounds_done >= max_tr:
        raise DomainError(f"training already ran the maximum {max_tr} rounds")
    for v in malicious_values:
        state.malicious_drops.add(v)
    for v in normal_values:
        state.normal_drops.add(v)
    if state.malicious_drops.full and state.normal_drops.full:
        state.stc_m = backward_cloud(state.malicious_drops.values)
        state.stc_n = backward_cloud(state.normal_drops.values)
        state.initial_built = True
    state.rounds_done += 1
    return state


def reference_training_complete(state, *, max_tr):
    if state.rounds_done >= max_tr:
        return True
    if not state.initial_built:
        return False
    return state.stc_m.ex < state.stc_n.ex


def reference_train(device, play_round, *, max_drp, max_tr, monitor_cost):
    """One device's training as the engine ran it before ``train``.

    Returns (rounds used, clouds, boundary_ok) as the training report had
    them.
    """
    state = ReferenceTrainingState(
        ReferenceDropSet(max_drp), ReferenceDropSet(max_drp)
    )
    while device.alive and not reference_training_complete(state, max_tr=max_tr):
        try:
            malicious, normal = play_round()
        except NoNeighborError:
            break
        reference_training_step(state, malicious, normal, max_tr=max_tr)
        device.spend(monitor_cost)
    boundary_ok = (
        state.initial_built
        and state.stc_m is not None
        and state.stc_m.ex < state.stc_n.ex
    )
    clouds = (
        StandardClouds(state.stc_m, state.stc_n) if state.initial_built else None
    )
    return state.rounds_done, clouds, boundary_ok


@st.composite
def trainings(draw):
    """A device, its labeling rounds and the training bounds.

    A round returns 0 to n_f drops a label (a role that dies mid-label
    returns fewer), or has no route to stage; drops are on a coarse grid so
    that the two expectations often tie or cross.
    """
    n_f = draw(st.integers(0, 25))
    drops = st.lists(
        st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(0.0, 1.0)),
        max_size=n_f,
    )
    rounds = draw(st.lists(
        st.one_of(st.tuples(drops, drops), st.just(NoNeighborError("no route"))),
        min_size=26, max_size=26,
    ))
    # up to a few dozen monitoring charges deep, exact multiples included
    energy = draw(st.one_of(
        st.just(1.0), st.integers(1, 30).map(float), st.floats(0.0, 30.0),
    ))
    bounds = dict(
        max_drp=draw(st.integers(2, 120)),
        max_tr=draw(st.integers(0, 25)),
        monitor_cost=draw(st.sampled_from([0.0, 1.0])),
    )
    return energy, rounds, bounds


@settings(max_examples=400, deadline=None)
@given(trainings())
def test_train_matches_reference(case):
    energy, rounds, bounds = case
    outcomes = []
    # the reference charges a device object, train the entries of two lists
    device = DeviceState(id=0, x=0.0, y=0.0, energy=energy, alive=energy > 0.0)
    rounds_played = Rounds(rounds)
    result = reference_train(device, rounds_played, **bounds)
    outcomes.append((result, rounds_played.calls, device.energy, device.alive))
    level, alive = [energy], [energy > 0.0]
    rounds_played = Rounds(rounds)
    used, clouds = train(level, alive, 0, rounds_played, **bounds)
    result = (
        used, clouds, clouds is not None and clouds.malicious.ex < clouds.normal.ex,
    )
    outcomes.append((result, rounds_played.calls, level[0], alive[0]))
    assert outcomes[0] == outcomes[1]
