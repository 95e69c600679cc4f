import math
from random import Random

import numpy as np
import pytest
from cloud_oracle import channel_ok
from device_oracle import DeviceState
from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim.errors import DomainError
from trustcloudsim.medium import (
    ChannelPhase,
    EnergyParams,
    aggregate_energy,
    charge,
    monitor_energy,
    overhear_energy,
    rx_energy,
    spend,
    stationary_bad_prob,
    tx_energy,
)

REL = 1e-9


def test_stationary_bad_prob_values():
    assert stationary_bad_prob(1, 9) == pytest.approx(0.1, rel=REL)
    assert stationary_bad_prob(3, 7) == pytest.approx(0.3, rel=REL)
    assert stationary_bad_prob(4.2, 4.2) == pytest.approx(0.5, rel=REL)
    with pytest.raises(DomainError):
        stationary_bad_prob(0, 0)
    with pytest.raises(DomainError):
        ChannelPhase(0.0, 0.0)


def test_channel_extremes():
    rng = Random(2)
    clear = ChannelPhase(0.0, 1.0)
    jammed = ChannelPhase(1.0, 0.0)
    assert all(channel_ok(clear, rng) for _ in range(200))
    assert not any(channel_ok(jammed, rng) for _ in range(200))


def test_channel_empirical_fraction():
    rng = Random(17)
    phase = ChannelPhase(1, 9)
    n = 100_000
    bad = sum(0 if channel_ok(phase, rng) else 1 for _ in range(n))
    assert abs(bad / n - 0.1) < 0.01


def test_tx_energy_values():
    p = EnergyParams()
    assert tx_energy(3000, 0.0, p) == pytest.approx(1.5e-4, rel=REL)
    assert tx_energy(300, 25.0, p) == pytest.approx(1.6875e-5, rel=REL)


def test_tx_energy_continuous_at_crossover():
    p = EnergyParams()
    d0 = p.crossover_distance
    assert d0 == pytest.approx(math.sqrt(10e-12 / 0.0013e-12), rel=REL)
    free_space = 300 * p.e_elec + 300 * p.eps_fs * d0**2
    multipath = 300 * p.e_elec + 300 * p.eps_amp * d0**4
    assert free_space == pytest.approx(multipath, rel=1e-9)
    assert tx_energy(300, d0, p) == pytest.approx(multipath, rel=REL)


def test_tx_energy_monotone_in_distance():
    p = EnergyParams()
    prev = -1.0
    for step in range(0, 300):
        e = tx_energy(1000, step * 0.5, p)
        assert e >= prev
        prev = e


def test_simple_energy_terms():
    p = EnergyParams()
    assert rx_energy(3000, p) == pytest.approx(1.5e-4, rel=REL)
    assert overhear_energy(3000, p) == pytest.approx(1.5e-5, rel=REL)
    assert aggregate_energy(3000, 2, p) == pytest.approx(3e-5, rel=REL)
    assert monitor_energy(0.0, p) == 0.0
    assert monitor_energy(2.0, p) == pytest.approx(2e-8, rel=REL)


def test_energy_params_validation():
    with pytest.raises(DomainError):
        EnergyParams(e_elec=-1.0)
    with pytest.raises(DomainError):
        tx_energy(10, -1.0, EnergyParams())


@st.composite
def charges(draw):
    """Levels, alive flags, distinct live ids and their costs (a scalar or
    one per id); levels of 0.0, exact multiples of a cost and values below
    it are all common."""
    unit = draw(st.sampled_from((2.0**-20, 1e-4, 3.7e-5, 0.1)))
    amounts = st.one_of(
        st.just(0.0), st.integers(0, 4).map(lambda k: k * unit),
        st.floats(0.0, 4 * unit),
    )
    level = draw(st.lists(amounts, min_size=1, max_size=30))
    alive = draw(st.lists(st.booleans(), min_size=len(level), max_size=len(level)))
    live = [i for i, a in enumerate(alive) if a]
    ids = draw(st.lists(st.sampled_from(live), unique=True)) if live else []
    cost = draw(st.one_of(
        amounts, st.lists(amounts, min_size=len(ids), max_size=len(ids))
    ))
    return level, alive, ids, cost


@settings(max_examples=500, deadline=None)
@given(charges())
def test_charge_matches_sequential_spend(case):
    level, alive, ids, cost = case
    costs = cost if isinstance(cost, list) else [cost] * len(ids)
    # the device objects the simulator charged before, and spend on lists
    devices = [
        DeviceState(id=i, x=0.0, y=0.0, energy=e, alive=a)
        for i, (e, a) in enumerate(zip(level, alive))
    ]
    seq_level, seq_alive = list(level), list(alive)
    for i, c in zip(ids, costs):
        assert spend(seq_level, seq_alive, i, c) == devices[i].spend(c)
    assert np.array(seq_level).tobytes() == np.array(
        [d.energy for d in devices]
    ).tobytes()
    assert seq_alive == [d.alive for d in devices]

    vec_level, vec_alive = np.array(level), np.array(alive)
    charge(vec_level, vec_alive, np.array(ids, dtype=np.intp),
           np.array(cost) if isinstance(cost, list) else cost)
    assert vec_level.tobytes() == np.array(seq_level).tobytes()
    assert vec_alive.tolist() == seq_alive
