import math
from random import Random

import pytest

from trustcloudsim.errors import DomainError
from trustcloudsim.medium import (
    ChannelPhase,
    EnergyParams,
    aggregate_energy,
    channel_ok,
    monitor_energy,
    overhear_energy,
    rx_energy,
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
