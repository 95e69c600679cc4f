import math
from random import Random

import numpy as np
import pytest

from trustcloudsim import engine, protocol
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.engine import (
    _confidence,
    _replica_metrics,
    build_scenario,
    cycle_table,
    derive_seed,
    metric_decision_accuracy,
    metric_malicious_clusters,
    metric_network_lifetime,
    metric_timely_rate,
    metric_total_attacks,
    replicate,
    run_metrics,
    run_simulation,
)
from trustcloudsim.errors import (
    ConfigError,
    ReplicationError,
    TrustCloudSimError,
    UndefinedMetricError,
)
from trustcloudsim.medium import ChannelPhase
from trustcloudsim.protocol import ADVANCED, GENERIC, HONEST, SUPER


def test_build_scenario_attacker_split():
    cfg = ScenarioConfig(device_count=100, malicious_fraction=0.2, seed=1)
    net = build_scenario(cfg, Random(1))
    by_class = {}
    for dev in net.devices:
        by_class[dev.attacker] = by_class.get(dev.attacker, 0) + 1
    assert by_class[HONEST] == 80
    assert by_class[GENERIC] == 6
    assert by_class[ADVANCED] == 8
    assert by_class[SUPER] == 6


def test_build_scenario_all_honest_and_bounds():
    cfg = ScenarioConfig(device_count=50, malicious_fraction=0.0, seed=2)
    net = build_scenario(cfg, Random(2))
    assert all(d.attacker == HONEST for d in net.devices)
    assert all(0 <= d.x <= 100 and 0 <= d.y <= 100 for d in net.devices)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ScenarioConfig(device_count=0).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(generic_share=0.5, advanced_share=0.5, super_share=0.5).validate()
    with pytest.raises(ConfigError):
        ScenarioConfig(alpha=0.9, beta=0.2).validate()
    # weights that sum to 1 but lie outside [0, 1]
    for alpha, beta in ((1.5, -0.5), (-0.5, 1.5)):
        with pytest.raises(ConfigError, match="must be in"):
            ScenarioConfig(alpha=alpha, beta=beta).validate()
    for field, value in (
        ("data_bits", -5), ("control_bits", -1), ("training_bits", -1),
        ("neighbor_radius", -3.0), ("max_dur", -1.0), ("monitor_seconds", -1.0),
        ("p_dp", 1.5), ("p_dp", -0.1), ("p_dy", 1.5), ("e0", -1.0),
        ("e_elec", -1e-9),
        # non-finite floats, which no range check below would catch
        ("area_width", math.nan), ("neighbor_radius", math.nan),
        ("generic_share", math.nan), ("sink_x", math.inf), ("sink_y", math.nan),
        ("kappa", -math.inf), ("e0", math.inf),
    ):
        with pytest.raises(ConfigError) as info:
            ScenarioConfig(**{field: value}).validate()
        assert field in str(info.value)


def small_cfg(**overrides):
    params = dict(device_count=40, area_width=80.0, area_height=80.0,
                  malicious_fraction=0.2, max_rounds=120, seed=9)
    params.update(overrides)
    return ScenarioConfig(**params)


def test_run_simulation_deterministic():
    cfg = small_cfg()
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert len(a.round_stats) == len(b.round_stats)
    for sa, sb in zip(a.round_stats, b.round_stats):
        assert sa == sb
    assert run_metrics(a) == run_metrics(b)


def test_metric_lifetime_censoring():
    log = run_simulation(small_cfg(max_rounds=40))
    lifetime, censored = metric_network_lifetime(log)
    assert censored and lifetime == 40

    lean = small_cfg(max_rounds=200, e0=0.05)
    lifetime2, censored2 = metric_network_lifetime(run_simulation(lean))
    assert not censored2
    assert 0 <= lifetime2 < 200


def test_metric_series_and_units():
    log = run_simulation(small_cfg(max_rounds=120))
    series = metric_malicious_clusters(log)
    assert len(series) == math.ceil(120 / log.config.rounds_per_cycle)
    assert 0.0 <= metric_timely_rate(log) <= 1.0
    assert 0.0 <= metric_decision_accuracy(log) <= 1.0
    assert metric_total_attacks(log) >= 0
    rows = cycle_table(log)
    assert [r["cycle"] for r in rows] == list(range(1, len(series) + 1))


def test_zero_malicious_run_has_no_attacks():
    log = run_simulation(small_cfg(malicious_fraction=0.0))
    assert metric_total_attacks(log) == 0


def test_undefined_metrics():
    cfg = small_cfg(max_rounds=1, phases=(ChannelPhase(1.0, 0.0, 0),))
    log = run_simulation(cfg)
    with pytest.raises(UndefinedMetricError):
        metric_timely_rate(log)
    with pytest.raises(UndefinedMetricError):
        metric_decision_accuracy(log)


def test_oracle_classifier_accuracy_is_one(monkeypatch):
    cfg = small_cfg()
    # run_simulation deploys the same devices from the same seed
    net = build_scenario(cfg, Random(cfg.seed))
    truth = np.array([d.is_malicious for d in net.devices], dtype=bool)

    def oracle(state, stds, observers, targets, *args, **kwargs):
        return truth[targets]

    monkeypatch.setattr(protocol, "classify_pairs", oracle)
    log = run_simulation(cfg)
    assert metric_decision_accuracy(log) == 1.0


def test_replicate_deterministic_metric_has_zero_width():
    cfg = small_cfg(malicious_fraction=0.0, max_rounds=60)
    summary = replicate(cfg, 3)
    attacks = summary.scalars["total_attacks"]
    assert attacks.mean == 0.0
    assert attacks.ci_low == attacks.ci_high == 0.0


def test_replicate_requires_two_runs():
    with pytest.raises(ConfigError):
        replicate(small_cfg(), 1)


def test_replicate_parallel_matches_serial():
    cfg = small_cfg(max_rounds=60)
    serial = replicate(cfg, 2, workers=1)
    parallel = replicate(cfg, 2, workers=2)
    for name in serial.scalars:
        assert serial.scalars[name].values == parallel.scalars[name].values


def test_replicate_failure_names_the_replica(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("classifier exploded")

    monkeypatch.setattr(protocol, "classify_pairs", broken)
    cfg = small_cfg(max_rounds=60, malicious_fraction=0.3)
    with pytest.raises(TrustCloudSimError) as info:
        replicate(cfg, 2)
    message = str(info.value)
    assert f"seed {derive_seed(cfg.seed, 0)}" in message
    assert "malicious fraction 0.3" in message
    assert "classifier exploded" in message
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.parametrize("workers", [1, 2])
def test_replicate_keeps_the_finished_replicas(monkeypatch, workers):
    cfg = small_cfg(max_rounds=80)
    finished = {i: _replica_metrics(cfg, i) for i in (0, 2)}
    assert not any(math.isnan(v) for m, _ in finished.values() for v in m.values())
    bad_seed = derive_seed(cfg.seed, 1)
    real = engine.run_simulation

    def flaky(run_cfg, **kwargs):
        if run_cfg.seed == bad_seed:
            raise RuntimeError("replica exploded")
        return real(run_cfg, **kwargs)

    monkeypatch.setattr(engine, "run_simulation", flaky)
    with pytest.raises(ReplicationError) as info:
        replicate(cfg, 3, workers=workers)
    message = str(info.value)
    assert message.startswith("replica 1 ")
    assert f"seed {bad_seed}" in message
    assert f"malicious fraction {cfg.malicious_fraction}" in message
    assert "RuntimeError: replica exploded" in message
    assert "replica 0" not in message and "replica 2" not in message
    assert info.value.results == finished
    if workers == 1:
        assert isinstance(info.value.__cause__, RuntimeError)


def test_confidence_interval_scaling():
    rng = Random(13)
    values = [rng.gauss(5.0, 1.0) for _ in range(400)]
    half = _confidence(values[:200])
    full = _confidence(values)
    width_half = half.ci_high - half.ci_low
    width_full = full.ci_high - full.ci_low
    assert 0.55 < width_full / width_half < 0.9  # about 1/sqrt(2)


def test_derive_seed_distinct():
    seeds = {derive_seed(1, i) for i in range(100)}
    seeds |= {derive_seed(2, i) for i in range(100)}
    assert len(seeds) == 200
