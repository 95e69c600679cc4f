"""Scenario construction, the two-phase run lifecycle, metrics, replication.

A run builds the network from a scenario config, executes the cooperative
training phase for every device, then steps the clustering protocol until the
round budget is spent or the network dies.  The metrics log carries enough
per-round detail to compute the five evaluation metrics and the CSV tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import Optional

import numpy as np

from .config import ScenarioConfig, with_overrides
from .errors import (
    ConfigError,
    ReplicationError,
    UndefinedMetricError,
)
from .medium import monitor_energy
from .normals import ClassifierNormals
from .protocol import (
    ADVANCED,
    GENERIC,
    HONEST,
    SUPER,
    DeviceState,
    NetworkState,
    run_round,
)
from .runtime import standard_table
from .training import StandardClouds, merge_recommendations, run_training_round, train

ATTACKER_ORDER = (GENERIC, ADVANCED, SUPER)


@dataclass
class RoundStats:
    """Aggregates of one protocol round."""

    round_index: int
    bad_prob: float
    alive: int
    honest_alive: int
    heads: int
    clusters_with_members: int
    malicious_clusters: int
    packets_sent: int
    packets_received: int
    timely: int
    delayed: int
    dropped: int
    attack_drops: int
    attack_delays: int
    direct_to_sink: int
    decisions: int
    correct_decisions: int
    #: decisions that judged the target malicious
    malicious_verdicts: int


@dataclass
class TrainingReport:
    device: int
    rounds_used: int
    boundary_ok: bool
    forced: bool
    clouds: Optional[StandardClouds]


@dataclass
class MetricsLog:
    """Everything recorded about one simulation run."""

    config: ScenarioConfig
    attacker_class: dict[int, str]
    training: list[TrainingReport]
    round_stats: list[RoundStats] = field(default_factory=list)
    death_round: dict[int, int] = field(default_factory=dict)

    @property
    def rounds_completed(self) -> int:
        return len(self.round_stats)


def _largest_remainder(total: int, shares: tuple[float, ...]) -> list[int]:
    quotas = [total * s for s in shares]
    counts = [int(math.floor(q)) for q in quotas]
    remainder = total - sum(counts)
    order = sorted(range(len(shares)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def build_scenario(cfg: ScenarioConfig, rng: Random) -> NetworkState:
    """Deploy devices uniformly at random and assign attacker classes."""
    cfg.validate()
    n = cfg.device_count
    devices = []
    for dev_id in range(n):
        x = rng.uniform(0.0, cfg.area_width)
        y = rng.uniform(0.0, cfg.area_height)
        devices.append(DeviceState(id=dev_id, x=x, y=y, energy=cfg.e0))
    n_mal = int(round(cfg.malicious_fraction * n))
    if n_mal > n:
        raise ConfigError("malicious count exceeds device count")
    malicious_ids = sorted(rng.sample(range(n), n_mal)) if n_mal else []
    counts = _largest_remainder(
        n_mal, (cfg.generic_share, cfg.advanced_share, cfg.super_share)
    )
    cursor = 0
    for klass, count in zip(ATTACKER_ORDER, counts):
        for dev_id in malicious_ids[cursor : cursor + count]:
            devices[dev_id].attacker = klass
        cursor += count
    return NetworkState(cfg, devices)


def run_training_phase(net: NetworkState, rng: Random) -> list[TrainingReport]:
    """Train every device's standard clouds, then merge neighborhood averages.

    Attackers behave honestly here: the deployment window is assumed clean.
    A device with too few neighbors to stage a route stops immediately and
    relies on received recommendations, if any.
    """
    cfg = net.cfg
    phase = net.phase_for(0)
    monitor_cost = monitor_energy(cfg.monitor_seconds, net.energy)
    # every device's neighbors, in id order
    neighbor_ids = [np.flatnonzero(row).tolist() for row in net.neighbor_mask]
    reports = []
    for dev in net.devices:
        neighborhood = [net.devices[i] for i in neighbor_ids[dev.id]]
        play_round = partial(
            run_training_round,
            dev,
            neighborhood,
            phase,
            rng,
            n_f=cfg.n_f,
            p_dp=cfg.p_dp,
            p_dy=cfg.p_dy,
            max_dur=cfg.max_dur,
            bits=cfg.training_bits,
            energy=net.energy,
        )
        rounds, clouds = train(
            dev,
            play_round,
            max_drp=cfg.max_drp,
            max_tr=cfg.max_tr,
            monitor_cost=monitor_cost,
        )
        boundary_ok = clouds is not None and clouds.malicious.ex < clouds.normal.ex
        reports.append(
            TrainingReport(
                device=dev.id,
                rounds_used=rounds,
                boundary_ok=boundary_ok,
                forced=not boundary_ok,
                clouds=clouds,
            )
        )

    # Every trained device recommends its clouds to neighbors; each device
    # averages its own, if any, with everything received.
    published = [rep.clouds for rep in reports]
    merged = []
    for dev in net.devices:
        ids = [dev.id, *neighbor_ids[dev.id]]
        clouds = [published[i] for i in ids if published[i] is not None]
        merged.append(merge_recommendations(clouds[0], clouds[1:]) if clouds else None)
    net.std_table = standard_table(merged)
    net.mark_deaths(0)
    return reports


def run_simulation(cfg: ScenarioConfig) -> MetricsLog:
    """Execute one full run: training, then rounds until budget or death."""
    cfg.validate()
    rng = Random(cfg.seed)
    np_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    net = build_scenario(cfg, rng)
    training = run_training_phase(net, rng)
    log = MetricsLog(
        config=cfg,
        attacker_class={d.id: d.attacker for d in net.devices},
        training=training,
    )
    is_malicious = np.array([d.is_malicious for d in net.devices], dtype=bool)
    # The helper drawing the classifier's normals ahead, if one starts,
    # lives only as long as the rounds.
    with ClassifierNormals(cfg.seed) as normals:
        for r in range(cfg.max_rounds):
            if net.alive_count() == 0:
                break
            outcome = run_round(net, r, rng, np_rng, normals)
            phase = net.phase_for(r)
            received, timely, delayed = outcome.packets
            with_members = [
                h for h, members in outcome.clusters.items() if members
            ]
            malicious_clusters = sum(
                1 for h in with_members if net.devices[h].is_malicious
            )
            verdicts = outcome.decisions.malicious
            correct = np.count_nonzero(
                verdicts == is_malicious[outcome.decisions.target]
            )
            log.round_stats.append(
                RoundStats(
                    round_index=r,
                    bad_prob=phase.bad_prob,
                    alive=net.alive_count(),
                    honest_alive=sum(
                        1 for d in net.devices if d.alive and not d.is_malicious
                    ),
                    heads=len(outcome.clusters),
                    clusters_with_members=len(with_members),
                    malicious_clusters=malicious_clusters,
                    packets_sent=len(outcome.transfers),
                    packets_received=received,
                    timely=timely,
                    delayed=delayed,
                    dropped=len(outcome.transfers) - timely - delayed,
                    attack_drops=outcome.attack_drops,
                    attack_delays=outcome.attack_delays,
                    direct_to_sink=len(outcome.direct_to_sink),
                    decisions=len(verdicts),
                    correct_decisions=int(correct),
                    malicious_verdicts=int(np.count_nonzero(verdicts)),
                )
            )
    log.death_round = {
        d.id: d.death_round for d in net.devices if d.death_round is not None
    }
    return log


# --- metrics ---------------------------------------------------------------


def metric_network_lifetime(log: MetricsLog) -> tuple[int, bool]:
    """Round of the first honest device death, or (max rounds, censored)."""
    honest_deaths = [
        r
        for dev, r in log.death_round.items()
        if log.attacker_class[dev] == HONEST
    ]
    if honest_deaths:
        return min(honest_deaths), False
    return log.config.max_rounds, True


def metric_timely_rate(log: MetricsLog) -> float:
    """Immediately forwarded packets over packets a head accepted to forward."""
    needing = sum(s.packets_received for s in log.round_stats)
    if needing == 0:
        raise UndefinedMetricError("no packets required forwarding")
    timely = sum(s.timely for s in log.round_stats)
    return timely / needing


def metric_decision_accuracy(log: MetricsLog) -> float:
    total = sum(s.decisions for s in log.round_stats)
    if total == 0:
        raise UndefinedMetricError("no classification decisions were emitted")
    correct = sum(s.correct_decisions for s in log.round_stats)
    return correct / total


def metric_total_attacks(log: MetricsLog) -> int:
    return sum(s.attack_drops + s.attack_delays for s in log.round_stats)


def metric_malicious_clusters(log: MetricsLog) -> list[float]:
    """Per-cycle mean count of clusters whose head is malicious."""
    cycle = log.config.rounds_per_cycle
    out = []
    for start in range(0, len(log.round_stats), cycle):
        chunk = log.round_stats[start : start + cycle]
        out.append(sum(s.malicious_clusters for s in chunk) / len(chunk))
    return out


def cycle_table(log: MetricsLog) -> list[dict]:
    """Per-cycle aggregate rows for reporting."""
    cycle = log.config.rounds_per_cycle
    rows = []
    for i, start in enumerate(range(0, len(log.round_stats), cycle)):
        chunk = log.round_stats[start : start + cycle]
        decisions = sum(s.decisions for s in chunk)
        received = sum(s.packets_received for s in chunk)
        rows.append(
            {
                "cycle": i + 1,
                "rounds": len(chunk),
                "malicious_clusters": sum(s.malicious_clusters for s in chunk)
                / len(chunk),
                "accuracy": (
                    sum(s.correct_decisions for s in chunk) / decisions
                    if decisions
                    else float("nan")
                ),
                "timely_rate": (
                    sum(s.timely for s in chunk) / received if received else float("nan")
                ),
                "attacks": sum(s.attack_drops + s.attack_delays for s in chunk),
                "alive": chunk[-1].alive,
            }
        )
    return rows


# --- replication -----------------------------------------------------------

SCALAR_METRICS = ("network_lifetime", "timely_rate", "decision_accuracy",
                  "total_attacks")


@dataclass
class MetricSummary:
    mean: float
    ci_low: float
    ci_high: float
    values: list[float]


@dataclass
class ReplicationSummary:
    scalars: dict[str, MetricSummary]
    malicious_clusters_series: list[float]
    censored_lifetimes: int
    n_runs: int


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based split of the master seed into per-run seeds."""
    return master_seed * 1_000_003 + index


def _confidence(values: list[float]) -> MetricSummary:
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        half = 1.96 * math.sqrt(var / n)
    else:
        half = 0.0
    return MetricSummary(mean, mean - half, mean + half, list(values))


def run_metrics(log: MetricsLog) -> dict[str, float]:
    """All scalar metrics of one run; undefined ones surface as NaN."""
    lifetime, censored = metric_network_lifetime(log)
    out = {
        "network_lifetime": float(lifetime),
        "lifetime_censored": float(censored),
        "total_attacks": float(metric_total_attacks(log)),
    }
    for name, fn in (
        ("timely_rate", metric_timely_rate),
        ("decision_accuracy", metric_decision_accuracy),
    ):
        try:
            out[name] = fn(log)
        except UndefinedMetricError:
            out[name] = float("nan")
    return out


def _replica_metrics(cfg: ScenarioConfig, index: int) -> tuple[dict, list[float]]:
    """(metrics, malicious-cluster series) of replica ``index``."""
    run_cfg = with_overrides(cfg, seed=derive_seed(cfg.seed, index))
    log = run_simulation(run_cfg)
    return run_metrics(log), metric_malicious_clusters(log)


def _cause(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _pooled_replica(cfg: ScenarioConfig, index: int):
    """_replica_metrics in a worker process; a failure returns its cause.

    ``starmap`` stops at the first worker that raises, so a failure comes
    back as a value and every other replica still runs to the end.
    """
    try:
        return _replica_metrics(cfg, index)
    except Exception as exc:
        return _cause(exc)


def replicate(
    cfg: ScenarioConfig,
    n_runs: int,
    *,
    workers: int = 1,
) -> ReplicationSummary:
    """Independent seeded runs with normal-approximation 95% intervals.

    Replications share no state, so they may fan out over worker processes;
    aggregation is ordered by run index either way.  Every replica runs to
    the end; if any failed, a ReplicationError names each failed replica's
    index, seed, malicious fraction and cause, and carries the finished
    replicas' results.
    """
    if n_runs < 2:
        raise ConfigError("replication needs at least 2 runs")
    first_error: Optional[Exception] = None
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, n_runs)) as pool:
            results = pool.starmap(
                _pooled_replica, [(cfg, i) for i in range(n_runs)]
            )
    else:
        results = []
        for i in range(n_runs):
            try:
                results.append(_replica_metrics(cfg, i))
            except Exception as exc:
                first_error = first_error or exc
                results.append(_cause(exc))

    failed = [i for i, result in enumerate(results) if isinstance(result, str)]
    if failed:
        raise ReplicationError(
            "; ".join(
                f"replica {i} (seed {derive_seed(cfg.seed, i)}, malicious "
                f"fraction {cfg.malicious_fraction}) failed: {results[i]}"
                for i in failed
            ),
            {i: r for i, r in enumerate(results) if not isinstance(r, str)},
        ) from first_error

    per_metric: dict[str, list[float]] = {m: [] for m in SCALAR_METRICS}
    censored = 0
    series_sums: list[float] = []
    series_counts: list[int] = []
    for metrics, series in results:
        censored += int(metrics["lifetime_censored"])
        for name in SCALAR_METRICS:
            per_metric[name].append(metrics[name])
        for j, v in enumerate(series):
            if j >= len(series_sums):
                series_sums.append(0.0)
                series_counts.append(0)
            series_sums[j] += v
            series_counts[j] += 1
    return ReplicationSummary(
        scalars={m: _confidence(vs) for m, vs in per_metric.items()},
        malicious_clusters_series=[
            s / c for s, c in zip(series_sums, series_counts)
        ],
        censored_lifetimes=censored,
        n_runs=n_runs,
    )
