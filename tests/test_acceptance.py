"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The replicated default sweep (five malicious fractions x twenty seeds) is
computed once and shared by the trend criteria and the wall-clock budget.
"""

import math
import time
from random import Random

import pytest

from trustcloudsim.cli import main
from trustcloudsim.cloud import TrustCloud, backward_cloud, generate_drop, similarity
from trustcloudsim.config import ScenarioConfig, with_overrides
from trustcloudsim.engine import (
    metric_decision_accuracy,
    metric_malicious_clusters,
    metric_timely_rate,
    metric_total_attacks,
    replicate,
    run_simulation,
)
from trustcloudsim.medium import ChannelPhase, EnergyParams, channel_ok, \
    stationary_bad_prob, tx_energy
from trustcloudsim.protocol import NetworkState, elect_heads, election_threshold
from trustcloudsim.runtime import recommend_trust, update_standard_cloud

SWEEP_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5)
SWEEP_SEEDS = 20
WORKERS = 2


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_sweep():
    """Replicated sweep over the default malicious fractions, plus its wall time."""
    cfg = ScenarioConfig(seed=1)
    start = time.monotonic()
    summaries = {}
    for fraction in SWEEP_FRACTIONS:
        run_cfg = with_overrides(cfg, malicious_fraction=fraction)
        summaries[fraction] = replicate(run_cfg, SWEEP_SEEDS, workers=WORKERS)
    elapsed = time.monotonic() - start
    return summaries, elapsed


def test_equation_oracles_exact():
    start = time.monotonic()
    rel = 1e-9

    cloud = backward_cloud([0.2, 0.4, 0.6, 0.8])
    en = math.sqrt(math.pi / 2) * 0.2
    ok = (
        math.isclose(cloud.ex, 0.5, rel_tol=rel)
        and math.isclose(cloud.en, en, rel_tol=rel)
        and math.isclose(cloud.he, math.sqrt(0.2 / 3 - en * en), rel_tol=rel)
    )
    flat = backward_cloud([0.4, 0.4, 0.6, 0.6])
    ok &= flat.he == 0.0 and math.isclose(
        flat.en, math.sqrt(math.pi / 2) * 0.1, rel_tol=rel
    )
    const = backward_cloud([0.5] * 4)
    ok &= const == TrustCloud(0.5, 0.0, 0.0)

    ok &= math.isclose(recommend_trust(0.0, 0.9, 0.8), 0.72, rel_tol=rel)
    ok &= math.isclose(recommend_trust(0.6, 0.9, 0.8), 1.32 / 1.8, rel_tol=rel)
    ok &= math.isclose(recommend_trust(0.6, 0.3, 0.0), 0.6, rel_tol=rel)

    updated = update_standard_cloud(
        TrustCloud(0.5, 0.1, 0.02), TrustCloud(0.4, 0.2, 0.04), 0.8, 0.2
    )
    ok &= (
        math.isclose(updated.ex, 0.48, rel_tol=rel)
        and math.isclose(updated.en, 0.12, rel_tol=rel)
        and math.isclose(updated.he, 0.024, rel_tol=rel)
    )
    prior = TrustCloud(0.5, 0.1, 0.02)
    same = update_standard_cloud(prior, prior, 0.8, 0.2)
    ok &= (
        math.isclose(same.ex, prior.ex, rel_tol=rel)
        and math.isclose(same.en, prior.en, rel_tol=rel)
        and math.isclose(same.he, prior.he, rel_tol=rel)
    )
    ok &= update_standard_cloud(prior, TrustCloud(0.4, 0.2, 0.04), 1.0, 0.0) == prior

    ok &= math.isclose(election_threshold(0, 0.07), 0.07, rel_tol=rel)
    ok &= election_threshold(14, 0.07) == 1.0
    ok &= math.isclose(election_threshold(1, 0.5), 1.0, rel_tol=rel)

    ok &= math.isclose(stationary_bad_prob(1, 9), 0.1, rel_tol=rel)
    ok &= math.isclose(stationary_bad_prob(3, 7), 0.3, rel_tol=rel)
    ok &= math.isclose(stationary_bad_prob(2.5, 2.5), 0.5, rel_tol=rel)

    p = EnergyParams()
    ok &= math.isclose(tx_energy(3000, 0.0, p), 1.5e-4, rel_tol=rel)
    ok &= math.isclose(tx_energy(300, 25.0, p), 1.6875e-5, rel_tol=rel)
    d0 = p.crossover_distance
    ok &= math.isclose(
        300 * p.e_elec + 300 * p.eps_fs * d0**2,
        300 * p.e_elec + 300 * p.eps_amp * d0**4,
        rel_tol=1e-9,
    )

    elapsed = time.monotonic() - start
    report("equation oracles exact to 1e-9", ok and elapsed < 1.0,
           f"elapsed {elapsed:.3f}s")


def test_cloud_roundtrip_recovery():
    rng = Random(2024)
    worst_ex = worst_en = 0.0
    ok = True
    for _ in range(20):
        ex = rng.uniform(0.3, 0.7)
        en = rng.uniform(0.02, 0.09)
        he = rng.uniform(0.0, en / 3)
        cloud = TrustCloud(ex, en, he)
        drops = [generate_drop(cloud, rng) for _ in range(10_000)]
        est = backward_cloud(drops)
        worst_ex = max(worst_ex, abs(est.ex - ex))
        worst_en = max(worst_en, abs(est.en - en) / en)
        ok &= abs(est.ex - ex) <= 0.01 and abs(est.en - en) / en <= 0.05
    report("cloud roundtrip (ex +/-0.01, en +/-5%)", ok,
           f"worst ex err {worst_ex:.4f}, worst en rel err {worst_en:.3f}")


def test_similarity_closed_form():
    c = TrustCloud(0.5, 0.1, 0.0)
    sim = similarity(c, c, 100_000, Random(77))
    err = abs(sim - 1 / math.sqrt(2))
    report("self-similarity = 1/sqrt(2) +/- 0.02", err <= 0.02, f"err {err:.4f}")


def test_channel_stationarity():
    ok = True
    details = []
    for alpha0, alpha1 in ((1, 9), (2, 8), (3, 7)):
        phase = ChannelPhase(alpha0, alpha1)
        rng = Random(alpha0 * 1000)
        n = 1_000_000
        bad = sum(0 if channel_ok(phase, rng) else 1 for _ in range(n))
        err = abs(bad / n - phase.bad_prob)
        details.append(f"({alpha0},{alpha1}) err {err:.4f}")
        ok &= err <= 0.005
    report("channel stationarity +/-0.005 over 1e6 draws", ok, "; ".join(details))


def test_election_fairness():
    fractions = []
    ok = True
    for seed in range(SWEEP_SEEDS):
        rng = Random(seed)
        cfg = ScenarioConfig(device_count=100, p_ch=0.07)
        net = NetworkState(cfg, [0.0] * 100, [0.0] * 100, ["honest"] * 100)
        epoch = math.ceil(1 / 0.07)
        history: dict[int, list[int]] = {i: [] for i in range(100)}
        head_count = 0
        for r in range(200):
            for h in elect_heads(net, r, rng).tolist():
                history[h].append(r)
                head_count += 1
        for rounds in history.values():
            for a, b in zip(rounds, rounds[1:]):
                ok &= b - a >= epoch
        fractions.append(head_count / (200 * 100))
    mean_fraction = sum(fractions) / len(fractions)
    ok &= abs(mean_fraction - 0.07) <= 0.02
    report("election fairness (unique per epoch, fraction 0.07 +/- 0.02)",
           ok, f"mean head fraction {mean_fraction:.4f}")


def test_fig4_malicious_clusters_trend(default_sweep):
    summaries, _ = default_sweep
    series = summaries[0.2].malicious_clusters_series
    cycles = len(series)
    from_ten = series[9:]
    quarter = series[-max(cycles // 4, 1):]
    ok = all(v < 0.5 for v in from_ten)
    quarter_mean = sum(quarter) / len(quarter)
    ok &= quarter_mean <= 0.1
    report(
        "malicious clusters: below 0.5 from cycle 10, none left in final quarter",
        ok,
        f"cycle10+ max {max(from_ten):.3f}, final-quarter mean {quarter_mean:.3f}",
    )


def test_fig5_accuracy_trend(default_sweep):
    summaries, _ = default_sweep
    accs = [summaries[f].scalars["decision_accuracy"].mean for f in SWEEP_FRACTIONS]
    monotone = all(b <= a + 1e-12 for a, b in zip(accs, accs[1:]))
    floor = accs[-1] >= 0.75
    detail = " ".join(f"{f}:{a:.3f}" for f, a in zip(SWEEP_FRACTIONS, accs))
    report("accuracy monotone non-increasing, >= 0.75 at 50% malicious",
           monotone and floor, detail)


def test_fig8_timely_rate_trend(default_sweep):
    summaries, _ = default_sweep
    rates = [summaries[f].scalars["timely_rate"].mean for f in SWEEP_FRACTIONS]
    ok = rates[0] < 0.90
    ok &= all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
    ok &= 0.75 <= rates[-1] <= 0.95
    detail = " ".join(f"{f}:{r:.3f}" for f, r in zip(SWEEP_FRACTIONS, rates))
    report("timely rate < 0.90 at 10%, monotone, in [0.75, 0.95] at 50%", ok, detail)


def test_fig6_attacks_direction(default_sweep):
    summaries, _ = default_sweep
    attacks = [summaries[f].scalars["total_attacks"].mean for f in SWEEP_FRACTIONS]
    ok = all(b > a for a, b in zip(attacks, attacks[1:]))
    at_half = summaries[0.5].scalars["total_attacks"]
    # absolute count at 50% is logged for comparison only, not asserted
    detail = (
        " ".join(f"{f}:{a:.0f}" for f, a in zip(SWEEP_FRACTIONS, attacks))
        + f"; at 0.5: {at_half.mean:.0f} CI [{at_half.ci_low:.0f}, {at_half.ci_high:.0f}]"
    )
    report("total attacks strictly increasing in malicious fraction", ok, detail)


def test_fig9_lifetime_directions():
    base = ScenarioConfig(seed=5, max_rounds=900, malicious_fraction=0.3)
    dense = with_overrides(base, device_count=150)
    wide = with_overrides(base, area_width=140.0, area_height=140.0)

    life = {}
    for name, cfg in (("base", base), ("dense", dense), ("wide", wide)):
        life[name] = replicate(cfg, 10, workers=WORKERS).scalars[
            "network_lifetime"
        ].mean
    ok = life["dense"] < life["base"] and life["wide"] < life["base"]
    report(
        "lifetime decreases with device count and with area",
        ok,
        f"base {life['base']:.0f}, +devices {life['dense']:.0f}, +area {life['wide']:.0f}",
    )


def test_zero_adversary_sanity():
    cfg = ScenarioConfig(
        device_count=60,
        max_rounds=200,
        malicious_fraction=0.0,
        phases=(ChannelPhase(0.0, 1.0, 0),),
        seed=5,
    )
    log = run_simulation(cfg)
    attacks = metric_total_attacks(log)
    timely = metric_timely_rate(log)
    decisions = sum(s.decisions for s in log.round_stats)
    malicious_verdicts = sum(s.malicious_verdicts for s in log.round_stats)
    ok = attacks == 0 and timely == 1.0 and decisions > 0 and malicious_verdicts == 0
    report(
        "zero adversary: no attacks, all-normal decisions, timely rate 1",
        ok,
        f"attacks {attacks}, timely {timely}, decisions {decisions}, "
        f"malicious verdicts {malicious_verdicts}",
    )


def test_csv_determinism(tmp_path):
    cfg_file = tmp_path / "scenario.ini"
    cfg_file.write_text(
        "[scenario]\ndevices = 40\nwidth_m = 80\nheight_m = 80\n"
        "malicious_fraction = 0.2\nmax_rounds = 100\nseed = 11\n"
    )
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", str(cfg_file), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_file), "--out", str(out2)]) == 0
    ok = True
    for name in ("rounds.csv", "cycles.csv", "summary.txt", "manifest.json"):
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report("same seed reproduces byte-identical outputs", ok)


def test_sweep_wall_clock(default_sweep):
    _, elapsed = default_sweep
    report(
        "default sweep (5 fractions x 20 seeds) within 10 minutes",
        elapsed <= 600.0,
        f"elapsed {elapsed:.0f}s",
    )
