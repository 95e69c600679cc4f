from random import Random

import numpy as np
import pytest

from trustcloudsim.cloud import TrustCloud
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.engine import build_scenario, run_training_phase
from trustcloudsim.medium import ChannelPhase
from trustcloudsim.protocol import (
    ClusterRoundOutcome,
    DeviceState,
    choose_heads,
    decide_head,
    election_threshold,
    is_eligible,
    run_data_phase,
    run_round,
)
from trustcloudsim.runtime import (
    TrustState,
    classify_pairs,
    record_trust,
    standard_table,
)
from trustcloudsim.training import StandardClouds

REL = 1e-9
CFG = ScenarioConfig()


def test_election_threshold_values():
    assert election_threshold(0, 0.07) == pytest.approx(0.07, rel=REL)
    assert election_threshold(14, 0.07) == pytest.approx(1.0, rel=REL)  # capped
    assert election_threshold(1, 0.5) == pytest.approx(1.0, rel=REL)


def test_decide_head_eligibility():
    rng = Random(1)
    dev = DeviceState(id=0, x=0, y=0, energy=1.0, last_head_round=5)
    assert not any(decide_head(dev, r, rng, p_ch=0.07, epoch=15) for r in range(6, 20))
    # eligible with threshold capped at 1: always heads
    dev2 = DeviceState(id=1, x=0, y=0, energy=1.0)
    assert decide_head(dev2, 14, Random(2), p_ch=0.07, epoch=15)
    assert dev2.last_head_round == 14


def test_decide_head_fraction():
    rng = Random(3)
    devs = [DeviceState(id=i, x=0, y=0, energy=1.0) for i in range(300)]
    heads = sum(decide_head(d, 0, rng, p_ch=0.07, epoch=15) for d in devs)
    assert 0.03 < heads / 300 < 0.12


def margin_stds():
    # margins fire deterministically: no similarity sampling involved
    return StandardClouds(TrustCloud(0.5, 0.05, 0.01), TrustCloud(0.9, 0.02, 0.01))


def make_member(mid=0):
    return DeviceState(id=mid, x=0.0, y=0.0, energy=1.0)


def candidate(cid, x, trust_values, member, trust):
    head = DeviceState(id=cid, x=x, y=0.0, energy=1.0)
    for v in trust_values:
        record_trust(trust, [member.id], [cid], [v])
    return head


def choose(member, candidates, trust, *, r=0, epoch=15):
    """The member's (kind, head), classified and chosen as run_round does."""
    obs = np.full(len(candidates), member.id, dtype=np.intp)
    tgt = np.array([h.id for h, _ in candidates], dtype=np.intp)
    judged = trust.full[obs, tgt]
    table = standard_table([margin_stds()] * len(trust.count))
    malicious = np.zeros(len(candidates), dtype=bool)
    malicious[judged] = classify_pairs(
        trust, table, obs[judged], tgt[judged], np.random.default_rng(1),
        kappa=CFG.kappa, n_drp=CFG.n_drp,
    )
    dist = np.array([d for _, d in candidates], dtype=float)
    joiners, heads = choose_heads(trust, obs, tgt, dist, judged, malicious)
    if len(joiners):
        assert joiners.tolist() == [member.id]
        return ("join", int(heads[0]))
    if is_eligible(member, r, epoch):
        return ("become_head", None)
    return ("sink", None)


def test_choose_cluster_nearest_normal():
    member = make_member()
    trust = TrustState(4, CFG.thr_drp)
    near = candidate(1, 10.0, [0.99] * 20, member, trust)   # margin-normal
    far = candidate(2, 20.0, [0.99] * 20, member, trust)
    choice = choose(member, [(near, 10.0), (far, 20.0)], trust)
    assert choice == ("join", 1)


def test_choose_cluster_all_malicious_becomes_head():
    member = make_member()
    trust = TrustState(4, CFG.thr_drp)
    bad = candidate(1, 10.0, [0.05] * 20, member, trust)    # margin-malicious
    choice = choose(member, [(bad, 10.0)], trust)
    assert choice == ("become_head", None)
    # ineligible member falls back to the sink
    member2 = make_member(3)
    bad2 = candidate(1, 10.0, [0.05] * 20, member2, trust)
    member2.last_head_round = 0
    choice2 = choose(member2, [(bad2, 10.0)], trust, r=3)
    assert choice2 == ("sink", None)


def test_choose_cluster_prefers_fresh_candidate_without_clouds():
    member = make_member()
    trust = TrustState(4, CFG.thr_drp)
    known = candidate(1, 10.0, [0.8] * 5, member, trust)    # recorded, no cloud yet
    fresh = DeviceState(id=2, x=15.0, y=0.0, energy=1.0)
    choice = choose(member, [(known, 10.0), (fresh, 15.0)], trust)
    assert choice == ("join", 2)


def test_choose_cluster_highest_mean_when_all_interacted():
    member = make_member()
    trust = TrustState(4, CFG.thr_drp)
    low = candidate(1, 10.0, [0.4] * 5, member, trust)
    high = candidate(2, 20.0, [0.9] * 5, member, trust)
    choice = choose(member, [(low, 10.0), (high, 20.0)], trust)
    assert choice == ("join", 2)


def test_choose_cluster_no_candidates():
    member = make_member()
    assert choose(member, [], TrustState(4, CFG.thr_drp)) == ("become_head", None)


def small_net(cfg=None, **overrides):
    params = dict(device_count=12, area_width=60.0, area_height=60.0,
                  malicious_fraction=0.0, seed=3, max_rounds=50)
    params.update(overrides)
    cfg = ScenarioConfig(**params)
    return build_scenario(cfg, Random(cfg.seed))


def test_run_data_phase_honest_perfect_channel():
    net = small_net()
    clusters = {0: [d.id for d in net.devices[1:6]]}
    outcome = ClusterRoundOutcome(round_index=0)
    evidence = run_data_phase(
        net, clusters, ChannelPhase(0.0, 1.0), np.random.default_rng(4), outcome
    )
    assert evidence.observer.tolist() == clusters[0]
    assert evidence.head.tolist() == [0] * 5
    for counts in (evidence.sent, evidence.forwarded, evidence.timely):
        assert counts.tolist() == [5] * 5
    assert all(t.outcome == "timely" for t in outcome.transfers)


def test_run_data_phase_super_attack_drop_fraction():
    cfg = ScenarioConfig(device_count=12, area_width=60.0, area_height=60.0,
                         malicious_fraction=0.0, seed=3, max_rounds=50)
    net = build_scenario(cfg, Random(cfg.seed))
    head = net.devices[0]
    head.attacker = "super"
    members = [d.id for d in net.devices[1:11]]
    rng = np.random.default_rng(99)
    received = dropped = 0
    for _ in range(10_000):
        outcome = ClusterRoundOutcome(round_index=0)
        run_data_phase(net, {0: members}, ChannelPhase(0.0, 1.0), rng, outcome)
        for t in outcome.transfers:
            received += t.received
            dropped += t.attack_drop
        for d in net.devices:
            d.energy = 1.0
            d.alive = True
    assert received == 100_000
    assert abs(dropped / received - 0.30) < 0.01


def test_run_data_phase_depleted_member_sends_nothing():
    net = small_net()
    net.devices[1].energy = 0.0
    net.devices[1].alive = False
    clusters = {0: [1, 2, 3]}
    outcome = ClusterRoundOutcome(round_index=0)
    run_data_phase(net, clusters, ChannelPhase(0.0, 1.0), np.random.default_rng(4), outcome)
    senders = {t.member for t in outcome.transfers}
    assert 1 not in senders and {2, 3} <= senders


def test_run_round_zero_alive():
    net = small_net()
    for d in net.devices:
        d.alive = False
    np_rng = np.random.default_rng(1)
    out = run_round(net, 0, Random(1), np_rng, np_rng)
    assert out.clusters == {} and out.transfers == []
    assert len(out.decisions.observer) == 0


def test_run_round_all_recently_heads_direct_to_sink():
    net = small_net()
    for d in net.devices:
        d.last_head_round = 0
    np_rng = np.random.default_rng(1)
    out = run_round(net, 1, Random(1), np_rng, np_rng)
    assert out.clusters == {}
    assert sorted(out.direct_to_sink) == [d.id for d in net.devices]


def test_run_round_accounting_invariants():
    cfg = ScenarioConfig(device_count=40, area_width=80.0, area_height=80.0,
                         malicious_fraction=0.2, seed=6, max_rounds=60)
    net = build_scenario(cfg, Random(cfg.seed))
    run_training_phase(net, Random(cfg.seed + 1))
    rng = Random(10)
    np_rng = np.random.default_rng(10)
    prev_energy = {d.id: d.energy for d in net.devices}
    head_rounds: dict[int, list[int]] = {}
    for r in range(60):
        out = run_round(net, r, rng, np_rng, np_rng)
        counted = sum(1 for t in out.transfers if t.outcome in ("timely", "delayed", "dropped"))
        assert counted == len(out.transfers)
        for h in out.clusters:
            head_rounds.setdefault(h, []).append(r)
        for d in net.devices:
            assert d.energy <= prev_energy[d.id] + 1e-15
            prev_energy[d.id] = d.energy
    epoch = net.epoch
    for rounds in head_rounds.values():
        for a, b in zip(rounds, rounds[1:]):
            assert b - a >= epoch


def test_run_round_detects_malicious_around_round_60():
    # The election rotation leaves some rounds headless (threshold bursts at
    # the end of each eligibility cycle), so the check covers the rounds
    # around 60 rather than that single round.
    hits = 0
    for seed in range(20):
        cfg = ScenarioConfig(device_count=100, malicious_fraction=0.2,
                             seed=seed, max_rounds=66)
        net = build_scenario(cfg, Random(cfg.seed))
        run_training_phase(net, Random(cfg.seed))
        rng = Random(cfg.seed)
        np_rng = np.random.default_rng(cfg.seed)
        is_malicious = np.array([d.is_malicious for d in net.devices])
        flagged = False
        for r in range(66):
            out = run_round(net, r, rng, np_rng, np_rng)
            if 55 <= r <= 65:
                caught = out.decisions.malicious & is_malicious[out.decisions.target]
                flagged |= bool(caught.any())
        hits += flagged
    assert hits > 10
