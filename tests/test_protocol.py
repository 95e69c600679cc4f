import math
from random import Random

import numpy as np
import pytest
from device_oracle import DeviceState, clusters_of, is_eligible

from trustcloudsim.cloud import TrustCloud
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.engine import build_scenario, run_training_phase
from trustcloudsim.medium import ChannelPhase, rx_energy, tx_energy
from trustcloudsim.protocol import (
    ClusterRoundOutcome,
    NetworkState,
    choose_heads,
    elect_heads,
    election_threshold,
    exchange_recommendations,
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


def at_origin(n):
    """A network of n devices at the origin, electing with p_ch = 0.07."""
    cfg = ScenarioConfig(device_count=n, p_ch=0.07)
    return NetworkState(cfg, [0.0] * n, [0.0] * n, ["honest"] * n)


def test_decide_head_eligibility():
    rng = Random(1)
    net = at_origin(1)
    assert net.epoch == 15
    net.eligible_from[0] = 5 + net.epoch  # headed in round 5
    assert not any(len(elect_heads(net, r, rng)) for r in range(6, 20))
    # eligible with threshold capped at 1: always heads
    net = at_origin(2)
    assert elect_heads(net, 14, Random(2)).tolist() == [0, 1]
    assert net.eligible_from[1] == 14 + net.epoch
    assert net.level[1] == 1.0 - net.announce_tx


def test_decide_head_fraction():
    rng = Random(3)
    heads = len(elect_heads(at_origin(300), 0, rng))
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
    judged = trust.count[obs, tgt] >= trust.window
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
    clusters = {0: list(range(1, 6))}
    outcome = ClusterRoundOutcome(round_index=0)
    evidence = run_data_phase(
        net, clusters_of(clusters), ChannelPhase(0.0, 1.0),
        np.random.default_rng(4), outcome,
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
    net.attacker[0] = "super"
    clusters = clusters_of({0: range(1, 11)})
    rng = np.random.default_rng(99)
    received = dropped = 0
    for _ in range(10_000):
        outcome = ClusterRoundOutcome(round_index=0)
        run_data_phase(net, clusters, ChannelPhase(0.0, 1.0), rng, outcome)
        for t in outcome.transfers:
            received += t.received
            dropped += t.attack_drop
        net.level[:] = 1.0
        net.alive[:] = True
    assert received == 100_000
    assert abs(dropped / received - 0.30) < 0.01


def test_run_data_phase_depleted_member_sends_nothing():
    net = small_net()
    net.level[1] = 0.0
    net.alive[1] = False
    clusters = clusters_of({0: [1, 2, 3]})
    outcome = ClusterRoundOutcome(round_index=0)
    run_data_phase(net, clusters, ChannelPhase(0.0, 1.0), np.random.default_rng(4), outcome)
    senders = {t.member for t in outcome.transfers}
    assert 1 not in senders and {2, 3} <= senders


def test_member_that_cannot_pay_its_request_costs_its_head_nothing():
    # Head 0 answers members 1 and 2 about device 3, of which it has
    # first-hand trust.  Member 1 cannot pay its request, so the head
    # receives and answers member 2's only.
    net = NetworkState(CFG, [0.0, 1.0, 2.0, 3.0], [0.0] * 4, ["honest"] * 4)
    record_trust(net.trust, [0, 1, 2], [3, 0, 0], [0.8, 0.9, 0.9], direct=True)
    rx = rx_energy(CFG.control_bits, net.energy)
    tx_1, tx_2 = (tx_energy(CFG.control_bits, d, net.energy) for d in (1.0, 2.0))
    net.level[1] = tx_1 / 2
    recorded = exchange_recommendations(
        net, clusters_of({0: [1, 2]}), np.array([1, 2]), np.array([0, 0])
    )
    assert not net.alive[1] and net.level[1] == 0.0
    assert net.level[0] == (1.0 - rx) - tx_2
    assert net.level[2] == (1.0 - tx_2) - rx
    assert recorded.tolist() == [net.trust.pairs(2, 3)]


def test_run_round_zero_alive():
    net = small_net()
    net.alive[:] = False
    np_rng = np.random.default_rng(1)
    out = run_round(net, 0, Random(1), np_rng, np_rng)
    assert out.clusters == {} and out.transfers == []
    assert len(out.decisions.observer) == 0


def test_run_round_all_recently_heads_direct_to_sink():
    net = small_net()
    net.eligible_from[:] = 0 + net.epoch  # all headed in round 0
    np_rng = np.random.default_rng(1)
    out = run_round(net, 1, Random(1), np_rng, np_rng)
    assert out.clusters == {}
    assert sorted(out.direct_to_sink) == list(range(len(net.level)))


def test_run_round_accounting_invariants():
    cfg = ScenarioConfig(device_count=40, area_width=80.0, area_height=80.0,
                         malicious_fraction=0.2, seed=6, max_rounds=60)
    net = build_scenario(cfg, Random(cfg.seed))
    run_training_phase(net, Random(cfg.seed + 1))
    rng = Random(10)
    np_rng = np.random.default_rng(10)
    prev_energy = net.level.copy()
    head_rounds: dict[int, list[int]] = {}
    for r in range(60):
        out = run_round(net, r, rng, np_rng, np_rng)
        counted = sum(1 for t in out.transfers if t.outcome in ("timely", "delayed", "dropped"))
        assert counted == len(out.transfers)
        for h in out.clusters:
            head_rounds.setdefault(h, []).append(r)
        for i, e in enumerate(net.level.tolist()):
            assert e <= prev_energy[i] + 1e-15
            prev_energy[i] = e
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
        is_malicious = net.malicious
        flagged = False
        for r in range(66):
            out = run_round(net, r, rng, np_rng, np_rng)
            if 55 <= r <= 65:
                caught = out.decisions.malicious & is_malicious[out.decisions.target]
                flagged |= bool(caught.any())
        hits += flagged
    assert hits > 10


def deployment(devices, side, **overrides):
    cfg = ScenarioConfig(device_count=devices, area_width=side, area_height=side,
                         **overrides)
    return build_scenario(cfg, Random(cfg.seed))


@pytest.mark.parametrize("devices, side", [(100, 100.0), (400, 200.0)])
def test_distances_are_symmetric_and_within_an_ulp_of_math_hypot(devices, side):
    net = deployment(devices, side)
    x, y = net.x.tolist(), net.y.tolist()
    assert np.array_equal(net.dist, net.dist.T)
    assert not net.dist.diagonal().any()
    sx, sy = net.sink
    for got, want in (
        (net.dist, [[math.hypot(xi - xj, yi - yj) for xj, yj in zip(x, y)]
                    for xi, yi in zip(x, y)]),
        (net.sink_dist, [math.hypot(xi - sx, yi - sy) for xi, yi in zip(x, y)]),
    ):
        want = np.array(want)
        assert got.shape == want.shape
        assert (np.abs(got - want) <= np.spacing(want)).all()


@pytest.mark.parametrize("devices, side", [(100, 100.0), (400, 200.0)])
def test_cost_tables_equal_tx_energy_over_a_deployment(devices, side):
    """Every pair's data, control and training cost, and every sink cost, is
    tx_energy's value at that distance to the last bit."""
    net = deployment(devices, side, training_bits=1000)
    cfg, p = net.cfg, net.energy
    tables = [
        (net.data_tx, cfg.data_bits, net.dist),
        (net.control_tx, cfg.control_bits, net.dist),
        (net.training_tx, cfg.training_bits, net.dist),
        (net.sink_tx, cfg.data_bits, net.sink_dist),
    ]
    for table, bits, dist in tables:
        assert table.shape == dist.shape
        want = [tx_energy(bits, d, p).hex() for d in dist.ravel().tolist()]
        assert [c.hex() for c in table.ravel().tolist()] == want
