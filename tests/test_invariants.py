"""The simulator's invariants, checked on small random scenarios.

Every round of a random small network must keep:

- energy never negative, and never rising;
- a dead device never revives and is never charged again, and its death
  round is set once, to the first round whose end finds it dead;
- every evidence window with timely <= forwarded <= sent;
- each device in at most one cluster, as head or as member, and never both
  in a cluster and on the direct-to-sink list;
- classification only of (observer, target) pairs with a full window.
"""

from random import Random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim import engine, protocol
from trustcloudsim.config import ScenarioConfig
from trustcloudsim.engine import build_scenario, run_simulation, run_training_phase
from trustcloudsim.medium import ChannelPhase

configs = st.builds(
    ScenarioConfig,
    device_count=st.integers(1, 30),
    area_width=st.floats(20.0, 60.0),
    area_height=st.floats(20.0, 60.0),
    malicious_fraction=st.sampled_from((0.0, 0.2, 0.5, 1.0)),
    seed=st.integers(0, 10_000),
    max_rounds=st.integers(5, 60),
    phases=st.sampled_from(
        ((), (ChannelPhase(0.0, 1.0),), (ChannelPhase(1.0, 0.0),),
         (ChannelPhase(1.0, 9.0), ChannelPhase(3.0, 7.0, start_round=10)))
    ),
    n_f=st.integers(1, 10),
    max_tr=st.integers(0, 8),
    max_drp=st.integers(2, 12),
    thr_drp=st.integers(2, 6),
    n_drp=st.integers(1, 20),
    kappa=st.sampled_from((0.0, 0.5, 3.0)),
    p_ch=st.sampled_from((0.07, 0.2, 0.5)),
    e0=st.sampled_from((0.002, 0.01, 1.0, 1.0)),
)


@settings(max_examples=40, deadline=None)
@given(configs)
def test_round_invariants(cfg):
    net = build_scenario(cfg, Random(cfg.seed))
    run_training_phase(net, Random(cfg.seed))
    trust = net.trust
    evidence_seen: list[protocol.Evidence] = []

    def data_phase(*args):
        evidence = run_data_phase(*args)
        evidence_seen.append(evidence)
        return evidence

    def classify(state, stds, observers, targets, *args, **kwargs):
        full = state.count[observers, targets] >= state.window
        assert full.all(), "classified a partial window"
        return classify_pairs(state, stds, observers, targets, *args, **kwargs)

    def charge(level, alive, ids, cost):
        assert alive[ids].all(), "charged a dead device"
        return charge_live(level, alive, ids, cost)

    run_data_phase, classify_pairs = protocol.run_data_phase, protocol.classify_pairs
    charge_live = protocol.charge
    rng, np_rng = Random(cfg.seed + 1), np.random.default_rng(cfg.seed)
    energy = net.level.tolist()
    alive = net.alive.copy()
    # training's deaths are booked at round 0
    assert net.death_round.tolist() == np.where(alive, -1, 0).tolist()
    with mock.patch.object(protocol, "run_data_phase", data_phase), \
            mock.patch.object(protocol, "classify_pairs", classify), \
            mock.patch.object(protocol, "charge", charge):
        for r in range(cfg.max_rounds):
            death_round = net.death_round.copy()
            out = protocol.run_round(net, r, rng, np_rng, np_rng)

            now = net.level.tolist()
            assert all(e >= 0.0 for e in now)
            assert all(b <= a for a, b in zip(energy, now))
            assert not (net.alive & ~alive).any(), "a dead device revived"
            assert all(b == a for a, b, was in zip(energy, now, alive) if not was)
            died = alive & ~net.alive
            assert (net.death_round[died] == r).all()
            assert (net.death_round[~died] == death_round[~died]).all()
            energy, alive = now, net.alive.copy()

            placed = list(out.clusters) + [
                m for members in out.clusters.values() for m in members
            ]
            assert len(placed) == len(set(placed))
            assert not set(placed) & set(out.direct_to_sink)

            if evidence_seen:
                evidence = evidence_seen.pop()
                for observer, head in zip(evidence.observer.tolist(),
                                          evidence.head.tolist()):
                    assert observer in out.clusters[head]
                assert np.all(0 <= evidence.timely)
                assert np.all(evidence.timely <= evidence.forwarded)
                assert np.all(evidence.forwarded <= evidence.sent)

            decided = out.decisions
            full = trust.count[decided.observer, decided.target] >= trust.window
            assert full.all()
            assert len(set(zip(decided.observer.tolist(),
                               decided.target.tolist()))) == len(decided.observer)


@settings(max_examples=25, deadline=None)
@given(configs)
def test_logged_death_rounds_are_first_rounds_found_dead(cfg):
    # each device's alive flag at the end of training and of every round
    ends = []

    def training(net, rng):
        reports = run_training_phase(net, rng)
        ends.append(net.alive.copy())
        return reports

    def round_(net, r, *args):
        outcome = run_round(net, r, *args)
        ends.append(net.alive.copy())
        return outcome

    run_training_phase, run_round = engine.run_training_phase, engine.run_round
    with mock.patch.object(engine, "run_training_phase", training), \
            mock.patch.object(engine, "run_round", round_):
        log = run_simulation(cfg)
    # training's end counts as round 0's
    first_dead = {}
    for r, alive in enumerate(ends):
        for i in np.flatnonzero(~alive).tolist():
            first_dead.setdefault(i, max(r - 1, 0))
    assert log.death_round == first_dead


def test_zero_entropy_standards_run_to_completion():
    # On a perfect channel, two-drop training pools give every device
    # standard clouds with en = he = 0; drop-sampled comparisons then score
    # memberships by their zero-entropy limit instead of stopping the run.
    cfg = ScenarioConfig(
        device_count=3, area_width=20.0, area_height=20.0,
        malicious_fraction=0.0, seed=3, max_rounds=30,
        phases=(ChannelPhase(0.0, 1.0),), max_drp=2, thr_drp=2, max_tr=1,
        n_f=5, kappa=0.0, p_ch=0.5,
    )
    assert run_simulation(cfg).rounds_completed == cfg.max_rounds
