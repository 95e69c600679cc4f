"""run_data_phase against the data phase it replaced, kept here as the model.

``reference_data_phase`` is the per-watcher loop that charged every overhear
through ``DeviceState.spend`` and counted evidence in an (observer, head)
dict.  The production loop writes the overhear charge inline and counts by
member position, returning the counts as arrays; on the same network and
generator both must leave every packet record, evidence window, attack
counter, device energy, alive flag and the generator itself in the same
state.
"""

import copy
import math
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim.config import ScenarioConfig
from trustcloudsim.fuzzy import EvidenceWindow
from trustcloudsim.medium import (
    ChannelPhase,
    aggregate_energy,
    overhear_energy,
    rx_energy,
    tx_energy,
)
from trustcloudsim.protocol import (
    ADVANCED,
    ATTACK_MULTIPLIER,
    GENERIC,
    HONEST,
    SUPER,
    ClusterRoundOutcome,
    DeviceState,
    NetworkState,
    TransferRecord,
    run_data_phase,
)

CFG = ScenarioConfig()
OVERHEAR = overhear_energy(CFG.data_bits, CFG.energy_params())


def reference_data_phase(
    net: NetworkState,
    clusters: dict[int, list[int]],
    phase: ChannelPhase,
    rng: Random,
    outcome: ClusterRoundOutcome,
) -> dict[tuple[int, int], EvidenceWindow]:
    """Slotted data transfer with cluster-wide overhearing.

    Every member sends one data packet to its head; the head relays each
    received packet toward the sink in a single attempt while malicious heads
    drop or delay with their class probabilities.  Members overhear both the uplinks and the relays through
    independent channel draws, producing one evidence window per (observer,
    head) pair for this round.
    """
    cfg = net.cfg
    energy = net.energy
    bits = cfg.data_bits
    p0 = phase.bad_prob
    draw = rng.random
    overhear_cost = overhear_energy(bits, energy)
    rx_cost = rx_energy(bits, energy)
    aggregate_cost = aggregate_energy(bits, 1, energy)
    # (observer, head) -> [sent, forwarded, timely]; folded into
    # EvidenceWindow objects once the phase completes.
    counters: dict[tuple[int, int], list[int]] = {}

    for head_id in sorted(clusters):
        head = net.devices[head_id]
        member_ids = sorted(clusters[head_id])
        members = [net.devices[m] for m in member_ids]
        mult = ATTACK_MULTIPLIER[head.attacker]
        sink_d = net.sink_dist[head_id]

        for member in members:
            if not member.alive:
                continue
            dist = math.hypot(member.x - head.x, member.y - head.y)
            if not member.spend(tx_energy(bits, dist, energy)):
                continue
            received = (
                head.alive
                and (p0 == 0.0 or draw() >= p0)
                and head.spend(rx_cost)
            )
            record = TransferRecord(member.id, head.id, received, "dropped")
            outcome.transfers.append(record)

            # Uplink overhearing: cluster mates that catch the transmission
            # know this packet awaits forwarding.
            watchers = [member]
            for o in members:
                if (
                    o.id != member.id
                    and o.alive
                    and (p0 == 0.0 or draw() >= p0)
                    and o.spend(overhear_cost)
                ):
                    watchers.append(o)

            if not received or (mult and draw() < mult * cfg.p_dp):
                if received:
                    record.attack_drop = True
                    outcome.attack_drops += 1
                for o in watchers:
                    cnt = counters.get((o.id, head_id))
                    if cnt is None:
                        counters[(o.id, head_id)] = [1, 0, 0]
                    else:
                        cnt[0] += 1
                continue

            attack_delayed = bool(mult) and draw() < mult * cfg.p_dy
            if attack_delayed:
                rng.uniform(0.0, cfg.max_dur)  # delay duration within the slot
                record.attack_delay = True
                outcome.attack_delays += 1

            # The head relays once; lost relays surface as drops, so a
            # delaying event can only come from an actual delaying attack.
            head.spend(aggregate_cost)
            attempted = head.spend(tx_energy(bits, sink_d, energy))
            delivered = attempted and (p0 == 0.0 or draw() >= p0)

            if not attempted or not delivered:
                record.outcome = "dropped"
            elif attack_delayed:
                record.outcome = "delayed"
            else:
                record.outcome = "timely"

            for o in watchers:
                saw = (
                    attempted
                    and (p0 == 0.0 or draw() >= p0)
                    and o.spend(overhear_cost)
                )
                cnt = counters.get((o.id, head_id))
                if cnt is None:
                    cnt = [0, 0, 0]
                    counters[(o.id, head_id)] = cnt
                cnt[0] += 1
                if saw:
                    cnt[1] += 1
                    if not attack_delayed:
                        cnt[2] += 1

        # The head reports its own readings alongside the aggregate.
        if head.alive:
            head.spend(tx_energy(bits, sink_d, energy))

    return {
        key: EvidenceWindow(sent, forwarded, timely)
        for key, (sent, forwarded, timely) in counters.items()
    }


#: Stationary bad probabilities 0 (perfect), 1 (jammed) and in between.
channels = st.one_of(
    st.just(ChannelPhase(0.0, 1.0)),
    st.just(ChannelPhase(1.0, 0.0)),
    st.builds(
        ChannelPhase,
        st.floats(0.05, 5.0),
        st.floats(0.05, 5.0),
    ),
)

#: From ample down to a few overhear charges, exact multiples included so
#: that a charge can leave exactly nothing.
energies = st.one_of(
    st.just(1.0),
    st.integers(0, 40).map(lambda k: k * OVERHEAR),
    st.floats(0.0, 60 * OVERHEAR),
)

device = st.tuples(
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0),
    energies,
    st.sampled_from((HONEST, GENERIC, ADVANCED, SUPER)),
    st.sampled_from((True, True, True, False)),  # alive
)


@st.composite
def scenarios(draw):
    sizes = draw(st.lists(st.integers(1, 15), min_size=1, max_size=3))
    specs = draw(st.lists(device, min_size=sum(sizes) + len(sizes),
                          max_size=sum(sizes) + len(sizes)))
    devices = [
        DeviceState(id=i, x=x, y=y, energy=e, attacker=attacker, alive=alive)
        for i, (x, y, e, attacker, alive) in enumerate(specs)
    ]
    ids = draw(st.permutations(range(len(devices))))
    clusters, cursor = {}, 0
    for size in sizes:
        head, members = ids[cursor], ids[cursor + 1 : cursor + 1 + size]
        clusters[head] = list(members)
        cursor += 1 + size
    cfg = ScenarioConfig(
        device_count=len(devices),
        p_dp=draw(st.sampled_from((0.0, 0.05, 0.1, 0.2))),
        p_dy=draw(st.sampled_from((0.0, 0.05, 0.1, 0.2))),
    )
    return NetworkState(cfg, devices), clusters


def as_windows(evidence):
    """Evidence rows as the model's {(observer, head): EvidenceWindow}."""
    rows = list(zip(*(column.tolist() for column in evidence)))
    assert rows == sorted(rows, key=lambda row: (row[1], row[0]))
    return {(o, h): EvidenceWindow(s, f, t) for o, h, s, f, t in rows}


def state_of(net, outcome, windows, rng):
    return (
        outcome.transfers,
        windows,
        (outcome.attack_drops, outcome.attack_delays),
        [d.energy for d in net.devices],
        [d.alive for d in net.devices],
        rng.getstate(),
    )


@settings(max_examples=300, deadline=None)
@given(scenarios(), channels, st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_data_phase_matches_reference(scenario, phase, seed, rounds):
    net, clusters = scenario
    model = copy.deepcopy(net)
    rng, model_rng = Random(seed), Random(seed)
    for r in range(rounds):
        outcome = ClusterRoundOutcome(round_index=r)
        model_outcome = ClusterRoundOutcome(round_index=r)
        windows = as_windows(run_data_phase(net, clusters, phase, rng, outcome))
        model_windows = reference_data_phase(
            model, clusters, phase, model_rng, model_outcome
        )
        assert state_of(net, outcome, windows, rng) == state_of(
            model, model_outcome, model_windows, model_rng
        )


def test_data_phase_drains_devices_mid_packet():
    # Members that can pay for a handful of overhears die partway through
    # the cluster's packets; both loops must agree on who paid for what.
    devices = [DeviceState(id=0, x=50.0, y=50.0, energy=1.0, attacker=SUPER)]
    devices += [
        DeviceState(id=i, x=45.0 + i, y=50.0, energy=(i % 4 + 0.5) * OVERHEAR
                    + tx_energy(CFG.data_bits, 10.0, CFG.energy_params()))
        for i in range(1, 13)
    ]
    net = NetworkState(ScenarioConfig(device_count=len(devices)), devices)
    model = copy.deepcopy(net)
    clusters = {0: list(range(1, 13))}
    phase = ChannelPhase(1.0, 3.0)
    outcome, model_outcome = (ClusterRoundOutcome(round_index=0) for _ in "ab")
    rng, model_rng = Random(5), Random(5)
    windows = as_windows(run_data_phase(net, clusters, phase, rng, outcome))
    model_windows = reference_data_phase(model, clusters, phase, model_rng,
                                         model_outcome)
    assert state_of(net, outcome, windows, rng) == state_of(
        model, model_outcome, model_windows, model_rng
    )
    assert sum(not d.alive for d in net.devices) > 0


def test_overhear_that_empties_a_device_kills_it():
    # Binary-exact costs: a member left with exactly one overhear charge
    # pays it, reaches 0.0 and dies, as DeviceState.spend does.  The head is
    # down, so nothing is relayed and no later charge would hide the kill.
    cfg = ScenarioConfig(device_count=3, data_bits=1024, e_elec=2.0**-30,
                         e_h=2.0**-30, eps_fs=0.0)
    unit = 2.0**-20  # transmit at distance 0, and one overhear
    devices = [
        DeviceState(id=0, x=10.0, y=10.0, energy=1.0, alive=False),
        DeviceState(id=1, x=10.0, y=10.0, energy=2 * unit),
        DeviceState(id=2, x=10.0, y=10.0, energy=1.0),
    ]
    net = NetworkState(cfg, devices)
    model = copy.deepcopy(net)
    clusters = {0: [1, 2]}
    phase = ChannelPhase(0.0, 1.0)
    outcome, model_outcome = (ClusterRoundOutcome(round_index=0) for _ in "ab")
    rng, model_rng = Random(1), Random(1)
    windows = as_windows(run_data_phase(net, clusters, phase, rng, outcome))
    model_windows = reference_data_phase(model, clusters, phase, model_rng,
                                         model_outcome)
    assert state_of(net, outcome, windows, rng) == state_of(
        model, model_outcome, model_windows, model_rng
    )
    assert (net.devices[1].energy, net.devices[1].alive) == (0.0, False)
