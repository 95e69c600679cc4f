"""run_data_phase and receive_announcements against scalar models of them.

The models walk the phase one event at a time, in slot order, reading the
same ``np_rng.random`` block in the layout the docstrings give, and charge
energy with the production arithmetic: a device's balance after a charge is
its energy at the start of the phase minus, for each kind of charge paid so
far, the count times that kind's cost.  A device that cannot pay dies and
the action fails; one that pays its last joule completes the action and
dies.  On the same network and generator, model and production must leave
every packet record, evidence window, attack counter, device energy, alive
flag and the generator itself in the same state.
"""

import copy
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trustcloudsim.config import ScenarioConfig
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
    PacketCounts,
    TransferRecord,
    receive_announcements,
    run_data_phase,
)

CFG = ScenarioConfig()
OVERHEAR = overhear_energy(CFG.data_bits, CFG.energy_params())
RX = rx_energy(CFG.data_bits, CFG.energy_params())
CONTROL_RX = rx_energy(CFG.control_bits, CFG.energy_params())


class Ledger:
    """Each device's paid charges, counted by kind, against its start energy."""

    def __init__(self, devices):
        self.level = {d.id: d.energy for d in devices}
        self.counts: dict[int, list[int]] = {}
        self.costs: dict[int, tuple[float, ...]] = {}

    def spent(self, dev) -> float:
        return sum(n * cost for n, cost in zip(self.counts[dev.id], self.costs[dev.id]))

    def pay(self, dev, kind: int) -> bool:
        if not dev.alive:
            return False
        self.counts[dev.id][kind] += 1
        spent = self.spent(dev)
        if spent >= self.level[dev.id]:
            dev.alive = False
            dev.energy = 0.0
            return spent == self.level[dev.id]
        return True

    def settle(self, devices) -> None:
        for dev in devices:
            if dev.alive and dev.id in self.counts:
                dev.energy = self.level[dev.id] - self.spent(dev)


def model_data_phase(net, clusters, phase, np_rng, outcome):
    """The data phase one event at a time; returns (windows, packet counts)."""
    cfg = net.cfg
    energy = net.energy
    bits = cfg.data_bits
    p0 = phase.bad_prob
    heads = sorted(clusters)
    if not heads:
        return {}, PacketCounts(0, 0, 0)
    sizes = [len(clusters[h]) for h in heads]
    block = iter(np_rng.random(sum(2 * k * k + 4 * k for k in sizes)).tolist())
    ledger = Ledger(net.devices)
    over_cost = overhear_energy(bits, energy)
    windows = {}
    received_n = timely_n = delayed_n = 0

    for head_id, k in zip(heads, sizes):
        uplink, over, drop, delay, relay, relay_over = (
            [next(block) for _ in range(n)] for n in (k, k * k, k, k, k, k * k)
        )
        head = net.devices[head_id]
        members = [net.devices[m] for m in sorted(clusters[head_id])]
        mult = ATTACK_MULTIPLIER[head.attacker]
        sink_tx = tx_energy(bits, net.sink_dist[head_id], energy)
        ledger.counts[head_id] = [0, 0, 0]
        ledger.costs[head_id] = (
            rx_energy(bits, energy), aggregate_energy(bits, 1, energy), sink_tx
        )
        for m in members:
            ledger.counts[m.id] = [0, 0]
            ledger.costs[m.id] = (
                tx_energy(bits, float(net.dist[m.id, head_id]), energy),
                over_cost,
            )
        sent, forwarded, timely = ([0] * k for _ in range(3))

        for i, member in enumerate(members):
            if not member.alive or not ledger.pay(member, 0):
                continue
            received = head.alive and uplink[i] >= p0 and ledger.pay(head, 0)
            received_n += received
            record = TransferRecord(member.id, head_id, received, "dropped")
            outcome.transfers.append(record)
            # overhear draws run by overhearer, then sender
            watchers = [i] + [
                j for j, o in enumerate(members)
                if j != i and o.alive and over[j * k + i] >= p0
                and ledger.pay(o, 1)
            ]
            if not received or drop[i] < mult * cfg.p_dp:
                if received:
                    record.attack_drop = True
                    outcome.attack_drops += 1
                for j in watchers:
                    sent[j] += 1
                continue
            delayed = delay[i] < mult * cfg.p_dy
            if delayed:
                record.attack_delay = True
                outcome.attack_delays += 1
            ledger.pay(head, 1)
            attempted = ledger.pay(head, 2)
            if attempted and relay[i] >= p0:
                record.outcome = "delayed" if delayed else "timely"
                delayed_n += delayed
                timely_n += not delayed
            for j in watchers:
                sent[j] += 1
                if (
                    attempted and relay_over[j * k + i] >= p0
                    and ledger.pay(members[j], 1)
                ):
                    forwarded[j] += 1
                    timely[j] += not delayed
        if head.alive:
            ledger.pay(head, 2)
        for j, m in enumerate(members):
            if sent[j]:
                windows[(m.id, head_id)] = (sent[j], forwarded[j], timely[j])

    ledger.settle(net.devices)
    return windows, PacketCounts(received_n, timely_n, delayed_n)


def model_reception(net, listeners, heads, phase, np_rng):
    """Announcement reception one delivery at a time; returns the rows heard."""
    rows = []
    if not listeners or not heads:
        return rows
    draws = np_rng.random((len(listeners), len(heads))).tolist()
    ledger = Ledger(net.devices)
    for m, row in zip(listeners, draws):
        dev = net.devices[m]
        ledger.counts[m] = [0]
        ledger.costs[m] = (rx_energy(net.cfg.control_bits, net.energy),)
        for h, x in zip(heads, row):
            if x >= phase.bad_prob and ledger.pay(dev, 0):
                rows.append((m, h))
    ledger.settle(net.devices)
    return rows


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

#: From ample down to a few charges, exact multiples of the overhear and
#: of the head's reception included so that a charge can leave exactly
#: nothing partway through a cluster.
energies = st.one_of(
    st.just(1.0),
    st.integers(0, 40).map(lambda k: k * OVERHEAR),
    st.integers(0, 12).map(lambda k: k * RX),
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
    """Evidence rows as the model's {(observer, head): (sent, forwarded, timely)}."""
    rows = list(zip(*(column.tolist() for column in evidence[:5])))
    assert rows == sorted(rows, key=lambda row: (row[1], row[0]))
    assert all(0 <= t <= f <= s for _, _, s, f, t in rows)
    return {(o, h): (s, f, t) for o, h, s, f, t in rows}


def state_of(net, outcome, windows, packets, np_rng):
    return (
        outcome.transfers,
        windows,
        packets,
        (outcome.attack_drops, outcome.attack_delays),
        [d.energy for d in net.devices],
        [d.alive for d in net.devices],
        np_rng.bit_generator.state,
    )


def run_both(net, clusters, phase, seed, rounds=1):
    """Production and model side by side; returns the production network
    and its last outcome."""
    model = copy.deepcopy(net)
    rng, model_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for r in range(rounds):
        outcome = ClusterRoundOutcome(round_index=r)
        model_outcome = ClusterRoundOutcome(round_index=r)
        with mock.patch.object(DeviceState, "spend", side_effect=AssertionError):
            evidence = run_data_phase(net, clusters, phase, rng, outcome)
        windows, packets = model_data_phase(
            model, clusters, phase, model_rng, model_outcome
        )
        assert state_of(net, outcome, as_windows(evidence), evidence.packets, rng) == (
            state_of(model, model_outcome, windows, packets, model_rng)
        )
    return net, outcome


@settings(max_examples=300, deadline=None)
@given(scenarios(), channels, st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_data_phase_matches_reference(scenario, phase, seed, rounds):
    net, clusters = scenario
    run_both(net, clusters, phase, seed, rounds)


def test_data_phase_drains_devices_mid_packet():
    # Members that can pay for a handful of overhears die partway through
    # the cluster's packets; both must agree on who paid for what.
    devices = [DeviceState(id=0, x=50.0, y=50.0, energy=1.0, attacker=SUPER)]
    devices += [
        DeviceState(id=i, x=45.0 + i, y=50.0, energy=(i % 4 + 0.5) * OVERHEAR
                    + tx_energy(CFG.data_bits, 10.0, CFG.energy_params()))
        for i in range(1, 13)
    ]
    net = NetworkState(ScenarioConfig(device_count=len(devices)), devices)
    run_both(net, {0: list(range(1, 13))}, ChannelPhase(1.0, 3.0), 5)
    assert sum(not d.alive for d in net.devices) > 3


def test_head_that_dies_partway_stops_relaying():
    # The head can pay for one relayed packet and one more reception, then
    # dies unpaid at the second relay: the later members still send, but
    # nothing more is received or relayed.
    devices = [DeviceState(id=0, x=50.0, y=50.0, energy=3.5 * RX)]
    devices += [DeviceState(id=i, x=50.0 + i, y=50.0, energy=1.0) for i in range(1, 9)]
    net = NetworkState(ScenarioConfig(device_count=len(devices)), devices)
    net, outcome = run_both(net, {0: list(range(1, 9))}, ChannelPhase(0.0, 1.0), 3)
    assert (net.devices[0].energy, net.devices[0].alive) == (0.0, False)
    assert [(t.received, t.outcome) for t in outcome.transfers[:3]] == [
        (True, "timely"), (True, "dropped"), (False, "dropped"),
    ]
    assert not any(t.received for t in outcome.transfers[2:])


def test_overhear_that_empties_a_device_kills_it():
    # Binary-exact costs: a member left with exactly one overhear charge
    # pays it, reaches 0.0 and dies.  The head is down, so nothing is
    # relayed and no later charge would hide the kill.
    cfg = ScenarioConfig(device_count=3, data_bits=1024, e_elec=2.0**-30,
                         e_h=2.0**-30, eps_fs=0.0)
    unit = 2.0**-20  # transmit at distance 0, and one overhear
    devices = [
        DeviceState(id=0, x=10.0, y=10.0, energy=1.0, alive=False),
        DeviceState(id=1, x=10.0, y=10.0, energy=2 * unit),
        DeviceState(id=2, x=10.0, y=10.0, energy=1.0),
    ]
    net, _ = run_both(
        NetworkState(cfg, devices), {0: [1, 2]}, ChannelPhase(0.0, 1.0), 1
    )
    assert (net.devices[1].energy, net.devices[1].alive) == (0.0, False)


def test_last_joule_completes_the_action():
    # Binary-exact costs again: the head can pay exactly one reception, one
    # aggregation and one relay.  It relays the first packet, dies doing so,
    # and the first member's relay overhear still counts.
    cfg = ScenarioConfig(device_count=3, data_bits=1024, e_elec=2.0**-30,
                         e_h=2.0**-30, e_da=2.0**-30, eps_fs=0.0,
                         sink_x=10.0, sink_y=10.0)
    unit = 2.0**-20
    devices = [
        DeviceState(id=0, x=10.0, y=10.0, energy=3 * unit),
        DeviceState(id=1, x=10.0, y=10.0, energy=1.0),
        DeviceState(id=2, x=10.0, y=10.0, energy=1.0),
    ]
    net = NetworkState(cfg, devices)
    outcome = ClusterRoundOutcome(round_index=0)
    evidence = run_data_phase(net, {0: [1, 2]}, ChannelPhase(0.0, 1.0),
                              np.random.default_rng(1), outcome)
    assert [(t.member, t.received, t.outcome) for t in outcome.transfers] == [
        (1, True, "timely"), (2, False, "dropped"),
    ]
    assert (net.devices[0].energy, net.devices[0].alive) == (0.0, False)
    assert as_windows(evidence) == {
        (1, 0): (2, 1, 1), (2, 0): (2, 1, 1),
    }
    assert evidence.packets == PacketCounts(1, 1, 0)


@st.composite
def listening(draw):
    n_heads = draw(st.integers(0, 6))
    n_listeners = draw(st.integers(0, 12))
    reception_energies = st.one_of(
        st.just(1.0),
        st.integers(0, 8).map(lambda k: k * CONTROL_RX),
        st.floats(0.0, 8 * CONTROL_RX),
    )
    levels = draw(st.lists(reception_energies, min_size=n_listeners,
                           max_size=n_listeners))
    devices = [DeviceState(id=i, x=0.0, y=0.0, energy=1.0) for i in range(n_heads)]
    devices += [
        DeviceState(id=n_heads + i, x=0.0, y=0.0, energy=e)
        for i, e in enumerate(levels)
    ]
    net = NetworkState(ScenarioConfig(device_count=max(len(devices), 1)), devices)
    listeners = draw(st.permutations(range(n_heads, len(devices))))
    return net, list(listeners), list(range(n_heads))


@settings(max_examples=200, deadline=None)
@given(listening(), channels, st.integers(0, 2**32 - 1))
def test_reception_matches_model(scenario, phase, seed):
    net, listeners, heads = scenario
    model = copy.deepcopy(net)
    rng, model_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(DeviceState, "spend", side_effect=AssertionError):
        obs, tgt = receive_announcements(net, listeners, heads, phase, rng)
    rows = model_reception(model, listeners, heads, phase, model_rng)
    assert list(zip(obs.tolist(), tgt.tolist())) == rows
    assert [(d.energy, d.alive) for d in net.devices] == [
        (d.energy, d.alive) for d in model.devices
    ]
    assert rng.bit_generator.state == model_rng.bit_generator.state
