"""run_data_phase and receive_announcements against scalar models of them.

The models walk the phase one event at a time, in slot order, reading the
same ``np_rng.random`` block in the layout the docstrings give, and charge
energy with the production arithmetic: a device's balance after a charge is
its energy at the start of the phase minus, for each kind of charge paid so
far, the count times that kind's cost.  A device that cannot pay dies and
the action fails; one that pays its last joule completes the action and
dies.  The models charge ``DeviceState`` objects (``device_oracle``), and
production the network's arrays.  On the same scenario and generator,
model and production must give every packet's member, head, received flag,
outcome code and attack flags, the phase's totals and evidence windows,
and leave every device energy, alive flag and the generator itself in the
same state.
"""

import copy
from unittest import mock

import numpy as np
from hypothesis import given, settings
from device_oracle import DeviceState, clusters_of, network, state
from hypothesis import strategies as st

from trustcloudsim import protocol
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


def model_data_phase(net, devices, clusters, phase, np_rng):
    """The data phase one event at a time over ``devices``, reading only the
    topology and parameters of ``net``.

    Returns the packets sent, as (member, head, received, code, attack_drop,
    attack_delay) tuples with code 0 dropped, 1 timely and 2 delayed; the
    phase's totals (received, timely, delayed, attack drops, attack delays);
    and the evidence windows.
    """
    cfg = net.cfg
    energy = net.energy
    bits = cfg.data_bits
    p0 = phase.bad_prob
    heads = sorted(clusters)
    packets = []
    received_n = timely_n = delayed_n = drops_n = delays_n = 0
    if not heads:
        return packets, (0, 0, 0, 0, 0), {}
    sizes = [len(clusters[h]) for h in heads]
    block = iter(np_rng.random(sum(2 * k * k + 4 * k for k in sizes)).tolist())
    ledger = Ledger(devices)
    over_cost = overhear_energy(bits, energy)
    windows = {}

    for head_id, k in zip(heads, sizes):
        uplink, over, drop, delay, relay, relay_over = (
            [next(block) for _ in range(n)] for n in (k, k * k, k, k, k, k * k)
        )
        head = devices[head_id]
        members = [devices[m] for m in sorted(clusters[head_id])]
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
            # overhear draws run by overhearer, then sender
            watchers = [i] + [
                j for j, o in enumerate(members)
                if j != i and o.alive and over[j * k + i] >= p0
                and ledger.pay(o, 1)
            ]
            if not received or drop[i] < mult * cfg.p_dp:
                packets.append((member.id, head_id, received, 0, received, False))
                drops_n += received
                for j in watchers:
                    sent[j] += 1
                continue
            delayed = delay[i] < mult * cfg.p_dy
            delays_n += delayed
            ledger.pay(head, 1)
            attempted = ledger.pay(head, 2)
            code = 0
            if attempted and relay[i] >= p0:
                code = 2 if delayed else 1
                delayed_n += delayed
                timely_n += not delayed
            packets.append((member.id, head_id, True, code, False, delayed))
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

    ledger.settle(devices)
    return packets, (received_n, timely_n, delayed_n, drops_n, delays_n), windows


def model_reception(net, devices, listeners, heads, phase, np_rng):
    """Announcement reception one delivery at a time; returns the rows heard."""
    rows = []
    if not listeners or not heads:
        return rows
    draws = np_rng.random((len(listeners), len(heads))).tolist()
    ledger = Ledger(devices)
    for m, row in zip(listeners, draws):
        dev = devices[m]
        ledger.counts[m] = [0]
        ledger.costs[m] = (rx_energy(net.cfg.control_bits, net.energy),)
        for h, x in zip(heads, row):
            if x >= phase.bad_prob and ledger.pay(dev, 0):
                rows.append((m, h))
    ledger.settle(devices)
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
    return network(cfg, devices), devices, clusters


def as_windows(evidence):
    """Evidence rows as the model's {(observer, head): (sent, forwarded, timely)}."""
    rows = list(zip(*(column.tolist() for column in evidence[:5])))
    assert rows == sorted(rows, key=lambda row: (row[1], row[0]))
    assert all(0 <= t <= f <= s for _, _, s, f, t in rows)
    return {(o, h): (s, f, t) for o, h, s, f, t in rows}


def packets_of(transfers):
    """The phase's packets as the model's tuples, one per packet sent."""
    assert all(len(column) == len(transfers) for column in vars(transfers).values())
    return list(zip(
        *(column.tolist() for column in (
            transfers.member, transfers.head, transfers.received, transfers.code,
            transfers.attack_drop, transfers.attack_delay,
        ))
    ))


def totals_of(transfers):
    """(received, timely, delayed, attack drops, attack delays) of the packets."""
    return tuple(
        int(np.count_nonzero(flags)) for flags in (
            transfers.received, transfers.code == 1, transfers.code == 2,
            transfers.attack_drop, transfers.attack_delay,
        )
    )


def run_both(net, devices, clusters, phase, seed, rounds=1):
    """Production and model side by side; returns the production network,
    its last outcome and its last evidence."""
    model = copy.deepcopy(devices)
    rng, model_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for r in range(rounds):
        outcome = ClusterRoundOutcome(round_index=r)
        with mock.patch.object(
            protocol, "spend", side_effect=AssertionError, create=True
        ):
            evidence = run_data_phase(net, clusters_of(clusters), phase, rng, outcome)
        packets, totals, windows = model_data_phase(
            net, model, clusters, phase, model_rng
        )
        assert packets_of(outcome.transfers) == packets
        assert totals_of(outcome.transfers) == totals
        assert as_windows(evidence) == windows
        assert state(net) == state(model)
        assert rng.bit_generator.state == model_rng.bit_generator.state
    return net, outcome, evidence


@settings(max_examples=300, deadline=None)
@given(scenarios(), channels, st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_data_phase_matches_reference(scenario, phase, seed, rounds):
    net, devices, clusters = scenario
    run_both(net, devices, clusters, phase, seed, rounds)


def test_data_phase_drains_devices_mid_packet():
    # Members that can pay for a handful of overhears die partway through
    # the cluster's packets; both must agree on who paid for what.
    devices = [DeviceState(id=0, x=50.0, y=50.0, energy=1.0, attacker=SUPER)]
    devices += [
        DeviceState(id=i, x=45.0 + i, y=50.0, energy=(i % 4 + 0.5) * OVERHEAR
                    + tx_energy(CFG.data_bits, 10.0, CFG.energy_params()))
        for i in range(1, 13)
    ]
    net = network(ScenarioConfig(device_count=len(devices)), devices)
    run_both(net, devices, {0: list(range(1, 13))}, ChannelPhase(1.0, 3.0), 5)
    assert sum(not a for a in net.alive) > 3


def test_head_that_dies_partway_stops_relaying():
    # The head can pay for one relayed packet and one more reception, then
    # dies unpaid at the second relay: the later members still send, but
    # nothing more is received or relayed.
    devices = [DeviceState(id=0, x=50.0, y=50.0, energy=3.5 * RX)]
    devices += [DeviceState(id=i, x=50.0 + i, y=50.0, energy=1.0) for i in range(1, 9)]
    net = network(ScenarioConfig(device_count=len(devices)), devices)
    net, outcome, _ = run_both(
        net, devices, {0: list(range(1, 9))}, ChannelPhase(0.0, 1.0), 3
    )
    assert (net.level[0], net.alive[0]) == (0.0, False)
    # code 1 is a timely packet, 0 a dropped one
    transfers = outcome.transfers
    assert len(transfers) == 8
    assert list(zip(transfers.received[:3].tolist(), transfers.code[:3].tolist())) == [
        (True, 1), (True, 0), (False, 0),
    ]
    assert not transfers.received[2:].any()


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
    net, _, _ = run_both(
        network(cfg, devices), devices, {0: [1, 2]}, ChannelPhase(0.0, 1.0), 1
    )
    assert (net.level[1], net.alive[1]) == (0.0, False)


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
    net, outcome, evidence = run_both(
        network(cfg, devices), devices, {0: [1, 2]}, ChannelPhase(0.0, 1.0), 1
    )
    transfers = outcome.transfers
    # code 1 is a timely packet, 0 a dropped one
    assert packets_of(transfers) == [(1, 0, True, 1, False, False),
                                     (2, 0, False, 0, False, False)]
    assert (net.level[0], net.alive[0]) == (0.0, False)
    assert as_windows(evidence) == {
        (1, 0): (2, 1, 1), (2, 0): (2, 1, 1),
    }
    # received, timely, delayed, attack drops, attack delays
    assert totals_of(transfers) == (1, 1, 0, 0, 0)


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
    net = network(ScenarioConfig(device_count=max(len(devices), 1)), devices)
    listeners = draw(st.permutations(range(n_heads, len(devices))))
    return net, devices, list(listeners), list(range(n_heads))


@settings(max_examples=200, deadline=None)
@given(listening(), channels, st.integers(0, 2**32 - 1))
def test_reception_matches_model(scenario, phase, seed):
    net, devices, listeners, heads = scenario
    model = copy.deepcopy(devices)
    rng, model_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(protocol, "spend", side_effect=AssertionError, create=True):
        obs, tgt = receive_announcements(net, listeners, heads, phase, rng)
    rows = model_reception(net, model, listeners, heads, phase, model_rng)
    assert list(zip(obs.tolist(), tgt.tolist())) == rows
    assert state(net) == state(model)
    assert rng.bit_generator.state == model_rng.bit_generator.state
