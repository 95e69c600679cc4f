"""One device as an object that pays its own charges: the reference models'
device, as the simulator kept it before per-device state moved into arrays
on ``NetworkState``.

``network`` builds a ``NetworkState`` holding such devices, so that a
reference model can walk the objects while the production code runs on the
network's arrays, and ``state`` reads either side as (levels, alive flags)
for comparison.  ``clusters_of`` turns a mapping of each head to its members
into the round's ``Clusters``, and ``members_by_head`` turns it back.

``scalar_exchanges`` and ``reference_exchange`` are the recommendation
exchange as the simulator charged it one device at a time, with ``spend``
on list copies of the network's arrays: the reference for the array
charges of ``protocol.exchange_recommendations``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from trustcloudsim.medium import rx_energy, spend
from trustcloudsim.protocol import HONEST, Clusters, NetworkState
from trustcloudsim.runtime import record_trust, recommend_trust


@dataclass(slots=True)
class DeviceState:
    """One device: identity, radio position, energy and role."""

    id: int
    x: float
    y: float
    energy: float
    attacker: str = HONEST
    alive: bool = True
    last_head_round: Optional[int] = None

    def spend(self, cost: float) -> bool:
        """Charge an action; a device that cannot pay dies and the action fails.

        A device that spends its final joule completes the action and is then
        marked dead.
        """
        if not self.alive:
            return False
        if self.energy >= cost:
            self.energy -= cost
            if self.energy <= 0.0:
                self.energy = 0.0
                self.alive = False
            return True
        self.energy = 0.0
        self.alive = False
        return False


def is_eligible(device: DeviceState, r: int, epoch: int) -> bool:
    return device.last_head_round is None or r - device.last_head_round >= epoch


def network(cfg, devices: list[DeviceState]) -> NetworkState:
    """A network of the devices' positions, classes, energies and head rounds."""
    net = NetworkState(
        cfg, [d.x for d in devices], [d.y for d in devices],
        [d.attacker for d in devices],
    )
    net.level[:] = [d.energy for d in devices]
    net.alive[:] = [d.alive for d in devices]
    net.eligible_from[:] = [
        0 if d.last_head_round is None else d.last_head_round + net.epoch
        for d in devices
    ]
    return net


def clusters_of(by_head) -> Clusters:
    """The ``Clusters`` of a mapping of each head to its members."""
    rows = [(h, m) for h in sorted(by_head) for m in sorted(by_head[h])]
    return Clusters(
        np.array(sorted(by_head), dtype=np.intp),
        np.array([m for _, m in rows], dtype=np.intp),
        np.array([h for h, _ in rows], dtype=np.intp),
    )


def members_by_head(clusters: Clusters) -> dict[int, list[int]]:
    """Each head of the ``Clusters`` mapped to its members, in id order."""
    by_head = {h: [] for h in clusters.heads.tolist()}
    for m, h in zip(clusters.members.tolist(), clusters.head_of.tolist()):
        by_head[h].append(m)
    return by_head


def state(devices) -> tuple[list[float], list[bool]]:
    """(levels, alive flags) of a network's arrays or of a device list."""
    if isinstance(devices, NetworkState):
        return devices.level.tolist(), devices.alive.tolist()
    return [d.energy for d in devices], [d.alive for d in devices]


def scalar_exchanges(level: list, alive: list, rows, rx: float) -> list[bool]:
    """Charge each (member, head, cost) row's exchange in turn, with ``spend``.

    A member asks only while it and its head live.  Its request (``cost``),
    the head's reception (``rx``), the head's reply (``cost``) and its own
    reception (``rx``) follow in order, each only once the one before was
    paid.  Returns, per row, whether the member paid for its reply.
    """
    return [
        bool(alive[member] and alive[head])
        and spend(level, alive, member, cost)
        and spend(level, alive, head, rx)
        and spend(level, alive, head, cost)
        and spend(level, alive, member, rx)
        for member, head, cost in rows
    ]


def reference_exchange(net: NetworkState, clusters, cand_obs, cand_tgt):
    """The recommendation exchange with n x n masks and the scalar charges.

    Returns the members that paid for their reply, in turn order, and the
    (observer, target) rows recorded, by asker then target.
    """
    cfg, trust = net.cfg, net.trust
    n = len(net.level)
    askers = [(h, m) for h in sorted(clusters) for m in sorted(clusters[h])]
    ask_head = np.array([h for h, _ in askers], dtype=np.intp)
    ask_mem = np.array([m for _, m in askers], dtype=np.intp)
    ask_pair = ask_mem * n + ask_head
    t_ij = trust.mean.take(ask_pair)
    heard = np.zeros((n, n), dtype=bool)
    heard.put(np.asarray(cand_obs) * n + np.asarray(cand_tgt), True)
    # wanted: heard of this round, or a neighbour never recorded, or a
    # recorded pair without a full window yet
    count = trust.count[ask_mem]
    wanted = heard[ask_mem] | np.where(
        count == 0, net.neighbor_mask[ask_mem], count < trust.window
    )
    rows = np.arange(len(askers)) * n
    wanted.put(rows + ask_head, False)
    wanted.put(rows + ask_mem, False)
    offers = wanted & (trust.fh_count[ask_head] > 0)
    worth_asking = np.flatnonzero(offers.any(axis=1) & (t_ij > 0.0)).tolist()
    level, alive = net.level.tolist(), net.alive.tolist()
    answered = scalar_exchanges(
        level,
        alive,
        [
            (askers[i][1], askers[i][0], cost)
            for i, cost in zip(
                worth_asking, net.control_tx.take(ask_pair[worth_asking]).tolist()
            )
        ],
        rx_energy(cfg.control_bits, net.energy),
    )
    net.level[:], net.alive[:] = level, alive
    asked = [i for i, got in zip(worth_asking, answered) if got]
    ask, rec_tgt = np.nonzero(offers[asked])
    ask = np.asarray(asked, dtype=np.intp)[ask]
    rec_obs = ask_mem[ask]
    rec_val = recommend_trust(
        trust.mean.take(rec_obs * n + rec_tgt),
        trust.firsthand.take(ask_head[ask] * n + rec_tgt),
        t_ij[ask],
    )
    record_trust(trust, rec_obs, rec_tgt, rec_val)
    return ask_mem[asked].tolist(), list(zip(rec_obs.tolist(), rec_tgt.tolist()))
