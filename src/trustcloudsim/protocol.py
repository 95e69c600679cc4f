"""Round-based secure clustering: election, joining, data transfer, trust.

Each round runs a fixed schedule over devices ordered by id: heads self-elect
against the rotating threshold, members join the nearest trusted head (or
fall back to self-election / direct sink transmission), members transmit one
data packet each while overhearing the head's relays of the whole cluster,
per-round evidence turns into trust values and recommendations, individual
clouds are rebuilt, targets are classified, and the classified values feed
the standard-cloud update pools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from .config import ScenarioConfig
from .fuzzy import trust_from_counts
from .medium import (
    ChannelPhase,
    EnergyParams,
    aggregate_energy,
    monitor_energy,
    overhear_energy,
    rx_energy,
    tx_energy,
)
from .runtime import (
    TrustState,
    UpdatePools,
    classify_pairs,
    record_trust,
    recommend_trust,
)

HONEST = "honest"
GENERIC = "generic"
ADVANCED = "advanced"
SUPER = "super"

#: Drop/delay probability multipliers by attacker class.
ATTACK_MULTIPLIER = {HONEST: 0.0, GENERIC: 2.0, ADVANCED: 4.0, SUPER: 6.0}


@dataclass(slots=True)
class DeviceState:
    """One device: identity, radio position, energy and role.

    Its trust in other devices is row ``id`` of the network's TrustState,
    and its standard clouds are row ``id`` of the network's std_table.
    """

    id: int
    x: float
    y: float
    energy: float
    attacker: str = HONEST
    alive: bool = True
    last_head_round: Optional[int] = None
    death_round: Optional[int] = None

    @property
    def is_malicious(self) -> bool:
        return self.attacker != HONEST

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


@dataclass(slots=True)
class TransferRecord:
    """Ground truth for one member packet handed to a head."""

    member: int
    head: int
    received: bool
    outcome: str  # timely | delayed | dropped
    attack_drop: bool = False
    attack_delay: bool = False


def _no_pairs() -> np.ndarray:
    return np.zeros(0, dtype=np.intp)


class Evidence(NamedTuple):
    """A data phase's evidence counts, one entry per (observer, head) pair.

    Rows run by head id, then observer id, and only pairs with a packet
    sent are listed; ``timely <= forwarded <= sent`` holds in every row.
    """

    observer: np.ndarray
    head: np.ndarray
    sent: np.ndarray
    forwarded: np.ndarray
    timely: np.ndarray


class Decisions(NamedTuple):
    """A round's classification decisions, one entry per (observer, target)."""

    observer: np.ndarray
    target: np.ndarray
    #: True where the observer judged the target malicious
    malicious: np.ndarray


@dataclass
class ClusterRoundOutcome:
    """Everything observable about one protocol round."""

    round_index: int
    clusters: dict[int, list[int]] = field(default_factory=dict)
    direct_to_sink: list[int] = field(default_factory=list)
    transfers: list[TransferRecord] = field(default_factory=list)
    attack_drops: int = 0
    attack_delays: int = 0
    decisions: Decisions = field(
        default_factory=lambda: Decisions(
            _no_pairs(), _no_pairs(), np.zeros(0, dtype=bool)
        )
    )


class NetworkState:
    """Devices, the static topology, scenario parameters and all trust state.

    ``dist[i, j]`` is the distance from device i to device j.  The standard
    clouds' update pools are ``pools``.
    """

    def __init__(self, cfg: ScenarioConfig, devices: list[DeviceState]):
        self.cfg = cfg
        self.energy: EnergyParams = cfg.energy_params()
        self.devices = devices
        self.sink = cfg.sink()
        self.phases = cfg.channel_schedule()
        self.epoch = math.ceil(1.0 / cfg.p_ch)
        self.sink_dist = [
            math.hypot(d.x - self.sink[0], d.y - self.sink[1]) for d in devices
        ]
        radius = cfg.neighbor_radius
        n = len(devices)
        self.neighbors: list[list[tuple[int, float]]] = []
        rows = []
        for d in devices:
            near = []
            row = [0.0] * n
            for other in devices:
                if other.id == d.id:
                    continue
                dist = math.hypot(d.x - other.x, d.y - other.y)
                row[other.id] = dist
                if dist <= radius:
                    near.append((other.id, dist))
            near.sort()
            self.neighbors.append(near)
            rows.append(row)
        self.dist = np.array(rows, dtype=float).reshape(n, n)
        self.neighbor_mask = np.zeros((n, n), dtype=bool)
        for d, near in zip(devices, self.neighbors):
            self.neighbor_mask[d.id, [nid for nid, _ in near]] = True
        self.trust = TrustState(n, cfg.thr_drp)
        self.pools = UpdatePools(n, cfg.max_drp)
        #: every device's standard clouds as a standard_table row; a row of
        #: NaN until training gives the device standards
        self.std_table = np.full((n, 6), np.nan)

    def phase_for(self, r: int) -> ChannelPhase:
        current = self.phases[0]
        for phase in self.phases:
            if phase.start_round <= r:
                current = phase
            else:
                break
        return current

    def alive_devices(self) -> list[DeviceState]:
        return [d for d in self.devices if d.alive]

    def alive_count(self) -> int:
        return sum(1 for d in self.devices if d.alive)

    def mark_deaths(self, r: int) -> None:
        for d in self.devices:
            if not d.alive and d.death_round is None:
                d.death_round = r


def election_threshold(r: int, p_ch: float) -> float:
    """Rotating self-election threshold, capped at 1.

    This is the LEACH threshold p / (1 - p (r mod 1/p)) (Heinzelman et al.,
    HICSS 2000).  It rises over a period of 1/p_ch rounds, 14.29 at the
    default p_ch = 0.07, while a head becomes eligible again only after
    ``NetworkState.epoch`` = ceil(1/p_ch) = 15 rounds.  The period and the
    epoch thus drift apart by a fraction of a round per cycle, and some
    rounds find few eligible devices when the threshold peaks.  The
    mismatch is kept as the scenario defines it.
    """
    denom = 1.0 - p_ch * math.fmod(r, 1.0 / p_ch)
    if denom <= 0.0:
        return 1.0
    return min(p_ch / denom, 1.0)


def is_eligible(device: DeviceState, r: int, epoch: int) -> bool:
    return device.last_head_round is None or r - device.last_head_round >= epoch


def decide_head(
    device: DeviceState, r: int, rng: Random, *, p_ch: float, epoch: int
) -> bool:
    """Self-decide headship; a winning device books the round immediately."""
    if not device.alive or not is_eligible(device, r, epoch):
        return False
    if rng.random() < election_threshold(r, p_ch):
        device.last_head_round = r
        return True
    return False


def choose_heads(
    trust: TrustState, observers, heads, dist, judged, malicious
) -> tuple[np.ndarray, np.ndarray]:
    """Each member's head among the candidate rows it heard.

    Row i is a broadcast member ``observers[i]`` heard from ``heads[i]`` at
    distance ``dist[i]``; ``judged`` marks the rows the member classified
    and ``malicious`` the verdicts of those.  The nearest normal candidate
    wins (ties to the lowest id).  Without one, the unjudged candidates
    (no individual cloud yet) are ranked by first-hand heuristics: the
    nearest never-recorded one, else the one with the highest trust
    estimate.  Candidates judged malicious are discarded.

    Returns (members, heads) of the members left with a candidate; the
    others must become a head or send to the sink.
    """
    obs = np.asarray(observers, dtype=np.intp)
    tgt = np.asarray(heads, dtype=np.intp)
    recorded = trust.count[obs, tgt] > 0
    # 0 normal, 1 unjudged and never recorded, 2 unjudged but recorded,
    # 3 malicious; one sort ranks every member's rows by it, then by the
    # distance (by the trust estimate for category 2), then by head id.
    category = np.where(judged, 3 * np.asarray(malicious, dtype=bool), 1 + recorded)
    key = np.where(category == 2, -trust.mean[obs, tgt], dist)
    order = np.lexsort((tgt, key, 4 * obs + category))
    first = np.ones(len(order), dtype=bool)
    first[1:] = obs[order[1:]] != obs[order[:-1]]
    best = order[first]
    best = best[category[best] != 3]
    return obs[best], tgt[best]


def run_data_phase(
    net: NetworkState,
    clusters: dict[int, list[int]],
    phase: ChannelPhase,
    rng: Random,
    outcome: ClusterRoundOutcome,
) -> Evidence:
    """Slotted data transfer with cluster-wide overhearing.

    Every member sends one data packet to its head; the head relays each
    received packet toward the sink in a single attempt while malicious heads
    drop or delay with their class probabilities.  Members overhear both the
    uplinks and the relays through independent channel draws, producing the
    evidence counts of each (observer, head) pair for this round.

    Overhearing is the bulk of the round's energy accounting, so its charge
    is written out in both watcher loops; it does exactly what
    ``DeviceState.spend`` does.
    """
    cfg = net.cfg
    energy = net.energy
    bits = cfg.data_bits
    p0 = phase.bad_prob
    draw = rng.random
    overhear_cost = overhear_energy(bits, energy)
    rx_cost = rx_energy(bits, energy)
    aggregate_cost = aggregate_energy(bits, 1, energy)
    evidence: list[tuple[int, int, int, int, int]] = []

    for head_id in sorted(clusters):
        head = net.devices[head_id]
        member_ids = sorted(clusters[head_id])
        members = [net.devices[m] for m in member_ids]
        mult = ATTACK_MULTIPLIER[head.attacker]
        sink_tx = tx_energy(bits, net.sink_dist[head_id], energy)
        uplink = net.dist[member_ids, head_id].tolist()
        # Evidence counters by member position.
        sent = [0] * len(members)
        forwarded = [0] * len(members)
        timely = [0] * len(members)

        for i, member in enumerate(members):
            if not member.alive:
                continue
            if not member.spend(tx_energy(bits, uplink[i], energy)):
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
            watchers = [i]
            for j, o in enumerate(members):
                if j == i or not o.alive or (p0 != 0.0 and draw() < p0):
                    continue
                left = o.energy
                if left >= overhear_cost:
                    left -= overhear_cost
                    if left <= 0.0:
                        o.energy = 0.0
                        o.alive = False
                    else:
                        o.energy = left
                    watchers.append(j)
                else:
                    o.energy = 0.0
                    o.alive = False

            if not received or (mult and draw() < mult * cfg.p_dp):
                if received:
                    record.attack_drop = True
                    outcome.attack_drops += 1
                for j in watchers:
                    sent[j] += 1
                continue

            attack_delayed = bool(mult) and draw() < mult * cfg.p_dy
            if attack_delayed:
                rng.uniform(0.0, cfg.max_dur)  # delay duration within the slot
                record.attack_delay = True
                outcome.attack_delays += 1

            # The head relays once; lost relays surface as drops, so a
            # delaying event can only come from an actual delaying attack.
            head.spend(aggregate_cost)
            attempted = head.spend(sink_tx)
            delivered = attempted and (p0 == 0.0 or draw() >= p0)

            if not attempted or not delivered:
                record.outcome = "dropped"
            elif attack_delayed:
                record.outcome = "delayed"
            else:
                record.outcome = "timely"

            for j in watchers:
                sent[j] += 1
                if not attempted or (p0 != 0.0 and draw() < p0):
                    continue
                o = members[j]
                if not o.alive:
                    continue
                left = o.energy
                if left >= overhear_cost:
                    left -= overhear_cost
                    if left <= 0.0:
                        o.energy = 0.0
                        o.alive = False
                    else:
                        o.energy = left
                    forwarded[j] += 1
                    if not attack_delayed:
                        timely[j] += 1
                else:
                    o.energy = 0.0
                    o.alive = False

        # The head reports its own readings alongside the aggregate.
        if head.alive:
            head.spend(sink_tx)

        for j, member_id in enumerate(member_ids):
            if sent[j]:
                evidence.append((member_id, head_id, sent[j], forwarded[j], timely[j]))

    return Evidence(*np.array(evidence, dtype=np.intp).reshape(-1, 5).T)


def run_round(
    net: NetworkState,
    r: int,
    rng: Random,
    np_rng,
) -> ClusterRoundOutcome:
    """Execute one full protocol round and return its outcome."""
    cfg = net.cfg
    energy = net.energy
    phase = net.phase_for(r)
    outcome = ClusterRoundOutcome(round_index=r)
    alive = net.alive_devices()
    if not alive:
        return outcome

    # --- election ---------------------------------------------------------
    heads: list[int] = []
    for dev in alive:
        if decide_head(dev, r, rng, p_ch=cfg.p_ch, epoch=net.epoch):
            heads.append(dev.id)
            dev.spend(tx_energy(cfg.control_bits, cfg.neighbor_radius, energy))
    head_set = set(heads)

    # Broadcast reception: election announcements are control-plane messages
    # heard across the deployment area, but a member only learns of heads
    # whose announcement its own channel actually delivered.  Each delivery
    # is one candidate row (member, head).
    p0 = phase.bad_prob
    draw = rng.random
    control_rx = rx_energy(cfg.control_bits, energy)
    live_heads = [h for h in heads if net.devices[h].alive]
    members: list[int] = []
    cand_obs: list[int] = []
    cand_tgt: list[int] = []
    for dev in alive:
        if dev.id in head_set or not dev.alive:
            continue
        members.append(dev.id)
        spend = dev.spend
        for head_id in live_heads:
            if (p0 == 0.0 or draw() >= p0) and spend(control_rx):
                cand_obs.append(dev.id)
                cand_tgt.append(head_id)

    # --- cluster joining --------------------------------------------------
    # Trust is read and written one batch of distinct (observer, target)
    # pairs at a time.  Standard clouds only change in the update step at
    # the end of the round, so one table of them serves both classifications.
    trust = net.trust
    n = len(net.devices)
    stds = net.std_table

    def judgeable(obs: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        return trust.full[obs, tgt] & ~np.isnan(stds[obs, 0])

    def judge(obs: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """True where the observer classifies the target malicious."""
        return classify_pairs(
            trust, stds, obs, tgt, np_rng, kappa=cfg.kappa, n_drp=cfg.n_drp
        )

    cand_obs = np.array(cand_obs, dtype=np.intp)
    cand_tgt = np.array(cand_tgt, dtype=np.intp)
    judged = judgeable(cand_obs, cand_tgt)
    join_obs, join_tgt = cand_obs[judged], cand_tgt[judged]
    join_mal = judge(join_obs, join_tgt)
    malicious = np.zeros(len(cand_obs), dtype=bool)
    malicious[judged] = join_mal
    joiners, chosen_heads = choose_heads(
        trust, cand_obs, cand_tgt, net.dist[cand_obs, cand_tgt], judged, malicious
    )
    chosen = dict(zip(joiners.tolist(), chosen_heads.tolist()))

    clusters: dict[int, list[int]] = {h: [] for h in heads}
    for dev_id in members:
        member = net.devices[dev_id]
        if not member.alive:
            continue
        head_id = chosen.get(dev_id)
        if head_id is not None:
            clusters[head_id].append(dev_id)
        elif is_eligible(member, r, net.epoch):
            member.last_head_round = r
            member.spend(tx_energy(cfg.control_bits, cfg.neighbor_radius, energy))
            clusters[dev_id] = []
        else:
            outcome.direct_to_sink.append(dev_id)
            member.spend(tx_energy(cfg.data_bits, net.sink_dist[dev_id], energy))

    outcome.clusters = clusters

    # --- data transfer and overhearing -------------------------------------
    evidence = run_data_phase(net, clusters, phase, rng, outcome)

    # Per-round monitoring duty for every device still alive.
    monitor_cost = monitor_energy(cfg.monitor_seconds, energy)
    for dev in net.devices:
        if dev.alive:
            dev.spend(monitor_cost)

    # --- trust inference on own head ---------------------------------------
    # Every pair written this round is distinct: a member infers trust in its
    # own head only, and hears recommendations about other devices only.
    observed = np.array(
        [net.devices[o].alive for o in evidence.observer.tolist()], dtype=bool
    )
    inf_obs = evidence.observer[observed]
    inf_tgt = evidence.head[observed]
    inf_val = [
        trust_from_counts(*counts)
        for counts in zip(
            evidence.sent[observed].tolist(),
            evidence.forwarded[observed].tolist(),
            evidence.timely[observed].tolist(),
        )
    ]
    record_trust(trust, inf_obs, inf_tgt, inf_val, direct=True)

    # --- recommendations from the chosen head ------------------------------
    # A member asks its trusted head about the devices it must judge soon
    # (the round's candidate heads) and about pairs it has no individual
    # cloud for yet.  The head only relays trust it formed by its own
    # overhearing, so recommendation chains cannot drift away from observed
    # behavior.
    askers = [(h, m) for h in sorted(clusters) for m in sorted(clusters[h])]
    ask_head = np.array([h for h, _ in askers], dtype=np.intp)
    ask_mem = np.array([m for _, m in askers], dtype=np.intp)
    t_ij = trust.mean[ask_mem, ask_head]
    heard = np.zeros((n, n), dtype=bool)
    heard[cand_obs, cand_tgt] = True
    wanted = (
        heard[ask_mem]
        | (net.neighbor_mask[ask_mem] & ~trust.known[ask_mem])
        | trust.immature[ask_mem]
    )
    rows = np.arange(len(askers))
    wanted[rows, ask_head] = False
    wanted[rows, ask_mem] = False
    offers = wanted & (trust.fh_count[ask_head] > 0)
    worth_asking = np.flatnonzero(offers.any(axis=1) & (t_ij > 0.0))
    ask_dist = net.dist[ask_mem[worth_asking], ask_head[worth_asking]].tolist()
    asked: list[int] = []
    for i, dist in zip(worth_asking.tolist(), ask_dist):
        head_id, member_id = askers[i]
        member = net.devices[member_id]
        head = net.devices[head_id]
        if not member.alive or not head.alive:
            continue
        control_tx = tx_energy(cfg.control_bits, dist, energy)
        member.spend(control_tx)
        if (
            head.spend(control_rx)
            and head.spend(control_tx)
            and member.spend(control_rx)
        ):
            asked.append(i)
    ask, rec_tgt = np.nonzero(offers[asked])
    ask = np.asarray(asked, dtype=np.intp)[ask]
    rec_obs = ask_mem[ask]
    rec_val = recommend_trust(
        trust.mean[rec_obs, rec_tgt],
        trust.firsthand[ask_head[ask], rec_tgt],
        t_ij[ask],
    )
    record_trust(trust, rec_obs, rec_tgt, rec_val)

    # --- classification and standard-cloud updates -------------------------
    upd_obs = np.concatenate([inf_obs, rec_obs])
    upd_tgt = np.concatenate([inf_tgt, rec_tgt])
    order = np.argsort(upd_obs * n + upd_tgt)
    upd_obs, upd_tgt = upd_obs[order], upd_tgt[order]
    judged = judgeable(upd_obs, upd_tgt)
    post_obs, post_tgt = upd_obs[judged], upd_tgt[judged]
    post_mal = judge(post_obs, post_tgt)

    # A pair judged at joining keeps that decision.
    joined = np.zeros((n, n), dtype=bool)
    joined[join_obs, join_tgt] = True
    fresh = ~joined[post_obs, post_tgt]
    outcome.decisions = Decisions(
        np.concatenate([join_obs, post_obs[fresh]]),
        np.concatenate([join_tgt, post_tgt[fresh]]),
        np.concatenate([join_mal, post_mal[fresh]]),
    )

    net.pools.add(
        post_obs,
        post_mal,
        trust.mean[post_obs, post_tgt],
        stds,
        alpha=cfg.alpha,
        beta=cfg.beta,
    )

    net.mark_deaths(r)
    return outcome
