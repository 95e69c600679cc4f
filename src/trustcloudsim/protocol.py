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
from typing import Callable, NamedTuple, Optional

import numpy as np

from .config import ScenarioConfig
from .fuzzy import EvidenceWindow, compute_attributes, infer_trust
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
    Classification,
    TrustState,
    UpdateAccumulators,
    accumulate_and_maybe_update,
    classify_pairs,
    record_trust,
    recommend_trust,
    standard_table,
)
from .training import StandardClouds, TrainingState

HONEST = "honest"
GENERIC = "generic"
ADVANCED = "advanced"
SUPER = "super"

#: Drop/delay probability multipliers by attacker class.
ATTACK_MULTIPLIER = {HONEST: 0.0, GENERIC: 2.0, ADVANCED: 4.0, SUPER: 6.0}


@dataclass(slots=True)
class DeviceState:
    """One device: identity, radio position, energy, role, and trust standards.

    Its trust in other devices is row ``id`` of the network's TrustState.
    """

    id: int
    x: float
    y: float
    energy: float
    attacker: str = HONEST
    alive: bool = True
    last_head_round: Optional[int] = None
    stds: Optional[StandardClouds] = None
    accumulators: UpdateAccumulators = field(default_factory=UpdateAccumulators)
    training: TrainingState = field(default_factory=TrainingState)
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


class ClusterChoice(NamedTuple):
    kind: str  # "join" | "become_head" | "sink"
    head: Optional[int]


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
    """Devices, the static topology, scenario parameters and all trust state."""

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
        self.neighbors: list[list[tuple[int, float]]] = []
        for d in devices:
            near = []
            for other in devices:
                if other.id == d.id:
                    continue
                dist = math.hypot(d.x - other.x, d.y - other.y)
                if dist <= radius:
                    near.append((other.id, dist))
            near.sort()
            self.neighbors.append(near)
        n = len(devices)
        self.neighbor_mask = np.zeros((n, n), dtype=bool)
        for d, near in zip(devices, self.neighbors):
            self.neighbor_mask[d.id, [nid for nid, _ in near]] = True
        self.trust = TrustState(n, cfg.thr_drp)

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


#: Optional stand-in for the trust classifier, e.g. a ground-truth oracle in
#: harness self-tests.  Called as (observer, target) -> Classification.
ClassifierOverride = Callable[[DeviceState, DeviceState], Classification]


def election_threshold(r: int, p_ch: float) -> float:
    """Rotating self-election threshold, capped at 1."""
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


def choose_cluster(
    member: DeviceState,
    candidates: list[tuple[DeviceState, float]],
    verdicts: list[Optional[Classification]],
    trust: TrustState,
    *,
    r: int,
    epoch: int,
) -> ClusterChoice:
    """Pick a head among broadcast candidates, else self-elect or go direct.

    ``verdicts`` holds the member's classification of each candidate, None
    where it has no individual cloud for it.  The nearest normal candidate
    wins (ties to the lowest id).  With no clouds anywhere, the nearest
    never-recorded candidate is preferred, then the highest trust estimate.
    When nothing survives, an eligible member becomes a head itself.
    """
    normal = [
        (dist, head.id)
        for (head, dist), v in zip(candidates, verdicts)
        if v is Classification.NORMAL
    ]
    if normal:
        normal.sort()
        return ClusterChoice("join", normal[0][1])
    # Candidates classified malicious are discarded; the unclassifiable rest
    # (no individual cloud yet) fall back to first-hand heuristics.
    survivors = [(h, d) for (h, d), v in zip(candidates, verdicts) if v is None]
    if survivors:
        fresh = [
            (dist, head.id)
            for head, dist in survivors
            if trust.count[member.id, head.id] == 0
        ]
        if fresh:
            fresh.sort()
            return ClusterChoice("join", fresh[0][1])
        ranked = [
            (-float(trust.mean[member.id, head.id]), head.id)
            for head, _ in survivors
        ]
        ranked.sort()
        return ClusterChoice("join", ranked[0][1])
    if is_eligible(member, r, epoch):
        return ClusterChoice("become_head", None)
    return ClusterChoice("sink", None)


def run_data_phase(
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


def run_round(
    net: NetworkState,
    r: int,
    rng: Random,
    np_rng,
    *,
    classifier_override: Optional[ClassifierOverride] = None,
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
    # whose announcement its own channel actually delivered.
    candidates: dict[int, list[tuple[DeviceState, float]]] = {}
    p0 = phase.bad_prob
    control_rx = rx_energy(cfg.control_bits, energy)
    for dev in alive:
        if dev.id in head_set or not dev.alive:
            continue
        seen: list[tuple[DeviceState, float]] = []
        for head_id in heads:
            head = net.devices[head_id]
            if not head.alive:
                continue
            if (p0 == 0.0 or rng.random() >= p0) and dev.spend(control_rx):
                dist = math.hypot(dev.x - head.x, dev.y - head.y)
                seen.append((head, dist))
        candidates[dev.id] = seen

    # --- cluster joining --------------------------------------------------
    # Trust is read and written one batch of distinct (observer, target)
    # pairs at a time.  Standard clouds only change in the update step at
    # the end of the round, so one table of them serves both classifications.
    trust = net.trust
    n = len(net.devices)
    stds = standard_table([d.stds for d in net.devices])

    def judgeable(obs: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        return trust.full[obs, tgt] & ~np.isnan(stds[obs, 0])

    def judge(obs: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """True where the observer classifies the target malicious."""
        if classifier_override is None:
            return classify_pairs(
                trust, stds, obs, tgt, np_rng, kappa=cfg.kappa, n_drp=cfg.n_drp
            )
        return np.array(
            [
                classifier_override(net.devices[o], net.devices[t])
                is Classification.MALICIOUS
                for o, t in zip(obs.tolist(), tgt.tolist())
            ],
            dtype=bool,
        )

    members = sorted(candidates)
    cand_obs = np.array(
        [m for m in members for _ in candidates[m]], dtype=np.intp
    )
    cand_tgt = np.array(
        [h.id for m in members for h, _ in candidates[m]], dtype=np.intp
    )
    judged = np.flatnonzero(judgeable(cand_obs, cand_tgt))
    join_obs, join_tgt = cand_obs[judged], cand_tgt[judged]
    join_mal = judge(join_obs, join_tgt)
    verdicts: list[Optional[Classification]] = [None] * len(cand_obs)
    for i, mal in zip(judged.tolist(), join_mal.tolist()):
        verdicts[i] = Classification.MALICIOUS if mal else Classification.NORMAL

    clusters: dict[int, list[int]] = {h: [] for h in heads}
    stop = 0
    for dev_id in members:
        start, stop = stop, stop + len(candidates[dev_id])
        member = net.devices[dev_id]
        if not member.alive:
            continue
        choice = choose_cluster(
            member,
            candidates[dev_id],
            verdicts[start:stop],
            trust,
            r=r,
            epoch=net.epoch,
        )
        if choice.kind == "join":
            clusters[choice.head].append(dev_id)
        elif choice.kind == "become_head":
            member.last_head_round = r
            member.spend(tx_energy(cfg.control_bits, cfg.neighbor_radius, energy))
            clusters[dev_id] = []
        else:
            outcome.direct_to_sink.append(dev_id)
            member.spend(tx_energy(cfg.data_bits, net.sink_dist[dev_id], energy))

    outcome.clusters = clusters

    # --- data transfer and overhearing -------------------------------------
    windows = run_data_phase(net, clusters, phase, rng, outcome)

    # Per-round monitoring duty for every device still alive.
    for dev in net.devices:
        if dev.alive:
            dev.spend(monitor_energy(cfg.monitor_seconds, energy))

    # --- trust inference on own head ---------------------------------------
    # Every pair written this round is distinct: a member infers trust in its
    # own head only, and hears recommendations about other devices only.
    inf_obs: list[int] = []
    inf_tgt: list[int] = []
    inf_val: list[float] = []
    for head_id in sorted(clusters):
        for member_id in sorted(clusters[head_id]):
            if not net.devices[member_id].alive:
                continue
            window = windows.get((member_id, head_id))
            if window is None or window.sent == 0:
                continue
            inf_obs.append(member_id)
            inf_tgt.append(head_id)
            inf_val.append(infer_trust(compute_attributes(window)))
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
    worth_asking = (offers.any(axis=1) & (t_ij > 0.0)).tolist()
    asked: list[int] = []
    for i, (head_id, member_id) in enumerate(askers):
        member = net.devices[member_id]
        head = net.devices[head_id]
        if not member.alive or not head.alive or not worth_asking[i]:
            continue
        dist = math.hypot(member.x - head.x, member.y - head.y)
        member.spend(tx_energy(cfg.control_bits, dist, energy))
        if (
            head.spend(rx_energy(cfg.control_bits, energy))
            and head.spend(tx_energy(cfg.control_bits, dist, energy))
            and member.spend(rx_energy(cfg.control_bits, energy))
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
    upd_obs = np.concatenate([np.asarray(inf_obs, dtype=np.intp), rec_obs])
    upd_tgt = np.concatenate([np.asarray(inf_tgt, dtype=np.intp), rec_tgt])
    order = np.argsort(upd_obs * n + upd_tgt)
    upd_obs, upd_tgt = upd_obs[order], upd_tgt[order]
    judged = judgeable(upd_obs, upd_tgt)
    post_obs, post_tgt = upd_obs[judged], upd_tgt[judged]
    post_mal = judge(post_obs, post_tgt)

    # A pair judged at joining keeps that decision.
    fresh = ~np.isin(post_obs * n + post_tgt, join_obs * n + join_tgt)
    outcome.decisions = Decisions(
        np.concatenate([join_obs, post_obs[fresh]]),
        np.concatenate([join_tgt, post_tgt[fresh]]),
        np.concatenate([join_mal, post_mal[fresh]]),
    )

    values = trust.mean[post_obs, post_tgt].tolist()
    for member_id, mal, value in zip(post_obs.tolist(), post_mal.tolist(), values):
        member = net.devices[member_id]
        member.accumulators, member.stds = accumulate_and_maybe_update(
            member.accumulators,
            Classification.MALICIOUS if mal else Classification.NORMAL,
            value,
            member.stds,
            alpha=cfg.alpha,
            beta=cfg.beta,
        )

    net.mark_deaths(r)
    return outcome
