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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import ScenarioConfig
from .fuzzy import trust_table
from .medium import (
    ChannelPhase,
    EnergyParams,
    aggregate_energy,
    charge,
    monitor_energy,
    overhear_energy,
    rx_energy,
    spend,
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


class PacketCounts(NamedTuple):
    """A data phase's packets: accepted by a head, relayed on time, late."""

    received: int
    timely: int
    delayed: int


class Evidence(NamedTuple):
    """A data phase's evidence counts, one entry per (observer, head) pair.

    Rows run by head id, then observer id, and only pairs with a packet
    sent are listed; ``timely <= forwarded <= sent`` holds in every row.
    ``packets`` totals the phase's packets.
    """

    observer: np.ndarray
    head: np.ndarray
    sent: np.ndarray
    forwarded: np.ndarray
    timely: np.ndarray
    packets: PacketCounts


def _no_evidence() -> Evidence:
    return Evidence(*(_no_pairs() for _ in range(5)), PacketCounts(0, 0, 0))


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
    packets: PacketCounts = PacketCounts(0, 0, 0)
    decisions: Decisions = field(
        default_factory=lambda: Decisions(
            _no_pairs(), _no_pairs(), np.zeros(0, dtype=bool)
        )
    )


class TransmitCosts:
    """tx_energy of one message size over each of an array of distances.

    Entry p is the cost of sending ``bits`` over ``dist.flat[p]``: for an
    n x n distance matrix, from device i to device j at p = i n + j.  Each
    entry is computed with the scalar tx_energy the first time it is asked
    for, then kept: numpy's own powers round some distances differently
    from Python's.
    """

    def __init__(self, bits: int, dist: np.ndarray, energy: EnergyParams):
        self._bits = bits
        self._dist = dist
        self._energy = energy
        self._costs = np.full(dist.size, np.nan)

    def at(self, flat: np.ndarray) -> np.ndarray:
        """The costs at the given flat indices."""
        costs = self._costs.take(flat)
        missing = np.flatnonzero(np.isnan(costs))
        if len(missing):
            new = flat[missing]
            costs[missing] = [
                tx_energy(self._bits, d, self._energy)
                for d in self._dist.take(new).tolist()
            ]
            self._costs.put(new, costs[missing])
        return costs


class NetworkState:
    """Devices, the static topology, scenario parameters and all trust state.

    Device i is at (``x[i]``, ``y[i]``) and of class ``attacker[i]``
    (``malicious[i]`` unless honest).  It has ``level[i]`` joules left, is
    ``alive[i]``, may head a cluster from round ``eligible_from[i]`` on, and
    died in round ``death_round[i]`` (-1 while it lives).  Its trust in
    other devices is row i of ``trust``, its standard clouds row i of
    ``std_table``.

    ``dist[i, j]`` is the distance from device i to device j, and
    ``data_tx`` and ``control_tx`` the cost of sending a data or a control
    message over it (``sink_tx``: a data message from device i to the
    sink).  The standard clouds' update pools are ``pools``.
    """

    def __init__(self, cfg: ScenarioConfig, x, y, attacker: Sequence[str]):
        self.cfg = cfg
        self.energy: EnergyParams = cfg.energy_params()
        n = len(x)
        self.x, self.y = x, y = list(x), list(y)
        self.attacker = list(attacker)
        self.malicious = np.array([a != HONEST for a in self.attacker], dtype=bool)
        self.level = np.full(n, cfg.e0)
        self.alive = np.ones(n, dtype=bool)
        self.eligible_from = np.zeros(n, dtype=np.int64)
        self.death_round = np.full(n, -1, dtype=np.int64)
        self.sink = cfg.sink()
        self.phases = cfg.channel_schedule()
        self.epoch = math.ceil(1.0 / cfg.p_ch)
        #: an election announcement's cost
        self.announce_tx = tx_energy(
            cfg.control_bits, cfg.neighbor_radius, self.energy
        )
        self.sink_dist = [
            math.hypot(xi - self.sink[0], yi - self.sink[1]) for xi, yi in zip(x, y)
        ]
        # each unordered pair's distance once, mirrored: fl(a - b) is
        # -fl(b - a) and hypot takes absolute values, so both halves are
        # what hypot gives in either direction
        upper = np.zeros((n, n))
        for i, (xi, yi) in enumerate(zip(x, y)):
            upper[i, i + 1 :] = [
                math.hypot(xi - xj, yi - yj) for xj, yj in zip(x[i + 1 :], y[i + 1 :])
            ]
        self.dist = upper + upper.T
        self.neighbor_mask = self.dist <= cfg.neighbor_radius
        np.fill_diagonal(self.neighbor_mask, False)
        self.data_tx = TransmitCosts(cfg.data_bits, self.dist, self.energy)
        self.control_tx = TransmitCosts(cfg.control_bits, self.dist, self.energy)
        self.sink_tx = TransmitCosts(
            cfg.data_bits, np.array(self.sink_dist), self.energy
        )
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

    def mark_deaths(self, r: int) -> None:
        """Record round r as the death round of every newly dead device."""
        self.death_round[~self.alive & (self.death_round < 0)] = r


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


def elect_heads(net: NetworkState, r: int, rng: Random) -> np.ndarray:
    """Round r's self-elected heads, in id order.

    Every live device eligible in round r draws one ``rng.random()``, in id
    order, and heads if it falls below the election threshold.  A head may
    not head again for ``net.epoch`` rounds, and pays its announcement.
    """
    ids = np.flatnonzero(net.alive & (net.eligible_from <= r))
    draws = np.array([rng.random() for _ in range(len(ids))])
    heads = ids[draws < election_threshold(r, net.cfg.p_ch)]
    net.eligible_from[heads] = r + net.epoch
    charge(net.level, net.alive, heads, net.announce_tx)
    return heads


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
    pairs = trust.pairs(obs, tgt)
    recorded = trust.count.take(pairs) > 0
    # 0 normal, 1 unjudged and never recorded, 2 unjudged but recorded,
    # 3 malicious; one sort ranks every member's rows by it, then by the
    # distance (by the trust estimate for category 2), then by head id.
    category = np.where(judged, 3 * np.asarray(malicious, dtype=bool), 1 + recorded)
    key = np.where(category == 2, -trust.mean.take(pairs), dist)
    order = np.lexsort((tgt, key, 4 * obs + category))
    first = np.ones(len(order), dtype=bool)
    first[1:] = obs[order[1:]] != obs[order[:-1]]
    best = order[first]
    best = best[category[best] != 3]
    return obs[best], tgt[best]


def _first_death(paid, kind, costs, level) -> tuple[int, bool]:
    """The charge a device dies at, and whether it paid that charge.

    ``paid`` marks which of a device's ordered charges it meets and ``kind``
    indexes each charge's cost in ``costs`` (a scalar when all charges are
    of one kind).  The balance after a charge is ``level`` minus, per kind,
    the running count times the cost, summed in kind order; the device dies
    at the first met charge that leaves no balance, and pays it only if
    that leaves exactly 0.
    """
    spent = sum(
        np.cumsum(paid & (kind == i)) * cost for i, cost in enumerate(costs)
    )
    at = int(np.argmax(paid & (spent >= level)))
    return at, bool(spent[at] == level)


def receive_announcements(
    net: NetworkState,
    listeners: Sequence[int],
    heads: Sequence[int],
    phase: ChannelPhase,
    np_rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Which election announcements each listener hears, as (member, head) rows.

    One draw per (listener, head) pair decides whether the listener's
    channel delivers that head's announcement; every delivery costs the
    listener one control reception, charged in head order.  A listener that
    cannot pay dies and hears none of the later heads; one that pays its
    last joule hears that head and then dies.  Rows run by listener, then
    head, in the orders given.  The listeners are distinct live devices.
    """
    listeners = np.asarray(listeners, dtype=np.intp)
    heads = np.asarray(heads, dtype=np.intp)
    if not len(listeners) or not len(heads):
        return _no_pairs(), _no_pairs()
    cost = rx_energy(net.cfg.control_bits, net.energy)
    level = net.level[listeners]
    heard = np_rng.random((len(listeners), len(heads))) >= phase.bad_prob
    deliveries = heard.sum(axis=1)
    left = level - deliveries * cost
    # Only a listener whose deliveries cost its whole energy dies; a running
    # count over its deliveries finds the first it cannot pay or that
    # empties it, and it hears none after that.
    dying = np.flatnonzero((deliveries > 0) & (left <= 0.0)).tolist()
    for r in dying:
        at, last_joule = _first_death(heard[r], 0, (cost,), level[r])
        heard[r, at + last_joule :] = False
        left[r] = 0.0
    net.level[listeners] = left
    net.alive[listeners[dying]] = False
    obs, tgt = np.nonzero(heard)
    return listeners[obs], heads[tgt]


#: TransferRecord outcomes by code: not delivered, delivered on time, late.
_OUTCOMES = ("dropped", "timely", "delayed")


def run_data_phase(
    net: NetworkState,
    clusters: dict[int, list[int]],
    phase: ChannelPhase,
    np_rng: np.random.Generator,
    outcome: ClusterRoundOutcome,
) -> Evidence:
    """Slotted data transfer with cluster-wide overhearing.

    Every member sends one data packet to its head, in member-id order; the
    head relays each received packet toward the sink in a single attempt
    while malicious heads drop or delay with their class probabilities.
    Members overhear both the uplinks and the relays through independent
    channel draws, producing the evidence counts of each (observer, head)
    pair for this round.

    The phase's channel events come from one ``np_rng.random`` block, laid
    out per cluster (heads by id) as: uplink reception (k values for k
    members), uplink overhearing (k × k, by overhearer then sender), attack
    drop (k), attack delay (k), relay delivery (k) and relay overhearing
    (k × k, as before).  A channel draw below the bad probability loses the
    transmission; a drop or delay draw below the head's class multiplier
    times ``p_dp`` or ``p_dy`` makes the attack.

    Death rule: a device that cannot pay a charge dies, and from then on it
    neither sends, overhears nor counts; a device that pays its last joule
    completes that action and then dies.  A device's balance after a charge
    is its energy at the start of the phase minus, for each kind of charge
    it has paid so far, the count times that kind's cost.  The phase is
    resolved as array passes.  A pass assumes that every device not yet
    known to die lives to the end.  Only a device whose charges then add up
    to its energy can die; for each such device a running count over its
    ordered charges finds the first charge it cannot pay, or that empties
    it.  The earliest such death in each cluster is fixed and the phase is
    resolved again; clusters share no device, so a death in one changes
    nothing in another.  A round with no death takes one pass.

    Appends one TransferRecord per packet sent to ``outcome.transfers`` and
    adds the attacks to its counters; the returned Evidence also carries
    the phase's packet counts.
    """
    heads = sorted(clusters)
    if not heads:
        return _no_evidence()
    cfg = net.cfg
    energy = net.energy
    bits = cfg.data_bits
    p0 = phase.bad_prob
    members = [sorted(clusters[h]) for h in heads]
    sizes = [len(ms) for ms in members]
    width = max(max(sizes), 1)
    head_ids = np.array(heads, dtype=np.intp)

    # One slot per member, by head id then member id; a pair is an
    # (overhearer, sender) pair of slots of one cluster, in the drawn order.
    ids = np.array([m for ms in members for m in ms], dtype=np.intp)
    k = np.array(sizes, dtype=np.intp)
    first_slot = np.cumsum(k) - k
    cl = np.repeat(np.arange(len(heads)), k)
    pos = np.arange(len(ids)) - first_slot[cl]
    per_pair = k * k
    reps = k[cl]
    pairs_of = np.cumsum(reps) - reps  # each overhearer's first pair
    hearer = np.repeat(np.arange(len(ids)), reps)
    sender = np.arange(len(hearer)) + (first_slot[cl] - pairs_of)[hearer]
    own = sender == hearer

    # Cluster c's draws start at start[c]: uplink (k), overhears (k × k),
    # drop, delay and relay (k each), relay overhears (k × k).
    size = 2 * per_pair + 4 * k
    block = np_rng.random(int(size.sum()))
    start = np.cumsum(size) - size
    slot_at = start[cl] + pos
    after = slot_at + (per_pair + k)[cl]
    pair_at = np.arange(len(hearer)) + (
        (start + k - np.cumsum(per_pair) + per_pair)[cl][hearer]
    )
    mult = np.array([ATTACK_MULTIPLIER[net.attacker[h]] for h in heads])
    up_ok = block[slot_at] >= p0
    over_ok = block[pair_at] >= p0
    drop_hit = block[after] < (mult * cfg.p_dp)[cl]
    delay_hit = block[after + reps] < (mult * cfg.p_dy)[cl]
    relay_ok = block[after + 2 * reps] >= p0
    relay_over_ok = block[pair_at + (per_pair + 3 * k)[cl][hearer]] >= p0

    # Every charge has a key that orders it within its cluster's phase: slot
    # i holds the sender's transmit (i·s), the head's reception (i·s + 1),
    # the uplink overhear of the member at position j (i·s + 2 + j), the
    # head's aggregation and relay (i·s + 2 + w, i·s + 3 + w), then the
    # relay overhear of position j (i·s + 4 + w + j), for a step s of 2w + 4
    # with w the largest cluster; the head's own report comes last.
    step = 2 * width + 4
    tx_key = pos * step
    sender_key = tx_key[sender]
    report_key = width * step
    never = report_key + 1

    member_level = net.level[ids]
    head_level = net.level[head_ids]
    was_alive = net.alive[ids]
    head_was_alive = net.alive[head_ids]
    over_cost = overhear_energy(bits, energy)
    rx_cost = rx_energy(bits, energy)
    aggregate_cost = aggregate_energy(bits, 1, energy)
    tx_cost = net.data_tx.at(ids * len(net.level) + head_ids[cl])
    sink_tx = net.sink_tx.at(head_ids)

    # A device's charges succeed up to (and including) the key in `until`:
    # `never` while it lives, -1 if it was dead before the phase.
    until = np.where(was_alive, never, -1)
    head_until = np.where(head_was_alive, never, -1)
    while True:
        at_head = head_until[cl]
        sends = tx_key <= until
        received = sends & up_ok & (tx_key + 1 <= at_head)
        # The head relays once; a lost relay surfaces as a drop, so a
        # delaying event can only come from an actual delaying attack.
        relayed = received & ~drop_hit
        delayed = relayed & delay_hit
        aggregated = relayed & (tx_key + 2 + width <= at_head)
        attempted = relayed & (tx_key + 3 + width <= at_head)
        # Cluster mates that catch an uplink know the packet awaits
        # forwarding; the sender knows its own.
        over_alive = sender_key <= (until - 2 - pos)[hearer]
        watch = sends[sender] & (own | (over_ok & over_alive))
        relay_alive = sender_key <= (until - 4 - width - pos)[hearer]
        relay_seen = watch & attempted[sender] & relay_over_ok & relay_alive
        sent = np.add.reduceat(watch, pairs_of, dtype=np.intp)
        forwarded = np.add.reduceat(relay_seen, pairs_of, dtype=np.intp)
        spent = tx_cost + over_cost * (sent - 1 + forwarded)
        relays = np.bincount(cl[attempted], minlength=len(heads))
        head_spent = (
            np.bincount(cl[received], minlength=len(heads)) * rx_cost
            + relays * aggregate_cost
            + (relays + 1) * sink_tx
        )

        # cluster -> (key, slot or None for the head, paid its last joule)
        deaths: dict[int, tuple[int, Optional[int], bool]] = {}
        dying = (until == never) & (spent >= member_level)
        for r in np.flatnonzero(dying).tolist():
            pairs = slice(pairs_of[r], pairs_of[r] + reps[r])
            j = int(pos[r])
            at, last_joule = _first_death(
                np.stack([watch[pairs], relay_seen[pairs]], axis=1).ravel(),
                np.where(np.arange(2 * reps[r]) == 2 * j, 0, 1),
                (tx_cost[r], over_cost),
                member_level[r],
            )
            # charge `at` is slot at // 2's own transmit, uplink or relay overhear
            key = (at // 2) * step + (
                (4 + width + j) if at % 2 else 0 if at == 2 * j else 2 + j
            )
            c = int(cl[r])
            if c not in deaths or key < deaths[c][0]:
                deaths[c] = (key, r, last_joule)
        dying = (head_until == never) & (head_spent >= head_level)
        for c in np.flatnonzero(dying).tolist():
            slots = slice(first_slot[c], first_slot[c] + k[c])
            paid = np.stack([received[slots], aggregated[slots], attempted[slots]])
            kind = np.arange(3 * k[c] + 1) % 3
            kind[-1] = 2  # the report is a relay
            at, last_joule = _first_death(
                np.append(paid.T.ravel(), True),
                kind,
                (rx_cost, aggregate_cost, sink_tx[c]),
                head_level[c],
            )
            key = report_key if at == 3 * k[c] else (
                (at // 3) * step + (1, 2 + width, 3 + width)[at % 3]
            )
            if c not in deaths or key < deaths[c][0]:
                deaths[c] = (key, None, last_joule)
        if not deaths:
            break
        # Fix the earliest death of each cluster, then resolve again.
        for c, (key, r, last_joule) in deaths.items():
            if r is None:
                head_until[c] = key if last_joule else key - 1
            else:
                until[r] = key if last_joule else key - 1

    # --- write back the energies and the round's records -------------------
    # (a device dead before the phase keeps its level)
    for at, was, stop, before, cost in (
        (ids, was_alive, until, member_level, spent),
        (head_ids, head_was_alive, head_until, head_level, head_spent),
    ):
        net.level[at[was]] = np.where(stop == never, before - cost, 0.0)[was]
        net.alive[at] = stop == never

    dropped = received & drop_hit
    code = (attempted & relay_ok) * (1 + delayed)
    s = np.flatnonzero(sends)
    outcome.transfers.extend(
        map(
            TransferRecord,
            ids[s].tolist(),
            head_ids[cl[s]].tolist(),
            received[s].tolist(),
            map(_OUTCOMES.__getitem__, code[s].tolist()),
            dropped[s].tolist(),
            delayed[s].tolist(),
        )
    )
    outcome.attack_drops += int(np.count_nonzero(dropped))
    outcome.attack_delays += int(np.count_nonzero(delayed))

    timely = np.add.reduceat(relay_seen & ~delayed[sender], pairs_of, dtype=np.intp)
    r = np.flatnonzero(sent)
    return Evidence(
        ids[r],
        head_ids[cl[r]],
        sent[r],
        forwarded[r],
        timely[r],
        PacketCounts(
            int(np.count_nonzero(received)),
            int(np.count_nonzero(code == 1)),
            int(np.count_nonzero(code == 2)),
        ),
    )


def run_round(
    net: NetworkState,
    r: int,
    rng: Random,
    np_rng: np.random.Generator,
    normals,
) -> ClusterRoundOutcome:
    """Execute one full protocol round and return its outcome.

    ``rng`` draws the election, ``np_rng`` the channel events of reception
    and the data phase, and ``normals`` (anything with ``standard_normal``)
    the classifier's samples.
    """
    cfg = net.cfg
    energy = net.energy
    phase = net.phase_for(r)
    outcome = ClusterRoundOutcome(round_index=r)
    if not net.alive.any():
        return outcome

    # --- election ---------------------------------------------------------
    heads = elect_heads(net, r, rng)

    # Broadcast reception: election announcements are control-plane messages
    # heard across the deployment area, but a member only learns of heads
    # whose announcement its own channel actually delivered.  Each delivery
    # is one candidate row (member, head).
    n = len(net.level)
    placed = np.zeros(n, dtype=bool)
    placed[heads] = True
    members = np.flatnonzero(net.alive & ~placed)
    cand_obs, cand_tgt = receive_announcements(
        net, members, heads[net.alive[heads]], phase, np_rng
    )

    # --- cluster joining --------------------------------------------------
    # Trust is read and written one batch of distinct (observer, target)
    # pairs at a time, each pair by its flat index.  Standard clouds only
    # change in the update step at the end of the round, so one table of
    # them serves both classifications.
    trust = net.trust
    stds = net.std_table
    has_stds = ~np.isnan(stds[:, 0])

    def judgeable(obs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        return (trust.count.take(pairs) >= trust.window) & has_stds.take(obs)

    def judge(obs: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """True where the observer classifies the target malicious."""
        return classify_pairs(
            trust, stds, obs, tgt, normals, kappa=cfg.kappa, n_drp=cfg.n_drp
        )

    cand = cand_obs * n + cand_tgt
    judged = judgeable(cand_obs, cand)
    join_obs, join_tgt = cand_obs[judged], cand_tgt[judged]
    join_mal = judge(join_obs, join_tgt)
    malicious = np.zeros(len(cand_obs), dtype=bool)
    malicious[judged] = join_mal
    joiners, chosen_heads = choose_heads(
        trust, cand_obs, cand_tgt, net.dist.take(cand), judged, malicious
    )
    # A member that died listening joins no cluster.  One left without a
    # head self-elects if it is eligible, and sends to the sink otherwise.
    joined = net.alive[joiners]
    clusters: dict[int, list[int]] = {h: [] for h in heads.tolist()}
    for m, h in zip(joiners[joined].tolist(), chosen_heads[joined].tolist()):
        clusters[h].append(m)
    placed[joiners] = True
    alone = np.flatnonzero(net.alive & ~placed)
    eligible = net.eligible_from[alone] <= r
    self_elected = alone[eligible]
    net.eligible_from[self_elected] = r + net.epoch
    charge(net.level, net.alive, self_elected, net.announce_tx)
    clusters.update((m, []) for m in self_elected.tolist())
    direct = alone[~eligible]
    charge(net.level, net.alive, direct, net.sink_tx.at(direct))
    outcome.direct_to_sink = direct.tolist()
    outcome.clusters = clusters

    # --- data transfer and overhearing -------------------------------------
    evidence = run_data_phase(net, clusters, phase, np_rng, outcome)
    outcome.packets = evidence.packets

    # Per-round monitoring duty for every device still alive.
    monitor_cost = monitor_energy(cfg.monitor_seconds, energy)
    charge(net.level, net.alive, np.flatnonzero(net.alive), monitor_cost)

    # --- trust inference on own head ---------------------------------------
    # Every pair written this round is distinct: a member infers trust in its
    # own head only, and hears recommendations about other devices only.
    observed = net.alive[evidence.observer]
    inf_obs = evidence.observer[observed]
    inf_tgt = evidence.head[observed]
    inf_val = trust_table.trust(
        evidence.sent[observed], evidence.forwarded[observed], evidence.timely[observed]
    )
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
    ask_pair = ask_mem * n + ask_head
    t_ij = trust.mean.take(ask_pair)
    heard = np.zeros((n, n), dtype=bool)
    heard.put(cand, True)
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
    worth_asking = np.flatnonzero(offers.any(axis=1) & (t_ij > 0.0))
    ask_cost = net.control_tx.at(ask_pair[worth_asking]).tolist()
    control_rx = rx_energy(cfg.control_bits, energy)
    asked: list[int] = []
    level, alive = net.level.tolist(), net.alive.tolist()
    for i, control_tx in zip(worth_asking.tolist(), ask_cost):
        head, member = askers[i]
        if not alive[member] or not alive[head]:
            continue
        spend(level, alive, member, control_tx)
        if (
            spend(level, alive, head, control_rx)
            and spend(level, alive, head, control_tx)
            and spend(level, alive, member, control_rx)
        ):
            asked.append(i)
    net.level[:], net.alive[:] = level, alive
    ask, rec_tgt = np.nonzero(offers[asked])
    ask = np.asarray(asked, dtype=np.intp)[ask]
    rec_obs = ask_mem[ask]
    rec_val = recommend_trust(
        trust.mean.take(rec_obs * n + rec_tgt),
        trust.firsthand.take(ask_head[ask] * n + rec_tgt),
        t_ij[ask],
    )
    record_trust(trust, rec_obs, rec_tgt, rec_val)

    # --- classification and standard-cloud updates -------------------------
    upd_obs = np.concatenate([inf_obs, rec_obs])
    upd_tgt = np.concatenate([inf_tgt, rec_tgt])
    upd = upd_obs * n + upd_tgt
    order = np.argsort(upd)
    upd_obs, upd_tgt, upd = upd_obs[order], upd_tgt[order], upd[order]
    judged = judgeable(upd_obs, upd)
    post_obs, post_tgt, post = upd_obs[judged], upd_tgt[judged], upd[judged]
    post_mal = judge(post_obs, post_tgt)

    # A pair judged at joining keeps that decision.
    joined = np.zeros(n * n, dtype=bool)
    joined.put(join_obs * n + join_tgt, True)
    fresh = ~joined.take(post)
    outcome.decisions = Decisions(
        np.concatenate([join_obs, post_obs[fresh]]),
        np.concatenate([join_tgt, post_tgt[fresh]]),
        np.concatenate([join_mal, post_mal[fresh]]),
    )

    net.pools.add(
        post_obs,
        post_mal,
        trust.mean.take(post),
        stds,
        alpha=cfg.alpha,
        beta=cfg.beta,
    )

    net.mark_deaths(r)
    return outcome
