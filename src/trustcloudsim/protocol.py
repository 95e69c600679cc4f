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
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from .config import ScenarioConfig
from .fuzzy import trust_table
from .medium import (
    ChannelPhase,
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


class Transfers(Sequence):
    """A data phase's TransferRecords, one per packet sent, made when read.

    Slot i of the column arrays is a member's packet, listed where ``sent[i]``
    holds; ``code`` indexes ``_OUTCOMES``.
    """

    def __init__(self, sent, member, head, received, code, attack_drop, attack_delay):
        self._count = int(np.count_nonzero(sent))
        self._columns = (sent, member, head, received, code, attack_drop, attack_delay)
        self._records: Optional[list[TransferRecord]] = None

    def _list(self) -> list[TransferRecord]:
        if self._records is None:
            sent, *columns = self._columns
            member, head, received, code, drop, delay = (
                c[sent].tolist() for c in columns
            )
            self._records = list(
                map(TransferRecord, member, head, received,
                    map(_OUTCOMES.__getitem__, code), drop, delay)
            )
        return self._records

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        return self._list()[i]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return self._list() == list(other)
        return NotImplemented

    __hash__ = None


class Clusters(Mapping):
    """A round's clusters, held as arrays; as a mapping, each head's members.

    ``heads`` are the round's heads in id order.  ``members`` lists every
    head's members, by head then member id; ``head_of[s]`` is the head of
    ``members[s]`` and ``cluster[s]`` its index into ``heads``.  Head
    ``heads[c]`` has ``sizes[c]`` members, from ``members[first[c]]`` on.
    """

    def __init__(self, heads: np.ndarray, members: np.ndarray, head_of: np.ndarray):
        self.heads = heads
        self.members = members
        self.head_of = head_of
        self.cluster = heads.searchsorted(head_of)
        self.sizes = np.bincount(self.cluster, minlength=len(heads))
        self.first = self.sizes.cumsum() - self.sizes

    def __getitem__(self, head) -> list[int]:
        c = int(np.searchsorted(self.heads, head))
        if c == len(self.heads) or self.heads[c] != head:
            raise KeyError(head)
        return self.members[self.first[c] : self.first[c] + self.sizes[c]].tolist()

    def __iter__(self):
        return iter(self.heads.tolist())

    def __len__(self) -> int:
        return len(self.heads)


_NO_CLUSTERS = Clusters(_no_pairs(), _no_pairs(), _no_pairs())


@dataclass
class ClusterRoundOutcome:
    """Everything observable about one protocol round."""

    round_index: int
    #: the channel phase the round ran in
    phase: Optional[ChannelPhase] = None
    clusters: Clusters = field(default_factory=lambda: _NO_CLUSTERS)
    direct_to_sink: list[int] = field(default_factory=list)
    transfers: Sequence[TransferRecord] = field(default_factory=list)
    attack_drops: int = 0
    attack_delays: int = 0
    packets: PacketCounts = PacketCounts(0, 0, 0)
    decisions: Decisions = field(
        default_factory=lambda: Decisions(
            _no_pairs(), _no_pairs(), np.zeros(0, dtype=bool)
        )
    )


class NetworkState:
    """Devices, the static topology, scenario parameters and all trust state.

    Device i is at (``x[i]``, ``y[i]``) and of class ``attacker[i]``
    (``malicious[i]`` unless honest).  It has ``level[i]`` joules left, is
    ``alive[i]``, may head a cluster from round ``eligible_from[i]`` on, and
    died in round ``death_round[i]`` (-1 while it lives).  Its trust in
    other devices is row i of ``trust``, its standard clouds row i of
    ``std_table``.

    ``dist[i, j]`` is the distance from device i to device j, and
    ``data_tx``, ``control_tx`` and ``training_tx`` the cost of sending a
    data, a control or a training message over it (``sink_dist[i]`` and
    ``sink_tx[i]``: device i to the sink, with a data message).  The
    standard clouds' update pools are ``pools``.
    """

    def __init__(self, cfg: ScenarioConfig, x, y, attacker: Sequence[str]):
        self.cfg = cfg
        self.energy = energy = cfg.energy_params()
        self.x = x = np.array(x, dtype=float)
        self.y = y = np.array(y, dtype=float)
        n = len(x)
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
        self.announce_tx = tx_energy(cfg.control_bits, cfg.neighbor_radius, energy)
        self.sink_dist = np.hypot(x - self.sink[0], y - self.sink[1])
        # exactly symmetric: fl(a - b) is -fl(b - a)
        self.dist = np.hypot(x[:, None] - x, y[:, None] - y)
        self.neighbor_mask = self.dist <= cfg.neighbor_radius
        np.fill_diagonal(self.neighbor_mask, False)
        #: flat indices of the neighbour pairs with no trust recorded yet, as
        #: of the last recommendation exchange
        self.quiet_neighbors = np.flatnonzero(self.neighbor_mask)
        #: a False flag per pair, for a phase to set, read and clear again
        self.pair_mark = np.zeros(n * n, dtype=bool)
        self.data_tx = tx_energy(cfg.data_bits, self.dist, energy)
        self.control_tx = tx_energy(cfg.control_bits, self.dist, energy)
        self.training_tx = tx_energy(cfg.training_bits, self.dist, energy)
        self.sink_tx = tx_energy(cfg.data_bits, self.sink_dist, energy)
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
    ids = (net.alive & (net.eligible_from <= r)).nonzero()[0]
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
    estimate.  Candidates judged malicious are discarded.  The rows may
    come in any order, but each (member, head) pair at most once.

    Returns (members, heads) of the members left with a candidate, in
    member order; the others must become a head or send to the sink.
    """
    obs = np.asarray(observers, dtype=np.intp)
    tgt = np.asarray(heads, dtype=np.intp)
    if not len(obs):
        return _no_pairs(), _no_pairs()
    pairs = trust.pairs(obs, tgt)
    judged = np.asarray(judged, dtype=bool)
    malicious = np.asarray(malicious, dtype=bool)
    dist = np.asarray(dist, dtype=float)
    if np.count_nonzero(pairs[1:] < pairs[:-1]):
        # by member, then head
        order = pairs.argsort()
        obs, tgt, pairs, judged, malicious, dist = (
            a[order] for a in (obs, tgt, pairs, judged, malicious, dist)
        )
    # 0 normal, 1 unjudged and never recorded, 2 unjudged but recorded,
    # 3 malicious; a member's best rows are those of its least category,
    # then of the least distance (the highest trust estimate for category
    # 2); the first of them has the lowest head id.
    category = np.where(judged, 3 * malicious, 1 + (trust.count.take(pairs) > 0))
    key = np.where(category == 2, -trust.mean.take(pairs), dist)
    first = np.empty(len(obs), dtype=bool)
    first[0] = True
    np.not_equal(obs[1:], obs[:-1], out=first[1:])
    starts = first.nonzero()[0]
    member = first.cumsum() - 1
    best = category == np.minimum.reduceat(category, starts)[member]
    key[~best] = np.inf
    best &= key == np.minimum.reduceat(key, starts)[member]
    rows = best.nonzero()[0]
    rows = rows[member[rows].searchsorted(np.arange(len(starts)))]
    rows = rows[category[rows] != 3]
    return obs[rows], tgt[rows]


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
    deliveries = np.count_nonzero(heard, axis=1)
    left = level - deliveries * cost
    # Only a listener whose deliveries cost its whole energy dies; a running
    # count over its deliveries finds the first it cannot pay or that
    # empties it, and it hears none after that.
    dying = ((deliveries > 0) & (left <= 0.0)).nonzero()[0].tolist()
    for r in dying:
        at, last_joule = _first_death(heard[r], 0, (cost,), level[r])
        heard[r, at + last_joule :] = False
        left[r] = 0.0
    net.level[listeners] = left
    net.alive[listeners[dying]] = False
    obs, tgt = heard.nonzero()
    return listeners[obs], heads[tgt]


#: TransferRecord outcomes by code: not delivered, delivered on time, late.
_OUTCOMES = ("dropped", "timely", "delayed")

#: A slot's uplink, drop, delay and relay draws lie 0, k + k^2, 2k + k^2 and
#: 3k + k^2 after its uplink draw, in a cluster of k members.
_DRAW_K = np.array([0, 1, 2, 3])[:, None]
_DRAW_K2 = np.array([0, 1, 1, 1])[:, None]


def run_data_phase(
    net: NetworkState,
    clusters: Clusters,
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
    pair for this round.  ``clusters`` are the round's ``Clusters``.

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
    it.  Charges are ordered by a key of five steps per member slot:
    transmit; reception and uplink overhears; aggregation; relay; relay
    overhears, with the head's report last.  The earliest such death in
    each cluster, by key, is fixed and the phase is resolved again; clusters
    share no device, so a death in one changes nothing in another.  A round
    with no death takes one pass.

    Sets ``outcome.transfers`` to the phase's TransferRecords, one per
    packet sent, and adds the attacks to its counters; the returned
    Evidence also carries the phase's packet counts.
    """
    heads = clusters.heads
    if not len(heads):
        return _no_evidence()
    cfg = net.cfg
    energy = net.energy
    bits = cfg.data_bits
    p0 = phase.bad_prob
    ids, cl, k, first_slot = (
        clusters.members, clusters.cluster, clusters.sizes, clusters.first
    )

    # One slot per member, by head id then member id; a pair is an
    # (overhearer, sender) pair of slots of one cluster, in the drawn order.
    pos = np.arange(len(ids)) - first_slot[cl]
    reps = k[cl]
    pairs_of = reps.cumsum() - reps  # each overhearer's first pair
    own = pairs_of + pos  # each overhearer's pair with itself
    per_pair = k * k
    pair_index = np.arange(int(per_pair.sum()))
    sender = pair_index + (first_slot[cl] - pairs_of).repeat(reps)

    # Cluster c's draws start at start[c]: uplink (k), overhears (k × k),
    # drop, delay and relay (k each), relay overhears (k × k).
    size = 2 * per_pair + 4 * k
    block = np_rng.random(int(size.sum()))
    start = size.cumsum() - size
    slot_at = start[cl] + pos
    # each slot's uplink, drop, delay and relay draws
    uplink, drop, delay, relay = block.take(
        slot_at + _DRAW_K * reps + _DRAW_K2 * (reps * reps)
    )
    # each pair's uplink and relay overhear draws
    overhears = start + k - per_pair.cumsum() + per_pair
    heard_ok, relay_heard_ok = block.take(
        pair_index
        + np.stack([overhears, overhears + per_pair + 3 * k]).repeat(per_pair, axis=1)
    ) >= p0
    heard_ok[own] = True  # the sender knows its own uplink
    mult = np.array([ATTACK_MULTIPLIER[net.attacker[h]] for h in heads.tolist()])
    up_ok = uplink >= p0
    kept = drop >= (mult * cfg.p_dp)[cl]
    delay_hit = delay < (mult * cfg.p_dy)[cl]
    relay_ok = relay >= p0

    member_level = net.level[ids]
    head_level = net.level[heads]
    was_alive = net.alive[ids]
    head_was_alive = net.alive[heads]
    hearer = None  # each pair's overhearer, built where needed
    if np.count_nonzero(was_alive) < len(ids):
        # a member dead before the phase neither sends nor overhears
        hearer = np.arange(len(ids)).repeat(reps)
        heard_ok &= was_alive[sender] & was_alive[hearer]
    over_cost = overhear_energy(bits, energy)
    rx_cost = rx_energy(bits, energy)
    aggregate_cost = aggregate_energy(bits, 1, energy)
    tx_cost = net.data_tx.take(ids * len(net.level) + clusters.head_of)
    sink_tx = net.sink_tx.take(heads)

    # The first pass assumes that every device alive at the start lives to
    # the end.  Once a death is found, each device's charges succeed up to
    # (and including) the key in `until`: `never` while it lives, -1 if it
    # was dead before the phase.
    until = head_until = None
    lives, head_lives = was_alive, head_was_alive
    while True:
        if until is None:
            sends = was_alive
            received = sends & up_ok & head_was_alive[cl]
            relayed = received & kept
            aggregated = attempted = relayed
            watch = heard_ok
            relay_seen = watch & attempted[sender] & relay_heard_ok
        else:
            at_head = head_until[cl]
            sends = tx_key <= until
            received = sends & up_ok & (tx_key + 1 <= at_head)
            # The head relays once; a lost relay surfaces as a drop, so a
            # delaying event can only come from an actual delaying attack.
            relayed = received & kept
            aggregated = relayed & (tx_key + 2 <= at_head)
            attempted = relayed & (tx_key + 3 <= at_head)
            # Cluster mates that catch an uplink know the packet awaits
            # forwarding; the sender knows its own.
            hearer_until = until[hearer]
            watch = sends[sender] & heard_ok & (over_key <= hearer_until)
            relay_seen = (
                watch & attempted[sender] & relay_heard_ok
                & (relay_over_key <= hearer_until)
            )
        sent = np.add.reduceat(watch, pairs_of, dtype=np.intp)
        forwarded = np.add.reduceat(relay_seen, pairs_of, dtype=np.intp)
        spent = tx_cost + over_cost * (sent - 1 + forwarded)
        relays = np.bincount(cl[attempted], minlength=len(heads))
        head_spent = (
            np.bincount(cl[received], minlength=len(heads)) * rx_cost
            + relays * aggregate_cost
            + (relays + 1) * sink_tx
        )
        dying = lives & (spent >= member_level)
        head_dying = head_lives & (head_spent >= head_level)
        if not (np.count_nonzero(dying) or np.count_nonzero(head_dying)):
            break
        if until is None:
            # Every charge has a key that orders it within its cluster's
            # phase, five steps per slot: slot i holds the sender's transmit
            # (5i), the head's reception and the uplink overhears (5i + 1),
            # the head's aggregation (5i + 2) and relay (5i + 3), then the
            # relay overhears (5i + 4).  The head's own report comes last
            # (5w, for w members in the largest cluster).  Charges that
            # share a key fall on different devices and none waits on
            # another, so they may die in either order.  A sender's own
            # uplink is known without an overhear (key -1).
            if hearer is None:
                hearer = np.arange(len(ids)).repeat(reps)
            tx_key = pos * 5
            over_key = tx_key[sender] + 1
            relay_over_key = over_key + 3
            over_key[own] = -1
            report_key = 5 * int(k.max())
            never = report_key + 1
            until = np.where(was_alive, never, -1)
            head_until = np.where(head_was_alive, never, -1)

        # cluster -> (key, slot or None for the head, paid its last joule)
        deaths: dict[int, tuple[int, Optional[int], bool]] = {}
        for r in dying.nonzero()[0].tolist():
            pairs = slice(pairs_of[r], pairs_of[r] + reps[r])
            j = int(pos[r])
            at, last_joule = _first_death(
                np.stack([watch[pairs], relay_seen[pairs]], axis=1).ravel(),
                np.where(np.arange(2 * reps[r]) == 2 * j, 0, 1),
                (tx_cost[r], over_cost),
                member_level[r],
            )
            # charge `at` is slot at // 2's own transmit, uplink or relay overhear
            key = (at // 2) * 5 + (4 if at % 2 else 0 if at == 2 * j else 1)
            c = int(cl[r])
            if c not in deaths or key < deaths[c][0]:
                deaths[c] = (key, r, last_joule)
        for c in head_dying.nonzero()[0].tolist():
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
            # charge `at` is slot at // 3's reception, aggregation or relay
            key = report_key if at == 3 * k[c] else (at // 3) * 5 + at % 3 + 1
            if c not in deaths or key < deaths[c][0]:
                deaths[c] = (key, None, last_joule)
        # Fix the earliest death of each cluster, then resolve again.
        for c, (key, r, last_joule) in deaths.items():
            if r is None:
                head_until[c] = key if last_joule else key - 1
            else:
                until[r] = key if last_joule else key - 1
        lives, head_lives = until == never, head_until == never

    # --- write back the energies and the round's records -------------------
    for at, was, stays, before, cost in (
        (ids, was_alive, lives, member_level, spent),
        (heads, head_was_alive, head_lives, head_level, head_spent),
    ):
        left = before - cost
        if np.count_nonzero(stays) < len(stays):
            # the dying end at 0; a device dead before the phase keeps its level
            left = np.where(stays, left, np.where(was, 0.0, before))
        net.level[at] = left
        net.alive[at] = stays

    delayed = relayed & delay_hit
    dropped = received & ~kept
    code = (attempted & relay_ok) * (1 + delayed)
    outcome.transfers = Transfers(
        sends, ids, clusters.head_of, received, code, dropped, delayed
    )
    outcome.attack_drops += int(np.count_nonzero(dropped))
    outcome.attack_delays += int(np.count_nonzero(delayed))

    timely = np.add.reduceat(relay_seen & (~delayed)[sender], pairs_of, dtype=np.intp)
    rows = (ids, clusters.head_of, sent, forwarded, timely)
    if np.count_nonzero(sent) < len(sent):
        r = sent.nonzero()[0]
        rows = tuple(column[r] for column in rows)
    return Evidence(
        *rows,
        PacketCounts(
            int(np.count_nonzero(received)),
            int(np.count_nonzero(code == 1)),
            int(np.count_nonzero(code == 2)),
        ),
    )


def _judgeable(net: NetworkState, obs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Where the observer has a full window of the pair and standard clouds."""
    trust = net.trust
    return (trust.count.take(pairs) >= trust.window) & ~np.isnan(
        net.std_table[:, 0].take(obs)
    )


def _judge(net: NetworkState, obs: np.ndarray, tgt: np.ndarray, normals) -> np.ndarray:
    """True where the observer classifies the target malicious."""
    cfg = net.cfg
    return classify_pairs(
        net.trust, net.std_table, obs, tgt, normals, kappa=cfg.kappa, n_drp=cfg.n_drp
    )


def join_clusters(
    net: NetworkState,
    r: int,
    heads: np.ndarray,
    listeners: np.ndarray,
    cand_obs: np.ndarray,
    cand_tgt: np.ndarray,
    normals,
) -> tuple[Clusters, np.ndarray, Decisions]:
    """Every listener joins a head it trusts, heads alone, or sends to the sink.

    ``heads`` are round r's elected heads and ``listeners`` the other live
    devices, both in id order; rows (``cand_obs``, ``cand_tgt``) are the
    announcements the listeners heard, by listener then head.  A listener
    classifies each candidate it has a full window of and standard clouds
    for (the round's join decisions), and ``choose_heads`` picks its head.
    A listener that died listening joins no cluster.  One left without a
    head self-elects if it is eligible, paying its announcement, and sends
    to the sink otherwise, paying that transmission.

    Returns the round's clusters, the devices that sent to the sink, and
    the join decisions, by observer then target.
    """
    n = len(net.level)
    cand = cand_obs * n + cand_tgt
    judged = _judgeable(net, cand_obs, cand)
    rows = judged.nonzero()[0]
    join_obs, join_tgt = cand_obs[rows], cand_tgt[rows]
    join_mal = _judge(net, join_obs, join_tgt, normals)
    malicious = np.zeros(len(cand), dtype=bool)
    malicious[rows] = join_mal
    joiners, chosen = choose_heads(
        net.trust, cand_obs, cand_tgt, net.dist.take(cand), judged, malicious
    )
    alone = net.alive[listeners]
    alone[listeners.searchsorted(joiners)] = False
    alone = listeners[alone]
    joined = net.alive[joiners]
    if np.count_nonzero(joined) < len(joined):
        joiners, chosen = joiners[joined], chosen[joined]
    direct = alone
    if len(alone):
        eligible = net.eligible_from[alone] <= r
        self_elected = alone[eligible]
        net.eligible_from[self_elected] = r + net.epoch
        charge(net.level, net.alive, self_elected, net.announce_tx)
        direct = alone[~eligible]
        charge(net.level, net.alive, direct, net.sink_tx.take(direct))
        heads = np.concatenate([heads, self_elected])
        heads.sort()
    order = chosen.argsort(kind="stable")
    clusters = Clusters(heads, joiners[order], chosen[order])
    return clusters, direct, Decisions(join_obs, join_tgt, join_mal)


def monitor(net: NetworkState) -> None:
    """Charge every live device its per-round monitoring duty."""
    cost = monitor_energy(net.cfg.monitor_seconds, net.energy)
    charge(net.level, net.alive, net.alive.nonzero()[0], cost)


def infer_head_trust(net: NetworkState, evidence: Evidence) -> np.ndarray:
    """Every live observer records the trust its evidence shows in its head.

    Returns the flat indices of the pairs written.
    """
    obs, head, sent, forwarded, timely, _ = evidence
    live = net.alive[obs]
    if np.count_nonzero(live) < len(live):
        rows = live.nonzero()[0]
        obs, head, sent, forwarded, timely = (
            a[rows] for a in (obs, head, sent, forwarded, timely)
        )
    record_trust(
        net.trust, obs, head, trust_table.trust(sent, forwarded, timely), direct=True
    )
    return obs * len(net.level) + head


def _charge_exchanges(
    net: NetworkState, mem: np.ndarray, head: np.ndarray, cost: np.ndarray
) -> np.ndarray:
    """Charge each row's exchange in turn; True where the member got its reply.

    Row j is member ``mem[j]`` asking its head ``head[j]``, with ``cost[j]``
    the control transmission between them.  Rows run by head, then member,
    and a member has one row.  A member asks only while it and its head
    live.  An exchange is four charges by ``spend``'s rule, each made only
    once the one before was paid: the member's request (``cost``), the
    head's reception, the head's reply (``cost``) and the member's
    reception.

    When every device can pay all its charges, one array pass subtracts
    them in row order, as the chain would (``np.subtract.at`` applies
    repeated indices in sequence); otherwise the rows are charged one by
    one with ``spend``.
    """
    level, alive = net.level, net.alive
    rx = rx_energy(net.cfg.control_bits, net.energy)
    after = level.copy()
    after[mem] = (after[mem] - cost) - rx
    head_costs = np.empty((len(mem), 2))
    head_costs[:, 0] = rx
    head_costs[:, 1] = cost
    np.subtract.at(after, head.repeat(2), head_costs.ravel())
    if not np.count_nonzero((after <= 0.0) & alive):
        level[:] = after
        return np.ones(len(mem), dtype=bool)
    levels, lives = level.tolist(), alive.tolist()
    answered = [
        lives[m] and lives[h]
        and spend(levels, lives, m, c)
        and spend(levels, lives, h, rx)
        and spend(levels, lives, h, c)
        and spend(levels, lives, m, rx)
        for m, h, c in zip(mem.tolist(), head.tolist(), cost.tolist())
    ]
    level[:] = levels
    alive[:] = lives
    return np.array(answered, dtype=bool)


def exchange_recommendations(
    net: NetworkState,
    clusters: Clusters,
    cand_obs: np.ndarray,
    cand_tgt: np.ndarray,
) -> np.ndarray:
    """Members ask their heads for recommendations; returns the flat indices
    of the pairs recorded.

    A member asks its trusted head about the devices it must judge soon
    (the candidate heads it heard this round, rows ``cand_obs``,
    ``cand_tgt``) and about pairs it has no individual cloud for yet: a
    neighbour it never recorded, or a pair whose window is not yet full.
    The head only relays trust it formed by its own overhearing, so
    recommendation chains cannot drift away from observed behavior.  A
    member asks only if its head has first-hand trust in one of these
    devices and it trusts its head above 0.

    Askers take turns by head, then member id, each charged as
    ``_charge_exchanges`` states; a member hears recommendations only once
    its reception is paid.  The wanted pairs are gathered from the heard
    rows, the window fills (``TrustState.filling``) and the neighbours not
    yet recorded, so the phase costs the pairs it touches, not n².
    """
    trust = net.trust
    n = len(net.level)
    mem, head = clusters.members, clusters.head_of
    wanted = cand_obs * n + cand_tgt
    unsettled = trust.filling()
    quiet = net.quiet_neighbors
    if len(quiet):
        quiet = net.quiet_neighbors = quiet[trust.count.take(quiet) == 0]
        unsettled = np.concatenate([unsettled, quiet])
    if len(unsettled):
        # the unsettled pairs not heard of this round
        net.pair_mark.put(wanted, True)
        unsettled = unsettled[~net.pair_mark.take(unsettled)]
        net.pair_mark.put(wanted, False)
        wanted = np.concatenate([wanted, unsettled])
    wanted_obs = wanted // n
    wanted_tgt = wanted - wanted_obs * n

    # Every device's head while it is a member, else -1; a member's offers
    # are the wanted targets, other than its head, its head has first-hand
    # trust in.
    head_of = np.full(n, -1)
    head_of[mem] = head
    asks_head = head_of.take(wanted_obs)
    offers = (
        (asks_head >= 0)
        & (wanted_tgt != asks_head)
        & (trust.fh_count.take(asks_head * n + wanted_tgt) > 0)
    ).nonzero()[0]
    has_offer = np.zeros(n, dtype=bool)
    has_offer[wanted_obs.take(offers)] = True

    t_ij = np.zeros(n)
    t_ij[mem] = t_mem = trust.mean.take(mem * n + head)
    alive = net.alive
    asking = (
        has_offer.take(mem) & (t_mem > 0.0) & alive.take(mem) & alive.take(head)
    ).nonzero()[0]
    ask_mem, ask_head = mem.take(asking), head.take(asking)
    answered = _charge_exchanges(
        net, ask_mem, ask_head, net.control_tx.take(ask_mem * n + ask_head)
    )
    got_reply = np.zeros(n, dtype=bool)
    got_reply[ask_mem[answered]] = True

    rec = offers[got_reply.take(wanted_obs.take(offers))]
    rec_obs, rec_tgt = wanted_obs.take(rec), wanted_tgt.take(rec)
    recorded = wanted.take(rec)
    rec_val = recommend_trust(
        trust.mean.take(recorded),
        trust.firsthand.take(asks_head.take(rec) * n + rec_tgt),
        t_ij.take(rec_obs),
    )
    record_trust(trust, rec_obs, rec_tgt, rec_val)
    return recorded


def classify_written(
    net: NetworkState, written: np.ndarray, join: Decisions, normals
) -> tuple[np.ndarray, np.ndarray, Decisions]:
    """Judge the pairs written this round that have full windows.

    ``written`` are the distinct flat indices of the round's trust writes
    (sorted in place) and ``join`` its join decisions, by observer then
    target.  Returns the judged pairs in index order, their verdicts, and
    the round's decisions: the join decisions, then the verdicts on pairs
    not judged at joining (a pair judged at joining keeps that decision).
    """
    n = len(net.level)
    written.sort()
    judged = written[_judgeable(net, written // n, written)]
    obs = judged // n
    tgt = judged - obs * n
    verdicts = _judge(net, obs, tgt, normals)
    fresh = slice(None)
    if len(join.observer):
        joined = join.observer * n + join.target
        fresh = joined.take(joined.searchsorted(judged), mode="clip") != judged
    decisions = Decisions(
        np.concatenate([join.observer, obs[fresh]]),
        np.concatenate([join.target, tgt[fresh]]),
        np.concatenate([join.malicious, verdicts[fresh]]),
    )
    return judged, verdicts, decisions


def update_standards(
    net: NetworkState, judged: np.ndarray, verdicts: np.ndarray
) -> None:
    """Pool the trust of each judged pair under its observer and verdict."""
    cfg = net.cfg
    net.pools.add(
        judged // len(net.level),
        verdicts,
        net.trust.mean.take(judged),
        net.std_table,
        alpha=cfg.alpha,
        beta=cfg.beta,
    )


def run_round(
    net: NetworkState,
    r: int,
    rng: Random,
    np_rng: np.random.Generator,
    normals,
) -> ClusterRoundOutcome:
    """Execute one full protocol round and return its outcome.

    The round is its phases in order: election, reception, joining, data,
    monitoring, inference, exchange, classification and update.  ``rng``
    draws the election, ``np_rng`` the channel events of reception and the
    data phase, and ``normals`` (a Generator) the classifier's samples, one
    block per classification.
    """
    phase = net.phase_for(r)
    outcome = ClusterRoundOutcome(round_index=r, phase=phase)
    if not net.alive.any():
        return outcome

    heads = elect_heads(net, r, rng)
    # Broadcast reception: election announcements are control-plane messages
    # heard across the deployment area, but a member only learns of heads
    # whose announcement its own channel actually delivered.  Each delivery
    # is one candidate row (member, head).
    listening = net.alive.copy()
    listening[heads] = False
    listeners = listening.nonzero()[0]
    cand_obs, cand_tgt = receive_announcements(
        net, listeners, heads[net.alive[heads]], phase, np_rng
    )
    clusters, direct, join = join_clusters(
        net, r, heads, listeners, cand_obs, cand_tgt, normals
    )
    outcome.clusters = clusters
    outcome.direct_to_sink = direct.tolist()
    evidence = run_data_phase(net, clusters, phase, np_rng, outcome)
    outcome.packets = evidence.packets
    monitor(net)
    # Every pair written this round is distinct: a member infers trust in its
    # own head only, and hears recommendations about other devices only.
    written = np.concatenate([
        infer_head_trust(net, evidence),
        exchange_recommendations(net, clusters, cand_obs, cand_tgt),
    ])
    judged, verdicts, outcome.decisions = classify_written(net, written, join, normals)
    update_standards(net, judged, verdicts)
    net.mark_deaths(r)
    return outcome
