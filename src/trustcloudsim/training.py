"""Cooperative labeling protocol that learns the standard trust clouds.

At deployment each device repeatedly picks a router and a destination among
its neighbors.  The router role-plays a malicious forwarder for a batch of
packets (dropping and delaying with small probabilities) and then a normal
one (forwarding with retransmission on a missing reply).  The initiator
overhears through the channel, infers one trust value per packet on the
cumulative per-label window, and collects the values as labeled cloud drops.
Once both drop sets are full the initial standard clouds are built; training
ends when the malicious expectation falls below the normal one, or after a
bounded number of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Optional, Sequence

from .cloud import DropSet, TrustCloud, backward_cloud
from .errors import DomainError, NoNeighborError
from .fuzzy import (
    EvidenceWindow,
    ForwardingEvent,
    compute_attributes,
    infer_trust,
    record_event,
)
from .medium import (
    ChannelPhase,
    EnergyParams,
    channel_ok,
    overhear_energy,
    rx_energy,
    tx_energy,
)

N_F = 20
MAX_DRP = 100
MAX_TR = 20
NEIGHBOR_RADIUS = 25.0
P_DP = 0.05
P_DY = 0.05
MAX_DUR = 10.0
TRAINING_BITS = 300


@dataclass(frozen=True)
class StandardClouds:
    """The malicious and normal standard trust clouds of one device."""

    malicious: TrustCloud
    normal: TrustCloud


@dataclass
class TrainingState:
    """Progress of one device through the labeling protocol."""

    malicious_drops: DropSet = field(default_factory=lambda: DropSet(MAX_DRP))
    normal_drops: DropSet = field(default_factory=lambda: DropSet(MAX_DRP))
    rounds_done: int = 0
    initial_built: bool = False
    stc_m: Optional[TrustCloud] = None
    stc_n: Optional[TrustCloud] = None

    def standard_clouds(self) -> Optional[StandardClouds]:
        if self.stc_m is None or self.stc_n is None:
            return None
        return StandardClouds(self.stc_m, self.stc_n)


def _distance(a, b) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def run_training_round(
    initiator,
    neighborhood: Sequence,
    channel: ChannelPhase,
    rng: Random,
    *,
    n_f: int = N_F,
    p_dp: float = P_DP,
    p_dy: float = P_DY,
    max_dur: float = MAX_DUR,
    bits: int = TRAINING_BITS,
    energy: Optional[EnergyParams] = None,
) -> tuple[list[float], list[float]]:
    """One active training round; returns (malicious drops, normal drops).

    The router accepts the malicious label first and the normal one second,
    forwarding n_f packets per label.  A missed overhearing is recorded as a
    drop and a captured retransmission as a delay, so the collected values
    embed the medium's own uncertainty.  Devices are charged energy only when
    an EnergyParams is supplied.
    """
    candidates = [d for d in neighborhood if d.alive and d.id != initiator.id]
    if len(candidates) < 2:
        raise NoNeighborError(
            f"device {initiator.id}: no router/destination pair in range"
        )
    candidates.sort(key=lambda d: d.id)
    router, dest = rng.sample(candidates, 2)
    d_ij = _distance(initiator, router)
    d_jk = _distance(router, dest)

    def pay(device, cost: float) -> bool:
        return device.spend(cost) if energy is not None else True

    def send_to_router() -> bool:
        if not pay(initiator, tx_energy(bits, d_ij, energy) if energy else 0.0):
            return False
        if not channel_ok(channel, rng):
            return False
        return pay(router, rx_energy(bits, energy) if energy else 0.0)

    def forward_once(delayed: bool) -> tuple[ForwardingEvent, bool]:
        """Router transmits toward the destination; the initiator overhears.

        Returns the overheard event and whether the destination received.
        """
        if not pay(router, tx_energy(bits, d_jk, energy) if energy else 0.0):
            return ForwardingEvent.DROPPED, False
        delivered = channel_ok(channel, rng)
        if delivered:
            pay(dest, rx_energy(bits, energy) if energy else 0.0)
        if channel_ok(channel, rng):
            pay(initiator, overhear_energy(bits, energy) if energy else 0.0)
            event = (
                ForwardingEvent.FORWARDED_DELAYED
                if delayed
                else ForwardingEvent.FORWARDED_TIMELY
            )
        else:
            event = ForwardingEvent.DROPPED
        return event, delivered

    malicious_values: list[float] = []
    window = EvidenceWindow()
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if not send_to_router():
            event = ForwardingEvent.DROPPED
        elif rng.random() < p_dp:
            event = ForwardingEvent.DROPPED
        elif rng.random() < p_dy:
            rng.uniform(0.0, max_dur)  # attack delay duration, within the slot
            event, _ = forward_once(delayed=True)
        else:
            event, _ = forward_once(delayed=False)
        window = record_event(window, event)
        malicious_values.append(infer_trust(compute_attributes(window)))

    normal_values: list[float] = []
    window = EvidenceWindow()
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if not send_to_router():
            window = record_event(window, ForwardingEvent.DROPPED)
            normal_values.append(infer_trust(compute_attributes(window)))
            continue
        first, delivered = forward_once(delayed=False)
        reply_seen = False
        if delivered:
            pay(dest, tx_energy(bits, d_jk, energy) if energy else 0.0)
            reply_seen = channel_ok(channel, rng)
            if reply_seen:
                pay(router, rx_energy(bits, energy) if energy else 0.0)
        event = first
        if not reply_seen:
            # Timeout: one retransmission.  A first attempt the initiator
            # already overheard stays timely; otherwise a captured
            # retransmission is recorded as a delaying event.
            retrans, _ = forward_once(delayed=True)
            if first is ForwardingEvent.DROPPED:
                event = retrans
        window = record_event(window, event)
        normal_values.append(infer_trust(compute_attributes(window)))

    return malicious_values, normal_values


def training_step(
    state: TrainingState,
    malicious_values: Sequence[float],
    normal_values: Sequence[float],
    *,
    max_tr: int = MAX_TR,
) -> TrainingState:
    """Fold one round of labeled drops into the state.

    When both drop sets first reach capacity the initial standard clouds are
    built; afterwards the sliding windows keep the clouds current.
    """
    if state.rounds_done >= max_tr:
        raise DomainError(f"training already ran the maximum {max_tr} rounds")
    for v in malicious_values:
        state.malicious_drops.add(v)
    for v in normal_values:
        state.normal_drops.add(v)
    if state.malicious_drops.full and state.normal_drops.full:
        state.stc_m = backward_cloud(state.malicious_drops.values)
        state.stc_n = backward_cloud(state.normal_drops.values)
        state.initial_built = True
    state.rounds_done += 1
    return state


def training_complete(state: TrainingState, *, max_tr: int = MAX_TR) -> bool:
    """True once a classification boundary exists or rounds are exhausted."""
    if state.rounds_done >= max_tr:
        return True
    if not state.initial_built:
        return False
    return state.stc_m.ex < state.stc_n.ex


def merge_recommendations(
    own: StandardClouds, received: Sequence[StandardClouds]
) -> StandardClouds:
    """Average own and recommended standard clouds component-wise."""
    clouds = [own, *received]
    n = len(clouds)

    def mean_cloud(pick) -> TrustCloud:
        return TrustCloud(
            sum(pick(c).ex for c in clouds) / n,
            sum(pick(c).en for c in clouds) / n,
            sum(pick(c).he for c in clouds) / n,
        )

    return StandardClouds(
        mean_cloud(lambda c: c.malicious), mean_cloud(lambda c: c.normal)
    )
