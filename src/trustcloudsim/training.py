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
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from .cloud import DropSet, TrustCloud, backward_cloud
from .errors import DomainError, NoNeighborError
from .fuzzy import trust_table
from .medium import (
    ChannelPhase,
    EnergyParams,
    overhear_energy,
    rx_energy,
    tx_energy,
)


@dataclass(frozen=True)
class StandardClouds:
    """The malicious and normal standard trust clouds of one device."""

    malicious: TrustCloud
    normal: TrustCloud


@dataclass
class TrainingState:
    """Progress of one device through the labeling protocol."""

    malicious_drops: DropSet
    normal_drops: DropSet
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


def _free(cost: float) -> bool:
    return True


def run_training_round(
    initiator,
    neighborhood: Sequence,
    channel: ChannelPhase,
    rng: Random,
    *,
    n_f: int,
    p_dp: float,
    p_dy: float,
    max_dur: float,
    bits: int,
    energy: Optional[EnergyParams] = None,
) -> tuple[list[float], list[float]]:
    """One active training round; returns (malicious drops, normal drops).

    The router accepts the malicious label first and the normal one second,
    forwarding n_f packets per label.  A missed overhearing is recorded as a
    drop and a captured retransmission as a delay, so the collected values
    embed the medium's own uncertainty.  Devices are charged energy only when
    an EnergyParams is supplied.  Each packet's value is the trust of the
    label's cumulative window (sent, forwarded, timely) after it.
    """
    candidates = [d for d in neighborhood if d.alive and d.id != initiator.id]
    if len(candidates) < 2:
        raise NoNeighborError(
            f"device {initiator.id}: no router/destination pair in range"
        )
    candidates.sort(key=lambda d: d.id)
    router, dest = rng.sample(candidates, 2)

    # A charge is a bound spend, or free when energy is not modelled: a free
    # charge succeeds even for a dead device and changes nothing.
    if energy is None:
        initiator_pays = router_pays = dest_pays = _free
        tx_ij = tx_jk = rx = overhear = 0.0
    else:
        initiator_pays, router_pays, dest_pays = (
            initiator.spend, router.spend, dest.spend
        )
        tx_ij = tx_energy(bits, _distance(initiator, router), energy)
        tx_jk = tx_energy(bits, _distance(router, dest), energy)
        rx = rx_energy(bits, energy)
        overhear = overhear_energy(bits, energy)
    # channel_ok inline: a clear channel (bad probability 0) draws nothing.
    bad = channel.bad_prob
    clear = bad == 0.0
    random = rng.random

    def to_router() -> bool:
        """Initiator transmits to the router; True if the router received."""
        return initiator_pays(tx_ij) and (clear or random() >= bad) and router_pays(rx)

    def forward() -> tuple[bool, bool]:
        """Router transmits toward the destination; the initiator overhears.

        Returns whether the initiator overheard and whether the destination
        received.
        """
        if not router_pays(tx_jk):
            return False, False
        delivered = clear or random() >= bad
        if delivered:
            dest_pays(rx)
        if clear or random() >= bad:
            initiator_pays(overhear)
            return True, delivered
        return False, delivered

    # The label window's forwarded and timely counts after each packet, the
    # malicious label's packets first; its sent count is the packet number.
    f_after: list[int] = []
    t_after: list[int] = []
    forwarded = timely = 0
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if not to_router():
            pass  # dropped
        elif random() < p_dp:
            pass  # dropped
        elif random() < p_dy:
            rng.uniform(0.0, max_dur)  # attack delay duration, within the slot
            forwarded += forward()[0]
        elif forward()[0]:
            forwarded += 1
            timely += 1
        f_after.append(forwarded)
        t_after.append(timely)
    n_malicious = len(f_after)

    forwarded = timely = 0
    for _ in range(n_f):
        if not initiator.alive or not router.alive:
            break
        if to_router():
            first_heard, delivered = forward()
            reply_seen = False
            if delivered:
                dest_pays(tx_jk)
                reply_seen = clear or random() >= bad
                if reply_seen:
                    router_pays(rx)
            # Timeout: one retransmission.  A first attempt the initiator
            # already overheard stays timely; otherwise a captured
            # retransmission is recorded as a delaying event.
            retrans_heard = not reply_seen and forward()[0]
            if first_heard:
                forwarded += 1
                timely += 1
            elif retrans_heard:
                forwarded += 1
        f_after.append(forwarded)
        t_after.append(timely)

    sent_after = [
        *range(1, n_malicious + 1), *range(1, len(f_after) - n_malicious + 1)
    ]
    values = trust_table.trust(sent_after, f_after, t_after).tolist()
    return values[:n_malicious], values[n_malicious:]


def training_step(
    state: TrainingState,
    malicious_values: Sequence[float],
    normal_values: Sequence[float],
    *,
    max_tr: int,
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


def training_complete(state: TrainingState, *, max_tr: int) -> bool:
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
