"""Cooperative labeling protocol that learns the standard trust clouds.

At deployment each device repeatedly picks a router and a destination among
its neighbors.  The router role-plays a malicious forwarder for a batch of
packets (dropping and delaying with small probabilities) and then a normal
one (forwarding with retransmission on a missing reply).  The initiator
overhears through the channel, infers one trust value per packet on the
cumulative per-label window, and collects the values as labeled cloud drops.
Once both drop lists are full the standard clouds are built, and rebuilt
after every later round; training ends when the malicious expectation falls
below the normal one, or after a bounded number of rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Optional, Sequence

from .cloud import TrustCloud, backward_cloud
from .errors import NoNeighborError
from .fuzzy import trust_table
from .medium import (
    ChannelPhase,
    overhear_energy,
    rx_energy,
    spend,
    tx_energy,
)


@dataclass(frozen=True)
class StandardClouds:
    """The malicious and normal standard trust clouds of one device."""

    malicious: TrustCloud
    normal: TrustCloud


def run_training_round(
    net,
    level: list[float],
    alive: list[bool],
    initiator: int,
    neighborhood: Sequence[int],
    channel: ChannelPhase,
    rng: Random,
    *,
    n_f: int,
    p_dp: float,
    p_dy: float,
    max_dur: float,
    bits: int,
) -> tuple[list[float], list[float]]:
    """One active training round; returns (malicious drops, normal drops).

    The router accepts the malicious label first and the normal one second,
    forwarding n_f packets per label.  A missed overhearing is recorded as a
    drop and a captured retransmission as a delay, so the collected values
    embed the medium's own uncertainty.  Each packet's value is the trust of
    the label's cumulative window (sent, forwarded, timely) after it.

    Devices are ids into ``level`` and ``alive``, charged with ``spend``
    at the costs of the ``NetworkState`` ``net``'s distances and energy
    model.
    """
    candidates = sorted(j for j in neighborhood if alive[j] and j != initiator)
    if len(candidates) < 2:
        raise NoNeighborError(
            f"device {initiator}: no router/destination pair in range"
        )
    router, dest = rng.sample(candidates, 2)
    energy = net.energy
    # a Python float: tx_energy's powers round a numpy float differently
    tx_ij = tx_energy(bits, net.dist.item(initiator, router), energy)
    tx_jk = tx_energy(bits, net.dist.item(router, dest), energy)
    rx = rx_energy(bits, energy)
    overhear = overhear_energy(bits, energy)
    # One draw per opportunity against the stationary bad probability; a
    # clear channel (bad probability 0) draws nothing.
    bad = channel.bad_prob
    clear = bad == 0.0
    random = rng.random

    def to_router() -> bool:
        """Initiator transmits to the router; True if the router received."""
        return (
            spend(level, alive, initiator, tx_ij)
            and (clear or random() >= bad)
            and spend(level, alive, router, rx)
        )

    def forward() -> tuple[bool, bool]:
        """Router transmits toward the destination; the initiator overhears.

        Returns whether the initiator overheard and whether the destination
        received.
        """
        if not spend(level, alive, router, tx_jk):
            return False, False
        delivered = clear or random() >= bad
        if delivered:
            spend(level, alive, dest, rx)
        if clear or random() >= bad:
            spend(level, alive, initiator, overhear)
            return True, delivered
        return False, delivered

    # The label window's forwarded and timely counts after each packet, the
    # malicious label's packets first; its sent count is the packet number.
    f_after: list[int] = []
    t_after: list[int] = []
    forwarded = timely = 0
    for _ in range(n_f):
        if not alive[initiator] or not alive[router]:
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
        if not alive[initiator] or not alive[router]:
            break
        if to_router():
            first_heard, delivered = forward()
            # A destination that cannot pay its reply sends none, so the
            # router pays to receive nothing and the timeout follows.
            reply_seen = False
            if delivered and spend(level, alive, dest, tx_jk):
                reply_seen = clear or random() >= bad
                if reply_seen:
                    spend(level, alive, router, rx)
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


def train(
    level: list[float],
    alive: list[bool],
    device: int,
    play_round: Callable[[], tuple[Sequence[float], Sequence[float]]],
    *,
    max_drp: int,
    max_tr: int,
    monitor_cost: float,
) -> tuple[int, Optional[StandardClouds]]:
    """Train one device's standard clouds; returns (rounds used, clouds).

    Each round plays one labeling round (``play_round`` returns its
    malicious and normal drops) and charges the device, an id into
    ``level`` and ``alive``, the monitoring cost with ``spend``.  The drop
    lists keep the last max_drp values of each label; once both are full
    the clouds are rebuilt after every round.  Training stops when the
    malicious expectation falls below the normal one, after max_tr rounds,
    when the device dies, or when no route can be staged
    (``NoNeighborError``).  The clouds are None if the lists never filled.
    """
    malicious: list[float] = []
    normal: list[float] = []
    clouds = None
    rounds = 0
    while alive[device] and rounds < max_tr:
        if clouds is not None and clouds.malicious.ex < clouds.normal.ex:
            break
        try:
            new_malicious, new_normal = play_round()
        except NoNeighborError:
            break
        malicious += new_malicious
        normal += new_normal
        del malicious[:-max_drp], normal[:-max_drp]
        if len(malicious) == max_drp and len(normal) == max_drp:
            clouds = StandardClouds(backward_cloud(malicious), backward_cloud(normal))
        rounds += 1
        spend(level, alive, device, monitor_cost)
    return rounds, clouds


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
