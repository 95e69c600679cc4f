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
from .medium import ChannelPhase, overhear_energy, rx_energy, spend


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
) -> tuple[list[float], list[float]]:
    """One active training round; returns (malicious drops, normal drops).

    The router accepts the malicious label first and the normal one second,
    forwarding n_f packets per label.  A missed overhearing is recorded as a
    drop and a captured retransmission as a delay, so the collected values
    embed the medium's own uncertainty.  Each packet's value is the trust of
    the label's cumulative window (sent, forwarded, timely) after it.

    Devices are ids into ``level`` and ``alive``, charged for messages of
    ``net.cfg.training_bits`` at the ``NetworkState`` ``net``'s costs.  The
    three roles' levels and alive flags are played as locals and written
    back once, at the end; each charge follows ``medium.spend``'s rule in
    the order the packets make them.
    """
    candidates = sorted(j for j in neighborhood if alive[j] and j != initiator)
    if len(candidates) < 2:
        raise NoNeighborError(
            f"device {initiator}: no router/destination pair in range"
        )
    router, dest = rng.sample(candidates, 2)
    bits, energy = net.cfg.training_bits, net.energy
    tx_ij = net.training_tx.item(initiator, router)
    tx_jk = net.training_tx.item(router, dest)
    rx = rx_energy(bits, energy)
    overhear = overhear_energy(bits, energy)
    # One draw per opportunity against the stationary bad probability; a
    # clear channel (bad probability 0) draws nothing.
    bad = channel.bad_prob
    clear = bad == 0.0
    random = rng.random
    tfr, sfr = trust_table.grade_lists(n_f)

    # Each charge is medium.spend on a role's locals: a device that cannot
    # pay dies and the action fails; one that pays its last joule completes
    # the action and then dies.
    li, lr, ld = level[initiator], level[router], level[dest]
    ai, ar, ad = alive[initiator], alive[router], alive[dest]
    labels: list[list[float]] = []
    for normal in (False, True):
        values: list[float] = []
        labels.append(values)
        forwarded = timely = 0
        for sent in range(1, n_f + 1):
            if not (ai and ar):
                break
            # The initiator transmits to the router, which receives.
            left = li - tx_ij
            if left > 0.0:
                li = left
                received = clear or random() >= bad
            else:
                li, ai = 0.0, False
                received = left == 0.0 and (clear or random() >= bad)
            if received:
                left = lr - rx
                if left > 0.0:
                    lr = left
                else:
                    lr, ar, received = 0.0, False, left == 0.0
            # The router forwards: the normal label once, then again on a
            # missing reply; the malicious label once, unless it drops the
            # packet, and delayed with probability p_dy.
            delayed = False
            if normal:
                tries = 2 if received else 0
            elif not received or random() < p_dp:
                tries = 0
            else:
                delayed = random() < p_dy
                if delayed:
                    rng.uniform(0.0, max_dur)  # attack delay duration, within the slot
                tries = 1
            # 1 if the first forwarding was overheard, 2 if only the second
            heard = 0
            for attempt in range(tries):
                if not ar:
                    break
                left = lr - tx_jk
                if left > 0.0:
                    lr = left
                else:
                    lr, ar = 0.0, False
                    if left < 0.0:
                        break
                delivered = clear or random() >= bad
                if delivered and ad:
                    left = ld - rx
                    if left > 0.0:
                        ld = left
                    else:
                        ld, ad = 0.0, False
                if clear or random() >= bad:
                    # overheard, whether or not the initiator can pay for it
                    if ai:
                        left = li - overhear
                        if left > 0.0:
                            li = left
                        else:
                            li, ai = 0.0, False
                    if not heard:
                        heard = attempt + 1
                # only the normal label's first forwarding awaits a reply
                if attempt or not normal:
                    break
                # The destination replies.  One that cannot pay sends none,
                # so the router pays to receive nothing; without a reply
                # seen, the timeout makes the router retransmit once.
                if not (delivered and ad):
                    continue
                left = ld - tx_jk
                if left > 0.0:
                    ld = left
                else:
                    ld, ad = 0.0, False
                    if left < 0.0:
                        continue
                if clear or random() >= bad:
                    if ar:
                        left = lr - rx
                        if left > 0.0:
                            lr = left
                        else:
                            lr, ar = 0.0, False
                    break
            # A first forwarding overheard is timely unless delayed; an
            # overheard retransmission is recorded as a delaying event.
            if heard:
                forwarded += 1
                timely += heard == 1 and not delayed
            t = tfr[forwarded][timely]
            s = sfr[sent][forwarded]
            values.append(t if t < s else s)
    level[initiator], level[router], level[dest] = li, lr, ld
    alive[initiator], alive[router], alive[dest] = ai, ar, ad
    return labels[0], labels[1]


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
