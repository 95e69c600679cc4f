"""Wireless channel quality and the first-order radio energy model.

Channel quality is bad with the stationary probability alpha0/(alpha0+alpha1)
and every reception or overhearing opportunity draws independently: a bad
draw means the packet is not received or overheard.  Energy accounting uses
the standard first-order radio model with a free-space / multipath amplifier
crossover at d0 = sqrt(eps_fs / eps_amp), and charges devices whose energy
levels and alive flags are held per device id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ChannelPhase:
    """One segment of the channel schedule, active from start_round on."""

    alpha0: float
    alpha1: float
    start_round: int = 0

    def __post_init__(self):
        rates = (self.alpha0, self.alpha1)
        if not all(0 <= a < math.inf for a in rates) or sum(rates) <= 0:
            raise DomainError(
                f"need finite non-negative rates with a positive sum, got "
                f"({self.alpha0}, {self.alpha1})"
            )

    @cached_property
    def bad_prob(self) -> float:
        """Computed once per phase: every channel draw compares against it."""
        return stationary_bad_prob(self.alpha0, self.alpha1)


def stationary_bad_prob(alpha0: float, alpha1: float) -> float:
    """Stationary probability of the bad channel state."""
    if alpha0 < 0 or alpha1 < 0 or alpha0 + alpha1 <= 0:
        raise DomainError(
            f"need non-negative rates with a positive sum, got ({alpha0}, {alpha1})"
        )
    return alpha0 / (alpha0 + alpha1)


@dataclass(frozen=True)
class EnergyParams:
    """Radio and bookkeeping energy constants, all in joules."""

    e_elec: float = 50e-9       # per bit, transmit/receive electronics
    eps_fs: float = 10e-12      # per bit per m^2, free-space amplifier
    eps_amp: float = 0.0013e-12  # per bit per m^4, multipath amplifier
    e_da: float = 5e-9          # per bit per message, aggregation
    e_h: float = 5e-9           # per bit, overhearing
    e_m: float = 10e-9          # per second, monitoring
    e0: float = 1.0             # initial budget per device

    def __post_init__(self):
        for name in ("e_elec", "eps_fs", "eps_amp", "e_da", "e_h", "e_m", "e0"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")

    @cached_property
    def crossover_distance(self) -> float:
        """Distance beyond which the multipath amplifier term applies.

        Computed once per instance: every transmit cost compares against it.
        """
        if self.eps_amp == 0.0:
            return math.inf
        return math.sqrt(self.eps_fs / self.eps_amp)


def tx_energy(bits: int, distance: float, p: EnergyParams) -> float:
    """Transmit cost over a given distance."""
    if bits < 0 or distance < 0:
        raise DomainError("bits and distance must be non-negative")
    if distance < p.crossover_distance:
        return bits * p.e_elec + bits * p.eps_fs * distance**2
    return bits * p.e_elec + bits * p.eps_amp * distance**4


def rx_energy(bits: int, p: EnergyParams) -> float:
    return bits * p.e_elec


def overhear_energy(bits: int, p: EnergyParams) -> float:
    return bits * p.e_h


def aggregate_energy(bits: int, messages: int, p: EnergyParams) -> float:
    return bits * messages * p.e_da


def monitor_energy(seconds: float, p: EnergyParams) -> float:
    return seconds * p.e_m


def spend(level: list[float], alive: list[bool], i: int, cost: float) -> bool:
    """Charge device i an action; one that cannot pay dies and the action fails.

    A device that spends its final joule completes the action and is then
    marked dead.  ``level`` and ``alive`` are Python lists: a chain of
    charges in a given order runs on list copies of the network's arrays.
    For finite floats, ``level - cost`` is negative exactly where the level
    is below the cost, and zero exactly where they are equal.
    """
    if not alive[i]:
        return False
    left = level[i] - cost
    if left > 0.0:
        level[i] = left
        return True
    level[i] = 0.0
    alive[i] = False
    return left == 0.0


def charge(level: np.ndarray, alive: np.ndarray, ids: np.ndarray, cost) -> None:
    """Charge the distinct live devices ``ids`` once each, as ``spend``
    would, bit for bit; ``cost`` is a scalar or one cost per device."""
    left = level[ids] - cost
    dead = left <= 0.0
    level[ids] = np.where(dead, 0.0, left)
    alive[ids[dead]] = False
