"""One device as an object that pays its own charges: the reference models'
device, as the simulator kept it before per-device state moved into arrays
on ``NetworkState``.

``network`` builds a ``NetworkState`` holding such devices, so that a
reference model can walk the objects while the production code runs on the
network's arrays, and ``state`` reads either side as (levels, alive flags)
for comparison.
"""

from dataclasses import dataclass
from typing import Optional

from trustcloudsim.protocol import HONEST, NetworkState


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


def state(devices) -> tuple[list[float], list[bool]]:
    """(levels, alive flags) of a network's arrays or of a device list."""
    if isinstance(devices, NetworkState):
        return devices.level.tolist(), devices.alive.tolist()
    return [d.energy for d in devices], [d.alive for d in devices]
