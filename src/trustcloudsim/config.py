"""Scenario configuration: the full experiment description.

Configs live in flat INI-style files with one section per concern.  Every
field except the device count has a default taken from the reference
parameter set, so a minimal file is just::

    [scenario]
    devices = 100

Energy keys carry their unit in the name (nJ, pJ, J, m, s) and are converted
to SI on load.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .errors import ConfigError
from .medium import ChannelPhase, EnergyParams

DEFAULT_PHASE_RATES = ((1.0, 9.0), (2.0, 8.0), (3.0, 7.0), (1.0, 9.0))


@dataclass(frozen=True)
class ScenarioConfig:
    # deployment
    area_width: float = 100.0
    area_height: float = 100.0
    device_count: int = 100
    malicious_fraction: float = 0.2
    generic_share: float = 0.3
    advanced_share: float = 0.4
    super_share: float = 0.3
    rounds_per_cycle: int = 50
    max_rounds: int = 1000
    seed: int = 1
    replications: int = 20
    sink_x: Optional[float] = None
    sink_y: Optional[float] = None
    # channel schedule; empty means quarter-lifetime defaults
    phases: tuple[ChannelPhase, ...] = ()
    # packet sizes (bits)
    data_bits: int = 3000
    control_bits: int = 300
    training_bits: int = 300
    # training
    n_f: int = 20
    p_dp: float = 0.05
    p_dy: float = 0.05
    max_dur: float = 10.0
    max_tr: int = 20
    max_drp: int = 100
    # trust runtime
    thr_drp: int = 20
    n_drp: int = 50
    kappa: float = 3.0
    alpha: float = 0.8
    beta: float = 0.2
    # clustering protocol
    p_ch: float = 0.07
    neighbor_radius: float = 25.0
    # energy (joules), defaults as in EnergyParams
    e_elec: float = EnergyParams.e_elec
    eps_fs: float = EnergyParams.eps_fs
    eps_amp: float = EnergyParams.eps_amp
    e_da: float = EnergyParams.e_da
    e_h: float = EnergyParams.e_h
    e_m: float = EnergyParams.e_m
    e0: float = EnergyParams.e0
    monitor_seconds: float = 1.0

    def validate(self) -> "ScenarioConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError("must be finite", field=f.name)
        if self.device_count < 1:
            raise ConfigError("must be at least 1", field="scenario.devices")
        for side, key in ((self.area_width, "width_m"), (self.area_height, "height_m")):
            if side <= 0:
                raise ConfigError("area sides must be positive", field=f"scenario.{key}")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ConfigError(
                "must be in [0, 1]", field="scenario.malicious_fraction"
            )
        for name in ("generic_share", "advanced_share", "super_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError("must be in [0, 1]", field=name)
        share_sum = self.generic_share + self.advanced_share + self.super_share
        if abs(share_sum - 1.0) > 1e-9:
            raise ConfigError(
                f"attacker mix must sum to 1, got {share_sum}",
                field="scenario.generic_share",
            )
        for key, value, low in (
            ("scenario.max_rounds", self.max_rounds, 1),
            ("scenario.rounds_per_cycle", self.rounds_per_cycle, 1),
            ("scenario.seed", self.seed, 0),
            ("trust.kappa", self.kappa, 0),
        ):
            if value < low:
                raise ConfigError(f"must be at least {low}", field=key)
        starts = sorted(p.start_round for p in self.phases)
        if starts and (starts[0] != 0 or len(set(starts)) < len(starts)):
            raise ConfigError(
                f"phases must start at round 0 and in distinct rounds, got "
                f"starts {starts}",
                field="channel.phases",
            )
        if not 0.0 < self.p_ch < 1.0:
            raise ConfigError("must be in (0, 1)", field="protocol.p_ch")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ConfigError(
                f"update weights must sum to 1, got {self.alpha} + {self.beta}",
                field="trust.alpha",
            )
        for name, low in (
            ("n_f", 1), ("max_tr", 0), ("max_drp", 2), ("thr_drp", 2), ("n_drp", 1),
            ("data_bits", 0), ("control_bits", 0), ("training_bits", 0),
            ("neighbor_radius", 0), ("max_dur", 0), ("monitor_seconds", 0),
        ):
            if getattr(self, name) < low:
                raise ConfigError(f"must be at least {low}", field=name)
        for name in ("p_dp", "p_dy", "alpha", "beta"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError("must be in [0, 1]", field=name)
        for energy_field in fields(EnergyParams):
            if getattr(self, energy_field.name) < 0:
                raise ConfigError("must be non-negative", field=energy_field.name)
        return self

    def energy_params(self) -> EnergyParams:
        return EnergyParams(
            **{f.name: getattr(self, f.name) for f in fields(EnergyParams)}
        )

    def channel_schedule(self) -> tuple[ChannelPhase, ...]:
        """Explicit phases, or the default quarter-lifetime schedule."""
        if self.phases:
            return tuple(sorted(self.phases, key=lambda p: p.start_round))
        quarter = max(self.max_rounds // 4, 1)
        return tuple(
            ChannelPhase(a0, a1, start_round=i * quarter)
            for i, (a0, a1) in enumerate(DEFAULT_PHASE_RATES)
        )

    def sink(self) -> tuple[float, float]:
        x = self.sink_x if self.sink_x is not None else self.area_width / 2.0
        y = self.sink_y if self.sink_y is not None else self.area_height / 2.0
        return x, y

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "phases":
                v = [[p.start_round, p.alpha0, p.alpha1] for p in self.channel_schedule()]
            out[f.name] = v
        return out


# file key -> (dataclass field, converter); converters map file units to SI
_SCALE_NANO = 1e-9
_SCALE_PICO = 1e-12

_FILE_KEYS = {
    ("scenario", "width_m"): ("area_width", float),
    ("scenario", "height_m"): ("area_height", float),
    ("scenario", "devices"): ("device_count", int),
    ("scenario", "malicious_fraction"): ("malicious_fraction", float),
    ("scenario", "generic_share"): ("generic_share", float),
    ("scenario", "advanced_share"): ("advanced_share", float),
    ("scenario", "super_share"): ("super_share", float),
    ("scenario", "rounds_per_cycle"): ("rounds_per_cycle", int),
    ("scenario", "max_rounds"): ("max_rounds", int),
    ("scenario", "seed"): ("seed", int),
    ("scenario", "replications"): ("replications", int),
    ("scenario", "sink_x_m"): ("sink_x", float),
    ("scenario", "sink_y_m"): ("sink_y", float),
    ("packets", "data_bits"): ("data_bits", int),
    ("packets", "control_bits"): ("control_bits", int),
    ("packets", "training_bits"): ("training_bits", int),
    ("training", "n_f"): ("n_f", int),
    ("training", "p_dp"): ("p_dp", float),
    ("training", "p_dy"): ("p_dy", float),
    ("training", "max_dur_s"): ("max_dur", float),
    ("training", "max_tr"): ("max_tr", int),
    ("training", "max_drp"): ("max_drp", int),
    ("trust", "thr_drp"): ("thr_drp", int),
    ("trust", "n_drp"): ("n_drp", int),
    ("trust", "kappa"): ("kappa", float),
    ("trust", "alpha"): ("alpha", float),
    ("trust", "beta"): ("beta", float),
    ("protocol", "p_ch"): ("p_ch", float),
    ("protocol", "neighbor_radius_m"): ("neighbor_radius", float),
    ("energy", "e_elec_nj"): ("e_elec", lambda s: float(s) * _SCALE_NANO),
    ("energy", "eps_fs_pj"): ("eps_fs", lambda s: float(s) * _SCALE_PICO),
    ("energy", "eps_amp_pj"): ("eps_amp", lambda s: float(s) * _SCALE_PICO),
    ("energy", "e_da_nj"): ("e_da", lambda s: float(s) * _SCALE_NANO),
    ("energy", "e_h_nj"): ("e_h", lambda s: float(s) * _SCALE_NANO),
    ("energy", "e_m_nj"): ("e_m", lambda s: float(s) * _SCALE_NANO),
    ("energy", "initial_j"): ("e0", float),
    ("energy", "monitor_s"): ("monitor_seconds", float),
}

#: dataclass field -> the file key that sets it, for error messages
_FIELD_KEYS = {
    name: f"{section}.{key}" for (section, key), (name, _) in _FILE_KEYS.items()
}

_KNOWN_SECTIONS = {"scenario", "channel", "packets", "training", "trust",
                   "protocol", "energy"}


def _parse_phases(raw: str) -> tuple[ChannelPhase, ...]:
    phases = []
    for chunk in raw.replace("\n", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"expected start:alpha0:alpha1, got {chunk!r}", field="channel.phases"
            )
        try:
            start, a0, a1 = int(parts[0]), float(parts[1]), float(parts[2])
            phases.append(ChannelPhase(a0, a1, start_round=start))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(str(exc), field="channel.phases") from exc
    if not phases:
        raise ConfigError("no phases given", field="channel.phases")
    return tuple(phases)


def load_config(path: str) -> ScenarioConfig:
    """Parse a scenario file, validating every field it names."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    values: dict = {}
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise ConfigError("unknown section", field=section)
        for key, raw in parser.items(section):
            if (section, key) == ("channel", "phases"):
                values["phases"] = _parse_phases(raw)
                continue
            spec = _FILE_KEYS.get((section, key))
            if spec is None:
                raise ConfigError("unknown field", field=f"{section}.{key}")
            name, conv = spec
            try:
                values[name] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"invalid value {raw!r}", field=f"{section}.{key}"
                ) from exc
    if "device_count" not in values:
        raise ConfigError("required field missing", field="scenario.devices")
    try:
        return ScenarioConfig(**values).validate()
    except ConfigError as exc:
        if exc.field not in _FIELD_KEYS:
            raise
        raise ConfigError(exc.reason, field=_FIELD_KEYS[exc.field]) from exc


def with_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    """Copy a config with selected fields replaced, re-validating."""
    return replace(cfg, **kwargs).validate()


def config_from_dict(data: dict) -> ScenarioConfig:
    """Rebuild a config from an as_dict() snapshot (e.g. a run manifest)."""
    values = dict(data)
    raw_phases = values.pop("phases", [])
    phases = tuple(
        ChannelPhase(a0, a1, start_round=int(start)) for start, a0, a1 in raw_phases
    )
    known = {f.name for f in fields(ScenarioConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)}")
    return ScenarioConfig(phases=phases, **values).validate()
