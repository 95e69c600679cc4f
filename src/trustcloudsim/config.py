"""Scenario configuration: the full experiment description.

Configs live in flat INI-style files with one section per concern.  Every
field except the device count has a default taken from the reference
parameter set, so a minimal file is just::

    [scenario]
    devices = 100

Each field declares the file key that sets it and the unit that key is
written in.  Keys carry their unit in the name (nJ, pJ, J, m, s), and values
are converted to SI on load.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from typing import Optional

from .errors import ConfigError
from .medium import ChannelPhase, EnergyParams

DEFAULT_PHASE_RATES = ((1.0, 9.0), (2.0, 8.0), (3.0, 7.0), (1.0, 9.0))


def _param(default, key: str, exp: int = 0):
    """A field set by file key ``key``, written there in 10**exp SI units."""
    return field(default=default, metadata={"key": key, "exp": exp})


@dataclass(frozen=True)
class ScenarioConfig:
    # deployment
    area_width: float = _param(100.0, "scenario.width_m")
    area_height: float = _param(100.0, "scenario.height_m")
    device_count: int = _param(100, "scenario.devices")
    malicious_fraction: float = _param(0.2, "scenario.malicious_fraction")
    generic_share: float = _param(0.3, "scenario.generic_share")
    advanced_share: float = _param(0.4, "scenario.advanced_share")
    super_share: float = _param(0.3, "scenario.super_share")
    rounds_per_cycle: int = _param(50, "scenario.rounds_per_cycle")
    max_rounds: int = _param(1000, "scenario.max_rounds")
    seed: int = _param(1, "scenario.seed")
    replications: int = _param(20, "scenario.replications")
    sink_x: Optional[float] = _param(None, "scenario.sink_x_m")
    sink_y: Optional[float] = _param(None, "scenario.sink_y_m")
    # channel schedule (channel.phases); empty means quarter-lifetime defaults
    phases: tuple[ChannelPhase, ...] = ()
    # packet sizes (bits)
    data_bits: int = _param(3000, "packets.data_bits")
    control_bits: int = _param(300, "packets.control_bits")
    training_bits: int = _param(300, "packets.training_bits")
    # training
    n_f: int = _param(20, "training.n_f")
    p_dp: float = _param(0.05, "training.p_dp")
    p_dy: float = _param(0.05, "training.p_dy")
    max_dur: float = _param(10.0, "training.max_dur_s")
    max_tr: int = _param(20, "training.max_tr")
    max_drp: int = _param(100, "training.max_drp")
    # trust runtime
    thr_drp: int = _param(20, "trust.thr_drp")
    n_drp: int = _param(50, "trust.n_drp")
    kappa: float = _param(3.0, "trust.kappa")
    alpha: float = _param(0.8, "trust.alpha")
    beta: float = _param(0.2, "trust.beta")
    # clustering protocol
    p_ch: float = _param(0.07, "protocol.p_ch")
    neighbor_radius: float = _param(25.0, "protocol.neighbor_radius_m")
    # energy (joules), defaults as in EnergyParams
    e_elec: float = _param(EnergyParams.e_elec, "energy.e_elec_nj", -9)
    eps_fs: float = _param(EnergyParams.eps_fs, "energy.eps_fs_pj", -12)
    eps_amp: float = _param(EnergyParams.eps_amp, "energy.eps_amp_pj", -12)
    e_da: float = _param(EnergyParams.e_da, "energy.e_da_nj", -9)
    e_h: float = _param(EnergyParams.e_h, "energy.e_h_nj", -9)
    e_m: float = _param(EnergyParams.e_m, "energy.e_m_nj", -9)
    e0: float = _param(EnergyParams.e0, "energy.initial_j")
    monitor_seconds: float = _param(1.0, "energy.monitor_s")

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


#: file key -> the dataclass field it sets
_FILE_KEYS = {f.metadata["key"]: f for f in fields(ScenarioConfig) if f.metadata}

#: dataclass field -> the file key that sets it, for error messages
_FIELD_KEYS = {f.name: key for key, f in _FILE_KEYS.items()}

_KNOWN_SECTIONS = {key.split(".")[0] for key in _FILE_KEYS} | {"channel"}


def _convert(f, raw: str):
    """An int or a float by the type of the default; a unit key is scaled
    exactly in decimal, then rounded once to a float."""
    exp = f.metadata["exp"]
    if exp:
        return float(Decimal(raw).scaleb(exp))
    return int(raw) if isinstance(f.default, int) else float(raw)


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
        for name, raw in parser.items(section):
            key = f"{section}.{name}"
            if key == "channel.phases":
                values["phases"] = _parse_phases(raw)
                continue
            f = _FILE_KEYS.get(key)
            if f is None:
                raise ConfigError("unknown field", field=key)
            try:
                values[f.name] = _convert(f, raw)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(f"invalid value {raw!r}", field=key) from exc
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
