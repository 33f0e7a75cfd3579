"""Single-file configuration for the whole pipeline.

One INI section per field of ``SimBundle``; every key matches a field of
that section's dataclass, every value overrides an embedded default, so an
empty (or absent) file reproduces the stock setup.  Angles are radians,
pressures pascals, thrust bounds newtons; pair-valued fields take two
comma-separated numbers, none of them NaN.  Each section's dataclass lives
with the code that takes it whole and checks its own values; this module
only fills them from the file.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import typing
from dataclasses import dataclass

from .dataset import TrainingConfig
from .engine import EngineParams
from .errors import ConfigError
from .fan import FanGeometry
from .mpc import MpcConfig
from .scenario import ScenarioConfig


@dataclass(frozen=True)
class SimBundle:
    plant: EngineParams
    fan: FanGeometry
    training: TrainingConfig
    mpc: MpcConfig
    scenario: ScenarioConfig


_SECTIONS = typing.get_type_hints(SimBundle)


def _convert(raw: str, kind, key: str):
    try:
        value = tuple(float(v) for v in raw.split(",")) if kind is tuple else kind(raw)
        if any(map(math.isnan, value if kind is tuple else (value,))):
            raise ValueError
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return value


def load_bundle(path=None, overrides: dict | None = None) -> SimBundle:
    """Build the full configuration, optionally overlaying an INI file.

    ``overrides`` maps "section.key" to values applied after the file, which
    is how command-line flags reach the bundle.  Values are read as written,
    with no ``%`` interpolation; a file that is not UTF-8 INI text raises
    ConfigError naming it.
    """
    values = {name: {} for name in _SECTIONS}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(str(path), encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            # configparser's messages span several lines; the report takes one
            raise ConfigError(f"cannot parse config file {path}: "
                              + " ".join(str(exc).split())) from exc
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            cls = _SECTIONS[section]
            keys = {f.name for f in dataclasses.fields(cls)}
            defaults = cls()
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                kind = type(getattr(defaults, key))
                values[section][key] = _convert(raw, kind, f"{section}.{key}")
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        values[section][key] = value
    try:
        return SimBundle(**{name: cls(**values[name])
                            for name, cls in _SECTIONS.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
