"""Single-file configuration for the whole pipeline.

INI-style sections [plant], [fan], [training], [mpc], [scenario]; every key
matches a field of the corresponding dataclass, every value overrides an
embedded default, so an empty (or absent) file reproduces the stock setup.
Angles are radians, pressures pascals, thrust bounds newtons; pair-valued
fields take two comma-separated numbers.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass

from .dataset import CONTROL_DT
from .engine import EngineParams, substeps
from .fan import FanGeometry
from .mpc import MpcConfig
from .scenario import ScenarioConfig


class ConfigError(ValueError):
    """Bad section, key, or value in a configuration file."""


@dataclass(frozen=True)
class TrainingConfig:
    sample_count: int = 1000
    n_train: int = 950
    snr_db: float = 5.0
    seed: int = 123                 # dataset excitation seed
    model_seed: int = 0             # network initialization seed
    rbf_centers: int = 25
    rbf_neighbors: int = 2
    rbf_overlap: float = 4.0
    ridge: float = 1.0e-8
    lms_passes: int = 1
    lms_rate: float = 0.005
    mlp_hidden: int = 26
    mlp_lr: float = 0.1
    mlp_epochs: int = 5000
    elman_hidden: int = 12
    elman_lr: float = 0.01
    elman_epochs: int = 1000
    mse_target: float = 1.0e-4

    def __post_init__(self):
        if not 1 <= self.n_train < self.sample_count:
            raise ValueError("training needs 1 <= n_train < sample_count, so that "
                             "at least one validation row is left")
        if min(self.rbf_centers, self.rbf_neighbors, self.mlp_hidden,
               self.elman_hidden, self.mlp_epochs, self.elman_epochs) < 1:
            raise ValueError("center, neighbor, hidden-size and epoch counts "
                             "must be positive")


@dataclass(frozen=True)
class SimBundle:
    plant: EngineParams
    fan: FanGeometry
    training: TrainingConfig
    mpc: MpcConfig
    scenario: ScenarioConfig


_SECTIONS = {
    "plant": EngineParams,
    "fan": FanGeometry,
    "training": TrainingConfig,
    "mpc": MpcConfig,
    "scenario": ScenarioConfig,
}


def _convert(raw: str, kind, key: str):
    try:
        if kind is tuple:
            return tuple(float(v) for v in raw.split(","))
        return kind(raw)            # int or float
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_bundle(path=None, overrides: dict | None = None) -> SimBundle:
    """Build the full configuration, optionally overlaying an INI file.

    ``overrides`` maps "section.key" to values applied after the file, which
    is how command-line flags reach the bundle.
    """
    values = {name: {} for name in _SECTIONS}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            cls = _SECTIONS[section]
            field_types = {f.name: f.type for f in dataclasses.fields(cls)}
            defaults = cls()
            for key, raw in parser.items(section):
                if key not in field_types:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                kind = type(getattr(defaults, key))
                values[section][key] = _convert(raw, kind, f"{section}.{key}")
    for dotted, value in (overrides or {}).items():
        section, key = dotted.split(".", 1)
        values[section][key] = value
    try:
        bundle = SimBundle(plant=EngineParams(**values["plant"]),
                           fan=FanGeometry(**values["fan"]),
                           training=TrainingConfig(**values["training"]),
                           mpc=MpcConfig(**values["mpc"]),
                           scenario=ScenarioConfig(**values["scenario"]))
        substeps(bundle.plant, bundle.scenario.dt)
        substeps(bundle.plant, CONTROL_DT)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return bundle
