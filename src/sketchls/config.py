"""Flat key=value experiment configuration files.

Dotted keys, one per line, `#` comments, lists comma-separated:

    synthetic.n = 1024
    synthetic.d = 100
    synthetic.rho = 0.1
    sketch.families = gaussian, srht
    sketch.m_values = 150, 200, 300
    experiment.estimators = classical, shrinkage
    experiment.reps = 100
    experiment.seed = 7
    output.path = results.csv

`_KEYS` is the schema: each key sets one field of `ExperimentConfig`,
`SyntheticSpec` or `DatasetFile` (the data.* keys, instead of synthetic.*).
Any other key is an error; an omitted key takes its field's dataclass
default.  The synthetic seed is derived from experiment.seed and "datagen".
"""

from __future__ import annotations

from dataclasses import MISSING
from pathlib import Path

from .datagen import SyntheticSpec
from .dataio import FORMATS, DatasetFile
from .errors import ConfigError
from .harness import ExperimentConfig
from .sketches import derive_seed


def _csv_list(value: str) -> tuple[str, ...]:
    items = tuple(item.strip() for item in value.split(",") if item.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def _format(value: str) -> str:
    if value not in FORMATS:
        raise ValueError(repr(value))
    return value


# key -> (dataclass, field, converter); read in this order, so the first fault is reported
_KEYS = {
    "experiment.seed": (ExperimentConfig, "master_seed", int),
    "synthetic.n": (SyntheticSpec, "n", int),
    "synthetic.d": (SyntheticSpec, "d", int),
    "synthetic.rho": (SyntheticSpec, "rho", float),
    "data.format": (DatasetFile, "format", _format),
    "data.path": (DatasetFile, "path", str),
    "sketch.families": (ExperimentConfig, "families", _csv_list),
    "sketch.m_values": (ExperimentConfig, "m_values", lambda v: tuple(map(int, _csv_list(v)))),
    "experiment.estimators": (ExperimentConfig, "estimators", _csv_list),
    "experiment.reps": (ExperimentConfig, "reps", int),
    "experiment.two_sketch": (ExperimentConfig, "two_sketch", _bool),
    "output.path": (ExperimentConfig, "out_path", str),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat format into a key -> raw-string map."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _fields(values: dict[str, str], cls, only: str | None = None) -> dict:
    """The fields of `cls` (or only its field `only`) that `values` sets, converted."""
    kwargs = {}
    for key, (owner, name, convert) in _KEYS.items():
        if owner is not cls or (only is not None and name != only):
            continue
        if key not in values:  # required: no dataclass default, or out_path (a run writes a CSV)
            if name == "out_path" or getattr(cls, name, MISSING) is MISSING:
                raise ConfigError(f"missing required key {key!r}")
            continue
        try:
            kwargs[name] = convert(values[key])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from None
    return kwargs


def load_config(path) -> ExperimentConfig:
    """Read a config file into an ExperimentConfig (out_path included)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such config file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {line}: byte {exc.object[exc.start]:#04x} is not UTF-8") from None
    values = parse_config_text(text)
    seed = _fields(values, ExperimentConfig, "master_seed")  # first: the source may derive from it
    sources = {_KEYS[key][0] for key in values} - {ExperimentConfig}
    if len(sources) != 1:
        raise ConfigError("give either synthetic.* keys or data.* keys, not both" if sources
                          else "config needs a synthetic.* or data.* source")
    (source_type,) = sources
    source = _fields(values, source_type)
    if source_type is SyntheticSpec:
        master = seed.get("master_seed", ExperimentConfig.master_seed)  # or the dataclass default
        source["seed"] = derive_seed(master, "datagen")
    return ExperimentConfig(source=source_type(**source), **_fields(values, ExperimentConfig))
