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

A data-file source uses `data.path` and `data.format` instead of the
synthetic.* keys; `noise.kappa` adds target noise to either source.
The synthetic generator seed is derived from experiment.seed with the
context tag "datagen".
"""

from __future__ import annotations

from pathlib import Path

from .datagen import SyntheticSpec
from .dataio import FORMATS, DatasetFile
from .errors import ConfigError
from .harness import ExperimentConfig
from .sketches import derive_seed

_KNOWN_KEYS = {
    "synthetic.n", "synthetic.d", "synthetic.rho",
    "data.path", "data.format",
    "noise.kappa",
    "sketch.families", "sketch.m_values",
    "experiment.reps", "experiment.seed", "experiment.estimators", "experiment.two_sketch",
    "output.path",
}

_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _get(values, key, convert, default=None, required=False):
    if key not in values:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return convert(values[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from None


def _csv_list(value: str) -> tuple[str, ...]:
    items = tuple(item.strip() for item in value.split(",") if item.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"not a boolean: {value!r}")


def load_config(path) -> ExperimentConfig:
    """Read a config file into an ExperimentConfig (out_path included)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such config file: {path}")
    values = parse_config_text(path.read_text(encoding="utf-8"))

    seed = _get(values, "experiment.seed", int, default=0)
    has_synth = any(k.startswith("synthetic.") for k in values)
    has_data = any(k.startswith("data.") for k in values)
    if has_synth and has_data:
        raise ConfigError("give either synthetic.* keys or data.* keys, not both")
    if has_synth:
        source = SyntheticSpec(
            n=_get(values, "synthetic.n", int, required=True),
            d=_get(values, "synthetic.d", int, required=True),
            rho=_get(values, "synthetic.rho", float, required=True),
            seed=derive_seed(seed, "datagen"),
        )
    elif has_data:
        fmt = _get(values, "data.format", str, default="csv")
        if fmt not in FORMATS:
            raise ConfigError(f"bad value for 'data.format': {fmt!r}")
        source = DatasetFile(path=_get(values, "data.path", str, required=True), format=fmt)
    else:
        raise ConfigError("config needs a synthetic.* or data.* source")

    return ExperimentConfig(
        source=source,
        families=_get(values, "sketch.families", _csv_list, required=True),
        m_values=_get(values, "sketch.m_values", lambda v: tuple(map(int, _csv_list(v))),
                      required=True),
        estimators=_get(values, "experiment.estimators", _csv_list, required=True),
        reps=_get(values, "experiment.reps", int, default=100),
        master_seed=seed,
        kappa=_get(values, "noise.kappa", float, default=0.0),
        two_sketch=_get(values, "experiment.two_sketch", _bool, default=False),
        out_path=_get(values, "output.path", str, required=True),
    )
