from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchls import config
from sketchls.config import load_config
from sketchls.datagen import SyntheticSpec
from sketchls.dataio import FORMATS, DatasetFile
from sketchls.errors import DataFormatError, InvalidInputError
from sketchls.estimators import KINDS
from sketchls.harness import ExperimentConfig
from sketchls.sketches import FAMILIES, derive_seed

_README = Path(__file__).resolve().parents[1] / "README.md"
_SYNTHETIC = "synthetic.n = 64\nsynthetic.d = 4\nsynthetic.rho = 1\n"
_REQUIRED = ("sketch.families = gaussian\nsketch.m_values = 20\n"
             "experiment.estimators = classical\noutput.path = o.csv\n")


def _load(directory, text):
    path = directory / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return load_config(path)


@pytest.mark.parametrize("key", list(config._KEYS))
def test_each_key_names_a_field_of_its_dataclass(key):
    cls, name, _ = config._KEYS[key]
    assert name in {f.name for f in fields(cls)}
    # the source check tells the two sources apart by these prefixes
    prefix = {SyntheticSpec: "synthetic.", DatasetFile: "data."}.get(cls)
    assert key.startswith(prefix) if prefix else not key.startswith(("synthetic.", "data."))


@pytest.mark.parametrize("source, expected", [
    (_SYNTHETIC,
     SyntheticSpec(n=64, d=4, rho=1.0, seed=derive_seed(ExperimentConfig.master_seed, "datagen"))),
    ("data.path = x.csv\n", DatasetFile(path="x.csv")),
])
def test_omitted_keys_take_the_dataclass_defaults(tmp_path, source, expected):
    assert _load(tmp_path, source + _REQUIRED) == ExperimentConfig(
        source=expected, families=("gaussian",), m_values=(20,), estimators=("classical",),
        out_path="o.csv")


def test_readme_example_loads(tmp_path):
    section = _README.read_text(encoding="utf-8").split("## Experiment config format", 1)[1]
    cfg = _load(tmp_path, section.split("```\n", 2)[1])
    assert cfg.families == ("gaussian", "srht", "uniform") and cfg.master_seed == 7


def test_module_docstring_example_loads(tmp_path):
    example = "\n".join(line for line in config.__doc__.splitlines() if line.startswith("    "))
    cfg = _load(tmp_path, example)
    assert cfg.m_values == (150, 200, 300) and cfg.out_path == "results.csv"


def test_a_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(_SYNTHETIC.encode()[:-1] + b" # \xff\n" + _REQUIRED.encode())
    with pytest.raises(DataFormatError, match="byte 0xff is not UTF-8") as err:
        load_config(path)
    assert err.value.line == 3


_VALUES = st.one_of(
    st.text(max_size=20),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(str),
    st.sampled_from(("true", "off", "maybe", "", ",")),
    st.lists(st.sampled_from(FAMILIES + KINDS + FORMATS + ("bogus",)), max_size=3).map(", ".join),
    st.lists(st.integers(-5, 400), max_size=4).map(lambda ms: ", ".join(map(str, ms))),
)


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg")


# a valid config with keys dropped and values replaced: every fault is a usage
# error (exit 2), never a bare exception
@settings(max_examples=300, deadline=None)
@given(drop=st.sets(st.sampled_from(list(config._KEYS)), max_size=2),
       values=st.dictionaries(st.sampled_from(list(config._KEYS)), _VALUES, max_size=3))
def test_any_values_load_or_raise_invalid_input(cfg_dir, drop, values):
    base = config.parse_config_text(_SYNTHETIC + _REQUIRED)
    text = "".join(f"{key} = {value}\n" for key, value in (base | values).items()
                   if key not in drop)
    try:
        _load(cfg_dir, text)
    except InvalidInputError:
        pass
