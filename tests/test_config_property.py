"""Property test of the run configuration parser: whatever the file holds,
`load_config` returns a RunConfig or raises ConfigError (the CLI's exit
code 2), never any other exception. And the declaration of RunConfig is the
one list of keys that the parser reads and the run echoes."""

import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vortexlab.pipeline import ConfigError, Region, RunConfig, load_config
from vortexlab.storage import run_id_for

VALID = [
    "[run]",
    "system = euler3d",
    "seed = 3",
    "[grid]",
    "n = 16",
    "dealias = 0.6",
    "[time]",
    "dt = 0.01",
    "t_end = 0.04",
    "sample_every = 2",
    "snapshot_every = 1",
    "snapshot_diagnostics = true",
    "cfl_guard = 0.5",
    "[initial]",
    "name = taylor-green-3d",
    "amplitude = 1.0",
    "band = 3",
    "[tracers]",
    "count = 4",
    "[regions]",
    "core = 1.0, 2.0, 3.0 ; 0.5",
    "[criteria]",
    "candidate_time = 1.0",
    "window_fraction = 0.25",
]

SECTIONS = {
    "run": ["system", "seed"],
    "grid": ["n", "dealias", "length"],
    "time": ["dt", "t_end", "sample_every", "snapshot_every", "snapshot_diagnostics", "cfl_guard"],
    "initial": ["name", "amplitude", "band"],
    "tracers": ["count", "points"],
    "regions": ["core", "edge"],
    "criteria": ["candidate_time", "window_fraction"],
    "DEFAULT": ["n", "dt"],
}

WORDS = [
    "euler3d", "boussinesq2d", "taylor-green-3d", "taylor-green-2d", "boussinesq-bubble",
    "", "0", "1", "-1", "2", "7", "8", "9", "16", "0.01", "0.04", "1e-320", "5e-324", "1e308",
    "1e400", "-1e400", "inf", "-inf", "nan", "true", "no", "%", "%(n)s", "${x}", "1_0", "0x10",
    "1,2", "1,2,3", "1, 2 ; 3", "0,0,0 ; 1", "0,0 ; 0.5", "1,2,3;4,5,6", "nan,0,0", ";", ";;",
    "1,x,3", "1e3", "9" * 5000,
]

values = st.one_of(
    st.sampled_from(WORDS),
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=12),
)


@st.composite
def mutated_valid(draw):
    """The valid file with values replaced and, now and then, a line
    dropped, duplicated or garbled."""
    lines = list(VALID)
    keyed = [i for i, line in enumerate(lines) if "=" in line]
    for i in draw(st.lists(st.sampled_from(keyed), min_size=1, max_size=4, unique=True)):
        lines[i] = lines[i].split("=")[0] + "= " + draw(values)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "drop", "duplicate", "garble"]))
        if action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(max_size=20))
    return "\n".join(lines)


@st.composite
def assembled(draw):
    """Sections and keys the parser knows, with arbitrary values."""
    lines = []
    names = draw(st.lists(st.sampled_from(list(SECTIONS) + ["other"]), max_size=9, unique=True))
    for name in names:
        lines.append(f"[{name}]")
        keys = SECTIONS.get(name, ["x"]) + ["junk"]
        for key in draw(st.lists(st.sampled_from(keys), max_size=6, unique=True)):
            lines.append(f"{key} = {draw(values)}")
    return "\n".join(lines)


config_texts = st.one_of(mutated_valid(), assembled(), st.text(max_size=200))


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=config_texts)
# each of these escaped load_config as another exception before
@example(text="n = 16")  # MissingSectionHeaderError
@example(text="[run]\n[run]")  # DuplicateSectionError
@example(text="\n".join(VALID + ["[grid]", "n = 8"]))  # DuplicateSectionError
@example(text="\n".join(VALID).replace("seed = 3", "seed = 3\nseed = 4"))  # DuplicateOptionError
@example(text="\n".join(VALID).replace("seed = 3", "seed = %"))  # InterpolationSyntaxError
@example(text="\n".join(VALID).replace("count = 4", "count = x"))  # ValueError
@example(text="\n".join(VALID).replace("count = 4", "points = 1,x,3"))  # ValueError
@example(text="\n".join(VALID).replace("dt = 0.01", "dt = 1e-320"))  # OverflowError
@example(text="\n".join(VALID).replace("t_end = 0.04", "t_end = inf"))  # OverflowError
@example(text="\n".join(VALID).replace("euler3d", "euler3d\ud800"))  # UnicodeDecodeError
def test_any_config_loads_or_raises_config_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        # lone surrogates become bytes that are not UTF-8
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            config = load_config(path)
        except ConfigError:
            return
    assert isinstance(config, RunConfig)


def test_the_valid_file_loads(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("\n".join(VALID))
    config = load_config(path)
    assert (config.n, config.n_steps, config.tracer_count) == (16, 4, 4)


BASE = {
    "run": {"system": "euler3d"},
    "grid": {"n": "16"},
    "time": {"dt": "0.01", "t_end": "0.04"},
    "initial": {"name": "taylor-green-3d"},
}

# field name -> (text in the file, loaded value), none of them a default
NON_DEFAULT = {
    "system": ("boussinesq2d", "boussinesq2d"),
    "n": ("24", 24),
    "dt": ("0.02", 0.02),
    "t_end": ("0.08", 0.08),
    "initial": ("boussinesq-bubble", "boussinesq-bubble"),
    "seed": ("7", 7),
    "dealias": ("0.6", 0.6),
    "length": ("3.0", 3.0),
    "amplitude": ("2.5", 2.5),
    "band": ("5", 5),
    "snapshot_every": ("2", 2),
    "snapshot_diagnostics": ("YES", True),
    "sample_every": ("2", 2),
    "cfl_guard": ("0.5", 0.5),
    "tracer_count": ("4", 4),
    "tracer_points": ("1, 2, 3 ; 4, 5, 6", np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])),
    # each key of [regions] is a region's label
    "regions": ("1.0, 2.0, 3.0 ; 0.5", [Region("regions", center=(1.0, 2.0, 3.0), radius=0.5)]),
    "candidate_time": ("1.0", 1.0),
    "window_fraction": ("0.5", 0.5),
}


@pytest.mark.parametrize("declared", fields(RunConfig), ids=lambda f: f.name)
def test_every_declared_key_loads(tmp_path, declared):
    """A field added without its section and key, or that the parser does
    not read, fails here."""
    text, expected = NON_DEFAULT[declared.name]
    sections = {name: dict(keys) for name, keys in BASE.items()}
    key = declared.metadata["key"] or declared.name
    sections.setdefault(declared.metadata["section"], {})[key] = text
    path = tmp_path / "run.ini"
    path.write_text(
        "\n".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        )
    )
    np.testing.assert_equal(getattr(load_config(path), declared.name), expected)


def test_the_echo_has_the_declared_fields(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("\n".join(VALID))
    assert list(load_config(path).to_echo()) == [f.name for f in fields(RunConfig)]


def test_the_run_id_of_the_valid_file_is_pinned(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("\n".join(VALID))
    assert run_id_for(load_config(path).to_echo()) == "f32d2dcad6e17793"
