"""The config boundary: every malformed config exits 2 and names its field.

``main`` may only return one of the documented exit codes (0, 2, 3, 4);
a traceback is never an answer to a bad config.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowlab.cli import main
from shadowlab.serialize import CONFIG_SCHEMA

EXIT_CODES = {0, 2, 3, 4}
FIELDS = ("seed", "horizon", "tail_fraction", "net_mesh", "threads", "thresholds.delta",
          "thresholds.epsilon", "thresholds.alpha", "thresholds.tol", "thresholds.density_tol",
          "system.start")
MISSING = object()


def base_config(out: Path) -> dict:
    return {
        "schema": CONFIG_SCHEMA,
        "seed": 11,
        "horizon": 120,
        "out": str(out),
        "system": {
            "space": {"kind": "unit-disk-2d"},
            "maps": [{"kind": "permutation", "perm": [1, 0]},
                     {"kind": "scale", "factors": [0.5, 0.5]}],
            "word": {"kind": "periodic", "m": 2, "pattern": [1, 2]},
            "start": [0.6, 0.3],
        },
        "thresholds": {"delta": 0.8, "epsilon": 0.3, "alpha": 0.8,
                       "tol": 0.05, "density_tol": 0.05},
        "corruption": {"indices": {"kind": "squares"}, "jump": {"kind": "uniform"}},
    }


def set_field(data: dict, name: str, value) -> None:
    *sections, key = name.split(".")
    target = data
    for section in sections:
        target = target[section]
    if value is MISSING:
        target.pop(key, None)
    else:
        target[key] = value


def run(data: dict, tmp: Path, command: str, capsys) -> tuple[int, str]:
    path = tmp / "config.json"
    path.write_text(json.dumps(data))
    code = main([command, "--config", str(path)])
    return code, capsys.readouterr().err


# Non-numbers of every JSON shape: each must fail naming its field.
junk = st.one_of(
    st.none(),
    st.text(alphabet="abcxyz ,.-", max_size=6).filter(lambda s: not _numeric(s)),
    st.lists(st.integers(-3, 3), max_size=3).filter(lambda v: len(v) != 2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
# Numbers, in and out of range; kept small so a valid one runs quickly.
numbers = st.one_of(st.integers(-50, 400), st.floats(-2.0, 400.0), st.booleans(),
                    st.sampled_from([5e-324, 1e-300, "12", "0.25"]))


def _numeric(s: str) -> bool:
    try:
        return math.isfinite(float(s))
    except ValueError:
        return False


def run_after_generate(field: str, value, command: str, capsys):
    """Set one field, then run command; classify reads a valid generated orbit."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = base_config(tmp / "out")
        if command == "classify":
            assert run(data, tmp, "generate", capsys)[0] == 0
        set_field(data, field, value)
        return run(data, tmp, command, capsys)


commands = st.sampled_from(["generate", "classify"])
fuzz = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(field=st.sampled_from(FIELDS), value=junk, command=commands)
@fuzz
def test_non_numeric_field_exits_2_naming_it(capsys, field, value, command):
    code, err = run_after_generate(field, value, command, capsys)
    assert code == 2
    assert f"config field {field!r}" in err


@given(field=st.sampled_from(FIELDS),
       value=st.one_of(st.just(MISSING), numbers,
                       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)),
       command=commands)
@fuzz
def test_any_value_or_missing_key_exits_with_a_documented_code(capsys, field, value, command):
    code, err = run_after_generate(field, value, command, capsys)
    assert code in EXIT_CODES
    if code == 2 and value is MISSING:
        assert f"config field {field!r}" in err


@pytest.mark.parametrize("field, value", [
    # Each of these ended in a traceback (KeyError or ValueError) before.
    ("system.start", MISSING),
    ("horizon", "abc"),
    ("seed", "s"),
    ("thresholds.delta", "x"),
    # Out of range, or not a point of the space.
    ("seed", -1),
    ("net_mesh", math.nan),
    ("system.start", [2.0, 0.0]),
    ("system.start", "abc"),
])
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, field, value):
    data = base_config(tmp_path / "out")
    set_field(data, field, value)
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert f"config field {field!r}" in err


def test_negative_seed_override_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path / "out")))
    assert main(["generate", "--config", str(path), "--seed", "-1"]) == 2
    assert "config field 'seed'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The corruption section and the word's alphabet

SQUARES = {"kind": "squares"}
UNIFORM = {"kind": "uniform"}
# For each field, a corruption section that uses it, so valid values run.
CORRUPTION = {
    "corruption": {"indices": SQUARES, "jump": UNIFORM},
    "corruption.indices": {"indices": SQUARES, "jump": UNIFORM},
    "corruption.indices.density": {"indices": {"kind": "random", "density": 0.1},
                                   "jump": UNIFORM},
    "corruption.indices.base": {"indices": {"kind": "powers", "base": 3}, "jump": UNIFORM},
    "corruption.indices.indices": {"indices": {"kind": "explicit", "indices": [1, 4, 9]},
                                   "jump": UNIFORM},
    "corruption.jump": {"indices": SQUARES, "jump": UNIFORM},
    "corruption.jump.scale": {"indices": SQUARES,
                              "jump": {"kind": "offset", "scale": 0.5, "power": 1.0}},
    "corruption.jump.power": {"indices": SQUARES,
                              "jump": {"kind": "offset", "scale": 0.5, "power": 1.0}},
    "corruption.jump.point": {"indices": SQUARES, "jump": {"kind": "fixed", "point": [0.1, 0.2]}},
}
SECTIONS = ("corruption", "corruption.indices", "corruption.jump")
not_objects = st.one_of(st.none(), st.text(max_size=4), st.integers(-3, 3),
                        st.lists(st.integers(0, 3), max_size=3))
not_integer_lists = st.one_of(
    st.none(), st.text(max_size=4), st.dictionaries(st.sampled_from("ab"), st.integers(0, 3)),
    st.lists(st.one_of(st.text(max_size=2), st.floats(0.0, 9.0), st.none()), min_size=1,
             max_size=3))


def corruption_junk(field: str):
    if field in SECTIONS:
        return not_objects
    if field == "corruption.indices.indices":
        return not_integer_lists
    return junk


def run_corruption(field: str, value, command: str, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = base_config(tmp / "out")
        data["corruption"] = json.loads(json.dumps(CORRUPTION[field]))
        if command == "classify":
            assert run(data, tmp, "generate", capsys)[0] == 0
        set_field(data, field, value)
        return run(data, tmp, command, capsys)


@given(data=st.data(), field=st.sampled_from(sorted(CORRUPTION)), command=commands)
@fuzz
def test_malformed_corruption_field_exits_2_naming_it(capsys, data, field, command):
    code, err = run_corruption(field, data.draw(corruption_junk(field)), command, capsys)
    assert code == 2
    assert f"config field {field!r}" in err


@given(field=st.sampled_from(sorted(CORRUPTION)),
       value=st.one_of(st.just(MISSING), numbers, not_objects,
                       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
                       st.lists(st.integers(-5, 130), max_size=4)),
       command=commands)
@fuzz
def test_any_corruption_value_exits_with_a_documented_code(capsys, field, value, command):
    code, _ = run_corruption(field, value, command, capsys)
    assert code in EXIT_CODES


@pytest.mark.parametrize("field, section", [
    # Each of these ended in a traceback (TypeError, AttributeError or
    # ValueError) from generate before.
    ("corruption", 5),
    ("corruption.indices", {"indices": 3}),
    ("corruption.jump", {"jump": 7}),
    ("corruption.indices.density", {"indices": {"kind": "random", "density": "x"}}),
    ("corruption.indices.indices", {"indices": {"kind": "explicit", "indices": "ab"}}),
    # Out of range, or used as given where a number is needed.
    ("corruption.indices.base", {"indices": {"kind": "powers", "base": 1}}),
    ("corruption.indices.indices", {"indices": {"kind": "explicit", "indices": [3, 120]}}),
    ("corruption.jump.scale", {"jump": {"kind": "offset", "scale": "0.5"}}),
    ("corruption.jump.power", {"jump": {"kind": "offset", "power": 400}}),
    ("corruption.jump.point", {"jump": {"kind": "fixed"}}),
    ("corruption.jump.point", {"jump": {"kind": "fixed", "point": [0.1]}}),
])
def test_malformed_corruption_exits_2_naming_it(tmp_path, capsys, field, section):
    data = base_config(tmp_path / "out")
    data["corruption"] = section
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert f"config field {field!r}" in err


def test_map_spec_that_is_not_numeric_exits_2(tmp_path, capsys):
    # int("a") raised ValueError from generate before.
    data = base_config(tmp_path / "out")
    data["system"]["maps"][0] = {"kind": "permutation", "perm": ["a", "b"]}
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert "config field 'system'" in err


def test_word_alphabet_larger_than_the_map_count_exits_2(tmp_path, capsys):
    # An iid word over three symbols and two maps ran on until symbol 3 was drawn.
    data = base_config(tmp_path / "out")
    data["system"]["word"] = {"kind": "iid", "m": 3, "weights": [0.5, 0.5, 1e-9], "seed": 1}
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert "config field 'system.word.m'" in err
