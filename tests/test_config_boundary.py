"""The config boundary: every malformed config exits 2 and names its field.

``main`` may only return one of the documented exit codes (0, 2, 3, 4);
a traceback is never an answer to a bad config.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import shadowlab
from shadowlab import GeneratorFamily, GeneratorMap, Word, build_disk_system, true_orbit
from shadowlab import dynamics, pseudo_orbits, serialize, surgery
from shadowlab.cli import main
from shadowlab.cesaro import BoundedSequence
from shadowlab.density import (MIN_DENSITY_HORIZON, IndexSet, check_density_horizon,
                               check_tail_fraction)
from shadowlab.dynamics import DIMENSION_CAP, JumpRule
from shadowlab.errors import (IntegrityError, ParameterError, check_alpha, check_nonnegative,
                              check_positive)
from shadowlab.pseudo_orbits import jump_sizes
from shadowlab.serialize import (
    CONFIG_SCHEMA,
    DIGEST_BLOCK,
    HORIZON_CAP,
    PLAN_SCHEMA,
    load_config,
    load_orbit,
    orbit_from_dict,
    save_orbit,
    _sha256,
    validate_config,
)
from shadowlab.shadow_search import check_schedule

from oracles import save_orbit_v1

EXIT_CODES = {0, 2, 3, 4}
FIELDS = ("seed", "horizon", "tail_fraction", "net_mesh", "thresholds.delta",
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


def run(data: dict, tmp: Path, command: str, capsys, *flags: str) -> tuple[int, str]:
    path = tmp / "config.json"
    path.write_text(json.dumps(data))
    code = main([command, "--config", str(path), *flags])
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


@pytest.mark.parametrize("field", [
    "horizn", "system.strat", "thresholds.epsilonn", "corruption.jumps",
    "corruption.indices.kindd", "corruption.jump.scal", "classify.scann", "repair.orbits",
    "cesaro.bounds", "concat.manifests", "search.lvls", "example_disk.scal",
    # Keys of the v1 config that were accepted and ignored.
    "threads", "classify.scan"])
def test_an_unknown_key_exits_2_naming_it(tmp_path, capsys, field):
    # A misspelled key used to load with the default of the key it meant.
    data = base_config(tmp_path / "out")
    *sections, key = field.split(".")
    target = data
    for section in sections:
        target = target.setdefault(section, {})
    target[key] = 0.3
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert f"config field {field!r}: unknown key" in err


def test_unknown_override_keys_raise_and_so_do_the_ignored_v1_keys():
    with pytest.raises(ParameterError, match="config field 'horizn'"):
        load_config(None, horizn=5, thresholds={"epsilonn": 0.3})
    with pytest.raises(ParameterError, match="config field 'threads': unknown key"):
        load_config(None, threads=4)
    with pytest.raises(ParameterError, match="config field 'classify.scan': unknown key"):
        load_config(None, classify={"scan": "sampled"})


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
    st.lists(st.one_of(st.text(max_size=2), st.floats(0.0, 9.0).filter(lambda v: v % 1),
                       st.none()), min_size=1, max_size=3))


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
    ("corruption.indices.indices", {"indices": {"kind": "explicit", "indices": [2.5]}}),
    ("corruption.indices.indices", {"indices": {"kind": "explicit", "indices": [True]}}),
    ("corruption.indices.indices", {"indices": {"kind": "explicit", "indices": [3, 10**30]}}),
    ("corruption.jump.scale", {"jump": {"kind": "offset", "scale": "0.5"}}),
    ("corruption.jump.power", {"jump": {"kind": "offset", "power": 400}}),
    ("corruption.jump.point", {"jump": {"kind": "fixed"}}),
    ("corruption.jump.point", {"jump": {"kind": "fixed", "point": [0.1]}}),
    ("corruption.jump.point", {"jump": {"kind": "fixed", "point": 0.5}}),
    ("corruption.jump.point", {"jump": {"kind": "fixed", "point": [math.nan, 0.0]}}),
    ("corruption.jump.scale", {"jump": {"kind": "offset", "scale": math.nan}}),
    ("corruption.jump.power", {"jump": {"kind": "offset", "power": None}}),
    ("corruption.jump.kind", {"jump": {"scale": 0.5}}),
    # Each of these loaded, and the jump rule in the orbit's meta held the
    # unread point, or the indices ignored the key.
    ("corruption.jump.point", {"jump": {"kind": "uniform", "point": [0.5, 0.5]}}),
    ("corruption.jump.point", {"jump": {"kind": "offset", "point": [0.5, 0.5]}}),
    ("corruption.indices.density", {"indices": {"kind": "squares", "density": 0.5}}),
    ("corruption.indices.base", {"indices": {"kind": "squares", "base": 7}}),
    ("corruption.indices.indices", {"indices": {"kind": "random", "indices": [1, 2]}}),
])
def test_malformed_corruption_exits_2_naming_it(tmp_path, capsys, field, section):
    data = base_config(tmp_path / "out")
    data["corruption"] = section
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert f"config field {field!r}" in err


def test_explicit_corruption_indices_accept_integral_floats(tmp_path, capsys):
    # [2.0] exited 2, while every other integer field loads an integral float.
    orbits = []
    for indices in ([2, 7], [2.0, 7.0]):
        data = base_config(tmp_path / "out")
        data["corruption"] = {"indices": {"kind": "explicit", "indices": indices},
                              "jump": UNIFORM}
        assert run(data, tmp_path, "generate", capsys)[0] == 0
        orbits.append((tmp_path / "out" / "orbit.json").read_bytes())
    assert orbits[0] == orbits[1]


def test_map_spec_that_is_not_numeric_exits_2(tmp_path, capsys):
    # int("a") raised ValueError from generate before.
    data = base_config(tmp_path / "out")
    data["system"]["maps"][0] = {"kind": "permutation", "perm": ["a", "b"]}
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert "config field 'system.maps[0].perm'" in err


def test_word_alphabet_larger_than_the_map_count_exits_2(tmp_path, capsys):
    # An iid word over three symbols and two maps ran on until symbol 3 was drawn.
    data = base_config(tmp_path / "out")
    data["system"]["word"] = {"kind": "iid", "m": 3, "weights": [0.5, 0.5, 1e-9], "seed": 1}
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert "config field 'system.word.m'" in err


# ---------------------------------------------------------------------------
# Map sizes and point coordinates


@pytest.mark.parametrize("spec", [
    # The first two ran and broadcast their one coordinate into both; the
    # affine map ended in a matmul ValueError traceback.
    {"kind": "scale", "factors": [0.5]},
    {"kind": "permutation", "perm": [0]},
    {"kind": "affine", "matrix": [[0.5]], "offset": [0.1]},
])
def test_map_of_the_wrong_dimension_exits_2(tmp_path, capsys, spec):
    data = base_config(tmp_path / "out")
    data["system"]["maps"][1] = spec
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert "config field 'system'" in err


# ---------------------------------------------------------------------------
# Word, map and space fields: integral where an integer is meant, finite real
# numbers elsewhere, checked when the word, map or space is built

IID = {"kind": "iid", "m": 2, "weights": [0.5, 0.5], "seed": 3}
BOX = {"kind": "box-kd", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}


@pytest.mark.parametrize("word, key", [
    # The seeds ended in an OverflowError traceback; the rest exited 0,
    # truncated, cast, or (NaN, infinity) giving the all-1 word.
    ({**IID, "seed": -1}, "seed"),
    ({**IID, "seed": 2**70}, "seed"),
    ({"kind": "constant", "m": 2.7, "symbol": 1}, "m"),
    ({"kind": "constant", "m": 2, "symbol": 1.9}, "symbol"),
    ({"kind": "periodic", "m": 2, "pattern": [1.5, 2]}, "pattern"),
    ({"kind": "periodic", "m": 2, "pattern": [1, 2], "offset": 1.5}, "offset"),
    ({"kind": "constant", "m": 2, "symbol": True}, "symbol"),
    ({"kind": "periodic", "m": 2, "pattern": ["1", "2"]}, "pattern"),
    ({**IID, "weights": ["0.5", "0.5"]}, "weights"),
    ({**IID, "weights": [math.nan, 1]}, "weights"),
    ({**IID, "weights": [math.inf, 1]}, "weights"),
    # These loaded, ignoring the key: the first as offset 0.
    ({"kind": "periodic", "m": 1, "pattern": [1], "ofset": 4}, "ofset"),
    ({"kind": "constant", "m": 2, "symbol": 1, "pattern": [1, 2]}, "pattern"),
    ({"kind": "prefix", "m": 2, "prefix": [1],
      "tail": {"kind": "constant", "m": 2, "symbol": 2, "sybmol": 1}}, "tail.sybmol"),
    # This exited 2 naming only the word, with Python's TypeError text.
    ({"kind": "periodic", "m": 2, "pattern": 1}, "pattern"),
])
def test_malformed_word_exits_2_naming_it(tmp_path, capsys, word, key):
    data = {**base_config(tmp_path / "out"), "horizon": 20}
    data["system"]["word"] = word
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert f"config field 'system.word.{key}'" in err


@pytest.mark.parametrize("field, spec, key", [
    # Each of these exited 0: the half became 0 and the strings were cast.
    ("system.maps[0]", {"kind": "permutation", "perm": [1, 0.5]}, "perm"),
    ("system.maps[0]", {"kind": "permutation", "perm": ["1", "0"]}, "perm"),
    ("system.maps[1]", {"kind": "scale", "factors": ["0.5", "0.5"]}, "factors"),
    ("system.maps[1]", {"kind": "affine", "matrix": [[0.5, 0], [0, "0.5"]], "offset": [0, 0]},
     "matrix"),
    ("system.maps[1]", {"kind": "affine", "matrix": [[0.5, 0], [0, 0.5]], "offset": [0, True]},
     "offset"),
    ("system.space", {**BOX, "lo": ["0", 0]}, "lo"),
    # A space of infinite diameter.
    ("system.space", {**BOX, "hi": [1, math.inf]}, "hi"),
    # These loaded, ignoring the key: the map as x -> Ax, the space as a disk.
    ("system.maps[1]", {"kind": "affine", "matrix": [[0.5, 0], [0, 0.5]], "ofset": [0.1, 0]},
     "ofset"),
    ("system.space", {"kindd": "box-kd", "lo": [0, 0], "hi": [1, 1]}, "kindd"),
    ("system.space", {"kind": "unit-disk-2d", "lo": [0, 0]}, "lo"),
])
def test_malformed_map_or_space_exits_2_naming_it(tmp_path, capsys, field, spec, key):
    data = {**base_config(tmp_path / "out"), "horizon": 20}
    system = data["system"]
    if field == "system.space":
        system.update(space=spec, start=[0.5, 0.5])
    else:
        system["maps"][int(field[-2])] = spec
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert f"config field '{field}.{key}'" in err


# Each spec of base_config, with the keys of its type.
SPECS = {"system.word": ("kind", "m", "symbol", "pattern", "weights", "seed", "prefix", "tail",
                         "offset"),
         "system.maps[1]": ("kind", "perm", "matrix", "offset", "factors"),
         "system.space": ("kind", "lo", "hi"),
         "corruption.jump": ("kind", "point", "scale", "power")}
SPEC_KEYS = sorted({key for keys in SPECS.values() for key in keys})
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2.0, 2.0),
              st.text(max_size=3), st.sampled_from([math.nan, math.inf, 2**70, 1e300])),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(SPEC_KEYS), inner, max_size=3)),
    max_leaves=8)


@given(data=st.data(), spec=st.sampled_from(sorted(SPECS)), value=json_values)
@settings(fuzz, max_examples=300)
def test_any_value_in_a_spec_exits_with_a_documented_code(capsys, data, spec, value):
    # Every error of the one construction path is a ParameterError. A key of
    # None replaces the whole spec with the value.
    key = data.draw(st.sampled_from((None, *SPECS[spec])))
    with tempfile.TemporaryDirectory() as tmp:
        config = {**base_config(Path(tmp) / "out"), "horizon": 20}
        parent, name = {"system.word": (config["system"], "word"),
                        "system.maps[1]": (config["system"]["maps"], 1),
                        "system.space": (config["system"], "space"),
                        "corruption.jump": (config["corruption"], "jump")}[spec]
        if key is None:
            parent[name] = value
        else:
            parent[name][key] = value
        code, _ = run(config, Path(tmp), "generate", capsys)
    assert code in EXIT_CODES


@pytest.mark.parametrize("spec, code", [
    # Only integer slopes define maps of R/Z; both of the first two ran.
    ({"kind": "scale", "factors": [2.5]}, 2),
    ({"kind": "affine", "matrix": [[2.5]], "offset": [0.1]}, 2),
    ({"kind": "scale", "factors": [-1.0]}, 0),
    ({"kind": "affine", "matrix": [[2.0]], "offset": [0.1]}, 0),
    ({"kind": "scale", "factors": [3]}, 0),
])
def test_circle_maps_need_integer_slopes(tmp_path, capsys, spec, code):
    data = {**base_config(tmp_path / "out"), "horizon": 20}
    data["system"].update(space={"kind": "circle-1d"}, start=[0.25],
                          maps=[{"kind": "identity"}, spec])
    got, err = run(data, tmp_path, "generate", capsys)
    assert got == code
    assert ("config field 'system'" in err) == (code == 2)


def test_integral_floats_in_the_system_spec_still_load(tmp_path, capsys):
    orbits = []
    for one, two in ((1, 2), (1.0, 2.0)):
        data = {**base_config(tmp_path / "out"), "horizon": 20}
        data["system"]["maps"][0]["perm"] = [one, 0]
        data["system"]["word"] = {"kind": "prefix", "m": two, "prefix": [two, one],
                                  "tail": {"kind": "periodic", "m": two, "pattern": [one, two]},
                                  "offset": one}
        assert run(data, tmp_path, "generate", capsys)[0] == 0
        orbits.append((tmp_path / "out" / "orbit.json").read_bytes())
    assert orbits[0] == orbits[1]


@pytest.mark.parametrize("section, key, value", [
    # The seed ended classify in an OverflowError traceback; the others were
    # cast to the spec the file was written with, and loaded.
    ("word", "seed", -1),
    ("word", "weights", ["0.5", "0.5"]),
    ("maps", "perm", [1, 0.5]),
    # A stray key loaded and was ignored.
    ("word", "ofset", 4),
    ("maps", "ofset", [0.1, 0.0]),
])
def test_malformed_system_in_an_orbit_file_exits_2_naming_it(tmp_path, capsys, section, key,
                                                             value):
    data = {**base_config(tmp_path / "out"), "horizon": 20}
    data["system"]["word"] = IID
    assert run(data, tmp_path, "generate", capsys)[0] == 0
    orbit = json.loads((tmp_path / "out" / "orbit.json").read_text())
    spec = orbit["word"] if section == "word" else orbit["system"]["maps"][0]
    spec[key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(orbit))
    data["classify"] = {"orbit": str(path)}
    code, err = run(data, tmp_path, "classify", capsys)
    assert code == 2
    assert f"orbit file {path}" in err


@pytest.mark.parametrize("field, command", [
    ("system.start", "generate"),
    ("corruption.jump.point", "generate"),
    ("example_disk.start", "example-disk"),
])
def test_string_coordinates_exit_2_naming_the_point(tmp_path, capsys, field, command):
    data = base_config(tmp_path / "out")
    data["corruption"]["jump"] = {"kind": "fixed", "point": [0.1, 0.2]}
    data["example_disk"] = {"start": [0.1, 0.2]}
    set_field(data, field, ["0.5", "0.1"])
    code, err = run(data, tmp_path, command, capsys)
    assert code == 2
    assert f"config field {field!r}" in err


# ---------------------------------------------------------------------------
# Subcommand sections, each run through the subcommand that reads it


def section_config(tmp: Path, capsys) -> dict:
    """A config whose sections all point at valid inputs: a true orbit of the
    system, a one-block plan over it and a short values file. The generated
    (corrupted) orbit is in the output directory."""
    data = base_config(tmp / "out")
    assert run(data, tmp, "generate", capsys)[0] == 0
    orbit = str(tmp / "true_orbit.json")
    save_orbit(true_orbit(*build_disk_system(), [0.6, 0.3], 120), orbit)
    (tmp / "plan.json").write_text(json.dumps(
        {"schema": PLAN_SCHEMA, "blocks": [orbit], "N_levels": [1]}))
    (tmp / "values.csv").write_text("\n".join(["1.0"] + ["0.0"] * 99) + "\n")
    data.update({
        "classify": {"orbit": orbit},
        "repair": {"orbit": orbit},
        "cesaro": {"input_csv": str(tmp / "values.csv"), "bound": 1.0},
        "concat": {"manifest": str(tmp / "plan.json")},
        "search": {"orbit": orbit, "mode": "refined", "levels": 2,
                   "mesh_schedule": [0.25, 0.2]},
        "example_disk": {"scale": 0.5, "power": 2.0, "start": [0.1, 0.2]},
    })
    return data


# field -> the subcommand that reads it
SECTION_FIELDS = {
    "classify": "classify", "classify.orbit": "classify",
    "repair": "repair", "repair.orbit": "repair",
    "cesaro": "cesaro", "cesaro.input_csv": "cesaro", "cesaro.bound": "cesaro",
    "concat": "concat", "concat.manifest": "concat",
    "search": "search", "search.orbit": "search", "search.mode": "search",
    "search.levels": "search", "search.mesh_schedule": "search",
    "example_disk": "example-disk", "example_disk.scale": "example-disk",
    "example_disk.power": "example-disk", "example_disk.start": "example-disk",
}
SECTION_NAMES = ("classify", "repair", "cesaro", "concat", "search", "example_disk")
# null is a valid value (the default) of these fields.
NULLABLE = ("classify.orbit", "repair.orbit", "cesaro.input_csv", "cesaro.bound",
            "concat.manifest", "search.orbit", "search.mesh_schedule", "example_disk.start")
not_strings = st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0), st.booleans(),
                        st.lists(st.integers(0, 3), max_size=2),
                        st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2))
not_meshes = st.one_of(
    st.text(max_size=4), st.integers(-3, 3), st.booleans(),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
    st.lists(st.one_of(st.text(max_size=2), st.none(), st.integers(-3, 0),
                       st.sampled_from([math.nan, math.inf])), min_size=1, max_size=3))


def section_junk(field: str):
    if field in SECTION_NAMES:
        return not_objects
    if field in ("classify.orbit", "repair.orbit", "cesaro.input_csv", "concat.manifest",
                 "search.orbit"):
        return not_strings
    if field == "search.mode":
        return st.one_of(not_strings, st.none(), st.text(alphabet="abxyz-", max_size=6))
    if field == "search.mesh_schedule":
        return not_meshes
    return junk.filter(lambda v: v is not None) if field in NULLABLE else junk


def run_section(field: str, value, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = section_config(tmp, capsys)
        set_field(data, field, value)
        return run(data, tmp, SECTION_FIELDS[field], capsys)


@given(data=st.data(), field=st.sampled_from(sorted(SECTION_FIELDS)))
@fuzz
def test_malformed_section_field_exits_2_naming_it(capsys, data, field):
    code, err = run_section(field, data.draw(section_junk(field)), capsys)
    assert code == 2
    assert f"config field {field!r}" in err


@given(field=st.sampled_from(sorted(SECTION_FIELDS)),
       value=st.one_of(st.just(MISSING), numbers, not_objects,
                       st.sampled_from(["full", "sampled", "average", "m-alpha", "refined"]),
                       st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
                       st.lists(st.floats(0.05, 0.5), max_size=3)))
@fuzz
def test_any_section_value_exits_with_a_documented_code(capsys, field, value):
    code, _ = run_section(field, value, capsys)
    assert code in EXIT_CODES


@pytest.mark.parametrize("field, value", [
    # Each of these ended in a traceback (ValueError or AttributeError) before.
    ("search.levels", "abc"),
    ("search.mesh_schedule", ["a"]),
    ("search", 5),
    ("example_disk.scale", "0.5"),
    ("example_disk.power", "2"),
    ("example_disk.start", "ab"),
    ("example_disk", 3),
    ("cesaro.bound", "x"),
    ("classify", 5),
    ("repair", 5),
    ("concat", 5),
])
def test_malformed_section_exits_2_naming_it(tmp_path, capsys, field, value):
    data = section_config(tmp_path, capsys)
    set_field(data, field, value)
    code, err = run(data, tmp_path, SECTION_FIELDS[field], capsys)
    assert code == 2
    assert f"config field {field!r}" in err


@pytest.mark.parametrize("field, value", [
    ("seed", 2.7),
    ("horizon", 99.9),
    ("corruption.indices.base", 2.5),
    ("search.levels", 2.5),
    ("search.mesh_schedule", [0.25]),
    ("search.mesh_schedule", [0.2, 0.25]),
    ("search.mesh_schedule", []),
])
def test_non_integral_or_inconsistent_field_exits_2_naming_it(tmp_path, capsys, field, value):
    # Each of these ran before, truncated or with a default, or exited 2 naming no field.
    data = section_config(tmp_path, capsys)
    if field == "corruption.indices.base":
        data["corruption"]["indices"]["kind"] = "powers"  # the kind that reads a base
    set_field(data, field, value)
    code, err = run(data, tmp_path, "search", capsys)
    assert code == 2
    assert f"config field {field!r}" in err


@pytest.mark.parametrize("field, value", [
    ("seed", 2.0), ("horizon", 100.0), ("corruption.indices.base", 3.0), ("search.levels", 2.0)])
def test_integral_float_still_loads(tmp_path, capsys, field, value):
    data = section_config(tmp_path, capsys)
    if field == "corruption.indices.base":
        data["corruption"]["indices"]["kind"] = "powers"  # the kind that reads a base
    set_field(data, field, value)
    assert run(data, tmp_path, "search", capsys)[0] == 0


def test_levels_with_a_zero_last_budget_exits_2_before_building_a_schedule(tmp_path, capsys):
    # With no mesh_schedule, a default schedule of 10**9 meshes was built first.
    data = section_config(tmp_path, capsys)
    data["search"] = {"mode": "refined", "levels": 1_000_000_000}
    code, err = run(data, tmp_path, "search", capsys)
    assert code == 2
    assert "config field 'search.levels'" in err


def true_orbit_refined(tmp: Path, levels: int) -> dict:
    """A refined search with one 0.5 mesh per level on the true orbit of (0, 0):
    every stage's best estimate is 0, so every stage succeeds."""
    data = base_config(tmp / "out")
    data["horizon"] = 10
    data["system"]["start"] = [0.0, 0.0]
    del data["corruption"]
    data["search"] = {"mode": "refined", "levels": levels, "mesh_schedule": [0.5] * levels}
    return data


def test_levels_whose_budget_underflows_exits_2_naming_it(tmp_path, capsys):
    # It ended at stage 1 024 in an OverflowError from eps0 / 2.0**m.
    code, err = run(true_orbit_refined(tmp_path, 1100), tmp_path, "search", capsys)
    assert code == 2
    assert "config field 'search.levels'" in err


def test_refined_search_runs_past_stage_1024(tmp_path, capsys):
    assert run(true_orbit_refined(tmp_path, 1050), tmp_path, "search", capsys)[0] == 0
    result = json.loads((tmp_path / "out" / "search.json").read_text())
    assert result["succeeded"] is True
    assert len(result["stages"]) == 1050
    assert 0.0 < result["stages"][-1]["budget"] == math.ldexp(0.3, -1050)


@pytest.mark.parametrize("command", ["classify", "repair", "search"])
def test_tampered_orbit_file_exits_2_naming_it(tmp_path, capsys, command):
    data = section_config(tmp_path, capsys)
    orbit = json.loads((tmp_path / "out" / "orbit.json").read_text())
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps({**orbit, "step_error_checksum": "0" * 64}))
    data[command]["orbit"] = str(path)
    code, err = run(data, tmp_path, command, capsys)
    assert code == 2
    assert f"orbit file {path}: step-error checksum mismatch" in err


@pytest.mark.parametrize("command", ["generate", "classify", "search", "example-disk"])
def test_a_bad_section_exits_2_for_every_subcommand(tmp_path, capsys, command):
    data = section_config(tmp_path, capsys)
    data["corruption"]["indices"] = {"kind": "cubes"}
    code, err = run(data, tmp_path, command, capsys)
    assert code == 2
    assert "config field 'corruption.indices.kind'" in err


def test_short_horizon_override_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(tmp_path / "out")))
    assert main(["generate", "--config", str(path), "--horizon", "5"]) == 2
    assert "config field 'horizon'" in capsys.readouterr().err


def test_override_replaces_the_field_before_validation(tmp_path, capsys):
    # The config's own horizon was validated, and rejected, before the override.
    data = base_config(tmp_path / "out")
    data["horizon"] = "abc"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["generate", "--config", str(path), "--horizon", "60"]) == 0
    assert load_orbit(tmp_path / "out" / "orbit.json").horizon == 60


def test_override_is_checked_against_the_corruption_section(tmp_path, capsys):
    data = base_config(tmp_path / "out")
    data["corruption"]["indices"] = {"kind": "explicit", "indices": [3, 50]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["generate", "--config", str(path), "--horizon", "40"]) == 2
    assert "config field 'corruption.indices.indices'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Input files: exit 2 naming the file


def misspelled(orbit: dict, field: str) -> dict:
    """The orbit file's data with the key "ofset" added to the spec at field."""
    data = json.loads(json.dumps(orbit))
    spec = data
    for key in field.replace("[", ".").replace("]", "").split("."):
        spec = spec[int(key) if key.isdigit() else key]
    spec["ofset"] = 4
    return data


SPEC_FIELDS = ("system.space", "system.maps[0]", "system.maps[1]", "word")


def orbit_variants(orbit: dict) -> dict:
    return {
        "invalid.json": "{not json",
        "list.json": "[1, 2]",
        "no-system.json": json.dumps({k: v for k, v in orbit.items() if k != "system"}),
        "3d-points.json": json.dumps({**orbit, "start": orbit["start"] + [0.0],
                                      "defects": [[j, p + [0.0]] for j, p in orbit["defects"]]}),
        "missing.json": None,
    }


@pytest.mark.parametrize("command", ["classify", "repair", "search"])
@pytest.mark.parametrize("name", sorted(orbit_variants({"start": [], "defects": []})))
def test_malformed_orbit_file_exits_2_naming_it(tmp_path, capsys, command, name):
    data = section_config(tmp_path, capsys)
    text = orbit_variants(json.loads((tmp_path / "out" / "orbit.json").read_text()))[name]
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    data[command]["orbit"] = str(path)
    code, err = run(data, tmp_path, command, capsys)
    assert code == 2
    assert f"orbit file {path}" in err


@pytest.mark.parametrize("command", ["classify", "repair", "search"])
@pytest.mark.parametrize("field", SPEC_FIELDS)
def test_a_spec_error_in_an_orbit_file_names_its_dotted_path(tmp_path, capsys, command, field):
    # It named the key alone: "orbit file ...: unknown key 'ofset', ...".
    data = section_config(tmp_path, capsys)
    orbit = json.loads((tmp_path / "out" / "orbit.json").read_text())
    path = tmp_path / "misspelled.json"
    path.write_text(json.dumps(misspelled(orbit, field)))
    data[command]["orbit"] = str(path)
    code, err = run(data, tmp_path, command, capsys)
    assert code == 2
    assert f"orbit file {path}: field '{field}.ofset': unknown key 'ofset'" in err
    with pytest.raises(ParameterError) as caught:
        orbit_from_dict(misspelled(orbit, field))
    assert caught.value.path == (*field.replace(".", " ").split(), "ofset")


@pytest.mark.parametrize("plan", [
    "{not json", "[1]", json.dumps({"schema": PLAN_SCHEMA, "N_levels": [1]}),
    json.dumps({"schema": PLAN_SCHEMA, "blocks": ["true_orbit.json"], "N_levels": [2.5]}),
    json.dumps({"schema": PLAN_SCHEMA, "blocks": ["true_orbit.json"], "N_levels": ["3"]}),
    # In range of no block: these exited 2 without naming the manifest.
    json.dumps({"schema": PLAN_SCHEMA, "blocks": ["true_orbit.json"], "N_levels": [0]}),
    json.dumps({"schema": PLAN_SCHEMA, "blocks": ["true_orbit.json"], "N_levels": [-1]}),
    json.dumps({"schema": PLAN_SCHEMA, "blocks": ["true_orbit.json"], "N_levels": [1000000]})])
def test_malformed_plan_manifest_exits_2_naming_it(tmp_path, capsys, plan):
    data = section_config(tmp_path, capsys)
    (tmp_path / "plan.json").write_text(plan)
    code, err = run(data, tmp_path, "concat", capsys)
    assert code == 2
    assert f"plan manifest {tmp_path / 'plan.json'}" in err


def test_malformed_block_in_a_plan_exits_2_naming_the_block(tmp_path, capsys):
    data = section_config(tmp_path, capsys)
    (tmp_path / "block.json").write_text("[]")
    (tmp_path / "plan.json").write_text(json.dumps(
        {"schema": PLAN_SCHEMA, "blocks": ["block.json"], "N_levels": [1]}))
    code, err = run(data, tmp_path, "concat", capsys)
    assert code == 2
    assert f"orbit file {tmp_path / 'block.json'}" in err


def test_a_plan_whose_blocks_have_different_families_exits_2_naming_it(tmp_path, capsys):
    # It exited 3, blaming block 2's word: concatenate stepped every block
    # with block 1's family.
    data = section_config(tmp_path, capsys)
    family, word = build_disk_system()
    other = GeneratorFamily(family.space, (GeneratorMap.permutation((1, 0)),
                                           GeneratorMap.scale([0.25, 0.25])))
    save_orbit(true_orbit(other, word.shifted(121), [0.6, 0.3], 240), tmp_path / "other.json")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema": PLAN_SCHEMA, "N_levels": [1, 1],
                                "blocks": ["true_orbit.json", "other.json"]}))
    code, err = run(data, tmp_path, "concat", capsys)
    assert code == 2
    assert f"plan manifest {plan}: block 2 has another generator family" in err


def test_a_word_with_more_symbols_than_the_plans_maps_exits_2_naming_it(tmp_path, capsys):
    # It exited 2 with a bare "symbol 3 outside [0, 2]", naming no field.
    data = section_config(tmp_path, capsys)
    data["system"]["maps"].append({"kind": "identity"})
    data["system"]["word"] = {"kind": "periodic", "m": 3, "pattern": [1, 3]}
    code, err = run(data, tmp_path, "concat", capsys)
    assert code == 2
    assert "config field 'system.word.m'" in err
    assert f"plan manifest {tmp_path / 'plan.json'}" in err
    assert not (tmp_path / "out" / "concatenated.json").exists()


# An address space a walk past HORIZON_CAP cannot fit in, but the interpreter can.
CAPPED_MEMORY = 384 * 2**20
CAPPED_CLI = ("import resource, runpy; "
              f"resource.setrlimit(resource.RLIMIT_AS, ({CAPPED_MEMORY}, {CAPPED_MEMORY})); "
              "runpy.run_module('shadowlab.cli', run_name='__main__')")


def run_capped(tmp: Path, *argv: str) -> subprocess.CompletedProcess:
    """The console script in a subprocess that caps its own address space at
    CAPPED_MEMORY before it imports anything."""
    src = str(Path(shadowlab.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv], cwd=tmp, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def capped_orbit_text(tmp_path_factory) -> str:
    """The orbit.json of one capped `generate --horizon 100`, which each test
    that edits an orbit file copies into its own out folder."""
    tmp = tmp_path_factory.mktemp("capped-generate")
    assert run_capped(tmp, "generate", "--horizon", "100", "--out", "out").returncode == 0
    return (tmp / "out" / "orbit.json").read_text()


def write_edited_orbit(tmp: Path, text: str, **fields) -> None:
    """The orbit file text, its fields replaced by fields, as tmp/out/orbit.json."""
    (tmp / "out").mkdir()
    (tmp / "out" / "orbit.json").write_text(json.dumps({**json.loads(text), **fields}))


def test_a_config_horizon_past_the_cap_exits_4_before_any_walk(tmp_path):
    done = run_capped(tmp_path, "generate", "--horizon", str(HORIZON_CAP + 1), "--out", "out")
    assert done.returncode == 4, done.stderr
    assert "config field 'horizon'" in done.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizon, code, message", [
    (10**9, 4, "field 'horizon': 1000000000 steps exceed the horizon cap"),
    # At the cap: the walk, which makes points only, fits in CAPPED_MEMORY,
    # and its points are not the ones the file's digest names.
    (HORIZON_CAP, 2, "points digest mismatch"),
])
def test_an_orbit_file_with_an_edited_horizon_exits_naming_the_file(tmp_path, capped_orbit_text,
                                                                    horizon, code, message):
    write_edited_orbit(tmp_path, capped_orbit_text, horizon=horizon)
    done = run_capped(tmp_path, "classify", "--horizon", "100", "--out", "out")
    assert done.returncode == code, done.stderr
    assert f"orbit file {Path('out') / 'orbit.json'}: {message}" in done.stderr
    assert "Traceback" not in done.stderr


def zeros_sha256(n: int) -> str:
    """The digest serialize._sha256 gives n float64 zeros, hashed a block at
    a time, so that no array of them is made."""
    digest, block = hashlib.sha256(), bytes(8 * DIGEST_BLOCK)
    for k in range(0, n, DIGEST_BLOCK):
        digest.update(block[:8 * min(DIGEST_BLOCK, n - k)])
    return digest.hexdigest()


def test_a_consistent_orbit_file_at_the_cap_runs_out_of_memory_in_classify(tmp_path,
                                                                           capped_orbit_text):
    # The true orbit of the disk's fixed point 0 for HORIZON_CAP steps: every
    # point and every step error is 0.0, so the file is consistent and a few
    # hundred bytes long. Its walk fits in CAPPED_MEMORY; the orbit built
    # from the walked points, with its step errors, does not.
    assert zeros_sha256(5) == _sha256(np.zeros(5))
    write_edited_orbit(
        tmp_path, capped_orbit_text, horizon=HORIZON_CAP, start=[0.0, 0.0], defects=[],
        points_sha256=zeros_sha256(2 * (HORIZON_CAP + 1)),
        step_error_checksum=zeros_sha256(HORIZON_CAP), meta={"kind": "true-orbit"})
    done = run_capped(tmp_path, "classify", "--horizon", "100", "--out", "out")
    assert done.returncode == 4, done.stderr
    assert done.stderr == "resource cap exceeded: out of memory in classify\n"


def test_running_out_of_memory_exits_4_without_a_traceback(tmp_path):
    # HORIZON_CAP is a legal horizon whose walk does not fit in CAPPED_MEMORY.
    done = run_capped(tmp_path, "generate", "--horizon", str(HORIZON_CAP), "--out", "out")
    assert done.returncode == 4, done.stderr
    assert done.stderr == "resource cap exceeded: out of memory in generate\n"
    assert not (tmp_path / "out" / "orbit.json").exists()


def test_the_worked_example_walks_a_million_steps_in_capped_memory(tmp_path):
    # Each walk and its jump draws run in fixed-size blocks, so the instance
    # and its true orbit hold their arrays and one block of lists at a time.
    done = run_capped(tmp_path, "example-disk", "--horizon", "1000000", "--out", "out")
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "out" / "example_disk.json").read_text())[
        "all_prefixes_bounded"] is True


def box_config(tmp: Path, d: int) -> Path:
    """A config of the halving map on the d-dimensional unit box."""
    data = base_config(tmp / "out")
    data.pop("corruption")
    data["system"] = {"space": {"kind": "box-kd", "lo": [0.0] * d, "hi": [1.0] * d},
                      "maps": [{"kind": "scale", "factors": [0.5] * d}],
                      "word": {"kind": "constant", "m": 1, "symbol": 1},
                      "start": [0.5] * d}
    path = tmp / "box.json"
    path.write_text(json.dumps(data))
    return path


# 400 000 steps in dimension 50 store 20 000 050 coordinates, past the
# 2 (HORIZON_CAP + 1) = 20 000 002 of a two-dimensional walk at the cap.
def test_a_config_horizon_past_the_coordinate_cap_exits_4_naming_it(tmp_path):
    data = json.loads(box_config(tmp_path, 50).read_text())
    assert validate_config({**data, "horizon": 399_999}).horizon == 399_999
    done = run_capped(tmp_path, "generate", "--config", "box.json", "--horizon", "400000")
    assert done.returncode == 4, done.stderr
    assert "config field 'horizon': 400000 steps in dimension 50" in done.stderr
    assert not (tmp_path / "out").exists()


def test_an_orbit_file_past_the_coordinate_cap_exits_4_naming_the_file(tmp_path):
    box_config(tmp_path, 50)
    done = run_capped(tmp_path, "generate", "--config", "box.json", "--horizon", "100")
    assert done.returncode == 0, done.stderr
    orbit = tmp_path / "out" / "orbit.json"
    orbit.write_text(json.dumps({**json.loads(orbit.read_text()), "horizon": 400_000}))
    done = run_capped(tmp_path, "classify", "--config", "box.json", "--horizon", "100")
    assert done.returncode == 4, done.stderr
    assert f"orbit file {orbit}: field 'horizon': 400000 steps in dimension 50" in done.stderr


def test_a_plan_whose_blocks_lay_out_past_the_cap_exits_4_naming_the_block(tmp_path, capsys,
                                                                           monkeypatch):
    # blocks[1] is within the cap alone, but 501 + 2 001 points lay out 2 501
    # steps; blocks[2] (past the cap alone) is never loaded.
    family, word = build_disk_system()
    for name, steps in (("b0.json", 500), ("b1.json", 2000), ("b2.json", 8000)):
        save_orbit(true_orbit(family, word, [0.6, 0.3], steps), tmp_path / name)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema": PLAN_SCHEMA, "N_levels": [1, 1, 1],
                                "blocks": ["b0.json", "b1.json", "b2.json"]}))
    data = {**base_config(tmp_path / "out"), "horizon": 100, "concat": {"manifest": str(plan)}}
    monkeypatch.setattr(serialize, "HORIZON_CAP", 2000)
    code, err = run(data, tmp_path, "concat", capsys)
    assert code == 4, err
    assert (f"plan manifest {plan}: field 'blocks[1]', laid out after the blocks before it: "
            "2501 steps exceed the horizon cap of 2000") in err


def no_walk(monkeypatch) -> None:
    """Make every walk and every column pass raise, so that a test shows that
    no step was taken."""
    def walk(*args, **kwargs):
        raise AssertionError("a step was taken")
    for module in (dynamics, pseudo_orbits, serialize, surgery):
        monkeypatch.setattr(module, "_walk", walk)
    monkeypatch.setattr(pseudo_orbits, "_column_pass", walk)


@pytest.mark.parametrize("d, steps, message", [
    (2, 101, "field 'points': 101 steps exceed the horizon cap of 100"),
    (10, 20, "field 'points': 20 steps in dimension 10 store 210 coordinates, "
             "past the cap of 202"),
])
def test_a_v1_file_past_the_cap_exits_4_naming_it_before_any_walk(tmp_path, capsys,
                                                                  monkeypatch, d, steps, message):
    # A v1 file's horizon is its points less one. It loaded past the cap.
    data = json.loads(box_config(tmp_path, d).read_text())
    system, orbit = data["system"], tmp_path / "v1.json"
    save_orbit_v1(true_orbit(GeneratorFamily.from_spec(system), Word.from_spec(system["word"]),
                             system["start"], steps), orbit)
    data.update({"horizon": 10, "classify": {"orbit": str(orbit)}})
    monkeypatch.setattr(serialize, "HORIZON_CAP", 100)
    no_walk(monkeypatch)
    code, err = run(data, tmp_path, "classify", capsys)
    assert code == 4, err
    assert f"orbit file {orbit}: {message}" in err


def test_a_plan_whose_one_block_past_the_cap_is_v1_names_that_block(tmp_path, capsys,
                                                                     monkeypatch):
    # blocks[1], a v1 file, is past the cap alone. The plan named the manifest,
    # once the block had loaded.
    family, word = build_disk_system()
    save_orbit(true_orbit(family, word, [0.6, 0.3], 50), tmp_path / "b0.json")
    save_orbit_v1(true_orbit(family, word, [0.6, 0.3], 150), tmp_path / "b1.json")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema": PLAN_SCHEMA, "N_levels": [1, 1],
                                "blocks": ["b0.json", "b1.json"]}))
    data = {**base_config(tmp_path / "out"), "horizon": 100, "concat": {"manifest": str(plan)}}
    monkeypatch.setattr(serialize, "HORIZON_CAP", 100)
    code, err = run(data, tmp_path, "concat", capsys)
    assert code == 4, err
    assert (f"orbit file {tmp_path / 'b1.json'}: field 'points': 150 steps exceed the "
            "horizon cap of 100") in err
    assert "plan manifest" not in err


@pytest.mark.parametrize("text", ["0.5\nabc\n", "0.5\nnan\n"])
def test_non_numeric_values_file_exits_2_naming_it(tmp_path, capsys, text):
    data = section_config(tmp_path, capsys)
    (tmp_path / "values.csv").write_text(text)
    code, err = run(data, tmp_path, "cesaro", capsys)
    assert code == 2
    assert f"values file {tmp_path / 'values.csv'}" in err


@pytest.mark.parametrize("text, bound, message", [
    ("", 1.0, "got 0"),
    ("0\n" * 5, 1.0, "got 5"),
    ("-1.0\n" + "0.0\n" * 99, 1.0, "nonnegative"),
    ("11.0\n" + "0.0\n" * 99, 3.0, "config field 'cesaro.bound'"),
    ("nan\n" + "0.0\n" * 99, 1.0, "values must be finite numbers"),
    # Named as non-finite, not as above the bound.
    ("inf\n" + "0.0\n" * 99, 1.0, "values must be finite numbers"),
    # Two faults: the first in the README's order is named.
    ("-1.0\n11.0\n" + "0.0\n" * 98, 3.0, "values must be nonnegative"),
], ids=["empty", "five-values", "negative", "bound-below-max", "nan", "inf-above-bound",
        "negative-and-bound-below-max"])
def test_unusable_values_file_exits_2_naming_it_before_writing(tmp_path, capsys, text, bound,
                                                                message):
    data = section_config(tmp_path, capsys)
    (tmp_path / "values.csv").write_text(text)
    data["cesaro"]["bound"] = bound
    # With --curves, so that no curve file shows that the check came before any write.
    code, err = run(data, tmp_path, "cesaro", capsys, "--curves")
    assert code == 2
    assert f"values file {tmp_path / 'values.csv'}" in err
    assert message in err
    assert not (tmp_path / "out" / "cesaro_means.csv").exists()


def test_tampered_orbit_file_is_still_an_integrity_error(tmp_path, capsys):
    data = section_config(tmp_path, capsys)
    orbit = json.loads((tmp_path / "out" / "orbit.json").read_text())
    with pytest.raises(IntegrityError):
        orbit_from_dict({**orbit, "step_error_checksum": "0" * 64})
    (tmp_path / "tampered.json").write_text(json.dumps({**orbit, "step_error_checksum": "0" * 64}))
    data["classify"]["orbit"] = str(tmp_path / "tampered.json")
    code, err = run(data, tmp_path, "classify", capsys)
    assert code == 2
    assert "checksum mismatch" in err


@pytest.mark.parametrize("command", sorted(set(SECTION_FIELDS.values())))
def test_section_config_runs_every_subcommand(tmp_path, capsys, command):
    # The fuzz above varies one field of this config at a time.
    data = section_config(tmp_path, capsys)
    assert run(data, tmp_path, command, capsys)[0] == 0


# ---------------------------------------------------------------------------
# One way to name a field: the library's checks, under the config's field names


@pytest.mark.parametrize("field, value, check", [
    ("tail_fraction", 1.0, check_tail_fraction),
    ("thresholds.alpha", 1.0, check_alpha),
    ("thresholds.delta", 0.0, partial(check_positive, "value")),
    ("thresholds.density_tol", -1.0, partial(check_nonnegative, "density_tol")),
    ("net_mesh", 0.0, partial(check_positive, "value")),
    ("horizon", MIN_DENSITY_HORIZON - 1, check_density_horizon),
])
def test_a_range_error_is_the_library_checks_own_after_the_field(tmp_path, field, value, check):
    data = base_config(tmp_path / "out")
    set_field(data, field, value)
    with pytest.raises(ParameterError) as expected:
        check(value)
    with pytest.raises(ParameterError) as caught:
        validate_config(data)
    assert str(caught.value) == f"config field {field!r}: {expected.value}"


def section_checks() -> dict:
    """base_config with an offset jump at explicit indices and every section
    whose range rules the library decides: the refined search and example_disk."""
    data = base_config(Path("out"))
    data["corruption"] = {"indices": {"kind": "explicit", "indices": [1, 4]},
                          "jump": {"kind": "offset", "scale": 0.5, "power": 2.0}}
    data["search"] = {"mode": "refined", "levels": 2, "mesh_schedule": [0.25, 0.2]}
    data["example_disk"] = {"scale": 0.5, "power": 2.0}
    return data


def last_size(power):
    """The library's jump size under section_checks' scale 0.5 at step 119,
    the last below base_config's horizon."""
    return jump_sizes(JumpRule("offset", scale=0.5, power=power), [119])


# Each rule at base_config's horizon, 120, and epsilon, 0.3.
indices_below_120 = partial(IndexSet.from_iterable, horizon=120)
two_stages = partial(check_schedule, 0.3, 2)


@pytest.mark.parametrize("field, value, check", [
    ("corruption.jump.power", 400, last_size),
    ("corruption.jump.power", -400.0, last_size),
    # At the edge: the size at step 119 leaves the float range, at step 118 it does not.
    ("corruption.jump.power", -148.6, last_size),
    ("example_disk.power", 148.4, last_size),
    ("example_disk.power", 160.0, last_size),
    ("example_disk.scale", 0.0, lambda v: JumpRule("offset", scale=v)),
    ("corruption.indices.indices", [3, 120], indices_below_120),
    ("corruption.indices.indices", [-1], indices_below_120),
    ("corruption.indices.indices", [7, -3, 7], indices_below_120),
    ("corruption.indices.indices", [119, 4, 120], indices_below_120),
    ("corruption.indices.indices", [2.5], indices_below_120),
    ("corruption.indices.indices", [True], indices_below_120),
    ("search.levels", 2000, lambda v: check_schedule(0.3, v, [0.25, 0.2])),
    ("search.mesh_schedule", [0.25, 0.0], two_stages),
    ("search.mesh_schedule", [0.2, 0.25], two_stages),
    ("search.mesh_schedule", [], two_stages),
    ("search.mesh_schedule", [0.25], two_stages),
])
def test_a_section_range_error_is_the_library_checks_own_after_the_field(field, value, check):
    # Each was a copy of the rule in the config reader: the power against
    # horizon ** power, the indices in [0, horizon), the scale and each mesh
    # positive, the schedule non-increasing and the last budget nonzero.
    data = section_checks()
    validate_config(data)
    set_field(data, field, value)
    with pytest.raises(ParameterError) as expected:
        check(value)
    with pytest.raises(ParameterError) as caught:
        validate_config(data)
    assert str(caught.value) == f"config field {field!r}: {expected.value}"


def test_a_cesaro_bound_error_is_the_bounded_sequences_own_after_the_field(tmp_path, capsys):
    # load_sequence built the sequence twice, with its own copy of the bound's rule.
    data = section_config(tmp_path, capsys)
    values = tmp_path / "values.csv"
    values.write_text("11.0\n" + "0.0\n" * 99)
    data["cesaro"]["bound"] = 3.0
    with pytest.raises(ParameterError) as expected:
        BoundedSequence.from_values([11.0] + [0.0] * 99, 3.0)
    code, err = run(data, tmp_path, "cesaro", capsys)
    assert code == 2
    assert f"error: values file {values}: config field 'cesaro.bound': {expected.value}\n" == err


@given(scale=st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10**6)),
       power=st.one_of(st.floats(-400.0, 400.0), st.integers(-400, 400),
                       st.sampled_from([76.5, -76.5, 80.0, 10**9, -10**9])),
       horizon=st.one_of(st.integers(MIN_DENSITY_HORIZON, HORIZON_CAP),
                         st.sampled_from([MIN_DENSITY_HORIZON, 10**4])))
@settings(max_examples=200, deadline=None)
def test_a_jump_loads_iff_its_size_at_the_last_step_is_a_finite_float(scale, power, horizon):
    # The size at step horizon - 1 decides: for a corruption jump, kept as
    # written, and for example_disk, whose scale and power load as floats.
    cases = {"corruption.jump": ({"jump": {"kind": "offset", "scale": scale, "power": power}},
                                 JumpRule("offset", scale=scale, power=power)),
             "example_disk": ({"scale": scale, "power": power},
                              JumpRule("offset", scale=float(scale), power=float(power)))}
    for field, (section, rule) in cases.items():
        data = {**base_config(Path("out")), "horizon": horizon, field.split(".")[0]: section}
        try:
            jump_sizes(rule, [horizon - 1])
        except ParameterError as exc:
            with pytest.raises(ParameterError) as caught:
                validate_config(data)
            assert str(caught.value) == f"config field '{field}.power': {exc}"
        else:
            validate_config(data)


@pytest.mark.parametrize("power", [76.5, -76.5])
def test_example_disk_runs_a_power_whose_sizes_stay_finite(tmp_path, capsys, power):
    # |power| * ln(10**4) > 700 exited 2 naming example_disk.power, while the
    # library drew these sizes, 1 / (j + 1) ** 76.5 at every j < 10**4.
    data = {**base_config(tmp_path / "out"), "horizon": 10**4,
            "example_disk": {"power": power}}
    code, err = run(data, tmp_path, "example-disk", capsys)
    assert code == 0, err
    assert (tmp_path / "out" / "example_disk.json").exists()


def test_classify_runs_at_density_tol_0(tmp_path, capsys):
    # density_tol 0 exited 2, while is_ergodic_pseudo_orbit and repair took it.
    data = base_config(tmp_path / "out")
    data["thresholds"]["density_tol"] = 0.0
    assert run(data, tmp_path, "generate", capsys)[0] == 0
    code, err = run(data, tmp_path, "classify", capsys)
    assert code == 0, err
    verdicts = json.loads((tmp_path / "out" / "classification.json").read_text())
    assert verdicts["ergodic_pseudo_orbit"]["params"]["density_tol"] == 0.0


@pytest.mark.parametrize("horizon, code", [(MIN_DENSITY_HORIZON - 1, 2), (MIN_DENSITY_HORIZON, 0)])
def test_the_horizon_floor_is_the_density_estimates_own(tmp_path, capsys, horizon, code):
    data = {**base_config(tmp_path / "out"), "horizon": horizon}
    del data["corruption"]
    got, err = run(data, tmp_path, "generate", capsys)
    assert got == code
    assert ("config field 'horizon'" in err) == (code == 2)


@pytest.mark.parametrize("index, spec, key", [
    # Each built; the family then said only "maps of sizes [0]", naming the system.
    (0, {"kind": "permutation", "perm": []}, "perm"),
    (1, {"kind": "scale", "factors": []}, "factors"),
    (1, {"kind": "affine", "matrix": [], "offset": []}, "matrix"),
])
def test_a_map_of_size_0_exits_2_naming_its_field(tmp_path, capsys, index, spec, key):
    data = base_config(tmp_path / "out")
    data["system"]["maps"][index] = spec
    code, err = run(data, tmp_path, "generate", capsys)
    assert code == 2
    assert f"config field 'system.maps[{index}].{key}': map {key} is empty" in err


@pytest.mark.parametrize("command, field", [
    ("cesaro", "cesaro.input_csv"), ("concat", "concat.manifest")])
def test_a_subcommand_without_its_input_file_exits_2_naming_the_field(tmp_path, capsys,
                                                                      command, field):
    code, err = run(base_config(tmp_path / "out"), tmp_path, command, capsys)
    assert code == 2
    assert f"config field {field!r}: required for the {command} subcommand" in err


def run_plan(tmp_path, capsys, **fields) -> tuple[int, str, Path]:
    """concat on a one-block plan over a valid orbit, with fields set in its manifest."""
    data = section_config(tmp_path, capsys)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**json.loads(plan.read_text()), **fields}))
    code, err = run(data, tmp_path, "concat", capsys)
    return code, err, plan


def test_a_plan_manifest_with_an_unknown_key_exits_2_naming_it(tmp_path, capsys):
    # It loaded, ignoring the key.
    code, err, plan = run_plan(tmp_path, capsys, levelz=1)
    assert code == 2
    assert f"plan manifest {plan}: field 'levelz': unknown key 'levelz'" in err


def test_a_plan_manifest_whose_blocks_are_a_string_exits_2_naming_blocks(tmp_path, capsys):
    # Its characters were read as block paths: it failed on a missing file "b".
    code, err, plan = run_plan(tmp_path, capsys, blocks="b1.json")
    assert code == 2
    assert f"plan manifest {plan}: field 'blocks': blocks: expected a list, got str" in err


def test_a_plan_manifest_block_that_is_no_path_exits_2_naming_it(tmp_path, capsys):
    # It exited 2 with Python's TypeError text, naming no field.
    code, err, plan = run_plan(tmp_path, capsys, blocks=["true_orbit.json", 1], N_levels=[1, 1])
    assert code == 2
    assert f"plan manifest {plan}: field 'blocks[1]': must be a string, got 1" in err


def test_a_box_at_the_dimension_cap_generates(tmp_path, capsys):
    data = json.loads(box_config(tmp_path, DIMENSION_CAP).read_text())
    code, err = run({**data, "horizon": 20}, tmp_path, "generate", capsys)
    assert code == 0, err
    orbit = load_orbit(tmp_path / "out" / "orbit.json")
    assert orbit.points.shape == (21, DIMENSION_CAP)
    assert orbit.points[-1].tolist() == [0.5 ** 21] * DIMENSION_CAP


def past_the_dimension_cap(data: dict) -> dict:
    """data, an orbit file's or a config's, on a box one past the dimension cap."""
    d = DIMENSION_CAP + 1
    return {**data, "system": {**data["system"],
                               "space": {"kind": "box-kd", "lo": [0.0] * d, "hi": [1.0] * d}}}


@pytest.mark.parametrize("source", ["config", "orbit file", "plan"])
def test_a_box_past_the_dimension_cap_exits_2_naming_lo(tmp_path, capsys, source):
    # It ended in a RecursionError traceback at d = 3 000, compiling the
    # box's membership test.
    data = section_config(tmp_path, capsys)
    orbit = tmp_path / "true_orbit.json"
    if source == "config":
        code, err = run(past_the_dimension_cap(data), tmp_path, "generate", capsys)
        named = "config field 'system.space.lo'"
    else:
        orbit.write_text(json.dumps(past_the_dimension_cap(json.loads(orbit.read_text()))))
        code, err = run(data, tmp_path, "classify" if source == "orbit file" else "concat", capsys)
        named = f"orbit file {orbit}: field 'system.space.lo'"
    assert code == 2, err
    assert named in err and f"dimension cap of {DIMENSION_CAP}" in err
    assert "Traceback" not in err
