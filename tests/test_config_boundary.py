"""The config boundary: every malformed config exits 2 and names its field.

``main`` may only return one of the documented exit codes (0, 2, 3, 4);
a traceback is never an answer to a bad config.
"""

import json
import math
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowlab import GeneratorFamily, GeneratorMap, build_disk_system, true_orbit
from shadowlab.cli import main
from shadowlab.density import MIN_DENSITY_HORIZON, check_tail_fraction
from shadowlab.errors import IntegrityError, ParameterError, check_alpha, check_positive
from shadowlab.serialize import (
    CONFIG_SCHEMA,
    PLAN_SCHEMA,
    load_config,
    load_orbit,
    orbit_from_dict,
    save_orbit,
    validate_config,
)

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
], ids=["empty", "five-values", "negative", "bound-below-max"])
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
    ("thresholds.density_tol", -1.0, partial(check_positive, "value")),
    ("net_mesh", 0.0, partial(check_positive, "value")),
])
def test_a_range_error_is_the_library_checks_own_after_the_field(tmp_path, field, value, check):
    data = base_config(tmp_path / "out")
    set_field(data, field, value)
    with pytest.raises(ParameterError) as expected:
        check(value)
    with pytest.raises(ParameterError) as caught:
        validate_config(data)
    assert str(caught.value) == f"config field {field!r}: {expected.value}"


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
