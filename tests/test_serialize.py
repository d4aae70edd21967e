import gzip
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    IndexSet,
    IntegrityError,
    JumpRule,
    ParameterError,
    build_disk_system,
    make_corrupted_orbit,
    true_orbit,
)
from shadowlab import serialize
from shadowlab.serialize import (
    CONFIG_SCHEMA,
    load_block_plan_manifest,
    load_config,
    load_orbit,
    load_sequence,
    orbit_from_dict,
    orbit_to_dict,
    save_orbit,
    validate_config,
)

from oracles import orbit_v1_dict, save_block_plan_manifest


def sample_orbit(horizon=120):
    family, word = build_disk_system()
    squares = IndexSet.from_iterable([k * k for k in range(10) if k * k < horizon], horizon)
    return make_corrupted_orbit(family, word, (0.4, 0.2), squares, JumpRule("uniform"), seed=3)


def test_orbit_roundtrip_bitwise(tmp_path):
    xi = sample_orbit()
    path = tmp_path / "orbit.json"
    save_orbit(xi, path)
    loaded = load_orbit(path)
    assert np.array_equal(loaded.points, xi.points)
    assert np.array_equal(loaded.step_errors, xi.step_errors)
    assert loaded.word.spec() == xi.word.spec()
    assert loaded.family.spec() == xi.family.spec()


def test_tampered_checksum_rejected(tmp_path):
    xi = sample_orbit()
    data = orbit_to_dict(xi)
    data["step_error_checksum"] = "0" * 64
    with pytest.raises(IntegrityError):
        orbit_from_dict(data)


def test_tampered_points_rejected(tmp_path):
    xi = sample_orbit()
    data = orbit_v1_dict(xi)
    data["points"][5][0] = 0.123456
    with pytest.raises(IntegrityError):
        orbit_from_dict(data)


def test_dump_json_deterministic(tmp_path):
    xi = true_orbit(*build_disk_system(), (0.5, 0.1), 40)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_orbit(xi, p1)
    save_orbit(xi, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_block_plan_manifest_roundtrip(tmp_path):
    save_block_plan_manifest(["b1.json", "b2.json"], [1, 4], tmp_path / "plan.json")
    paths, levels = load_block_plan_manifest(tmp_path / "plan.json")
    assert [p.name for p in paths] == ["b1.json", "b2.json"]
    assert levels == [1, 4]


# ---------------------------------------------------------------------------
# Config validation


def minimal_config():
    return {
        "schema": CONFIG_SCHEMA,
        "system": {
            "space": {"kind": "unit-disk-2d"},
            "maps": [{"kind": "permutation", "perm": [1, 0]},
                     {"kind": "scale", "factors": [0.5, 0.5]}],
            "word": {"kind": "periodic", "m": 2, "pattern": [1, 2]},
            "start": [1.0, 0.0],
        },
    }


def test_config_defaults():
    cfg = validate_config(minimal_config())
    assert cfg.horizon == 10_000
    assert cfg.tail_fraction == 0.5
    assert cfg.delta == 0.4


def test_config_field_level_errors():
    bad = minimal_config()
    bad["horizon"] = 3
    with pytest.raises(ParameterError) as err:
        validate_config(bad)
    assert "horizon" in str(err.value)

    bad = minimal_config()
    bad["thresholds"] = {"alpha": 1.3}
    with pytest.raises(ParameterError) as err:
        validate_config(bad)
    assert "alpha" in str(err.value)

    bad = minimal_config()
    del bad["system"]["word"]
    with pytest.raises(ParameterError) as err:
        validate_config(bad)
    assert "system.word" in str(err.value)


def test_config_schema_required():
    bad = minimal_config()
    bad["schema"] = "something/else"
    with pytest.raises(ParameterError) as err:
        validate_config(bad)
    assert "schema" in str(err.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParameterError):
        load_config(tmp_path / "nope.json")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    data = minimal_config()
    data["horizon"] = 500
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    assert cfg.horizon == 500
    family, word = cfg.family, cfg.word
    assert family.m == 2
    assert list(word.symbols(4)) == [1, 2, 1, 2]


# ---------------------------------------------------------------------------
# The values file

SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \t "]
LINE_ENDS = ["\n", "\r\n", "\r"]
# Tokens that float and numpy's C reader may take differently, or that neither takes.
ODD_TOKENS = ["1_000", "_1", "\u0661", "\ufeff1", "1\x00", "#", "#1", "1,5", "1e", "0x10",
              "infinity", "-Inf", "nan", "-0", "-0.5", "1e400", ".5", "5.", "+7"]
spelled = st.floats(0.0, 1e300).flatmap(lambda x: st.sampled_from(
    [repr(x), f"{x:.3g}", f"{x:e}", f"{x:.17g}", f"+{x!r}", f"{x:f}"]))
tokens = st.one_of(spelled, st.integers(0, 10**25).map(str))


@st.composite
def values_texts(draw):
    """A values file's text: rows of tokens, the same number on every row
    unless ragged, possibly with one odd token."""
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    grid = [[draw(tokens) for _ in range(cols)] for _ in range(rows)]
    kind = draw(st.sampled_from(["rectangular", "ragged", "odd token"]))
    if kind == "ragged":
        row = draw(st.integers(0, rows - 1))
        grid[row] = grid[row][:draw(st.integers(0, cols - 1))] or grid[row] + ["0"]
    if kind == "odd token":
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = \
            draw(st.sampled_from(ODD_TOKENS))
    text = "".join(draw(st.sampled_from(SEPARATORS)).join(row) + draw(st.sampled_from(LINE_ENDS))
                   for row in grid)
    return draw(st.sampled_from(["", " ", "\n"])) + text[:len(text) - draw(st.integers(0, 1))]


def sequence_or_message(path):
    try:
        return load_sequence(path, None).values.tobytes()
    except ParameterError as exc:
        return str(exc)


def float_per_token(path):
    return np.fromiter(map(float, path.read_text().split()), np.float64)


@settings(max_examples=300, deadline=None)
@given(values_texts())
def test_the_values_file_reads_as_float_reads_each_token(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "values.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = sequence_or_message(path)
        with mock.patch.object(serialize, "_read_values", float_per_token):
            assert got == sequence_or_message(path)


def test_a_missing_or_directory_values_file_keeps_its_os_error_text(tmp_path):
    # numpy names a missing file "... not found." and would open values.csv.gz
    # in its place.
    missing, directory = tmp_path / "values.csv", tmp_path / "values"
    (tmp_path / "values.csv.gz").write_bytes(gzip.compress(b"0.5\n" * 20))
    directory.mkdir()
    with pytest.raises(ParameterError) as info:
        load_sequence(missing, None)
    assert str(info.value) == \
        f"values file {missing}: [Errno 2] No such file or directory: '{missing}'"
    with pytest.raises(ParameterError) as info:
        load_sequence(directory, None)
    assert str(info.value) == f"values file {directory}: [Errno 21] Is a directory: '{directory}'"


def test_a_values_file_named_as_compressed_is_read_as_text(tmp_path):
    # numpy opens a .gz path through gzip.
    plain, packed = tmp_path / "plain.gz", tmp_path / "packed.gz"
    plain.write_text("0.5\n" * 20)
    packed.write_bytes(gzip.compress(b"0.5\n" * 20))
    assert load_sequence(plain, None).values.tolist() == [0.5] * 20
    with pytest.raises(ParameterError, match="codec can't decode"):
        load_sequence(packed, None)


def test_a_rectangular_file_skips_the_token_reader_and_a_ragged_one_takes_it(tmp_path,
                                                                             monkeypatch):
    rectangular, ragged = tmp_path / "rectangular.csv", tmp_path / "ragged.csv"
    rectangular.write_text("0.5 0 1e-3\r\n0.25\t7\x0c+0.0\n" * 5)
    ragged.write_text("0.5 0 1e-3\n0.25\n" * 5)
    want = [0.5, 0.0, 1e-3, 0.25, 7.0, 0.0] * 5
    calls, read_tokens = [], serialize._read_tokens

    def refuse(path):
        raise AssertionError(f"{path} read token by token")

    monkeypatch.setattr(serialize, "_read_tokens", refuse)
    assert load_sequence(rectangular, None).values.tolist() == want

    def counted(path):
        calls.append(path)
        return read_tokens(path)

    monkeypatch.setattr(serialize, "_read_tokens", counted)
    assert load_sequence(ragged, None).values.tolist() == [0.5, 0.0, 1e-3, 0.25] * 5
    assert calls == [ragged]
