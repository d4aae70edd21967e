import json

import numpy as np
import pytest

from shadowlab import (
    IndexSet,
    IntegrityError,
    JumpRule,
    ParameterError,
    build_disk_system,
    make_corrupted_orbit,
    true_orbit,
)
from shadowlab.serialize import (
    CONFIG_SCHEMA,
    load_block_plan_manifest,
    load_config,
    load_orbit,
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
