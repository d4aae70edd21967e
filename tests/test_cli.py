import inspect
import json

import numpy as np
import pytest

from shadowlab import (
    GeneratorFamily,
    IntegrityError,
    Word,
    build_disk_system,
    is_pseudo_orbit,
    true_orbit,
)
from shadowlab.cli import build_parser, main
from shadowlab.disk_example import aasp_demo, make_decaying_instance
from shadowlab.pseudo_orbits import is_ergodic_pseudo_orbit
from shadowlab.serialize import (
    CONFIG_SCHEMA,
    ORBIT_SCHEMA,
    load_config,
    load_orbit,
    save_orbit,
    step_error_checksum,
)

from oracles import save_block_plan_manifest, save_orbit_v1

AFFINE_BOX_SYSTEM = {
    "space": {"kind": "box-kd", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "maps": [{"kind": "affine", "matrix": [[0.5, 0.1], [0.0, 0.5]], "offset": [0.1, 0.2]},
             {"kind": "affine", "matrix": [[0.4, 0.0], [0.2, 0.4]], "offset": [0.5, 0.3]}],
    "word": {"kind": "iid", "m": 2, "weights": [0.5, 0.5], "seed": 3},
    "start": [0.25, 0.75],
}


def write_config(tmp_path, **overrides):
    data = {
        "schema": CONFIG_SCHEMA,
        "seed": 11,
        "horizon": 400,
        "out": str(tmp_path / "out"),
        "system": {
            "space": {"kind": "unit-disk-2d"},
            "maps": [{"kind": "permutation", "perm": [1, 0]},
                     {"kind": "scale", "factors": [0.5, 0.5]}],
            "word": {"kind": "periodic", "m": 2, "pattern": [1, 2]},
            "start": [0.6, 0.3],
        },
        "thresholds": {"delta": 0.8, "epsilon": 0.3, "alpha": 0.8,
                       "tol": 0.05, "density_tol": 0.05},
        "net_mesh": 0.25,
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_generate_true_orbit_classifies_as_pseudo_orbit(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", str(cfg)]) == 0
    xi = load_orbit(tmp_path / "out" / "orbit.json")
    for delta in (1e-9, 0.5):
        assert is_pseudo_orbit(xi, delta)


def test_generate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, corruption={"indices": {"kind": "squares"},
                                             "jump": {"kind": "uniform"}})
    assert main(["generate", "--config", str(cfg)]) == 0
    first = (tmp_path / "out" / "orbit.json").read_bytes()
    assert main(["generate", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "orbit.json").read_bytes() == first


def test_classify_pipeline(tmp_path):
    cfg = write_config(tmp_path, corruption={"indices": {"kind": "squares"},
                                             "jump": {"kind": "uniform"}})
    assert main(["generate", "--config", str(cfg)]) == 0
    assert main(["classify", "--config", str(cfg)]) == 0
    verdicts = json.loads((tmp_path / "out" / "classification.json").read_text())
    assert set(verdicts) == {"pseudo_orbit", "ergodic_pseudo_orbit", "average_pseudo_orbit",
                             "weak_asymptotic_average", "asymptotic_average"}
    assert verdicts["ergodic_pseudo_orbit"]["verdict"] is True
    for v in verdicts.values():
        assert "params" in v and v["params"]


def test_generate_then_classify_affine_true_orbit(tmp_path):
    # A point and a row round the same, so an affine true orbit recomputes
    # to step errors of exactly zero, and loading recomputes the checksum.
    cfg = write_config(tmp_path, system=AFFINE_BOX_SYSTEM)
    assert main(["generate", "--config", str(cfg)]) == 0
    assert main(["classify", "--config", str(cfg)]) == 0
    xi = load_orbit(tmp_path / "out" / "orbit.json")
    assert xi.step_errors.max() == 0.0
    assert is_pseudo_orbit(xi, 1e-9)


def test_affine_orbit_file_of_matmul_rounding_exits_2_naming_it(tmp_path, capsys):
    """An affine orbit file as releases before the one rounding rule wrote it:
    points stepped by ``p @ A.T + b``, step errors by the rows matmul
    ``P @ A.T + b`` per symbol group and ``np.linalg.norm(axis=1)``. Its
    checksum is not the one the columns recompute, and the check is exact."""
    family = GeneratorFamily.from_spec(AFFINE_BOX_SYSTEM)
    word = Word.from_spec(AFFINE_BOX_SYSTEM["word"])
    forms = [(np.asarray(g.matrix).T, np.asarray(g.offset)) for g in family.maps]
    symbols = word.symbols(400)
    points = [np.asarray(AFFINE_BOX_SYSTEM["start"])]
    for s in symbols.tolist():
        AT, b = forms[s - 1]
        points.append(points[-1] @ AT + b)
    points = np.array(points)
    images = np.empty_like(points[1:])
    for s, (AT, b) in enumerate(forms, start=1):
        idx = np.flatnonzero(symbols == s)
        images[idx] = points[idx] @ AT + b
    errors = np.linalg.norm(images - points[1:], axis=1)
    path = tmp_path / "matmul-orbit.json"
    path.write_text(json.dumps({"schema": ORBIT_SCHEMA, "system": family.spec(),
                                "word": word.spec(), "points": points.tolist(),
                                "step_error_checksum": step_error_checksum(errors),
                                "meta": {"kind": "true-orbit"}}))
    cfg = write_config(tmp_path, system=AFFINE_BOX_SYSTEM, classify={"orbit": str(path)})
    capsys.readouterr()
    assert main(["classify", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"orbit file {path}: step-error checksum mismatch" in err
    with pytest.raises(IntegrityError, match="checksum mismatch"):
        load_orbit(path)


def test_classify_tampered_checksum_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", str(cfg)]) == 0
    orbit_path = tmp_path / "out" / "orbit.json"
    data = json.loads(orbit_path.read_text())
    data["step_error_checksum"] = "f" * 64
    orbit_path.write_text(json.dumps(data))
    assert main(["classify", "--config", str(cfg)]) == 2


def test_repair_pipeline_and_rejection(tmp_path):
    cfg = write_config(tmp_path, horizon=2000,
                       corruption={"indices": {"kind": "squares"},
                                   "jump": {"kind": "uniform"}})
    assert main(["generate", "--config", str(cfg)]) == 0
    assert main(["repair", "--config", str(cfg)]) == 0
    audit = json.loads((tmp_path / "out" / "repair.json").read_text())
    assert audit["average_verdict"]["verdict"] is True
    assert set(audit["diff_set"]) <= set(audit["blocks"])
    # Both average verdicts read windows of at least the repair's block length M.
    assert main(["classify", "--config", str(cfg)]) == 0
    verdicts = json.loads((tmp_path / "out" / "classification.json").read_text())
    assert (verdicts["average_pseudo_orbit"]["params"]["N"]
            == audit["average_verdict"]["params"]["N"] == audit["M"] == 21)

    dense = write_config(tmp_path, corruption={"indices": {"kind": "evens"},
                                               "jump": {"kind": "uniform"}})
    assert main(["generate", "--config", str(dense)]) == 0
    assert main(["repair", "--config", str(dense)]) == 3


def test_the_built_in_config_reads_the_librarys_defaults():
    cfg = load_config(None)
    demo, instance, ergodic = (inspect.signature(f).parameters for f in (
        aasp_demo, make_decaying_instance, is_ergodic_pseudo_orbit))
    assert cfg.tail_fraction == demo["tail_fraction"].default == ergodic["tail_fraction"].default
    assert cfg.density_tol == ergodic["density_tol"].default
    assert cfg.tol == demo["asymptotic_tol"].default
    assert (cfg.disk_scale, cfg.disk_power) == (instance["scale"].default,
                                                instance["power"].default)
    assert f"Defaults: horizon {cfg.horizon}, tail_fraction {cfg.tail_fraction};" in (
        build_parser().epilog)


def test_search_average_and_resource_cap(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["search", "--config", str(cfg), "--curves"]) == 0
    report = json.loads((tmp_path / "out" / "search.json").read_text())
    assert report["success"] is True
    curve = (tmp_path / "out" / "search_curve.csv").read_text().splitlines()
    assert curve[0] == "n,prefix_mean"
    assert len(curve) == 402

    tiny = write_config(tmp_path, net_mesh=1e-4)
    assert main(["search", "--config", str(tiny)]) == 4


def test_search_modes(tmp_path):
    cfg = write_config(tmp_path, search={"mode": "m-alpha"})
    assert main(["search", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "search.json").read_text())
    assert report["objective"] == "hit_lower_density"

    cfg = write_config(tmp_path, search={"mode": "refined", "levels": 2,
                                         "mesh_schedule": [0.3, 0.2]})
    assert main(["search", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "search.json").read_text())
    assert report["succeeded"] is True


def test_cesaro_subcommand(tmp_path):
    values = np.zeros(5000)
    for k in range(71):
        values[k * k] = 1.0
    csv = tmp_path / "values.csv"
    csv.write_text("\n".join(str(v) for v in values))
    cfg = write_config(tmp_path, cesaro={"input_csv": str(csv)})
    assert main(["cesaro", "--config", str(cfg), "--curves"]) == 0
    result = json.loads((tmp_path / "out" / "cesaro.json").read_text())
    assert result["equivalence"]["verdict"] is True
    assert result["boundaries"]
    means = (tmp_path / "out" / "cesaro_means.csv").read_text().splitlines()
    assert means[0] == "n,cesaro_mean"


def test_cesaro_rejects_non_null_sequence(tmp_path):
    csv = tmp_path / "values.csv"
    csv.write_text("\n".join("0.5" for _ in range(200)))
    cfg = write_config(tmp_path, cesaro={"input_csv": str(csv)})
    assert main(["cesaro", "--config", str(cfg)]) == 3


def test_concat_subcommand(tmp_path):
    family, word = build_disk_system()
    b1 = true_orbit(family, word, (0.7, 0.1), 10)
    b2 = true_orbit(family, word.shifted(11), (0.2, 0.5), 30)
    save_orbit(b1, tmp_path / "b1.json")
    save_orbit(b2, tmp_path / "b2.json")
    save_block_plan_manifest(["b1.json", "b2.json"], [1, 1], tmp_path / "plan.json")
    cfg = write_config(tmp_path, concat={"manifest": str(tmp_path / "plan.json")})
    assert main(["concat", "--config", str(cfg)]) == 0
    cert = json.loads((tmp_path / "out" / "concat_certificate.json").read_text())
    assert cert["verdict"] is True
    stitched = load_orbit(tmp_path / "out" / "concatenated.json")
    assert len(stitched.points) == 42


def test_concat_of_an_iid_plan_draws_each_symbol_once(tmp_path, monkeypatch):
    # Three v1 blocks of the benchmark's lengths under an iid word shifted to
    # their offsets lay out H = 10 502 steps. Each load draws its block's
    # symbols and the junctions take one each; concat drew the whole horizon
    # once more, 21 002 draws in all.
    family, word = build_disk_system()[0], Word.iid([0.5, 0.5], seed=7)
    offset = 0
    for k, m in enumerate((500, 2_000, 8_000), start=1):
        save_orbit_v1(true_orbit(family, word.shifted(offset), (0.6, 0.3), m),
                      tmp_path / f"b{k}.json")
        offset += m + 1
    save_block_plan_manifest(["b1.json", "b2.json", "b3.json"], [50, 200, 800],
                             tmp_path / "plan.json")
    cfg = json.loads(write_config(tmp_path, concat={"manifest": str(tmp_path / "plan.json")})
                     .read_text())
    cfg["system"]["word"] = word.spec()
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    draws, iid_draws = [], Word._iid_draws

    def counted(self, start, n):
        draws.append(n)
        return iid_draws(self, start, n)

    monkeypatch.setattr(Word, "_iid_draws", counted)
    assert main(["concat", "--config", str(tmp_path / "config.json")]) == 0
    assert sum(draws) == offset - 1 == 10_502
    cert = json.loads((tmp_path / "out" / "concat_certificate.json").read_text())
    assert cert["verdict"] is True


def test_example_disk_default_config(tmp_path):
    assert main(["example-disk", "--horizon", "500", "--out", str(tmp_path / "demo"),
                 "--curves"]) == 0
    rows = (tmp_path / "demo" / "example_disk.csv").read_text().splitlines()
    assert rows[0] == "n,lhs,rhs,mean"
    final = rows[-1].split(",")
    assert float(final[1]) <= float(final[2]) + 1e-9
    summary = json.loads((tmp_path / "demo" / "example_disk.json").read_text())
    assert summary["all_prefixes_bounded"] is True


def test_a_default_run_writes_no_curve_and_names_the_flag(tmp_path, capsys):
    values = tmp_path / "values.csv"
    values.write_text("\n".join("1.0" if round(n ** 0.5) ** 2 == n else "0.0"
                                for n in range(2000)))
    cfg = write_config(tmp_path, cesaro={"input_csv": str(values)})
    for command, curve in (("cesaro", "cesaro_means.csv"), ("example-disk", "example_disk.csv"),
                           ("search", "search_curve.csv")):
        files, lines = {}, {}
        for run, flags in (("default", []), ("curves", ["--curves"])):
            out = tmp_path / command / run
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 0
            lines[run] = capsys.readouterr().out
            files[run] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert not any(name.endswith(".csv") for name in files["default"])
        assert f"{curve} not written: pass --curves" in lines["default"]
        assert "--curves" not in lines["curves"]
        # The flag adds the curve and changes no other byte.
        assert files["curves"].pop(curve) and files["curves"] == files["default"]


def test_equivalence_suite(tmp_path):
    cfg = write_config(tmp_path, horizon=2000,
                       corruption={"indices": {"kind": "squares"},
                                   "jump": {"kind": "uniform"}})
    assert main(["equivalence-suite", "--config", str(cfg)]) == 0
    matrix = json.loads((tmp_path / "out" / "equivalence_matrix.json").read_text())
    assert matrix["original_classification"]["ergodic_pseudo_orbit"]["verdict"] is True
    assert matrix["repaired_classification"]["average_pseudo_orbit"]["verdict"] is True
    assert "m_alpha_shadowing_on_original" in matrix["searches"]
    assert matrix["params"]["seed"] == 11


def test_invalid_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"schema\": \"nope\"}")
    assert main(["generate", "--config", str(path)]) == 2
    path.write_text("not json at all")
    assert main(["generate", "--config", str(path)]) == 2


def test_full_pipeline_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path, horizon=2000,
                       corruption={"indices": {"kind": "squares"},
                                   "jump": {"kind": "uniform"}})
    # The m-alpha and refined searches of the generated orbit, each in its own directory.
    searches = []
    for mode in ("m-alpha", "refined"):
        (tmp_path / mode).mkdir()
        searches.append(write_config(tmp_path / mode, search={
            "mode": mode, "levels": 3, "orbit": str(tmp_path / "out" / "orbit.json")}))
    outputs = {}
    for run in ("first", "second"):
        for command in ("generate", "classify", "repair"):
            assert main([command, "--config", str(cfg)]) == 0
        # With --curves, each non-refined search also writes search_curve.csv.
        for search in (cfg, *searches):
            assert main(["search", "--config", str(search), "--curves"]) == 0
        outputs[run] = {str(p.relative_to(tmp_path)): p.read_bytes()
                        for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert len(outputs["first"]) == 12
    assert outputs["first"] == outputs["second"]


def assert_suite_rows_are_search_outputs(tmp_path, search: dict, **overrides):
    """Each suite row equals the search.json of its mode on its orbit."""
    cfg = write_config(tmp_path, horizon=2000, search=search, **overrides)
    assert main(["equivalence-suite", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    rows = json.loads((out / "equivalence_matrix.json").read_text())["searches"]
    assert "stages" in rows["asymptotic_shadowing_on_original"]
    for row, mode, orbit in (("average_shadowing_on_repaired", "average", "repaired.json"),
                             ("mean_ergodic_shadowing_on_original", "average", "orbit.json"),
                             ("m_alpha_shadowing_on_original", "m-alpha", "orbit.json"),
                             ("asymptotic_shadowing_on_original", "refined", "orbit.json")):
        config = write_config(tmp_path, horizon=2000, out=str(tmp_path / mode), search={
            **search, "mode": mode, "orbit": str(out / orbit)}, **overrides)
        assert main(["search", "--config", str(config)]) == 0
        assert json.loads((tmp_path / mode / "search.json").read_text()) == rows[row], row


def test_equivalence_suite_rows_are_search_outputs(tmp_path):
    corruption = {"indices": {"kind": "squares"}, "jump": {"kind": "uniform"}}
    assert_suite_rows_are_search_outputs(tmp_path, {"levels": 3}, corruption=corruption)


def test_equivalence_suite_rows_are_search_outputs_at_the_default_levels(tmp_path):
    # A true orbit passes every refined stage, so the suite's row had 3 stages
    # where `search` ran the default 4.
    assert_suite_rows_are_search_outputs(tmp_path, {})


def test_classify_scan_key_exits_2_naming_it(tmp_path, capsys):
    # The v1 key `classify.scan` was accepted and ignored; it is now unknown,
    # whatever its value. The scan is exact, and its verdict still says so.
    corruption = {"indices": {"kind": "squares"}, "jump": {"kind": "uniform"}}
    cfg = write_config(tmp_path, corruption=corruption)
    assert main(["generate", "--config", str(cfg)]) == 0
    assert main(["classify", "--config", str(cfg)]) == 0
    verdict = json.loads((tmp_path / "out" / "classification.json").read_bytes())
    assert verdict["average_pseudo_orbit"]["params"]["scan"] == "full"
    capsys.readouterr()
    for scan in ("full", "sampled", "bogus"):
        cfg = write_config(tmp_path, corruption=corruption, classify={"scan": scan})
        assert main(["classify", "--config", str(cfg)]) == 2
        assert "config field 'classify.scan': unknown key" in capsys.readouterr().err
