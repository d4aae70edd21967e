"""Cross-version artifact digests.

Each case runs CLI subcommands in order on a fixed config and compares the
SHA-256 of every output file with a pinned value. The pinned values of the
``generate`` and ``example-disk`` cases were produced by the release before
the sequential orbit walk; those of the other subcommands by the release
before the single-valued parameters became constants. The three cases of
the affine box system (``box-affine-iid``, ``box-affine-iid-true-orbit`` and
``search-m-alpha``) were re-pinned when points and rows came to round the
same. The ``search-circle`` case was pinned by the release whose scan
still pruned the circle with a float bound around a walked incumbent; the
scan now runs in full there. The ``disk-offset-integer-power`` case was
pinned by the release whose jump rule was built outside the spec table.
The ``cesaro-spikes`` case was pinned by the release whose boundary search
compared every prefix count up to the horizon at every stage.
Every orbit file (``orbit.json``, ``repaired.json``, ``concatenated.json``)
was re-pinned when ``save_orbit`` came to write orbit schema v2, which
stores the start and the defects instead of every point; ``V1_GOLDEN``
keeps their v1 digests, and each v2 file, loaded and written in the v1
layout, must still give those bytes. So a change that alters any artifact
byte fails here, not only across two runs of the same code. When an
artifact is meant to change, update its digest and record why in CHANGES.md.

The cases run with ``--curves``, so the per-step CSV curves are pinned too;
without the flag a run writes no CSV and the same JSON bytes.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from shadowlab.cli import main
from shadowlab.dynamics import GeneratorFamily, Word
from shadowlab.pseudo_orbits import true_orbit
from shadowlab.serialize import CONFIG_SCHEMA, load_orbit, save_orbit

from oracles import save_block_plan_manifest, save_orbit_v1

DISK_SYSTEM = {
    "space": {"kind": "unit-disk-2d"},
    "maps": [{"kind": "permutation", "perm": [1, 0]},
             {"kind": "scale", "factors": [0.5, 0.5]}],
    "word": {"kind": "periodic", "m": 2, "pattern": [1, 2]},
    "start": [0.6, 0.3],
}
BOX_AFFINE_SYSTEM = {
    "space": {"kind": "box-kd", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    "maps": [{"kind": "affine", "matrix": [[0.5, 0.1], [0.0, 0.5]], "offset": [0.1, 0.2]},
             {"kind": "affine", "matrix": [[0.4, 0.0], [0.2, 0.4]], "offset": [0.5, 0.3]}],
    "word": {"kind": "iid", "m": 2, "weights": [0.5, 0.5], "seed": 5},
    "start": [0.25, 0.75],
}
CIRCLE_ROTATION_SYSTEM = {
    "space": {"kind": "circle-1d"},
    "maps": [{"kind": "affine", "matrix": [[1.0]], "offset": [0.3819660112501051]}],
    "word": {"kind": "constant", "m": 1, "symbol": 1},
    "start": [0.1],
}
SQUARES = {"kind": "squares"}
UNIFORM_SQUARES = {"corruption": {"indices": SQUARES, "jump": {"kind": "uniform"}}}
DECAYING = {"corruption": {"indices": {"kind": "all"},
                           "jump": {"kind": "offset", "scale": 0.5, "power": 1.5}}}

SPIKES = "spikes.txt"

# case -> (subcommand or subcommands run in order, system, extra config keys)
CASES = {
    "disk-uniform": ("generate", DISK_SYSTEM,
                     {"corruption": {"indices": SQUARES, "jump": {"kind": "uniform"}}}),
    "disk-offset": ("generate", DISK_SYSTEM,
                    {"corruption": {"indices": {"kind": "all"},
                                    "jump": {"kind": "offset", "scale": 0.5, "power": 1.5}}}),
    # JSON integers reach scale / (j + 1) ** power as ints, which round
    # differently from floats once (j + 1) ** 5 passes 2**53, at j >= 1 552.
    "disk-offset-integer-power": ("generate", DISK_SYSTEM,
                                  {"horizon": 2000,
                                   "corruption": {"indices": {"kind": "all"},
                                                  "jump": {"kind": "offset", "scale": 1,
                                                           "power": 5}}}),
    "disk-fixed": ("generate", DISK_SYSTEM,
                   {"corruption": {"indices": {"kind": "powers", "base": 3},
                                   "jump": {"kind": "fixed", "point": [1.0, 1.0]}}}),
    "box-affine-iid": ("generate", BOX_AFFINE_SYSTEM,
                       {"corruption": {"indices": {"kind": "random", "density": 0.05},
                                       "jump": {"kind": "offset", "scale": 0.3,
                                                "power": 0.5}}}),
    # Affine true orbits recompute to step errors of exactly zero, since a
    # point and a row round the same.
    "box-affine-iid-true-orbit": ("generate", BOX_AFFINE_SYSTEM, {}),
    "circle-rotation": ("generate", CIRCLE_ROTATION_SYSTEM,
                        {"corruption": {"indices": SQUARES,
                                        "jump": {"kind": "offset", "scale": 0.7,
                                                 "power": 0.0}}}),
    "example-disk-default-start": ("example-disk", DISK_SYSTEM, {}),
    "example-disk-seeded-start": ("example-disk", DISK_SYSTEM,
                                  {"example_disk": {"start": [0.31, -0.42]}}),
    "classify": (("generate", "classify"), DISK_SYSTEM, UNIFORM_SQUARES),
    "repair": (("generate", "repair"), DISK_SYSTEM,
               {**UNIFORM_SQUARES, "thresholds": {"delta": 0.8, "density_tol": 0.2}}),
    "cesaro": ("cesaro", DISK_SYSTEM, {"cesaro": {"input_csv": "values.txt"}}),
    # 10^5 values, so that the boundary search reads many chunks.
    "cesaro-spikes": ("cesaro", DISK_SYSTEM, {"cesaro": {"input_csv": SPIKES}}),
    "concat": ("concat", DISK_SYSTEM, {"concat": {"manifest": "plan.json"}}),
    "search-average": ("search", DISK_SYSTEM, UNIFORM_SQUARES),
    "search-m-alpha": ("search", BOX_AFFINE_SYSTEM,
                       {"search": {"mode": "m-alpha"}, "thresholds": {"alpha": 0.5}}),
    # The rotation is an isometry: the scan runs in full, and the search fails.
    "search-circle": ("search", CIRCLE_ROTATION_SYSTEM,
                      {"corruption": {"indices": SQUARES,
                                      "jump": {"kind": "offset", "scale": 0.7, "power": 0.0}},
                       "net_mesh": 0.02}),
    "search-refined": ("search", DISK_SYSTEM,
                       {**DECAYING, "net_mesh": 0.2, "search": {"mode": "refined", "levels": 4}}),
    # No search section: the refined row runs the default schedule.
    "equivalence-suite": ("equivalence-suite", DISK_SYSTEM, DECAYING),
}

GOLDEN = {
    "box-affine-iid-true-orbit": {
        "orbit.json":
            "7e31f77ef4c0bcf5b8677e0af859a87cdbc97ce5adcc327a4551a8d1f5568136",
    },
    "box-affine-iid": {
        "orbit.json":
            "600152ea8a3ecfba2a4aa496c446ec83f8dc677d69e867cf646e5b16951fb27c",
    },
    "circle-rotation": {
        "orbit.json":
            "2c65bbe5e0c99e93e855c824c408b4bb2ff977e14370b53c8967c5f92613f454",
    },
    "disk-fixed": {
        "orbit.json":
            "d1084e45569d32f9b63fa3b3366e17d742750e94b836c2db53992d5b434f027b",
    },
    "disk-offset": {
        "orbit.json":
            "db6b773cae62ef324671b59ca6b3ac45e6ef0be4164e5b8fdef7ea24bad509ee",
    },
    "disk-offset-integer-power": {
        "orbit.json":
            "05fc3d0dea2f6065a6da7136ab411ed16628a7f9ad1c99516e93e99184ee578f",
    },
    "disk-uniform": {
        "orbit.json":
            "b78240289351c43f9bafbe825d8f12a4bd52a1620cb0c194e0ea15dbf466d0d9",
    },
    "example-disk-default-start": {
        "example_disk.csv":
            "adc6dc9ed8faa57353b29166917bfa55bf60371b0fc519986a85da76bf9dab26",
        "example_disk.json":
            "6c88be15a925d7575fc70667a9f1b5474be962c9d80cc607745b73c22948b059",
    },
    "example-disk-seeded-start": {
        "example_disk.csv":
            "ced66fbc766c54aa8a274cb80e314bbf0276f9be19bc18f94dc1e19072d1cf7d",
        "example_disk.json":
            "99d3ad676939121d86a43a1ac89c87f118d5cc3a4e5318718cdf776d7a81c094",
    },
    "classify": {
        "classification.json":
            "f8cf1dbd7c998164c47cb480eab4f77d2030ba660ddf1214c89b3d31faa7543c",
        "orbit.json":
            "b78240289351c43f9bafbe825d8f12a4bd52a1620cb0c194e0ea15dbf466d0d9",
    },
    "repair": {
        "orbit.json":
            "b78240289351c43f9bafbe825d8f12a4bd52a1620cb0c194e0ea15dbf466d0d9",
        "repair.json":
            "6c612137fd9dbad6614c5428cc3491a315acd80697cda70f078f8a1f144eec00",
        "repaired.json":
            "1d44c0e2510fd6551856c4b3d16f22e52257b484f91de8474ef9eddc58a5313c",
    },
    "cesaro": {
        "cesaro.json":
            "dde27557a37a4f3bb5fab6f4c2687d76fe40b3f1fc6608d0066bc1aac7d24705",
        "cesaro_means.csv":
            "518462564b2c8bfb0ddd3a5e02f2906e554215dac8ca6404349c2e714d5c84df",
    },
    "cesaro-spikes": {
        "cesaro.json":
            "ebc1f988daab85ee2668812c1aa553e9f79f58c7dc62afafd8a3907b461c914c",
        "cesaro_means.csv":
            "fa845fe66b1655c61872ac981dd1e5481f642549739e5da5f8ff6281c6e0a78a",
    },
    "concat": {
        "concat_certificate.json":
            "12ff587be371d6dd8bdcb0fd03ea9f2909fba710f4d10f99eaac17077ba89751",
        "concatenated.json":
            "7d3e53c9aad2fd80325c65a32fd7ca08eefb79dbb5f22028c533d582cd1e5845",
    },
    "search-average": {
        "search.json":
            "adc908bdbaeb4ba54e8af7af61f3300fd2f64e9748803ad06b9eaf131ddfbce6",
        "search_curve.csv":
            "4fa38834dd6e94de8630dbd66e1cba03612637aee242605f893075d0190cf94c",
    },
    "search-m-alpha": {
        "search.json":
            "e874ec959010883be4898fad62857043c5cdf857565867d3708db64b83eac7f9",
        "search_curve.csv":
            "bdb78d853cc076b28cbae3ebd0810516e44c3b25e9765a169a3e3481488df277",
    },
    "search-circle": {
        "search.json":
            "b449f0c4319cb76b1e6fcc563847ad8cf0dcf9767eda7c5e990d56f5a7716bd2",
        "search_curve.csv":
            "31309c1fafb51fa5150aedc7205a6a460564a2d86ef33151b40ede199c627fef",
    },
    "search-refined": {
        "search.json":
            "656e1a0285373c3054293bf28d56c5bb9259fa34c31ee45a849c22ec3b021d33",
    },
    "equivalence-suite": {
        "equivalence_matrix.json":
            "c930c2915f13bb4593b1233d1e93889f525ddaf9011c1e1b03d663ae0bdbb001",
        "orbit.json":
            "db6b773cae62ef324671b59ca6b3ac45e6ef0be4164e5b8fdef7ea24bad509ee",
        "repaired.json":
            "452172205f6d2743441106e9fb0320645175a28fb746e3cdc1a7a372435f19a2",
    },
}

# The orbit files' digests in the v1 layout, pinned before save_orbit wrote v2.
V1_GOLDEN = {
    "box-affine-iid": {
        "orbit.json": "22d288578d3753c3325f9accec1acf2f5a2cfc979059a41ab1d660da8dfd3c01"},
    "box-affine-iid-true-orbit": {
        "orbit.json": "a282b026f9d1ce622634cc2fd233fc43879ab8e3f54491e618cf0ace9c541045"},
    "circle-rotation": {
        "orbit.json": "e3c9fcd2083a37be88f92494ec0fe60ac503a4a916f90cfc0caa9e9c0267c420"},
    "disk-fixed": {
        "orbit.json": "94835dddf8b388750e577a67d712636b9aa1110a4df49d351d91acfff0dd7da6"},
    "disk-offset": {
        "orbit.json": "bcc217cc290c9822811032dba2431c8e0ce12b87849c49a5aa3d1d9ae26960b1"},
    "disk-offset-integer-power": {
        "orbit.json": "957ab434cb592aebee2a33cfe3dcbff19d7d729dab56b9ae2b27c800ed3dd486"},
    "disk-uniform": {
        "orbit.json": "0136cd964ced7fea4664117168db8ba793fb455f52e2d6643660ba5761ad15a2"},
    "repair": {
        "orbit.json": "0136cd964ced7fea4664117168db8ba793fb455f52e2d6643660ba5761ad15a2",
        "repaired.json": "ae0f1fd2954298022606edd40273b92fb955bde9ac9ad884509a276e5fc001a0"},
    "concat": {
        "concatenated.json": "1fdfe460c95764e34916f1270bb0c324016a10c4b44e1f72dda24b0a805b4865"},
    "equivalence-suite": {
        "orbit.json": "bcc217cc290c9822811032dba2431c8e0ce12b87849c49a5aa3d1d9ae26960b1",
        "repaired.json": "c96a8cd53fe62a2e736915010f939f1e6a96073b6aa4ee74d82ca1d64be27cfe"},
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_inputs(tmp_path) -> None:
    """The cesaro values file and the concat blocks and manifest, the same bytes every run."""
    values = [1.0 if round(n ** 0.5) ** 2 == n else 0.5 / (n + 1) for n in range(500)]
    (tmp_path / "values.txt").write_text("".join(f"{v!r}\n" for v in values))
    family = GeneratorFamily.from_spec(DISK_SYSTEM)
    word = Word.from_spec(DISK_SYSTEM["word"])
    offset, names = 0, []
    for k, (m, start) in enumerate(((20, [0.7, 0.1]), (40, [0.2, 0.5]), (80, [-0.3, 0.6])), 1):
        names.append(f"block{k}.json")
        save_orbit(true_orbit(family, word.shifted(offset), start, m), tmp_path / names[-1])
        offset += m + 1
    save_block_plan_manifest(names, [1, 2, 4], tmp_path / "plan.json")


def _write_spikes(path) -> None:
    """10^5 seeded values built like the benchmark's cesaro input: zero except
    one value in [0.5, 1] at a seeded index in each gap between squares."""
    rng = np.random.default_rng(38)
    n = 100_000
    values = np.zeros(n)
    k = np.arange(1, math.isqrt(n - 1) + 1)
    spikes = k * k + (rng.random(k.size) * k).astype(np.int64)
    spikes = spikes[spikes < n]
    values[spikes] = rng.uniform(0.5, 1.0, size=spikes.size)
    path.write_text("\n".join(map(repr, values.tolist())) + "\n")


def _run_case(tmp_path, case: str, curves: bool = True) -> dict[str, str]:
    commands, system, extra = CASES[case]
    _write_inputs(tmp_path)
    if extra.get("cesaro", {}).get("input_csv") == SPIKES:
        _write_spikes(tmp_path / SPIKES)
    out = tmp_path / "out"
    config = {"schema": CONFIG_SCHEMA, "seed": 17, "horizon": 500, "out": str(out),
              "system": system, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    for command in (commands,) if isinstance(commands, str) else commands:
        assert main([command, "--config", str(path), *(["--curves"] if curves else [])]) == 0
    return {p.name: _sha256(p) for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digests_match_pinned_values(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # the input file names in CASES are relative
    assert _run_case(tmp_path, case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(c for c, pins in GOLDEN.items()
                                         if any(name.endswith(".csv") for name in pins)))
def test_without_curves_the_json_artifacts_match_their_pins_and_no_csv_is_written(
        tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    assert _run_case(tmp_path, case, curves=False) == {
        name: digest for name, digest in GOLDEN[case].items() if not name.endswith(".csv")}


@pytest.mark.parametrize("case", sorted(V1_GOLDEN))
def test_v2_orbit_files_load_to_their_pinned_v1_bytes(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    _run_case(tmp_path, case)
    for name, digest in V1_GOLDEN[case].items():
        save_orbit_v1(load_orbit(tmp_path / "out" / name), tmp_path / "v1.json")
        assert _sha256(tmp_path / "v1.json") == digest
