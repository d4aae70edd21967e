"""Cross-version artifact digests.

Each case runs one CLI subcommand on a fixed config and compares the SHA-256
of every output file with a pinned value. The pinned values were produced by
the release before the sequential orbit walk (except where a case says
otherwise), so a change to the dynamics core that alters any artifact byte
fails here, not only across two runs of the same code. When an artifact is
meant to change, update its digest and record why in CHANGES.md.
"""

import hashlib
import json

import pytest

from shadowlab.cli import main
from shadowlab.serialize import CONFIG_SCHEMA

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

# case -> (subcommand, system, extra config keys)
CASES = {
    "disk-uniform": ("generate", DISK_SYSTEM,
                     {"corruption": {"indices": SQUARES, "jump": {"kind": "uniform"}}}),
    "disk-offset": ("generate", DISK_SYSTEM,
                    {"corruption": {"indices": {"kind": "all"},
                                    "jump": {"kind": "offset", "scale": 0.5, "power": 1.5}}}),
    "disk-fixed": ("generate", DISK_SYSTEM,
                   {"corruption": {"indices": {"kind": "powers", "base": 3},
                                   "jump": {"kind": "fixed", "point": [1.0, 1.0]}}}),
    "box-affine-iid": ("generate", BOX_AFFINE_SYSTEM,
                       {"corruption": {"indices": {"kind": "random", "density": 0.05},
                                       "jump": {"kind": "offset", "scale": 0.3,
                                                "power": 0.5}}}),
    # The only case whose digest differs from the earlier release: that
    # release stored zero step errors for affine true orbits, whose
    # recomputed errors are ~1e-16, so its file failed to load.
    "box-affine-iid-true-orbit": ("generate", BOX_AFFINE_SYSTEM, {}),
    "circle-rotation": ("generate", CIRCLE_ROTATION_SYSTEM,
                        {"corruption": {"indices": SQUARES,
                                        "jump": {"kind": "offset", "scale": 0.7,
                                                 "power": 0.0}}}),
    "example-disk-default-start": ("example-disk", DISK_SYSTEM, {}),
    "example-disk-seeded-start": ("example-disk", DISK_SYSTEM,
                                  {"example_disk": {"start": [0.31, -0.42]}}),
}

GOLDEN = {
    "box-affine-iid-true-orbit": {
        "orbit.json":
            "1aa015f5405a405135c6a1a54a208b12687e9b16f53c360e6feafd0120472533",
    },
    "box-affine-iid": {
        "orbit.json":
            "5ca12b501b6389302772988b4e42a0d6a810edc0a4f68f962f052a955d05661b",
    },
    "circle-rotation": {
        "orbit.json":
            "e3c9fcd2083a37be88f92494ec0fe60ac503a4a916f90cfc0caa9e9c0267c420",
    },
    "disk-fixed": {
        "orbit.json":
            "94835dddf8b388750e577a67d712636b9aa1110a4df49d351d91acfff0dd7da6",
    },
    "disk-offset": {
        "orbit.json":
            "bcc217cc290c9822811032dba2431c8e0ce12b87849c49a5aa3d1d9ae26960b1",
    },
    "disk-uniform": {
        "orbit.json":
            "0136cd964ced7fea4664117168db8ba793fb455f52e2d6643660ba5761ad15a2",
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
}


def _run_case(tmp_path, case: str) -> dict[str, str]:
    command, system, extra = CASES[case]
    out = tmp_path / "out"
    config = {"schema": CONFIG_SCHEMA, "seed": 17, "horizon": 500, "out": str(out),
              "system": system, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifact_digests_match_pinned_values(tmp_path, case):
    assert _run_case(tmp_path, case) == GOLDEN[case]
