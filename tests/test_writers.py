"""Differential tests of the artifact writers.

``save_orbit`` writes the defects that an orbit's walk recorded, and
``dump_csv`` formats CSV rows without a per-cell Python loop. The references
below take one point or one cell at a time: the v2 payload from
``reference_defects`` step by step, written by
``json.dumps(..., indent=2)``, and one ``repr``-or-``str`` per CSV cell.
Files must agree byte for byte.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    PseudoOrbit,
    Word,
    build_disk_system,
    make_corrupted_orbit,
    true_orbit,
)
from shadowlab.serialize import (
    CSV_CHUNK_ROWS,
    ORBIT_SCHEMA_V2,
    dump_csv,
    json_default,
    load_orbit,
    save_orbit,
)

from oracles import reference_defects

SETTINGS = settings(max_examples=200, deadline=None)
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, 1e-4, 0.1, 1 / 3,
               1e22, 123456789012345.6, 2.0**53 + 2, 1.7976931348623157e308]


def reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=json_default) + "\n"


def reference_csv(rows, header) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def written(writer, *args) -> str:
    """The file the writer wrote, decoded without translating newlines."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "out"
        writer(*args, path)
        return path.read_bytes().decode()


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))


def big_endian_sha256(values: np.ndarray) -> str:
    return hashlib.sha256(values.astype(">f8").tobytes()).hexdigest()


def reference_orbit_dict(xi: PseudoOrbit) -> dict:
    """The v2 payload, one step at a time: a defect is a step whose next point's
    bytes differ from those of the image of its point."""
    family, P = xi.family, xi.points
    defects = [[j, P[j + 1].tolist()] for j in reference_defects(family, xi.word, P)]
    return {"schema": ORBIT_SCHEMA_V2, "system": family.spec(), "word": xi.word.spec(),
            "horizon": xi.horizon, "start": P[0].tolist(), "defects": defects,
            "points_sha256": big_endian_sha256(P),
            "step_error_checksum": big_endian_sha256(xi.step_errors), "meta": xi.meta}


def circle_orbit():
    family = GeneratorFamily(MetricSpace.circle(),
                             (GeneratorMap.scale([2.0]), GeneratorMap.scale([3.0])))
    squares = IndexSet.from_iterable([k * k for k in range(11)], 120)
    return make_corrupted_orbit(family, Word.iid([0.4, 0.6], seed=11), [0.123],
                                squares, JumpRule("uniform"), seed=2)


def signed_zero_orbit():
    """A swap/halving orbit whose stored points flip the sign of a zero at two
    steps and move by 5e-324 at a third: step errors of 0, and defects all."""
    family, word = build_disk_system()
    points = true_orbit(family, word, (0.0, 0.5), 12).points.copy()
    points[3, 0], points[7, 0] = -points[3, 0], -points[7, 0]
    points[9, 1] += 5e-324
    return PseudoOrbit.from_points(family, word, points, {"kind": "signed-zeros"})


@pytest.mark.parametrize("make", [
    lambda: true_orbit(*build_disk_system(), (0.4, 0.2), 300),
    lambda: make_corrupted_orbit(*build_disk_system(), (0.4, 0.2),
                                 IndexSet.from_iterable(range(0, 300, 7), 300),
                                 JumpRule("uniform"), seed=3),
    circle_orbit,
    signed_zero_orbit,
])
def test_save_orbit_writes_the_start_and_the_defects(make):
    xi = make()
    assert written(save_orbit, xi) == reference_json(reference_orbit_dict(xi))


def test_signed_zeros_and_underflowing_moves_are_defects():
    xi = signed_zero_orbit()
    assert not xi.step_errors.any()
    # A flipped zero is also the next step's defect: its image keeps the sign.
    assert [j for j, _ in reference_orbit_dict(xi)["defects"]] == [2, 3, 6, 7, 8]


def test_save_orbit_meta_goes_through_json():
    """Meta keys and strings json must escape, nested values and numpy scalars."""
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.4, 0.2), 20)
    meta = {"quote\"slash\\newline\n\u00e9\U0001f600": [1, {"x": 0.1, "y": [-0.0]}],
            "points": "[\n  1.0\n]", "z": np.float64(1e16), "": []}
    xi = PseudoOrbit(family, word, xi.points, xi.step_errors, meta, defects=xi.defects)
    assert written(save_orbit, xi) == reference_json(reference_orbit_dict(xi))
    with tempfile.TemporaryDirectory() as d:
        save_orbit(xi, Path(d) / "orbit.json")
        assert load_orbit(Path(d) / "orbit.json").meta == json.loads(
            json.dumps(meta, default=json_default))


def edge_rows(n: int) -> list[tuple]:
    """n rows of (int, float, float): edge floats in turn, then seeded ones."""
    rng = np.random.default_rng(n)
    column = (EDGE_FLOATS * (n // len(EDGE_FLOATS) + 1))[:n]
    return list(zip(range(-3, n - 3), column, (rng.standard_normal(n) * 1e3).tolist()))


@pytest.mark.parametrize("n", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                               CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 17])
def test_dump_csv_matches_cell_loop_across_chunks(n):
    rows = edge_rows(n)
    header = ["n", "edge", "random"]
    assert written(dump_csv, rows, header) == reference_csv(rows, header)


cells = st.one_of(st.integers(), finite, st.text(max_size=5))


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda k: st.lists(st.tuples(*[cells] * k), max_size=12).map(lambda rows: (k, rows))))
def test_dump_csv_matches_cell_loop(case):
    k, rows = case
    header = [f"c{i}" for i in range(k)]
    assert written(dump_csv, rows, header) == reference_csv(rows, header)
