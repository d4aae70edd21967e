"""Differential tests of the artifact writers.

``save_orbit`` and ``dump_csv`` format orbit points and CSV rows without the
per-value Python loop of the writers they replace. The references below are
those writers: ``json.dumps(..., indent=2)`` of ``orbit_to_dict``, and one
``repr``-or-``str`` per CSV cell. Files must agree byte for byte.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    _points_text,
    dump_csv,
    json_default,
    orbit_to_dict,
    save_orbit,
)

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
# Orbit points: n >= 1 rows of one to three coordinates (d = 1 is a circle orbit).
point_arrays = arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 3)),
                      elements=finite)


def reference_points(a: np.ndarray) -> str:
    return json.dumps(a.tolist(), indent=2).replace("\n", "\n  ")


@SETTINGS
@given(point_arrays)
def test_points_text_matches_json_layout(a):
    assert _points_text(a) == reference_points(a)


@pytest.mark.parametrize("d", [1, 2])
def test_points_text_edge_floats(d):
    a = np.array(EDGE_FLOATS).reshape(-1, d)
    assert _points_text(a) == reference_points(a)


def circle_orbit():
    family = GeneratorFamily(MetricSpace.circle(),
                             (GeneratorMap.scale([2.0]), GeneratorMap.scale([3.0])))
    squares = IndexSet.from_iterable([k * k for k in range(11)], 120)
    return make_corrupted_orbit(family, Word.iid([0.4, 0.6], seed=11), [0.123],
                                squares, JumpRule("uniform"), seed=2)


@pytest.mark.parametrize("make", [
    lambda: true_orbit(*build_disk_system(), (0.4, 0.2), 300),
    lambda: make_corrupted_orbit(*build_disk_system(), (0.4, 0.2),
                                 IndexSet.from_iterable(range(0, 300, 7), 300),
                                 JumpRule("uniform"), seed=3),
    circle_orbit,
])
def test_save_orbit_writes_the_orbit_dict(make):
    xi = make()
    assert written(save_orbit, xi) == reference_json(orbit_to_dict(xi))


def test_save_orbit_meta_goes_through_json():
    """Meta keys and strings json must escape, nested values and numpy scalars."""
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.4, 0.2), 20)
    meta = {"quote\"slash\\newline\n\u00e9\U0001f600": [1, {"x": 0.1, "y": [-0.0]}],
            "points": "[\n  1.0\n]", "z": np.float64(1e16), "": []}
    xi = PseudoOrbit(family, word, xi.points, xi.step_errors, meta)
    assert written(save_orbit, xi) == reference_json(orbit_to_dict(xi))


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
