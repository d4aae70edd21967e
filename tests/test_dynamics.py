import ast
import cProfile
import dataclasses
import gc
import math
import pickle
import pstats
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    DomainError,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    ParameterError,
    RangeError,
    ResourceCapError,
    Word,
    make_corrupted_orbit,
    net,
    orbit,
)
from shadowlab.dynamics import DEFAULT_NET_CAP, DIMENSION_CAP, IID_BLOCK, _walk, as_point

from oracles import iid_symbols_reference, reference_map


@pytest.fixture
def disk_family():
    space = MetricSpace.unit_disk()
    return GeneratorFamily(space, (GeneratorMap.permutation((1, 0)),
                                   GeneratorMap.scale((0.5, 0.5))))


@pytest.fixture
def alternating():
    return Word.periodic((1, 2), m=2)


def test_orbit_disk_alternating(disk_family, alternating):
    pts = orbit(disk_family, alternating, (1.0, 0.0), 5)
    expected = [(1, 0), (0, 1), (0, 0.5), (0.5, 0), (0.25, 0)]
    assert np.allclose(pts, expected)


def test_orbit_length_one_is_start(disk_family, alternating):
    pts = orbit(disk_family, alternating, (0.2, -0.1), 1)
    assert pts.shape == (1, 2)
    assert np.allclose(pts[0], (0.2, -0.1))


def test_orbit_halving_on_box():
    space = MetricSpace.box([0.0], [1.0])
    family = GeneratorFamily(space, (GeneratorMap.scale([0.5]),))
    pts = orbit(family, Word.constant(1, m=1), [1.0], 4)
    assert np.allclose(pts.ravel(), [1.0, 0.5, 0.25, 0.125])


def test_orbit_shifted_skips_first_symbols(disk_family, alternating):
    pts = orbit(disk_family, alternating.shifted(1), (1.0, 0.0), 3)
    assert np.allclose(pts, [(1, 0), (0.5, 0), (0, 0.5)])


def test_orbit_shifted_zero_equals_orbit(disk_family, alternating):
    a = orbit(disk_family, alternating, (0.7, 0.1), 8)
    b = orbit(disk_family, alternating.shifted(0), (0.7, 0.1), 8)
    assert np.array_equal(a, b)


def test_orbit_identity_family_is_constant():
    space = MetricSpace.box([0.0], [1.0])
    family = GeneratorFamily(space, (GeneratorMap.identity(),))
    pts = orbit(family, Word.constant(1, m=1).shifted(5), [0.3], 10)
    assert np.allclose(pts, 0.3)


def test_orbit_composition_associativity(disk_family, alternating):
    # The n1+n2 orbit must continue bitwise from its own n1-th point.
    full = orbit(disk_family, alternating, (0.6, -0.3), 12)
    resumed = orbit(disk_family, alternating.shifted(7), full[7], 5)
    assert np.array_equal(full[7:12], resumed)


def test_orbit_points_stay_in_space(disk_family, alternating):
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = disk_family.space.sample(rng)
        pts = orbit(disk_family, alternating, z, 50)
        assert np.all(disk_family.space.contains(pts))


# ---------------------------------------------------------------------------
# Spaces


def test_diameters_are_analytic():
    assert MetricSpace.unit_disk().diameter == 2.0
    assert MetricSpace.circle().diameter == 0.5
    assert MetricSpace.box([0, 0], [1, 1]).diameter == pytest.approx(np.sqrt(2))


def test_a_boxs_diameter_is_its_own_distance_of_lo_and_hi():
    # np.linalg.norm(hi - lo) differed from the space's distance on 19 % of
    # such boxes; surgery.block_length reads the diameter.
    rng = np.random.default_rng(5)
    for d in [d for d in range(1, 65) for _ in range(50)]:
        lo = rng.uniform(-10.0, 10.0, d) * 10.0 ** rng.integers(-3, 4, d)
        box = MetricSpace.box(lo, lo + rng.uniform(0.01, 10.0, d) * 10.0 ** rng.integers(-3, 4, d))
        assert box.diameter.hex() == box.distance(box.lo, box.hi).hex()


def reference_sample(space, rng):
    """One seeded point as sample drew it one call at a time: a uniform point
    of the bounding box, redrawn while its np.linalg.norm exceeds 1 on the disk."""
    q = rng.uniform(space.lo, space.hi)
    while space.kind == "unit-disk-2d" and np.linalg.norm(q) > 1.0:
        q = rng.uniform(space.lo, space.hi)
    return q


@pytest.mark.parametrize("space", [MetricSpace.unit_disk(), MetricSpace.circle(),
                                   *(MetricSpace.box([-1.5] * d, [0.5 * d] * d)
                                     for d in range(1, 6))], ids=lambda s: f"{s.kind}")
@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 1000])
def test_n_points_from_one_call_are_n_single_draws(space, n):
    for seed in range(5):
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = space.sample(one, n)
        want = np.array([reference_sample(space, each) for _ in range(n)])
        assert rows.shape == (n, space.dimension)
        assert rows.tobytes() == want.tobytes()
        assert one.bit_generator.state == each.bit_generator.state
        point = space.sample(one)
        assert point.shape == (space.dimension,)
        assert point.tobytes() == reference_sample(space, each).tobytes()
        assert one.bit_generator.state == each.bit_generator.state


class RowsRng:
    """Hands sample the given rows, in order, as its uniform draws."""

    def __init__(self, rows):
        self.rows, self.taken = rows, 0

    def uniform(self, lo, hi, size):
        self.taken += size[0]
        return self.rows[self.taken - size[0]:self.taken].copy()


def test_the_disk_keeps_a_row_within_an_ulp_of_the_circle_as_its_norm_does():
    # Points on the unit circle and each of their neighbours an ulp away, in
    # and out, on each axis: the disk keeps a drawn row exactly when
    # np.linalg.norm(row) > 1.0 is false.
    theta = np.random.default_rng(3).uniform(0.0, 2 * np.pi, 2000)
    on = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    rows = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, 2.0 * on),
                           np.stack([np.nextafter(on[:, 0], 2.0 * on[:, 0]), on[:, 1]], axis=-1),
                           np.stack([on[:, 0], np.nextafter(on[:, 1], 0.0)], axis=-1)])
    rows = rows[np.random.default_rng(4).permutation(len(rows))]
    keep = np.flatnonzero([not np.linalg.norm(row) > 1.0 for row in rows])
    assert 0 < len(keep) < len(rows)
    for n in (1, len(keep) // 2, len(keep)):
        rng = RowsRng(rows)
        assert MetricSpace.unit_disk().sample(rng, n).tobytes() == rows[keep[:n]].tobytes()
        # Each round draws only the rows still missing, so none past the last kept.
        assert rng.taken == keep[n - 1] + 1


def test_metric_axioms_on_sampled_pairs():
    rng = np.random.default_rng(11)
    for space in (MetricSpace.unit_disk(), MetricSpace.box([0, 0, 0], [1, 2, 1]),
                  MetricSpace.circle()):
        for _ in range(50):
            p, q = space.sample(rng), space.sample(rng)
            assert space.distance(p, q) >= 0
            assert space.distance(p, q) == pytest.approx(space.distance(q, p), abs=1e-12)
            assert space.distance(p, p) <= 1e-12
            assert space.distance(p, q) <= space.diameter + 1e-12


def test_circle_distance_is_geodesic():
    c = MetricSpace.circle()
    assert c.distance([0.1], [0.9]) == pytest.approx(0.2)
    assert c.distance([0.0], [0.5]) == pytest.approx(0.5)


def test_a_tiny_negative_circle_image_wraps_to_1_the_point_0():
    # Coordinates lie in [0, 1], not [0, 1): -1e-17 % 1.0 rounds to 1.0.
    space = MetricSpace.circle()
    family = GeneratorFamily(space, (GeneratorMap.affine([[1.0]], [-1e-17]),))
    assert orbit(family, Word.constant(1, 1), [0.0], 3).ravel().tolist() == [0.0, 1.0, 0.0]
    assert space.distance(1.0, 0.0) == 0.0 and space.contains(1.0)


# A circle wrap (a mod 1 in any spelling) or a clamp (np.clip, a min of a max
# or a max of a min, nested wheres, a chained conditional): MetricSpace._rule
# writes each once, and only the space and the two tables its text calls
# (dynamics._ON_COLUMNS and _ON_FLOATS) may spell one.
WRAP_OR_CLAMP = re.compile(
    r"%\s*1(\.0*)?(?![\w.])|\b(mod|fmod|remainder|clip|clamp)\("
    r"|\b(max(imum)?\(([^(),#]+,)?\s*(np\.)?min|min(imum)?\(([^(),#]+,)?\s*(np\.)?max)(imum)?\("
    r"|\bwhere\([^()#]*\bwhere\(|\bif\b[^#]*\belse\b[^#]*\bif\b[^#]*\belse\b")


def test_the_circle_wrap_and_the_box_clamp_are_spelled_only_by_the_space():
    found = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "shadowlab").glob("*.py")):
        text = path.read_text()
        own = set()
        for node in ast.parse(text).body:
            names = {getattr(t, "id", None) for t in getattr(node, "targets", ())}
            if (isinstance(node, ast.ClassDef) and node.name == "MetricSpace"
                    or names & {"_ON_COLUMNS", "_ON_FLOATS"}):
                own.update(range(node.lineno, node.end_lineno + 1))
        found += [f"{path.name}:{n}: {line.strip()}" for n, line in enumerate(text.splitlines(), 1)
                  if n not in own and WRAP_OR_CLAMP.search(line)]
    assert found == []
    for spelling in ("y = (x % 1.0 - c) % 1.0", "N = max(1, min(M, H))",
                     "np.minimum(np.maximum(x, 0), 1)", "lo if x <= lo else hi if x >= hi else x"):
        assert WRAP_OR_CLAMP.search(spelling), spelling


# ---------------------------------------------------------------------------
# Nets


def test_net_box_1d_mesh_half():
    points = net(MetricSpace.box([0.0], [1.0]), 0.5)
    assert np.allclose(sorted(points.ravel()), [0.0, 0.5, 1.0])


def test_net_disk_coarse_mesh_covers():
    space = MetricSpace.unit_disk()
    points = net(space, 2.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = space.sample(rng)
        assert min(space.distance(p, q) for q in points) <= 2.0


def test_net_box_2d_quarter_mesh():
    # Oracle: brute-force covering scan over a fine probe grid.
    space = MetricSpace.box([0, 0], [1, 1])
    points = net(space, 0.25)
    assert len(points) == 25
    probe = np.stack(np.meshgrid(np.linspace(0, 1, 101), np.linspace(0, 1, 101),
                                 indexing="ij"), axis=-1).reshape(-1, 2)
    dists = np.linalg.norm(probe[:, None, :] - points[None, :, :], axis=2).min(axis=1)
    assert dists.max() <= 0.25 + 1e-12


def test_net_members_and_deterministic_order():
    space = MetricSpace.unit_disk()
    a = net(space, 0.3)
    b = net(space, 0.3)
    assert np.array_equal(a, b)
    assert np.all(space.contains(a))


def test_net_cap_enforced():
    with pytest.raises(ResourceCapError) as err:
        net(MetricSpace.box([0, 0], [1, 1]), 1e-4)
    assert err.value.required_cap > 1000


@pytest.mark.parametrize("space", [MetricSpace.unit_disk(), MetricSpace.circle(),
                                   MetricSpace.box([0, 0, 0], [1, 2, 3])])
@pytest.mark.parametrize("mesh", [1e-9, 1e-38, 5e-324])
def test_net_cap_is_checked_before_any_axis_is_built(space, mesh):
    # The axes were built before the cap was checked: 1e-38 ended in a numpy
    # "Maximum allowed size exceeded" ValueError, 5e-324 in an OverflowError
    # from math.ceil(inf), and 1e-9 asks for an axis of 2e9 points (16 GB).
    with pytest.raises(ResourceCapError) as err:
        net(space, mesh)
    assert err.value.required_cap > DEFAULT_NET_CAP


@pytest.mark.parametrize("mesh", [0.0, -0.5, float("nan"), float("-inf")])
def test_net_rejects_a_mesh_that_is_not_positive(mesh):
    # NaN passed a `mesh <= 0` check and failed later in numpy ("cannot
    # convert float NaN to integer").
    for space in (MetricSpace.unit_disk(), MetricSpace.circle(), MetricSpace.box([0], [1])):
        with pytest.raises(ParameterError, match="mesh must be positive"):
            net(space, mesh)


def test_net_circle_covers():
    space = MetricSpace.circle()
    points = net(space, 0.1)
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = space.sample(rng)
        assert min(space.distance(p, q) for q in points) <= 0.1


# ---------------------------------------------------------------------------
# Words


def test_words_reproduce_deterministically():
    w1 = Word.iid([0.5, 0.25, 0.25], seed=42)
    w2 = Word.iid([0.5, 0.25, 0.25], seed=42)
    assert np.array_equal(w1.symbols(500), w2.symbols(500))
    # order of queries must not matter
    backwards = [w1.symbol_at(j) for j in reversed(range(50))]
    assert backwards[::-1] == list(w2.symbols(50))


def test_word_symbols_in_range():
    for word in (Word.constant(2, m=3), Word.periodic((1, 3, 2), m=3),
                 Word.iid([1, 1, 1], seed=9),
                 Word("prefix", 3, prefix=(3, 3), tail=Word.constant(1, m=3))):
        syms = word.symbols(200)
        assert syms.min() >= 1 and syms.max() <= 3


@pytest.mark.parametrize("m, dtype", [(2, np.uint8), (255, np.uint8), (256, np.uint16),
                                      (70_000, np.uint32)])
def test_word_symbols_take_the_smallest_unsigned_dtype_that_holds_m(m, dtype):
    # The memo held int64, 8 bytes a symbol for any alphabet.
    word = Word.periodic((1, m, m), m=m)
    assert word.symbols(5).dtype == dtype
    assert word.symbols(5).tolist() == [word.symbol_at(j) for j in range(5)] == [1, m, m, 1, m]


@pytest.mark.parametrize("word", [Word.constant(2, m=2), Word.periodic((1, 2, 2), m=2).shifted(4),
                                  Word("prefix", 2, prefix=(2, 1), tail=Word.periodic((1, 2), m=2))])
def test_word_symbols_are_built_in_the_memo_dtype(word):
    # Built as int64 (np.arange, the modulo and the gather), a periodic word's
    # symbols peaked at 16 bytes a symbol before the memo took them.
    n = 100_000
    tracemalloc.start()
    try:
        symbols = word.symbols(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n
    assert symbols[[0, 1, 2, n - 1]].tolist() == [word.symbol_at(j) for j in (0, 1, 2, n - 1)]


def test_word_prefix_then_tail():
    word = Word("prefix", 2, prefix=(2, 2, 2), tail=Word.periodic((1, 2), m=2))
    assert list(word.symbols(6)) == [2, 2, 2, 1, 2, 1]


def test_word_shift_reindexes():
    word = Word.periodic((1, 2, 1, 1), m=2)
    shifted = word.shifted(3)
    assert [shifted.symbol_at(j) for j in range(5)] == [word.symbol_at(3 + j) for j in range(5)]


def test_word_offsets_past_int64_are_rejected_and_large_ones_read_their_pattern():
    # An offset of 2**70 in a config reached numpy as an OverflowError, not an exit 2.
    word = Word.periodic((1, 2, 2), m=2)
    far = word.shifted(2**63 - 5)
    assert list(far.symbols(8)) == [word.symbol_at((2**63 - 5 + j) % 3) for j in range(8)]
    for offset in (2**63, 2**70):
        with pytest.raises(ParameterError, match="offset") as info:
            Word("periodic", 2, pattern=(1, 2), offset=offset)
        assert info.value.path == ("offset",)
    with pytest.raises(ParameterError, match="offset"):
        far.shifted(5)


def test_word_validation():
    with pytest.raises(ParameterError):
        Word.constant(3, m=2)
    with pytest.raises(ParameterError):
        Word.periodic((1, 0), m=2)
    with pytest.raises(ParameterError):
        Word.iid([-1.0, 2.0], seed=1)


@pytest.mark.parametrize("build", [
    # Each built before the checks moved into the constructor: the map read
    # only the first column, the permutation dropped a coordinate, the space
    # acted as a box, and the map failed at its first step with a TypeError.
    lambda: GeneratorMap("affine", matrix=((1.0, 2.0),), offset=(0.0,)),
    lambda: GeneratorMap("permutation", perm=(0, 0)),
    lambda: MetricSpace("bogus", (0.0,), (1.0,)),
    lambda: GeneratorMap("affine"),
    # The NaN scale, the NaN point and the uniform rule's point built: the walk
    # then blamed a map for the NaN jumps, and the spec carried the unread point.
    lambda: JumpRule("offset", scale=math.nan),
    lambda: JumpRule("offset", scale=0),
    lambda: JumpRule("fixed", point=(math.nan, 0.0)),
    lambda: JumpRule("uniform", point=(0.5, 0.5)),
    lambda: JumpRule("fixed"),
])
def test_raw_constructors_check_what_the_classmethods_check(build):
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize("build, path", [
    (lambda: Word.from_spec({"kind": "periodic", "m": 1, "pattern": [1], "ofset": 4}),
     ("ofset",)),
    (lambda: Word.from_spec({"kind": "prefix", "m": 2, "prefix": [1],
                             "tail": {"kind": "constant", "m": 2, "sybmol": 1}}),
     ("tail", "sybmol")),
    (lambda: Word.from_spec({"kind": "prefix", "m": 2, "prefix": [1],
                             "tail": {"kind": "iid", "m": 2, "weights": [1, 1], "seed": -1}}),
     ("tail", "seed")),
    (lambda: GeneratorMap.from_spec({"kind": "permutation", "perm": 5}), ("perm",)),
    (lambda: Word.from_spec({"kind": "periodic", "m": 1, "pattern": 1}), ("pattern",)),
    (lambda: JumpRule.from_spec({"kind": "fixed", "point": 0.5}), ("point",)),
    (lambda: GeneratorMap.from_spec({"kind": "scale", "factors": [[0.5], 0.5]}), ("factors",)),
    (lambda: GeneratorFamily.from_spec({"space": {"kind": "circle-1d"},
                                        "maps": [{"kind": "identity", "ofset": 1}]}),
     ("maps[0]", "ofset")),
    (lambda: GeneratorFamily.from_spec({"space": {"kind": "disk"}, "maps": []}),
     ("space", "kind")),
    (lambda: MetricSpace.from_spec({"lo": [0.0], "hi": [1.0]}), ("kind",)),
    (lambda: JumpRule.from_spec({"kind": "offset", "power": None}), ("power",)),
    (lambda: JumpRule("offset", scale=math.inf), ("scale",)),
    (lambda: JumpRule.from_spec([0.5]), ()),
    (lambda: GeneratorMap.affine([[1.0, 2.0]], [0.0]), ()),
])
def test_spec_errors_carry_the_path_of_their_key(build, path):
    with pytest.raises(ParameterError) as err:
        build()
    assert err.value.path == path


def test_a_family_spec_names_its_missing_key_and_reads_no_other():
    # A missing key raised KeyError: 'maps', and a list a TypeError.
    disk = {"space": {"kind": "unit-disk-2d"}, "maps": [{"kind": "identity"}]}
    for key in ("space", "maps"):
        with pytest.raises(ParameterError, match="^required$") as err:
            GeneratorFamily.from_spec({k: v for k, v in disk.items() if k != key})
        assert err.value.path == (key,)
    with pytest.raises(ParameterError, match=r"^a GeneratorFamily spec must be an object") as err:
        GeneratorFamily.from_spec([disk])
    assert err.value.path == ()
    system = {**disk, "word": {"kind": "constant", "m": 1, "symbol": 1}, "start": [0.0, 0.0]}
    assert GeneratorFamily.from_spec(system).spec() == disk


@pytest.mark.parametrize("build, message", [
    # Each said only "'int' object is not iterable", or "'float' ...".
    (lambda: GeneratorMap.from_spec({"kind": "permutation", "perm": 5}),
     "map perm: expected a list, got int"),
    (lambda: Word.from_spec({"kind": "periodic", "m": 1, "pattern": 1}),
     "word pattern: expected a list, got int"),
    (lambda: JumpRule.from_spec({"kind": "fixed", "point": 0.5}),
     "jump point: expected a list, got float"),
    (lambda: GeneratorMap.from_spec({"kind": "affine", "matrix": [0.5], "offset": [0.0]}),
     "map matrix: expected a list, got float"),
    # A number is a one-coordinate vector; a list inside one is no number.
    (lambda: GeneratorMap.from_spec({"kind": "scale", "factors": [[0.5], 0.5]}),
     "map factors entry must be a finite real number, got [0.5]"),
])
def test_a_scalar_where_a_list_is_meant_is_named_as_such(build, message):
    with pytest.raises(ParameterError) as err:
        build()
    assert str(err.value) == message



@pytest.mark.parametrize("build, message", [
    # Each was read entry by entry, a string's characters and an object's keys.
    (lambda: GeneratorMap.from_spec({"kind": "permutation", "perm": "10"}),
     "map perm: expected a list, got str"),
    (lambda: Word.from_spec({"kind": "periodic", "m": 2, "pattern": {"1": 2}}),
     "word pattern: expected a list, got dict"),
    (lambda: GeneratorMap.from_spec({"kind": "affine", "matrix": ["ab", "cd"],
                                     "offset": [0.0, 0.0]}),
     "map matrix: expected a list, got str"),
])
def test_a_string_or_an_object_where_a_list_is_meant_is_named_as_such(build, message):
    with pytest.raises(ParameterError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build, field", [
    # Each built a map of size 0, which a family rejected only as "maps of sizes [0]".
    (lambda: GeneratorMap.permutation([]), "perm"),
    (lambda: GeneratorMap.scale([]), "factors"),
    (lambda: GeneratorMap.affine([], []), "matrix"),
    (lambda: GeneratorMap.from_spec({"kind": "affine", "matrix": [], "offset": [0.5]}), "matrix"),
])
def test_a_map_of_size_0_is_rejected_naming_its_field(build, field):
    with pytest.raises(ParameterError, match=f"map {field} is empty") as err:
        build()
    assert err.value.path == (field,)


@pytest.mark.parametrize("build, error, message", [
    # No in-process test reached these rules; each names what it rejects.
    (lambda: as_point([[0.5, 0.5]]), DomainError,
     "a point must be a 1-d coordinate vector, got shape (1, 2)"),
    (lambda: MetricSpace.box([0.0], [1.0, 2.0]), ParameterError,
     "box bounds must be nonempty and of equal length"),
    (lambda: MetricSpace.box([0.0, 1.0], [1.0, 1.0]), ParameterError,
     "box bounds require lo < hi on every axis"),
    (lambda: GeneratorFamily(MetricSpace.circle(), ()), ParameterError,
     "a generator family needs at least one map"),
    (lambda: GeneratorFamily.from_spec({"space": {"kind": "circle-1d"}, "maps": {}}),
     ParameterError, "must be a list of map specs, got {}"),
    (lambda: Word.constant(1, m=0), ParameterError, "alphabet size m must be >= 1"),
    (lambda: Word.periodic((), m=2), ParameterError, "periodic word needs a nonempty pattern"),
    (lambda: Word("iid", 3, weights=(0.5, 0.5), seed=1), ParameterError,
     "iid word needs one weight per symbol"),
    (lambda: Word("prefix", 2, prefix=(3,), tail=Word.constant(1, m=2)), ParameterError,
     "prefix symbols must lie in 1..2"),
    (lambda: Word("prefix", 2, prefix=(1,), tail=Word.constant(1, m=3)), ParameterError,
     "tail word must share the alphabet size"),
    (lambda: Word.constant(1, m=2).symbol_at(-1), RangeError, "word indices start at 0"),
    (lambda: Word.constant(1, m=2).shifted(-1), RangeError, "word shift must be >= 0"),
    (lambda: orbit(GeneratorFamily(MetricSpace.circle(), (GeneratorMap.identity(),)),
                   Word.constant(1, m=1), (0.5,), 0), ParameterError,
     "orbit length must be >= 1"),
])
def test_a_broken_rule_raises_its_own_message(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_word_is_a_frozen_value():
    word = Word.periodic(np.array([1, 2]), m=np.int64(2))
    assert word == Word.periodic([1.0, 2], m=2) and hash(word) == hash(Word.periodic((1, 2), 2))
    assert word.pattern == (1, 2) and type(word.m) is int
    assert word.shifted(3) == Word("periodic", 2, pattern=(1, 2), offset=3) != word
    with pytest.raises(dataclasses.FrozenInstanceError):
        word.offset = 1


@pytest.mark.parametrize("spec, start", [
    ({"space": {"kind": "unit-disk-2d"},
      "maps": [{"kind": "permutation", "perm": [1, 0]}, {"kind": "scale", "factors": [0.5, 0.5]}]},
     (0.6, 0.3)),
    ({"space": {"kind": "box-kd", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
      "maps": [{"kind": "affine", "matrix": [[0.5, 0.1], [0.0, 0.5]], "offset": [0.1, 0.2]},
               {"kind": "affine", "matrix": [[0.4, 0.0], [0.2, 0.4]], "offset": [0.5, 0.3]}]},
     (0.25, 0.75)),
    ({"space": {"kind": "circle-1d"},
      "maps": [{"kind": "affine", "matrix": [[1.0]], "offset": [0.3819660112501051]},
               {"kind": "scale", "factors": [-1.0]}]},
     (0.1,)),
])
def test_spaces_and_families_pickle_after_their_compiled_expressions_are_built(spec, start):
    family, word = GeneratorFamily.from_spec(spec), Word.iid([0.5, 0.5], seed=3)
    point, jumps = np.asarray([start]), IndexSet.from_iterable(range(0, 200, 7), 200)

    def use(family):
        """Membership, a step, a walk and a walk under each landing rule:
        each caches a compiled expression or a generated walk. The normal
        form is cached last, and read."""
        assert family.space.contains(point[0])
        corrupted = make_corrupted_orbit(family, word, start, jumps,
                                         JumpRule("offset", scale=0.1), seed=5)
        fixed = make_corrupted_orbit(family, word, start, jumps,
                                     JumpRule("fixed", point=(0.5,) * len(start)), seed=5)
        stored = _walk(family, word, start, 200, (jumps.indices, fixed.points[1:][::7]), "stored")
        return [np.stack(family.steps[2](tuple(point.T)), axis=-1),
                orbit(family, word, start, 200), corrupted.points,
                fixed.points, *stored[::2], *family.affine_parts]

    orbit(family, word, start, 200)
    # A walk runs the generated walk and builds no normal form; a circle
    # family's slope check has built it.
    assert ("affine_parts" in vars(family)) == (family.space.kind == "circle-1d")
    used = use(family)
    assert sorted(vars(family)["_walks"]) == ["offset", "stored", "target"]
    # The pickle holds the fields alone: no step table and no generated walk.
    data = pickle.dumps(family)
    assert b"_walks" not in data and b"steps" not in data
    space = pickle.loads(pickle.dumps(family.space))
    again = pickle.loads(data)
    assert "_walks" not in vars(again)
    assert space.spec() == family.space.spec() and space.contains(point[0])
    assert again.spec() == family.spec()
    assert [a.tobytes() for a in use(again)] == [a.tobytes() for a in used]


def test_a_familys_compiled_functions_are_freed_with_it():
    # A compiled function left in its own namespace forms a reference cycle,
    # which only a garbage collection frees; the file pipeline's peak memory
    # grew by 1 MiB (2 %) with it.
    gc.disable()
    try:
        family = GeneratorFamily(MetricSpace.unit_disk(), (GeneratorMap.permutation((1, 0)),
                                                           GeneratorMap.scale((0.5, 0.5))))
        orbit(family, Word.periodic((1, 2), m=2), (0.5, 0.25), 10)
        built = [family._walker("target"), family.steps[2]]
        refs = [weakref.ref(f) for f in built]
        del family, built
        assert [ref() for ref in refs] == [None] * 2
    finally:
        gc.enable()


def test_a_walk_and_a_step_have_different_profiled_names():
    # A profile names a generated function by its code's name, which was "f"
    # for every one, so a walk's time and a step's shared one row.
    family = GeneratorFamily(MetricSpace.unit_disk(), (GeneratorMap.permutation((1, 0)),
                                                       GeneratorMap.scale((0.5, 0.5))))
    profile = cProfile.Profile()
    profile.runcall(orbit, family, Word.periodic((1, 2), m=2), (0.5, 0.25), 10)
    profile.runcall(family.steps[2], (np.array([0.5]), np.array([0.25])))
    # "<module>" is each source text run once to define its function; the
    # walk's start is checked by the disk's membership test on columns.
    names = {name for filename, _, name in pstats.Stats(profile).stats
             if filename == "<shadowlab>"}
    assert names == {"<module>", "walk_target", "step_scale", "inside_unit_disk_2d"}


def test_a_dense_affine_walk_at_the_dimension_cap_compiles():
    # DIMENSION_CAP is set by this walk: d^2 terms of one generated source.
    d = DIMENSION_CAP
    matrix = (np.random.default_rng(0).uniform(size=(d, d)) / d).tolist()
    g = GeneratorMap.affine(matrix, [0.0] * d)
    family = GeneratorFamily(MetricSpace.box([0.0] * d, [1.0] * d), (g,))
    expected = [[0.5] * d]
    for _ in range(3):
        expected.append(reference_map(g, expected[-1]))
    assert orbit(family, Word.constant(1, 1), [0.5] * d, 4).tobytes() == \
        np.array(expected).tobytes()


def test_word_roundtrip_spec():
    word = Word("prefix", 2, prefix=(1, 2), tail=Word.iid([0.3, 0.7], seed=5)).shifted(4)
    again = Word.from_spec(word.spec())
    assert np.array_equal(word.symbols(100), again.symbols(100))


def test_iid_word_frequencies_follow_weights():
    word = Word.iid([0.6, 0.3, 0.1], seed=123)
    syms = word.symbols(20_000)
    freqs = [np.mean(syms == s) for s in (1, 2, 3)]
    assert abs(freqs[0] - 0.6) < 0.02
    assert abs(freqs[1] - 0.3) < 0.02
    assert abs(freqs[2] - 0.1) < 0.02


def test_iid_word_reads_its_weights_once():
    # An iterator of weights is spent by its first read.
    word = Word.iid(iter([0.5, 0.5]), seed=1)
    assert word == Word.iid([0.5, 0.5], seed=1)
    assert word.m == 2 and word.weights == (0.5, 0.5)


@pytest.mark.parametrize("weights, symbols", [((0.5, 0.5, 0.0), [1, 2, 2, 2]),
                                              ((0.0, 1.0, 0.0, 0.0), [2, 2, 2, 2]),
                                              ((0.5, 0.0, 0.5), [1, 3, 3, 3])])
def test_a_zero_weight_symbol_is_never_drawn(monkeypatch, weights, symbols):
    # A draw of at least 2**64 - 2**10 rounds to u = 1.0, past every threshold;
    # it took symbol m, of weight 0 in the first two cases.
    draws = np.array([0, 2**63, 2**64 - 2**10, 2**64 - 1], np.uint64)
    monkeypatch.setattr(Word, "_iid_draws", lambda self, start, n: draws[start:start + n])
    word = Word.iid(weights, seed=1)
    assert word.symbols(4).tolist() == symbols
    assert [word.symbol_at(j) for j in range(4)] == symbols


iid_weights = st.integers(1, 5).flatmap(lambda m: st.lists(
    st.one_of(st.sampled_from([0.0, 0.1, 1.0, 3.0]), st.floats(0.0, 10.0)),
    min_size=m, max_size=m)).filter(lambda w: sum(w) > 0)


@settings(max_examples=60, deadline=None)
@given(iid_weights, st.integers(0, 2**64 - 1), st.integers(0, 2**63 - 1), st.integers(0, 40))
def test_iid_symbols_equal_the_reference_at_any_offset(weights, seed, offset, n):
    word = Word.iid(weights, seed=seed).shifted(offset)
    expected = iid_symbols_reference(weights, seed, offset, n)
    assert word.symbols(n).tolist() == expected
    assert [word.symbol_at(j) for j in range(n)] == expected


@pytest.mark.parametrize("n", [IID_BLOCK - 1, IID_BLOCK, IID_BLOCK + 1, 2 * IID_BLOCK + 1])
def test_iid_symbols_across_block_edges_equal_the_reference(n):
    weights, offset = (0.3, 0.0, 0.7, 0.0), 2**63 - 3 * IID_BLOCK
    expected = iid_symbols_reference(weights, 11, offset, n)
    word = Word.iid(weights, seed=11).shifted(offset)
    assert word.symbols(n).tolist() == expected
    # A memo extended from inside a block reads on across the edge.
    split = Word.iid(weights, seed=11).shifted(offset)
    split.symbols(n // 2 + 1)
    assert split.symbols(n).tolist() == expected
    assert [word.symbol_at(j) for j in (0, n // 2, n - 1)] == [expected[j] for j in (0, n // 2, n - 1)]


def test_iid_symbols_are_built_a_block_of_draws_at_a_time():
    # One bytes object per draw, joined at the end, peaked at 137 bytes a symbol.
    n = 200_000
    word = Word.iid((0.5, 0.5), seed=7)
    tracemalloc.start()
    try:
        symbols = word.symbols(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n
    assert symbols[[0, n - 1]].tolist() == iid_symbols_reference((0.5, 0.5), 7, 0, 1) + \
        iid_symbols_reference((0.5, 0.5), 7, n - 1, 1)


def test_net_covering_sweep():
    rng = np.random.default_rng(17)
    cases = [(MetricSpace.unit_disk(), (0.15, 0.4, 1.0)),
             (MetricSpace.box([0, 0, 0], [1, 2, 1]), (0.3, 0.8)),
             (MetricSpace.circle(), (0.05, 0.2))]
    for space, meshes in cases:
        for mesh in meshes:
            points = net(space, mesh)
            assert np.all(space.contains(points))
            for _ in range(150):
                p = space.sample(rng)
                nearest = min(space.distance(p, q) for q in points)
                assert nearest <= mesh + 1e-12, (space.kind, mesh, nearest)
