"""Differential and property tests of the sequential orbit walk and of the
space and map operations that take a point or rows.

``orbit`` and ``make_corrupted_orbit`` step a point with symbols computed
once and check membership block by block as the walk goes. The references below, and the
per-point ones they import from ``oracles``, step one symbol at a time
through the per-index symbol rule, and evaluate each map and space
operation as its documented expression on a list of Python floats, one
point at a time (not through the library's symbol rule, step table or
space methods); they draw each jump when it is needed. Results
must agree bit for bit, and failures must raise the same error at the same
step. ``net``, ``trace_report`` and the net scan are checked against
per-point and per-step loops of the same expressions.
"""

import contextlib
import dataclasses
import json
import math
import re
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shadowlab import (
    DomainError,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    ParameterError,
    PseudoOrbit,
    Word,
    average_shadow_search,
    build_disk_system,
    m_alpha_shadow_search,
    make_corrupted_orbit,
    net,
    orbit,
    refined_asymptotic_search,
    trace_report,
    true_orbit,
)
from shadowlab import dynamics, pseudo_orbits, shadow_search
from shadowlab.concat import BlockPlan, concatenate
from shadowlab.dynamics import CIRCLE, MEMBERSHIP_TOL, UNIT_DISK
from shadowlab.pseudo_orbits import recompute_step_errors
from shadowlab.serialize import json_default, load_orbit, save_orbit
from shadowlab.shadow_search import HIT_DENSITY, LIMSUP, _net_pick, _scan
from shadowlab.surgery import repair

from oracles import (
    broadcast_gram,
    iid_symbols_reference,
    project,
    reference_contains,
    reference_distance,
    reference_image,
    reference_loop,
    reference_map,
    reference_project,
    reference_step,
    reference_walk,
    save_orbit_v1,
)

SETTINGS = settings(max_examples=150, deadline=None)


def reference_symbol(word, j):
    """Symbol j of the word, one index at a time: an iid index is drawn by
    iid_symbols_reference; a prefix word's tail is read at its own index."""
    b = word.offset + j
    if word.kind == "constant":
        return word.symbol
    if word.kind == "periodic":
        return word.pattern[b % len(word.pattern)]
    if word.kind == "iid":
        return iid_symbols_reference(word.weights, word.seed, b, 1)[0]
    if b < len(word.prefix):
        return word.prefix[b]
    return reference_symbol(word.tail, b - len(word.prefix))


def reference_orbit(family, word, z, n):
    p = [float(x) for x in z]
    if not reference_contains(family.space, p):
        raise DomainError(f"start {p} is outside the {family.space.kind} space")
    out = [p]
    for j in range(n - 1):
        out.append(reference_step(family, reference_symbol(word, j), out[-1]))
    return np.array(out, dtype=np.float64).reshape(n, -1)


def reference_corrupted_orbit(family, word, z, indices, rule, seed):
    """Per-step form: each jump is drawn at its own step, in step order."""
    space = family.space
    d = space.dimension
    rng = np.random.default_rng(seed)
    corrupted = indices.mask()
    points = [reference_orbit(family, word, z, 1)[0].tolist()]
    clamped = []
    for j in range(indices.horizon):
        image = reference_step(family, reference_symbol(word, j), points[-1])
        if not corrupted[j]:
            points.append(image)
            continue
        if rule.kind == "uniform":
            points.append(space.sample(rng).tolist())
            continue
        if rule.kind == "fixed":
            raw = [float(x) for x in rule.point]
        else:
            u = rng.normal(size=d)
            norm = np.linalg.norm(u)
            u = u / norm if norm > 0 else np.eye(d)[0]
            row = u * (rule.scale / (j + 1) ** rule.power)
            raw = [x + y for x, y in zip(image, row.tolist())]
        if space.kind == CIRCLE:
            raw = [raw[0] % 1.0]
        if reference_contains(space, raw):
            points.append(raw)
        else:
            points.append(reference_project(space, raw))
            clamped.append(j)
    return np.array(points, dtype=np.float64), clamped


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except (DomainError, ParameterError) as exc:
        return type(exc), str(exc)


def same_outcome(a, b):
    if a[0] == "ok" and b[0] == "ok":
        return np.array_equal(a[1], b[1])
    return a == b


# ---------------------------------------------------------------------------
# Strategies: self-maps of each space kind, words of every kind, starts


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def vectors(d, lo, hi):
    return st.lists(unit(lo, hi), min_size=d, max_size=d)


def matrices(d, lo, hi):
    return st.lists(vectors(d, lo, hi), min_size=d, max_size=d)


@st.composite
def disk_systems(draw):
    maps = st.one_of(
        st.just(GeneratorMap.identity()),
        st.sampled_from([GeneratorMap.permutation((1, 0)), GeneratorMap.permutation((0, 1))]),
        st.builds(GeneratorMap.scale, vectors(2, -1.0, 1.0)),
        # Frobenius norm <= 0.6 and |offset| <= 0.36, so the disk maps into itself.
        st.builds(GeneratorMap.affine, matrices(2, -0.3, 0.3), vectors(2, -0.25, 0.25)),
    )
    family = GeneratorFamily(MetricSpace.unit_disk(),
                             tuple(draw(st.lists(maps, min_size=1, max_size=3))))
    return family, draw(vectors(2, -0.7, 0.7))


@st.composite
def box_systems(draw):
    d = draw(st.integers(1, 3))
    centred = draw(st.booleans())
    lo = -1.0 if centred else 0.0
    bound = 1.0 / (2 * d)
    maps = st.one_of(
        st.just(GeneratorMap.identity()),
        st.permutations(range(d)).map(GeneratorMap.permutation),
        st.builds(GeneratorMap.scale, vectors(d, lo, 1.0)),
        st.builds(GeneratorMap.affine, matrices(d, lo * bound, bound),
                  vectors(d, lo / 2, 0.5)),
    )
    family = GeneratorFamily(MetricSpace.box([lo] * d, [1.0] * d),
                             tuple(draw(st.lists(maps, min_size=1, max_size=3))))
    return family, draw(vectors(d, lo, 1.0))


@st.composite
def circle_systems(draw):
    maps = st.one_of(
        st.just(GeneratorMap.identity()),
        st.just(GeneratorMap.permutation((0,))),
        st.builds(GeneratorMap.scale, st.integers(-3, 3).map(lambda k: [float(k)])),
        st.builds(GeneratorMap.affine, st.integers(-3, 3).map(lambda k: [[float(k)]]),
                  vectors(1, -2.0, 2.0)),
    )
    family = GeneratorFamily(MetricSpace.circle(),
                             tuple(draw(st.lists(maps, min_size=1, max_size=3))))
    return family, draw(vectors(1, 0.0, 0.999))


systems = st.one_of(disk_systems(), box_systems(), circle_systems())


@st.composite
def words(draw, m, depth=2):
    symbol = st.integers(1, m)
    kinds = ["constant", "periodic", "iid"] + (["prefix"] if depth > 0 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "constant":
        word = Word.constant(draw(symbol), m)
    elif kind == "periodic":
        word = Word.periodic(draw(st.lists(symbol, min_size=1, max_size=5)), m)
    elif kind == "iid":
        weights = draw(st.lists(unit(0.0, 1.0), min_size=m, max_size=m))
        if sum(weights) <= 0:
            weights = [1.0] * m
        word = Word.iid(weights, seed=draw(st.integers(0, 2**40)))
    else:
        # Offsets past the prefix and nested prefix tails are both drawn.
        word = Word("prefix", m, prefix=draw(st.lists(symbol, max_size=6)),
                    tail=draw(words(m, depth - 1)))
    return word.shifted(draw(st.integers(0, 12)))


@st.composite
def system_and_word(draw):
    family, start = draw(systems)
    return family, draw(words(family.m)), start


# ---------------------------------------------------------------------------
# Words


@SETTINGS
@given(st.integers(1, 3).flatmap(words), st.integers(0, 60))
def test_symbols_equal_symbol_at(word, n):
    expected = [reference_symbol(word, j) for j in range(n)]
    symbols = word.symbols(n)
    assert symbols.dtype == np.uint8
    assert np.array_equal(symbols, expected)
    at = [word.symbol_at(j) for j in range(n)]
    assert at == expected and all(type(s) is int for s in at)


@SETTINGS
@given(st.integers(1, 3).flatmap(words), st.lists(st.integers(-2, 80), min_size=1, max_size=6))
def test_symbols_memo_answers_any_query_sequence(word, queries):
    # The word keeps the longest prefix asked for; every answer is the rule's.
    for n in queries:
        symbols = word.symbols(n)
        fresh = dataclasses.replace(word)
        assert np.array_equal(symbols, fresh._base_symbols(fresh.offset, max(n, 0)))
        assert symbols.dtype == np.uint8 and not symbols.flags.writeable
        if n > 0:
            with pytest.raises(ValueError):
                symbols[0] = 1
    assert word == dataclasses.replace(word) and hash(word) == hash(dataclasses.replace(word))


@st.composite
def jump_specs(draw):
    """Jump rule specs of every kind, their numbers integers or floats; an
    offset spec may leave out its scale or its power."""
    number = st.one_of(st.integers(-5, 5), unit(-2.0, 2.0))
    kind = draw(st.sampled_from(["uniform", "fixed", "offset"]))
    if kind == "fixed":
        return {"kind": kind, "point": draw(st.lists(number, min_size=1, max_size=3))}
    if kind == "offset":
        scale = st.one_of(st.integers(1, 5), unit(0.01, 2.0))
        return {"kind": kind, **draw(st.fixed_dictionaries(
            {}, optional={"scale": scale, "power": number}))}
    return {"kind": kind}


@SETTINGS
@given(system_and_word(), jump_specs())
def test_specs_round_trip_through_json(system, jump):
    family, word, _ = system
    rule = JumpRule.from_spec(jump)
    # A rule writes each number it reads as it was given: 5 stays 5, not 5.0.
    unset = {"scale": 1.0, "power": 0.0} if jump["kind"] == "offset" else {}
    assert json.dumps(rule.spec(), sort_keys=True) == json.dumps({**unset, **jump}, sort_keys=True)
    for x in (family, family.space, *family.maps, word, rule):
        assert type(x).from_spec(json.loads(json.dumps(x.spec()))) == x


def test_shifted_words_share_no_symbols_memo():
    word = Word("prefix", 2, prefix=(2, 1, 2), tail=Word.iid((0.3, 0.7), seed=5))
    long = word.symbols(100)
    for k in (0, 1, 7, 150):
        shifted = word.shifted(k)
        assert np.array_equal(shifted.symbols(60), word._base_symbols(k, 60))
        assert not np.shares_memory(shifted.symbols(60), long)
    # The benchmark tracer patches the method on the class.
    assert "symbols" in vars(Word)


def test_iid_symbols_equal_symbol_at_at_scale():
    word = Word.iid((0.2, 0.0, 0.5, 0.3), seed=2**40 + 7).shifted(123_456)
    n = 20_000
    expected = [reference_symbol(word, j) for j in range(n)]
    assert np.array_equal(word.symbols(n), expected)
    assert [word.symbol_at(j) for j in range(n)] == expected


# ---------------------------------------------------------------------------
# Orbits


@SETTINGS
@given(system_and_word(), st.integers(1, 40), st.integers(0, 5))
def test_orbit_matches_apply_loop_bit_for_bit(system, n, shift):
    family, word, start = system
    expected = reference_orbit(family, word.shifted(shift), start, n)
    got = orbit(family, word.shifted(shift), start, n)
    assert got.dtype == np.float64
    assert np.array_equal(got, expected)


SYSTEMS = {UNIT_DISK: disk_systems(), "box": box_systems(), CIRCLE: circle_systems()}
# Walk block sizes that put block edges at jumps, clamps, escapes and the last step.
BLOCK_SIZES = st.sampled_from([1, 2, 3, 7, 64])


@contextlib.contextmanager
def walk_blocks(size):
    """Walks and jump draws run size steps a block inside the context."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "WALK_BLOCK", size)
        patch.setattr(pseudo_orbits, "WALK_BLOCK", size)
        yield


@pytest.mark.parametrize("kind", ["uniform", "fixed", "offset"])
@pytest.mark.parametrize("space", sorted(SYSTEMS))
@settings(max_examples=50, deadline=None)
@given(horizon=st.integers(1, 40), seed=st.integers(0, 2**32), scale=unit(0.01, 2.0),
       power=unit(0.0, 2.0), data=st.data())
def test_corrupted_orbit_matches_per_step_draws(space, kind, horizon, seed, scale, power,
                                                data):
    family, start = data.draw(SYSTEMS[space])
    word = data.draw(words(family.m))
    mask = data.draw(st.lists(st.booleans(), min_size=horizon, max_size=horizon))
    indices = IndexSet.from_mask(np.array(mask, dtype=bool))
    d = family.space.dimension
    point = tuple(data.draw(vectors(d, -1.5, 1.5))) if kind == "fixed" else None
    # Each kind is given only the fields it reads.
    rule = (JumpRule(kind, scale=scale, power=power) if kind == "offset"
            else JumpRule(kind, point=point))
    expected, clamped = reference_corrupted_orbit(family, word, start, indices, rule, seed)
    with walk_blocks(data.draw(BLOCK_SIZES)):
        xi = make_corrupted_orbit(family, word, start, indices, rule, seed)
    assert np.array_equal(xi.points, expected)
    assert xi.meta["clamped_indices"] == clamped


@pytest.mark.parametrize("kind", ["uniform", "fixed", "offset"])
@pytest.mark.parametrize("space", [MetricSpace.unit_disk(), MetricSpace.box([0.0] * 2, [1.0] * 2),
                                   MetricSpace.circle()], ids=lambda s: s.kind)
def test_corrupted_orbit_reference_lands_every_kind(space, kind):
    """Far fixed points and long offsets leave the disk and the box, so those
    jumps are clamped; uniform jumps, and every jump on the circle, which
    wraps, land as drawn."""
    d = space.dimension
    # A map of the circle needs an integer slope.
    factor = -1.0 if space.kind == CIRCLE else 0.5
    family = GeneratorFamily(space, (GeneratorMap.scale([factor] * d),))
    word = Word.constant(1, m=1)
    indices = IndexSet.from_iterable(range(0, 60, 3), 60)
    rule = {"uniform": JumpRule("uniform"), "fixed": JumpRule("fixed", point=(3.0,) * d),
            "offset": JumpRule("offset", scale=3.0)}[kind]
    expected, clamped = reference_corrupted_orbit(family, word, (0.25,) * d, indices, rule, 8)
    xi = make_corrupted_orbit(family, word, (0.25,) * d, indices, rule, 8)
    assert np.array_equal(xi.points, expected)
    assert xi.meta["clamped_indices"] == clamped
    if kind == "uniform" or space.kind == CIRCLE:
        assert clamped == []
    else:
        assert len(clamped) >= len(indices) // 2


def test_corrupted_orbit_matches_per_step_draws_on_decaying_disk():
    family = GeneratorFamily(MetricSpace.unit_disk(), (GeneratorMap.permutation((1, 0)),
                                                       GeneratorMap.scale((0.5, 0.5))))
    word = Word.periodic((1, 2), m=2)
    indices = IndexSet.from_iterable(range(5_000), 5_000)
    rule = JumpRule("offset", scale=1.0, power=0.25)
    expected, clamped = reference_corrupted_orbit(family, word, (0.9, 0.1), indices, rule, 3)
    xi = make_corrupted_orbit(family, word, (0.9, 0.1), indices, rule, 3)
    assert clamped
    assert np.array_equal(xi.points, expected)
    assert xi.meta["clamped_indices"] == clamped


@SETTINGS
@given(unit(0.99999, 1.00001), unit(0.0, 2 * np.pi))
def test_disk_membership_agrees_with_the_documented_expression(radius, angle):
    space = MetricSpace.unit_disk()
    q = np.array([radius * np.cos(angle), radius * np.sin(angle)])
    assert space.contains(q) == reference_contains(space, q.tolist())


# ---------------------------------------------------------------------------
# Error parity


@pytest.mark.parametrize("start", [(0.2, 0.3), (0.6, 0.3)], ids=["image-inside", "image-outside"])
def test_a_word_past_the_familys_maps_is_refused_naming_word_m_before_any_step(start,
                                                                               monkeypatch):
    # One map (scale 2) under a two-letter word, from a start whose first
    # image stays in the box and from one whose first image leaves it: each
    # entry point refuses the word before it steps, so no image is taken.
    from shadowlab import dynamics

    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.scale((2.0, 2.0)),))
    word = Word.periodic((1, 2), m=2)
    points = np.array([start, [0.5, 0.5], [0.25, 0.75]])
    plan = BlockPlan((true_orbit(family, Word.constant(1, 1), (0.1, 0.2), 2),), (1,))
    monkeypatch.setattr(GeneratorFamily, "_walker", lambda *args: pytest.fail("walked"))
    monkeypatch.setattr(GeneratorFamily, "steps", property(lambda self: pytest.fail("stepped")))
    calls = {
        "orbit": lambda: orbit(family, word, start, 6),
        "true_orbit": lambda: true_orbit(family, word, start, 5),
        "make_corrupted_orbit": lambda: make_corrupted_orbit(
            family, word, start, IndexSet.from_iterable([1], 5), JumpRule("uniform"), 0),
        "recompute_step_errors": lambda: recompute_step_errors(family, word, points),
        "PseudoOrbit": lambda: PseudoOrbit(family, word, points),
        "concatenate": lambda: concatenate(plan, word),
        "_walk": lambda: dynamics._walk(family, word, start, 5),
    }
    for name, call in calls.items():
        with pytest.raises(ParameterError, match="the word has 2 symbols, the family 1 maps") \
                as caught:
            call()
        assert caught.value.path == ("word", "m"), name


def test_corrupted_orbit_checks_images_a_jump_replaces():
    # Every image leaves the box; fixed jumps put every stored point back inside.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.scale((3.0,)),))
    word = Word.constant(1, 1)
    indices = IndexSet.from_iterable(range(5), 5)
    with pytest.raises(DomainError, match="outside the space"):
        make_corrupted_orbit(family, word, (0.5,), indices, JumpRule("fixed", point=(0.5,)), 0)


def test_start_outside_space_raises_domain_error():
    family = GeneratorFamily(MetricSpace.unit_disk(), (GeneratorMap.identity(),))
    with pytest.raises(DomainError, match="start"):
        orbit(family, Word.constant(1, 1), (1.0, 1.0), 3)
    with pytest.raises(DomainError, match="start"):
        make_corrupted_orbit(family, Word.constant(1, 1), (1.0, 1.0),
                             IndexSet.from_iterable([0], 3), JumpRule("uniform"), 0)


def test_walk_emits_no_warnings_before_raising():
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]),
                             (GeneratorMap.affine([[1e300]], [0.0]),
                              GeneratorMap.affine([[0.0]], [0.0])))
    word = Word.periodic((1, 1, 1, 2), m=2)
    with np.errstate(all="raise"), pytest.raises(DomainError, match="map 1"):
        orbit(family, word, (0.5,), 200)


# ---------------------------------------------------------------------------
# The compiled step table: each map, membership test and landing is one
# straight-line expression, built once


# Constants and coordinates a step rarely meets: signed zeros, the least
# subnormal, and 1e308, whose products overflow to inf. Constants may be given
# as Python ints.
EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.5, -1.25, 3, -2]


def edge_numbers():
    return st.one_of(st.sampled_from(EDGE), unit(-4.0, 4.0))


@st.composite
def any_maps(draw, d, numbers=edge_numbers()):
    """A map of any kind on d coordinates, its entries drawn from numbers."""
    kind = draw(st.sampled_from(["identity", "permutation", "affine", "scale"]))
    if kind == "identity":
        return GeneratorMap.identity()
    if kind == "permutation":
        return GeneratorMap.permutation(draw(st.permutations(range(d))))
    row = st.lists(numbers, min_size=d, max_size=d)
    if kind == "scale":
        return GeneratorMap.scale(draw(row))
    return GeneratorMap.affine(draw(st.lists(row, min_size=d, max_size=d)), draw(row))


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    any_maps(d), st.lists(st.lists(edge_numbers(), min_size=d, max_size=d),
                          min_size=1, max_size=6))))
def test_compiled_steps_equal_the_reference_map_bit_for_bit(case):
    g, rows = case
    rows = [[float(x) for x in row] for row in rows]
    d = len(rows[0])
    family = GeneratorFamily(MetricSpace.box([-1.0] * d, [1.0] * d), (g,))
    with np.errstate(all="ignore"):
        expected = [reference_map(g, row) for row in rows]
        columns = family.steps[1](tuple(np.array(rows).T))
        assert bits(np.stack(columns, axis=-1)) == bits(expected)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.just(GeneratorMap.identity()), st.just(GeneratorMap.permutation((0,))),
                 st.integers(-3, 3).map(lambda k: GeneratorMap.scale([k])),
                 st.tuples(st.integers(-3, 3), edge_numbers()).map(
                     lambda a: GeneratorMap.affine([[a[0]]], [a[1]]))),
       st.lists(edge_numbers(), min_size=1, max_size=6))
def test_compiled_circle_steps_wrap_the_reference_map(g, xs):
    family = GeneratorFamily(MetricSpace.circle(), (g,))
    xs = [float(x) for x in xs]
    with np.errstate(all="ignore"):
        expected = [reference_map(g, [x])[0] % 1.0 for x in xs]
        assert bits(family.steps[1]((np.array(xs),))[0]) == bits(expected)


def dyadic_numbers():
    """Floats k / 2^e, signed zeros and the least subnormal among them: each
    converts to a Fraction exactly, and no product of two of them overflows."""
    return st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324]),
                     st.builds(math.ldexp, st.integers(-2**30, 2**30), st.integers(-60, 30)))


def exact_affine(x, matrix, offset):
    """matrix x + offset in exact rationals, for x a list of Fractions."""
    return [sum(map(Fraction.__mul__, x, map(Fraction, row)), Fraction(b))
            for row, b in zip(matrix, offset)]


def exact_image(g, x):
    """g(x) in exact rationals, read from g's spec fields, for x a list of Fractions."""
    if g.kind == "identity":
        return x
    if g.kind == "permutation":
        return [x[i] for i in g.perm]
    if g.kind == "scale":
        return [v * Fraction(f) for v, f in zip(x, g.factors)]
    return exact_affine(x, g.matrix, g.offset)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.lists(any_maps(d, dyadic_numbers()), min_size=1, max_size=4),
    st.lists(st.lists(dyadic_numbers(), min_size=d, max_size=d), min_size=1, max_size=4))))
def test_the_affine_normal_form_is_each_maps_exact_image(case):
    # A x + b, in exact rationals, is the map's exact image; the compiled step
    # is that image correctly rounded for the identity, a permutation and a
    # scale map, and within the rounding bound of a left-to-right dot product
    # (d products and d adds, each relative u = 2^-53, plus what underflows)
    # for an affine map.
    maps, points = case
    d = len(points[0])
    family = GeneratorFamily(MetricSpace.box([-1.0] * d, [1.0] * d), tuple(maps))
    assert "affine_parts" not in vars(family)
    A, b = family.affine_parts
    assert A.shape == (family.m + 1, d, d) and b.shape == (family.m + 1, d)
    assert not A.flags.writeable and not b.flags.writeable
    assert A[0].tolist() == np.eye(d).tolist() and b[0].tolist() == [0.0] * d
    gamma = Fraction(d + 1, 2**53 - d - 1)
    for s, g in enumerate((GeneratorMap.identity(), *maps)):
        for p in points:
            x = [Fraction(v) for v in p]
            normal = exact_affine(x, A[s].tolist(), b[s].tolist())
            assert normal == exact_image(g, x)
            step = [x[0] for x in family.steps[s](tuple(np.array([p]).T))]
            if g.kind != "affine":
                assert list(step) == [float(v) for v in normal]
                continue
            for got, exact, row, c in zip(step, normal, A[s].tolist(), b[s].tolist()):
                size = sum(abs(v * Fraction(a)) for v, a in zip(x, row)) + abs(Fraction(c))
                assert abs(Fraction(got) - exact) <= gamma * size + Fraction(d + 1, 2**1074)


@pytest.mark.parametrize("kind", ["fixed", "offset"])
@pytest.mark.parametrize("space", sorted(SYSTEMS))
@settings(max_examples=25, deadline=None)
@given(horizon=st.integers(1, 300), seed=st.integers(0, 2**32), scale=unit(0.01, 3.0),
       power=unit(0.0, 1.0), data=st.data())
def test_a_jump_at_every_step_lands_as_the_reference_lands_it(space, kind, horizon, seed,
                                                             scale, power, data):
    # A scale near 3 or a far fixed point clamps most landings; a small one, none.
    family, start = data.draw(SYSTEMS[space])
    word = data.draw(words(family.m))
    d = family.space.dimension
    rule = (JumpRule("offset", scale=scale, power=power) if kind == "offset"
            else JumpRule("fixed", point=tuple(data.draw(vectors(d, -2.5, 2.5)))))
    indices = IndexSet(np.arange(horizon), horizon)
    expected, clamped = reference_corrupted_orbit(family, word, start, indices, rule, seed)
    xi = make_corrupted_orbit(family, word, start, indices, rule, seed)
    assert xi.points.tobytes() == expected.tobytes()
    assert xi.meta["clamped_indices"] == clamped
    event("clamped" if clamped else "none clamped")


def recorded_compiles(monkeypatch) -> list:
    """The source texts dynamics compiles from now on, its cache emptied so
    that each distinct text is compiled, and recorded, once more."""
    from shadowlab import dynamics

    sources = []

    def recording(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(dynamics, "compile", recording, raising=False)
    dynamics._code.cache_clear()
    return sources


# The names a compiled source may hold besides constants: keywords, the
# function's name, the parameters and locals of a step and a walk, and the
# functions bound by name.
SOURCE_NAMES = {"def", "return", "c", "sqrt", "isfinite", "choose", "enumerate", "for", "in",
                "if", "elif", "else", "not", "and", "pass", "symbols", "at", "points",
                "images", "clamped", "append", "point", "image", "k", "nxt", "j", "j0", "s", "n_"}


def test_compiled_source_names_every_constant(monkeypatch):
    # Recorded where each text is compiled: the step table, the space's
    # membership test and projection on columns, and the generated walk of
    # each landing rule, with the same test and projection inline, on a box,
    # a disk and a circle.
    sources = recorded_compiles(monkeypatch)
    constants = [0.7071067811865476, -0.123456789, 1e-300, 987654321]
    maps = (GeneratorMap.affine([constants[:2], constants[2:]], [0.4142135623730951, 2.5e-7]),
            GeneratorMap.scale([0.3183098861837907, -77.25]), GeneratorMap.permutation((1, 0)))
    space = MetricSpace.box([-0.2718281828459045, -31.5], [1.6180339887498949, 299792458])
    families = [GeneratorFamily(space, maps), GeneratorFamily(MetricSpace.unit_disk(), maps),
                GeneratorFamily(MetricSpace.circle(),
                                (GeneratorMap.affine([[2.0]], [0.5772156649015329]),))]
    for family in families:
        assert family.space.contains((0.5,) * family.space.dimension)
        family.steps[1]((np.full(3, 0.25),) * family.space.dimension)
        for landing in ("target", "offset", "stored"):
            family._walker(landing)
    # A stored walk tests no membership, so the box's and the disk's share a text.
    walks = [source for source in sources if source.startswith("def walk_")]
    assert len(walks) == 8 and len(sources) == 17
    values = [*constants, 0.4142135623730951, 2.5e-7, 0.3183098861837907, -77.25,
              *space.lo, *space.hi, 0.5772156649015329, 2.0,
              *(x - MEMBERSHIP_TOL for x in space.lo), *(x + MEMBERSHIP_TOL for x in space.hi),
              1.0 + MEMBERSHIP_TOL]
    for source in sources:
        assert re.match(r"def ((step_(affine|scale)|(inside|project)_(box_kd|unit_disk_2d|circle_1d))"
                        r"\(c\)|walk_(target|offset|stored)\(symbols)", source)
        for value in values:
            assert repr(value) not in source and repr(float(value)) not in source
        for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source):
            assert name in SOURCE_NAMES or re.fullmatch(
                r"(a\d+_\d+(_\d+)?|[bf]\d+(_\d+)?|c?(lo|hi)\d+|[cQ]\d+|r|step_[a-z]+|walk_[a-z]+"
                r"|(inside|project)_[a-z0-9_]+)",
                name), (name, source)


def test_each_source_text_compiles_once_per_process(monkeypatch):
    # Two disk families that differ only in their constants share every text;
    # each binds its own constants.
    sources = recorded_compiles(monkeypatch)
    word, walked = Word.periodic((1, 2), m=2), []
    for factor in (0.5, 0.25):
        family = GeneratorFamily(MetricSpace.unit_disk(), (GeneratorMap.permutation((1, 0)),
                                                           GeneratorMap.scale([factor] * 2)))
        walked.append(orbit(family, word, (0.5, 0.25), 3))
        corrupted = make_corrupted_orbit(family, word, (0.5, 0.25), IndexSet.from_iterable([1], 2),
                                         JumpRule("fixed", point=(3.0, 0.0)), 0)
        assert corrupted.points[2].tolist() == [1.0, 0.0]
        if factor == 0.5:
            first = len(sources)
    assert len(sources) == first == len(set(sources)) > 0
    assert walked[0][2].tolist() == [0.125, 0.25] and walked[1][2].tolist() == [0.0625, 0.125]


# ---------------------------------------------------------------------------
# The generated walk against the reference loop over the step table


@st.composite
def walk_families(draw):
    """A family of 1 to 4 maps on a box (d <= 3), the disk or the circle, maps
    that may leave the space among them (a factor of 1e300 overflows to inf,
    and then to NaN), and a start of the space (on the circle, any finite
    coordinate). A box bound of 0.0 meets the signed zeros and the tiny
    coordinates that the jumps land."""
    kind = draw(st.sampled_from(["box", UNIT_DISK, CIRCLE]))
    if kind == CIRCLE:
        slope = st.integers(-3, 3).map(float)
        maps = st.one_of(st.just(GeneratorMap.identity()), st.just(GeneratorMap.permutation((0,))),
                         st.builds(lambda k: GeneratorMap.scale([k]), slope),
                         st.builds(lambda k, b: GeneratorMap.affine([[k]], [b]), slope,
                                   unit(-2.0, 2.0)))
        space = MetricSpace.circle()
        start = draw(st.one_of(unit(0.0, 0.999), st.sampled_from([-0.0, 1.5, -2.25])))
        starts = [start]
    else:
        d = 2 if kind == UNIT_DISK else draw(st.integers(1, 3))
        lo, hi = (-0.5, 0.5) if kind == UNIT_DISK else draw(st.sampled_from([(-1.0, 0.5),
                                                                             (0.0, 1.0)]))
        space = MetricSpace.unit_disk() if kind == UNIT_DISK else MetricSpace.box([lo] * d,
                                                                                  [hi] * d)
        factor = st.one_of(unit(-2.5, 2.5), st.sampled_from([1e300, 0.0]))
        maps = st.one_of(st.just(GeneratorMap.identity()),
                         st.permutations(range(d)).map(GeneratorMap.permutation),
                         st.builds(GeneratorMap.scale, st.lists(factor, min_size=d, max_size=d)),
                         st.builds(GeneratorMap.affine, matrices(d, -0.9, 0.9),
                                   vectors(d, -0.4, 0.4)))
        starts = draw(vectors(d, lo, hi))
    family = GeneratorFamily(space, tuple(draw(st.lists(maps, min_size=1, max_size=4))))
    return family, starts


@st.composite
def walk_cases(draw):
    """A family and start, a word over the family's maps (or fewer) and a
    horizon, jumps (none, sparse, or at every step) with rows that often land
    outside the space, a landing rule, and a walk block size so small that
    jumps, clamps, the first image outside and the last step fall on block
    edges."""
    family, start = draw(walk_families())
    d = family.space.dimension
    word = draw(words(draw(st.integers(1, family.m))))
    horizon = draw(st.integers(0, 44))
    spread = draw(st.sampled_from(["none", "sparse", "every", "every"]))
    steps = {"none": [], "every": list(range(horizon)),
             "sparse": sorted(draw(st.sets(st.integers(0, max(horizon - 1, 0)),
                                           max_size=min(horizon, 6))))}[spread]
    reach = draw(st.sampled_from([0.05, 0.5, 3.0]))
    # Far coordinates clamp a target or an offset landing (1e300 overflows the
    # disk norm); those within MEMBERSHIP_TOL of a bound land unclamped.
    coordinate = st.one_of(unit(-reach, reach),
                           st.sampled_from([-0.0, 5e-324, -5e-324, -1e-13, 2.5, -3.0, 1e300,
                                            -1e300]))
    rows = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                         min_size=len(steps), max_size=len(steps)))
    landing = draw(st.sampled_from(["target", "offset", "stored"]))
    return (family, word, start, horizon, (steps, np.array(rows, dtype=np.float64).reshape(-1, d)),
            landing, draw(BLOCK_SIZES))


# A clamp whose other coordinate, -0.0, ties the box's bound 0.0 and goes to it;
# a disk point whose x overflows to inf, then to NaN under a factor 0.0, is
# projected by a NaN norm, which divides by 1.0 and leaves y as it is.
BOX_TIE = (GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                           (GeneratorMap.permutation((1, 0)),)),
           Word.constant(1, 1), [0.5, 0.25], 3, ([1, 2], np.array([[-0.0, 2.5], [3.0, -0.0]])),
           "target", 1)
DISK_NAN = (GeneratorFamily(MetricSpace.unit_disk(), (GeneratorMap.scale([1e300, 1.0]),
                                                      GeneratorMap.scale([0.0, 1.0]))),
            Word.periodic((1, 1, 2, 2), 2), [0.5, 0.25], 4, ([3], np.array([[0.1, 0.1]])),
            "offset", 2)

# The first image outside, under map 2 at step 2, lies in the third one-step
# block, whose first symbol is not the word's.
LATE_ESCAPE = (GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                               (GeneratorMap.permutation((1, 0)), GeneratorMap.scale((3.0, 3.0)))),
               Word.periodic((1, 1, 2), 2), [0.5, 0.25], 5, ([], np.zeros((0, 2))), "target", 1)


@settings(max_examples=400, deadline=None)
@given(walk_cases())
@example(BOX_TIE)
@example(DISK_NAN)
@example(LATE_ESCAPE)
def test_the_generated_walk_equals_the_reference_loop_bit_for_bit(case):
    from shadowlab.dynamics import _walk

    *case, block = case
    family, word, start, horizon, jumps, landing = case
    with walk_blocks(block):
        got = outcome(_walk, *case)
    want = outcome(reference_walk, *case)
    if want[0] == "ok":
        assert got[0] == "ok"
        (points, clamped), (want_points, want_clamped, errors, defects) = got[1], want[1]
        assert bits(points) == bits(want_points)
        assert clamped == want_clamped
        # The walk makes the points; the column pass over them gives the
        # step errors and defects that the reference walk takes at its
        # landing steps. Where a stored walk's points leave the space (an
        # escaping map's point may go NaN, where the pass reads NaN and the
        # reference 0.0), no PseudoOrbit holds them.
        inside = bool(family.space.contains(points).all())
        if inside:
            got_errors, got_defects = pseudo_orbits._column_pass(family, word.symbols(horizon),
                                                                 points)
            assert bits(got_errors) == bits(errors)
            assert got_defects.tolist() == defects
        event(f"{landing}, {'clamped' if clamped else 'none clamped'}, "
              f"{'inside' if inside else 'outside'}")
    else:
        assert got == want
        event(f"{landing}, {want[0].__name__}")
    # The images, which only an error's text shows: the generated loop's own,
    # whether or not the walk raises. A stored walk keeps none.
    symbols, (at, rows) = word.symbols(horizon).tolist(), jumps
    points, images, clamped = family._walker(landing)(symbols, 0, [*at, -1], *rows.T.tolist(),
                                                      *start)
    ref = reference_loop(family, symbols, list(start), at, rows.tolist(), landing)
    assert (bits(points), bits(images), clamped) == (
        bits(ref[0][1:]), bits([] if landing == "stored" else ref[1]), ref[2])


# ---------------------------------------------------------------------------
# The column pass over given points against a reference "stored" walk


@st.composite
def given_points(draw):
    """A family and start (walk_families), a word over its maps, up to 44
    given points after the start and a column block size that puts block
    edges among them. Each point is the image of the one before (stepped one
    point at a time), that image with the sign of each zero coordinate
    flipped, or a drawn row: often outside the space, a signed zero, a
    subnormal, or on the circle a point outside [0, 1)."""
    family, start = draw(walk_families())
    d = family.space.dimension
    word = draw(words(draw(st.integers(1, family.m))))
    coordinate = st.one_of(unit(-1.0, 1.0),
                           st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, -2.25, 1e300]))
    points = [list(start)]
    for s in word.symbols(draw(st.integers(0, 44))).tolist():
        image, kind = reference_image(family, s, points[-1]), draw(st.integers(0, 2))
        points.append(image if kind == 0 else [-x if x == 0.0 else x for x in image] if kind == 1
                      else draw(st.lists(coordinate, min_size=d, max_size=d)))
    return (family, word, np.array(points, dtype=np.float64).reshape(-1, d),
            draw(st.sampled_from([1, 2, 3, 7])))


# A step of x -> 0 x lands -0.0 on the image 0.0, and the next lands 0.0 on
# the image -0.0: two defects of step error 0.0. On the circle, 1.5 lands
# on the image 0.5 (a defect of error 0.0), and its own image, 0.0, is 0.0.
SIGNED_ZEROS = (GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.scale([0.0]),)),
                Word.constant(1, 1), np.array([[0.5], [-0.0], [0.0]]), 2)
CIRCLE_OUTSIDE = (GeneratorFamily(MetricSpace.circle(), (GeneratorMap.scale([2.0]),)),
                  Word.constant(1, 1), np.array([[0.25], [1.5], [0.0]]), 1)
# x -> 2x overflows 1e308 to inf, which then lands on inf twice: no defect,
# and error inf - inf = NaN. With two defects in five steps, the pass takes
# distances only where one can be nonzero, and that includes a non-finite point.
OVERFLOW = (GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.scale([2.0]),)),
            Word.constant(1, 1), np.array([[0.5], [1e308], [np.inf], [np.inf], [0.5], [1.0]]), 7)


@settings(max_examples=200, deadline=None)
@given(given_points())
@example(SIGNED_ZEROS)
@example(CIRCLE_OUTSIDE)
@example(OVERFLOW)
def test_the_column_pass_equals_a_stored_walk_landing_every_point_bit_for_bit(case):
    family, word, points, block = case
    H = len(points) - 1
    _, _, errors, defects = reference_walk(family, word, points[0], H, (range(H), points[1:]),
                                           "stored")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pseudo_orbits, "COLUMN_BLOCK", block)
        got = pseudo_orbits._column_pass(family, word.symbols(H), points)
    assert bits(got[0]) == bits(errors)
    assert got[1].tolist() == defects
    event(f"{family.space.kind}, {'some' if defects else 'no'} defects, "
          f"{'some' if len(defects) < H else 'no'} ordinary steps")


def test_each_producer_makes_one_column_pass_and_builds_one_pseudo_orbit(tmp_path,
                                                                          monkeypatch):
    # A walk makes points only, so every producer takes its step errors and
    # defects from one column pass over them and builds one PseudoOrbit.
    family, word = build_disk_system()
    jump = IndexSet.from_iterable([100], 400), JumpRule("fixed", point=(0.9, 0.0))
    xi = make_corrupted_orbit(family, word, (0.4, 0.4), *jump, seed=0)
    save_orbit(xi, tmp_path / "v2.json")
    save_orbit_v1(xi, tmp_path / "v1.json")
    assert len(repair(xi, 0.5).anchors) == 1
    plan = BlockPlan((true_orbit(family, word, (0.4, 0.4), 20),), (1,))
    producers = {
        "true_orbit": lambda: true_orbit(family, word, (0.4, 0.4), 400),
        "make_corrupted_orbit": lambda: make_corrupted_orbit(family, word, (0.4, 0.4), *jump,
                                                             seed=0),
        "v1 load": lambda: load_orbit(tmp_path / "v1.json"),
        "v2 load": lambda: load_orbit(tmp_path / "v2.json"),
        "repair": lambda: repair(xi, 0.5).y,
        "concatenate": lambda: concatenate(plan, word),
    }
    passes, built, post_init = [], [], PseudoOrbit.__post_init__
    column_pass = pseudo_orbits._column_pass

    def counted_pass(*args):
        passes.append(args)
        return column_pass(*args)

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(pseudo_orbits, "_column_pass", counted_pass)
    monkeypatch.setattr(PseudoOrbit, "__post_init__", counted_post_init)
    for name, produce in producers.items():
        passes.clear()
        built.clear()
        made = produce()
        assert (len(passes), len(built)) == (1, 1), name
        assert built[0] is made, name


# ---------------------------------------------------------------------------
# One entry point per operation: a point or rows


def reference_net(space, mesh):
    """The per-grid-point loop: project, keep within mesh, drop repeated bytes."""
    k = space.dimension
    spacing = min(mesh, 2.0 * mesh / math.sqrt(k))
    axes = []
    for lo, hi in zip(space.lo, space.hi):
        if space.kind == CIRCLE:
            npts = max(1, math.ceil((hi - lo) / spacing))
            axes.append(lo + (hi - lo) * np.arange(npts) / npts)
        else:
            npts = max(2, math.ceil((hi - lo) / spacing) + 1)
            axes.append(np.linspace(lo, hi, npts))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    kept, seen = [], set()
    for g in grid.tolist():
        proj = reference_project(space, g)
        if reference_distance(space, g, proj) > mesh:
            continue
        key = np.array(proj).tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(proj)
    return np.array(kept, dtype=np.float64).reshape(-1, k)


def reference_trace_errors(xi, z):
    """The per-step loop: the candidate stepped as a list of floats, one
    point distance per step."""
    space = xi.family.space
    points = xi.points.tolist()
    p = [float(x) for x in z]
    t = [reference_distance(space, p, points[0])]
    for j in range(xi.horizon):
        p = reference_map(xi.family.maps[reference_symbol(xi.word, j) - 1], p)
        if space.kind == CIRCLE:
            p = [p[0] % 1.0]
        t.append(reference_distance(space, p, points[j + 1]))
    return np.array(t, dtype=np.float64)


@st.composite
def spaces(draw):
    kind = draw(st.sampled_from([UNIT_DISK, CIRCLE, "box"]))
    if kind == UNIT_DISK:
        return MetricSpace.unit_disk(), draw(unit(0.03, 1.5))
    if kind == CIRCLE:
        return MetricSpace.circle(), draw(unit(0.005, 1.5))
    d = draw(st.integers(1, 3))
    lo = draw(vectors(d, -2.0, 1.0))
    hi = [a + w for a, w in zip(lo, draw(vectors(d, 0.1, 2.0)))]
    return MetricSpace.box(lo, hi), draw(unit(0.05 * d, 1.5))


@settings(max_examples=80, deadline=None)
@given(spaces())
def test_net_matches_per_point_loop(space_and_mesh):
    space, mesh = space_and_mesh
    got, expected = net(space, mesh), reference_net(space, mesh)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("lo, hi", [((-0.0,), (1.0,)), ((-1.0,), (-0.0,)),
                                    ((-0.0, 0.0), (1.0, 1.0))])
def test_box_net_and_project_send_signed_zero_ties_to_the_bound(lo, hi):
    # A grid coordinate of 0.0 against a bound of -0.0 is a tie; the per-point
    # loop's clip returns the bound, and so must the rows form.
    space = MetricSpace.box(lo, hi)
    assert net(space, 1.0).tobytes() == reference_net(space, 1.0).tobytes()
    rows = np.zeros((3, len(lo)))
    assert project(space, rows).tobytes() == np.array([project(space, r) for r in rows]).tobytes()


@SETTINGS
@given(system_and_word(), st.integers(2, 40), st.integers(0, 2**32))
def test_trace_report_matches_per_step_loop(system, horizon, seed):
    family, word, start = system
    rng = np.random.default_rng(seed)
    indices = IndexSet.from_mask(rng.random(horizon) < 0.3)
    xi = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed)
    z = family.space.sample(rng)
    report = trace_report(z, xi, eps=0.1)
    assert report.trace_errors.tobytes() == reference_trace_errors(xi, z).tobytes()


def reference_scan(xi, P, eps, tail_fraction):
    """Both objectives, one candidate at a time: over prefix lengths n from
    ceil(tail_fraction * (H + 1)) on, the max of the running means of its
    trace errors t and the min of those of 1[t < eps]."""
    n_lo = max(1, math.ceil(tail_fraction * (xi.horizon + 1)))
    max_mean, min_density = [], []
    for z in P.tolist():
        total, hits, top, bottom = 0.0, 0.0, -math.inf, math.inf
        for n, t in enumerate(reference_trace_errors(xi, z).tolist(), start=1):
            total += t
            hits += t < eps
            if n >= n_lo:
                top, bottom = max(top, total / n), min(bottom, hits / n)
        max_mean.append(top)
        min_density.append(bottom)
    return np.array(max_mean), np.array(min_density)


@SETTINGS
@given(system_and_word(), st.integers(1, 40), st.integers(0, 2**32), unit(0.2, 1.5),
       unit(0.01, 1.0), unit(0.01, 0.99))
def test_scan_matches_two_objective_scan(system, horizon, seed, mesh, eps, tail_fraction):
    family, word, start = system
    rng = np.random.default_rng(seed)
    indices = IndexSet.from_mask(rng.random(horizon) < 0.3)
    xi = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed)
    P = net(family.space, mesh)
    max_mean, min_density = reference_scan(xi, P, eps, tail_fraction)
    for objective, oracle, pick in ((LIMSUP, max_mean, np.argmin),
                                    (HIT_DENSITY, min_density, np.argmax)):
        assert full_scan(xi, P, objective, eps, tail_fraction).tobytes() == oracle.tobytes()
        z, index, value, size, _ = _net_pick(xi, objective, eps, mesh, tail_fraction)
        assert index == int(pick(oracle))
        assert z.tobytes() == P[index].tobytes()
        assert value == float(oracle[index]) and size == len(P)


def reference_refined(xi, eps0, meshes, tail_fraction):
    """The refined search as one net and one scan per stage, stopping at the
    first stage whose estimate is not below its budget eps0 / 2^m."""
    stages, candidates = [], []
    for m, mesh in enumerate(meshes, start=1):
        budget = math.ldexp(eps0, -m)
        points = net(xi.family.space, mesh)
        values = full_scan(xi, points, LIMSUP, budget, tail_fraction)
        best = int(np.argmin(values))
        z, estimate = points[best], float(values[best])
        ok = estimate < budget
        stages.append({"stage": m, "mesh": mesh, "budget": budget, "estimate": estimate,
                       "candidate": z.tolist(), "net_size": len(points), "success": ok})
        candidates.append(z)
        if not ok:
            break
    failed_stage = None if ok else m
    final = candidates[-2] if failed_stage and failed_stage > 1 else candidates[-1]
    return {"candidate": final.tolist(), "stages": stages,
            "candidate_distances": [xi.family.space.distance(a, b)
                                    for a, b in zip(candidates, candidates[1:])],
            "failed_stage": failed_stage, "succeeded": failed_stage is None}


def eps0_failing_at(estimates, stage):
    """An eps0 under which stages with these limsup estimates first fail at
    stage (None: every stage succeeds), or None when no eps0 does. Stage m
    succeeds iff estimates[m-1] * 2^m < eps0; the eps0 returned for a failing
    stage puts its budget exactly on its estimate."""
    scaled = [math.ldexp(e, m) for m, e in enumerate(estimates, start=1)]
    if stage is None:
        return 2.0 * max(scaled) + 1.0
    target = scaled[stage - 1]
    return target if target > max([0.0, *scaled[:stage - 1]]) else None


@st.composite
def refined_cases(draw):
    """A system and word, a horizon, a seed, a non-increasing mesh schedule
    (sometimes one mesh repeated) with small nets, a tail fraction and the
    stage meant to fail first (None: none)."""
    family, word, start = draw(system_and_word())
    space = family.space
    lo = {UNIT_DISK: 0.1, CIRCLE: 0.01}.get(space.kind, 0.1 * space.dimension)
    count = draw(st.integers(1, 4))
    if draw(st.booleans()):
        meshes = [draw(unit(lo, 1.0))] * count
    else:
        meshes = sorted(draw(st.lists(unit(lo, 1.0), min_size=count, max_size=count)),
                        reverse=True)
    stage = draw(st.one_of(st.none(), st.integers(1, min(count, 2))))
    return (family, word, start, draw(st.integers(1, 30)), draw(st.integers(0, 2**32)),
            meshes, draw(unit(0.01, 0.99)), stage)


def refined_bytes(result):
    return json.dumps(result, sort_keys=True, default=json_default).encode()


@SETTINGS
@given(refined_cases())
def test_refined_search_matches_per_stage_loop(case):
    family, word, start, horizon, seed, meshes, tail_fraction, stage = case
    rng = np.random.default_rng(seed)
    indices = IndexSet.from_mask(rng.random(horizon) < 0.3)
    xi = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed)
    estimates = [float(full_scan(xi, net(family.space, mesh), LIMSUP, 1.0, tail_fraction).min())
                 for mesh in meshes]
    eps0 = eps0_failing_at(estimates, stage)
    assume(eps0 is not None)
    if math.ldexp(eps0, -len(meshes)) == 0.0:
        # A subnormal estimate can make the last budget underflow to 0.
        with pytest.raises(ParameterError):
            refined_asymptotic_search(xi, eps0, meshes, tail_fraction)
        return
    expected = reference_refined(xi, eps0, meshes, tail_fraction)
    assert expected["failed_stage"] == stage
    got = refined_asymptotic_search(xi, eps0, meshes, tail_fraction).to_dict()
    assert refined_bytes(got) == refined_bytes(expected)


@pytest.mark.parametrize("stage", [None, 1, 2])
@pytest.mark.parametrize("space, meshes", [
    (MetricSpace.unit_disk(), [0.2, 0.2, 0.2]),
    (MetricSpace.unit_disk(), [0.3, 0.17, 0.11]),
    (MetricSpace.circle(), [0.05, 0.03, 0.02]),
    (MetricSpace.box([0.0, 0.0], [1.0, 1.0]), [0.3, 0.3, 0.13]),
])
def test_refined_search_matches_per_stage_loop_at_each_outcome(space, meshes, stage):
    d = space.dimension
    if space.kind == CIRCLE:
        maps = (GeneratorMap.affine([[1.0]], [0.3137]), GeneratorMap.scale([2.0]))
    else:
        maps = (GeneratorMap.scale([0.5] * d),
                GeneratorMap.affine((0.5 * np.eye(d)).tolist(), [0.25] * d))
    family = GeneratorFamily(space, maps)
    start = [0.4] * d
    indices = IndexSet.from_iterable(range(0, 40, 3), 40)
    xi = make_corrupted_orbit(family, Word.periodic([1, 2, 2], 2), start, indices,
                              JumpRule("uniform"), seed=11)
    estimates = [float(full_scan(xi, net(space, mesh), LIMSUP, 1.0, 0.5).min())
                 for mesh in meshes]
    eps0 = eps0_failing_at(estimates, stage)
    expected = reference_refined(xi, eps0, meshes, 0.5)
    assert expected["failed_stage"] == stage
    got = refined_asymptotic_search(xi, eps0, meshes).to_dict()
    assert refined_bytes(got) == refined_bytes(expected)


@SETTINGS
@given(system_and_word(), st.integers(1, 8), st.integers(0, 2**32))
def test_projected_rows_equal_the_reference_projection(system, n, seed):
    family, _, _ = system
    space = family.space
    d = space.dimension
    P = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, d))
    for p, row in zip(P, project(space, P)):
        assert row.tobytes() == np.array(reference_project(space, p.tolist())).tobytes()


@SETTINGS
@given(st.lists(st.tuples(unit(1.0 - 1e-11, 1.0 + 3e-12), unit(0.0, 2 * np.pi)),
                min_size=1, max_size=8))
def test_disk_contains_point_and_rows_agree_on_the_boundary(polar):
    space = MetricSpace.unit_disk()
    P = np.array([(r * np.cos(a), r * np.sin(a)) for r, a in polar])
    for p, inside in zip(P, space.contains(P)):
        assert space.contains(p) == inside == reference_contains(space, p.tolist())


@SETTINGS
@given(system_and_word(), st.integers(1, 8), st.integers(0, 2**32))
def test_point_and_rows_agree_for_contains_and_distance(system, n, seed):
    family, _, _ = system
    space = family.space
    rng = np.random.default_rng(seed)
    P = rng.uniform(-1.5, 1.5, size=(n, space.dimension))
    Q = np.array([space.sample(rng) for _ in range(n)])
    for p, inside in zip(P, space.contains(P)):
        assert space.contains(p) == inside == reference_contains(space, p.tolist())
    for p, q, row in zip(P, Q, space.distance(P, Q)):
        point = space.distance(p, q)
        assert isinstance(point, float)
        assert point == row == reference_distance(space, p.tolist(), q.tolist())


# Coordinates whose float arithmetic overflows (1e200 squared), is invalid
# (inf % 1.0 and inf - inf are NaN) or carries a NaN.
FAR = [math.inf, -math.inf, math.nan, 1e200, -1e200]


@SETTINGS
@given(systems, st.data())
def test_a_point_is_one_row_of_contains_and_distance_and_warns_of_nothing(system, data):
    # The Python bool and float of a point are the one-row column results, bit
    # for bit, and they raise nothing under np.errstate(all="raise").
    family, _ = system
    space = family.space
    coordinate = st.one_of(st.sampled_from(FAR), unit(-1.5, 1.5))
    p, q = (data.draw(st.lists(coordinate, min_size=space.dimension,
                               max_size=space.dimension)) for _ in range(2))
    with np.errstate(all="ignore"):
        inside = space._inside(tuple(np.array([p]).T))
        row = space._distance(tuple(np.array([p]).T), tuple(np.array([q]).T))
    with np.errstate(all="raise"):
        point_inside, point_distance = space.contains(p), space.distance(p, q)
        rows_inside, rows_distance = space.contains([p]), space.distance([p], q)
    assert type(point_inside) is bool and point_inside == bool(inside[0])
    assert type(point_distance) is float and bits(point_distance) == bits(row)
    assert rows_inside.tolist() == inside.tolist() and bits(rows_distance) == bits(row)
    assert point_inside == reference_contains(space, p)


# ---------------------------------------------------------------------------
# One rounding rule: a step rounds the same on a point and in any group of rows


@SETTINGS
@given(system_and_word(), st.integers(1, 40))
def test_true_orbit_recomputes_to_zero_step_errors(system, horizon):
    family, word, start = system
    xi = true_orbit(family, word, start, horizon)
    assert xi.step_errors.tobytes() == np.zeros(horizon).tobytes()


@SETTINGS
@given(system_and_word(), st.integers(2, 40), st.integers(0, 2**32), st.data())
def test_step_errors_of_slices_concatenate_bit_for_bit(system, horizon, seed, data):
    """Each slice x_a..x_b, recomputed under the word shifted by a, gives
    exactly the steps a..b-1 of the whole sequence's step errors."""
    family, word, start = system
    indices = IndexSet.from_mask(np.random.default_rng(seed).random(horizon) < 0.3)
    points = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed).points
    cuts = sorted(data.draw(st.sets(st.integers(1, horizon - 1))))
    bounds = [0, *cuts, horizon]
    pieces = [recompute_step_errors(family, word.shifted(a), points[a:b + 1])
              for a, b in zip(bounds, bounds[1:])]
    whole = recompute_step_errors(family, word, points)
    assert np.concatenate(pieces).tobytes() == whole.tobytes()


@SETTINGS
@given(system_and_word(), st.integers(1, 40), st.integers(0, 2**32), unit(0.2, 1.5),
       unit(0.01, 1.0), unit(0.01, 0.99))
def test_scan_objective_equals_report_value(system, horizon, seed, mesh, eps, tail_fraction):
    family, word, start = system
    indices = IndexSet.from_mask(np.random.default_rng(seed).random(horizon) < 0.3)
    xi = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed)
    average = average_shadow_search(xi, eps, mesh, tail_fraction)
    assert average.params["scan_objective"] == average.report.limsup_estimate
    m_alpha = m_alpha_shadow_search(xi, eps, 0.5, mesh, tail_fraction)
    assert m_alpha.params["scan_objective"] == m_alpha.report.hit_lower_density


# ---------------------------------------------------------------------------
# Pruned net scans: every net's pick is the one of the full scan


def full_scan(xi, P, objective, eps, tail_fraction):
    """_scan with its first checkpoint past the horizon: it walks nothing,
    drops nothing and steps every column to the end."""
    with mock.patch.object(shadow_search, "FIRST_CHECKPOINT", xi.horizon + 2):
        values, t = _scan(xi, P, objective, eps, tail_fraction)
    assert t is None
    return values


def net_picks(xi, objective, eps, meshes, tail_fraction):
    """_net_pick for each mesh: the point, its index, its value and the net size."""
    return [_net_pick(xi, objective, eps, mesh, tail_fraction)[:4] for mesh in meshes]


def full_scan_picks(xi, objective, eps, meshes, tail_fraction):
    """Each mesh's net scanned alone and in full, then argmin (LIMSUP) or
    argmax (HIT_DENSITY): the point, its index, its value and the net size."""
    pick = np.argmax if objective == HIT_DENSITY else np.argmin
    picks = []
    for mesh in meshes:
        P = net(xi.family.space, mesh)
        values = full_scan(xi, P, objective, eps, tail_fraction)
        best = int(pick(values))
        picks.append((P[best], best, float(values[best]), len(P)))
    return picks


def pick_bytes(picks):
    return [(z.tobytes(), index, np.float64(value).tobytes(), size)
            for z, index, value, size in picks]


@st.composite
def pruning_cases(draw):
    """A system and word, a horizon on either side of the first checkpoint, a
    seed, a schedule of overlapping and sometimes repeated meshes, eps (at
    times exactly a trace error of a net point), a tail fraction and a first
    checkpoint (sometimes past the horizon)."""
    family, word, start = draw(system_and_word())
    space = family.space
    lo = {UNIT_DISK: 0.1, CIRCLE: 0.01}.get(space.kind, 0.1 * space.dimension)
    meshes = draw(st.lists(unit(lo, 1.0), min_size=1, max_size=3))
    if draw(st.booleans()):
        meshes.append(draw(st.sampled_from(meshes)))
    return (family, word, start, draw(st.integers(1, 80)), draw(st.integers(0, 2**32)),
            meshes, draw(unit(0.01, 1.0)), draw(st.booleans()), draw(unit(0.01, 0.99)),
            draw(st.sampled_from([1, 2, 16, 10**6])))


@SETTINGS
@given(pruning_cases(), st.data())
def test_pruned_scan_picks_what_the_full_scan_picks(case, data):
    family, word, start, horizon, seed, meshes, eps, on_value, tail_fraction, first = case
    rng = np.random.default_rng(seed)
    indices = IndexSet.from_mask(rng.random(horizon) < 0.3)
    xi = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed)
    if on_value:
        z = data.draw(st.sampled_from(net(family.space, meshes[0]).tolist()))
        t = trace_report(z, xi, 1.0).trace_errors
        eps = float(t[data.draw(st.integers(0, horizon))]) or eps
    for objective in (LIMSUP, HIT_DENSITY):
        expected = full_scan_picks(xi, objective, eps, meshes, tail_fraction)
        with mock.patch.object(shadow_search, "FIRST_CHECKPOINT", first):
            got = [_net_pick(xi, objective, eps, mesh, tail_fraction) for mesh in meshes]
        assert pick_bytes([pick[:4] for pick in got]) == pick_bytes(expected)
        # A pick the scan walked carries its walk's trace errors.
        for z, _, _, _, t in got:
            assert t is None or t.tobytes() == trace_report(z, xi, eps).trace_errors.tobytes()


def test_pruned_scan_keeps_a_later_row_that_ties_the_lowest_index_minimiser():
    # At n = 16 the row 0.5 tracks exactly and becomes the incumbent; from
    # n = 32 on the rows 0.25 and 0.5 have the same sums, so both end at
    # exactly 0.125, and the pick is the lower index, 0.25.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.identity(),))
    points = np.array([0.5] * 16 + [0.25] * 16 + [0.375] * 168)[:, None]
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), points)
    P = net(family.space, 0.25)
    assert P.ravel().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    pruned, t = _scan(xi, P, LIMSUP, 0.2, 0.5)
    assert pruned.tolist() == [math.inf, 0.125, 0.125, math.inf, math.inf]
    # The walked incumbent, 0.5, is not the pick, so no trace comes back.
    assert t is None
    expected = full_scan_picks(xi, LIMSUP, 0.2, [0.25, 0.25], 0.5)
    got = net_picks(xi, LIMSUP, 0.2, [0.25, 0.25], 0.5)
    assert pick_bytes(got) == pick_bytes(expected)
    assert [index for _, index, _, _ in got] == [1, 1]


def test_a_point_of_two_stage_nets_is_judged_in_each_net_alone():
    # 0.5 lies in both nets. Against a constant 0.3 it is the best point of
    # the 0.5 net, whose scan walks it and keeps it, while the scan of the
    # 0.25 net finds 0.25 better and drops 0.5.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.identity(),))
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), np.full((100, 1), 0.3))
    coarse, fine = (net(family.space, mesh) for mesh in (0.5, 0.25))
    assert [coarse.ravel().tolist(), fine.ravel().tolist()] == [[0.0, 0.5, 1.0],
                                                                [0.0, 0.25, 0.5, 0.75, 1.0]]
    kept, t = _scan(xi, coarse, LIMSUP, 0.2, 0.5)
    assert kept[1] == full_scan(xi, coarse, LIMSUP, 0.2, 0.5)[1] == kept.min()
    assert t.tobytes() == trace_report(coarse[1], xi, 0.2).trace_errors.tobytes()
    dropped, _ = _scan(xi, fine, LIMSUP, 0.2, 0.5)
    assert dropped[2] == math.inf and full_scan(xi, fine, LIMSUP, 0.2, 0.5)[2] == kept[1]
    got = net_picks(xi, LIMSUP, 0.2, [0.5, 0.25], 0.5)
    assert pick_bytes(got) == pick_bytes(full_scan_picks(xi, LIMSUP, 0.2, [0.5, 0.25], 0.5))
    assert [z.tolist() for z, _, _, _ in got] == [[0.5], [0.25]]


@pytest.mark.parametrize("matrix, horizon", [
    # x grows 4-fold per step and overflows after about 512 steps, long
    # after the first checkpoints; the zero entry then turns y into NaN.
    ([[4.0, 0.0], [0.0, 0.5]], 600),
    # x overflows at the second step, before the first checkpoint.
    ([[1e300, 0.0], [0.0, 0.5]], 40),
])
def test_nan_objectives_are_never_dropped(matrix, horizon):
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.affine(matrix, [0.0, 0.0]),))
    xi = true_orbit(family, Word.constant(1, 1), (0.0, 0.8), horizon)
    expected = full_scan_picks(xi, LIMSUP, 0.2, [0.25, 0.25], 0.5)
    got = net_picks(xi, LIMSUP, 0.2, [0.25, 0.25], 0.5)
    assert pick_bytes(got) == pick_bytes(expected)
    # argmin returns the first NaN, the first row that leaves the box.
    z, index, value, _ = got[0]
    assert math.isnan(value) and z.tolist() == [0.25, 0.0]
    with pytest.raises(DomainError) as caught:
        average_shadow_search(xi, 0.2, 0.25)
    with pytest.raises(DomainError) as walked:
        trace_report(z, xi, 0.2)
    assert str(caught.value) == str(walked.value)


def test_a_net_whose_incumbent_leaves_the_space_is_scanned_in_full(monkeypatch):
    # z -> p + 0.9 R (z - p), with R the quarter turn and p = (0.1, 0.5), has
    # the norm bound 0.9 and fixes p, but sends (1, 1) to (-0.35, 1.31). The
    # pseudo-orbit starts at (1, 1) and then stays at p, so at the checkpoint
    # n = 1 the incumbent is (1, 1), whose walk leaves the box; p stays and is
    # the pick.
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.affine([[0.0, -0.9], [0.9, 0.0]], [0.55, 0.41]),))
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), [[1.0, 1.0]] + [[0.1, 0.5]] * 40)
    P = net(family.space, 0.1)
    with pytest.raises(DomainError):
        orbit(family, xi.word, (1.0, 1.0), xi.horizon + 1)
    monkeypatch.setattr(shadow_search, "FIRST_CHECKPOINT", 1)
    full = full_scan(xi, P, LIMSUP, 0.2, 0.5)
    steps = scan_steps(monkeypatch)
    values, t = _scan(xi, P, LIMSUP, 0.2, 0.5)
    assert values.tobytes() == full.tobytes() and t is None
    assert steps == [len(P)] * (xi.horizon + 1)
    meshes = [0.2, 0.1]
    got = net_picks(xi, LIMSUP, 0.2, meshes, 0.5)
    assert pick_bytes(got) == pick_bytes(full_scan_picks(xi, LIMSUP, 0.2, meshes, 0.5))
    assert got[1][0].tolist() == [0.1, 0.5]
    refined = refined_asymptotic_search(xi, 0.1, meshes).to_dict()
    assert refined_bytes(refined) == refined_bytes(reference_refined(xi, 0.1, meshes, 0.5))
    assert average_shadow_search(xi, 0.2, 0.1).report.candidate.tolist() == [0.1, 0.5]
    # Every point of a translation leaves the box; the search raises as the
    # full scan's pick does.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]),
                             (GeneratorMap.affine([[1.0]], [0.01]),))
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), np.full((200, 1), 0.95))
    z = full_scan_picks(xi, LIMSUP, 0.2, [0.1], 0.5)[0][0]
    with pytest.raises(DomainError) as caught:
        average_shadow_search(xi, 0.2, 0.1)
    with pytest.raises(DomainError) as walked:
        trace_report(z, xi, 0.2)
    assert str(caught.value) == str(walked.value)


def scan_steps(monkeypatch):
    """The widths of the scan's steps: each measures the live columns against
    one orbit point, in a list that grows as scans run."""
    steps = []
    distance = MetricSpace._distance

    def counting(self, a, b):
        if sys._getframe(1).f_code.co_name == "_scan":
            steps.append(len(a[0]))
        return distance(self, a, b)

    monkeypatch.setattr(MetricSpace, "_distance", counting)
    return steps


def test_refined_scan_of_a_decaying_disk_ends_with_under_one_percent_live(monkeypatch):
    # The decaying disk instance of the benchmark's refined search: horizon
    # 2 000, every step displaced by 1/(j+1)^2, meshes 0.1 / 0.05 / 0.025.
    family, word = build_disk_system()
    indices = IndexSet.from_iterable(range(2000), 2000)
    xi = make_corrupted_orbit(family, word, (0.5, 0.5), indices,
                              JumpRule("offset", scale=1.0, power=2.0), seed=3)
    nets = [net(family.space, mesh) for mesh in (0.1, 0.05, 0.025)]
    assert [len(P) for P in nets] == [373, 1369, 5253]
    full = [full_scan(xi, P, LIMSUP, 0.4, 0.5) for P in nets]
    steps = scan_steps(monkeypatch)
    assert refined_asymptotic_search(xi, 0.4, [0.1, 0.05, 0.025]).succeeded
    # Each stage net is scanned alone, and each scan stops at its first
    # checkpoint with one live column, its walked incumbent and pick.
    first = shadow_search.FIRST_CHECKPOINT
    assert steps == [373] * first + [1369] * first + [5253] * first
    for P, expected in zip(nets, full):
        values, t = _scan(xi, P, LIMSUP, 0.4, 0.5)
        live = np.flatnonzero(values < math.inf)
        assert live.tolist() == [np.argmin(expected)] and len(live) < 0.01 * len(P)
        assert values[live[0]] == expected.min()
        assert t.tobytes() == trace_report(P[live[0]], xi, 0.4).trace_errors.tobytes()


# ---------------------------------------------------------------------------
# Lipschitz dominance: on contracting words the scan ends at a checkpoint


def is_monomial(A) -> bool:
    """At most one nonzero entry in each row and each column of A."""
    nonzero = np.asarray(A) != 0
    return bool((nonzero.sum(axis=0) <= 1).all() and (nonzero.sum(axis=1) <= 1).all())


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(matrices(d, -3.0, 3.0),
                                                     st.permutations(range(d)))))
def test_symbol_norms_bound_the_operator_norm(case):
    matrix, perm = case
    d = len(matrix)
    A = np.array(matrix)
    # An affine monomial matrix: A's diagonal, each entry moved to column perm[i].
    M = np.zeros((d, d))
    M[range(d), perm] = np.diag(A)
    family = GeneratorFamily(MetricSpace.box([0.0] * d, [1.0] * d), (
        GeneratorMap.affine(matrix, [0.0] * d), GeneratorMap.scale(np.diag(A).tolist()),
        GeneratorMap.permutation(range(d)), GeneratorMap.affine(M.tolist(), [0.0] * d)))
    norms, offsets = shadow_search._symbol_norms(family)
    assert norms[0] == norms[3] == 1.0 and offsets.tolist() == [0.0] * 5
    # A monomial matrix P D has 2-norm max |d_i|, which its bound equals exactly.
    assert norms[1] == np.abs(A).max() if is_monomial(A) else norms[1] >= np.linalg.norm(A, 2)
    assert norms[2] == norms[4] == np.abs(np.diag(A)).max()
    assert norms[2] >= np.linalg.norm(np.diag(np.diag(A)), 2)


def test_symbol_norm_of_a_non_normal_matrix():
    # [[0.5, 0.4], [0, 0.5]] has spectral radius 0.5 but 2-norm 0.7385: a
    # bound on its eigenvalues would not bound how far it moves two points
    # apart. The bound is sqrt(0.61) = 0.781, and the offset's norm is read too.
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.affine([[0.5, 0.4], [0.0, 0.5]], [0.03, 0.04]),))
    norms, offsets = shadow_search._symbol_norms(family)
    assert np.linalg.norm([[0.5, 0.4], [0.0, 0.5]], 2) <= norms[1] <= math.sqrt(0.61) * 1.001
    assert offsets[1] == 0.05


def gram_bound(A) -> float:
    """The documented Gram bound of a non-monomial A, from the broadcast A^T A."""
    return (np.sqrt(np.abs(broadcast_gram(A)).sum(axis=1).max()) * (1 + 2.0 ** -40)
            + shadow_search._TINY)


def affine_family(A) -> GeneratorFamily:
    """One affine map x -> A x on the unit box of A's dimension."""
    d = len(A)
    return GeneratorFamily(MetricSpace.box([0.0] * d, [1.0] * d),
                           (GeneratorMap.affine(np.asarray(A).tolist(), [0.0] * d),))


# Entries from 1e-150 to 1e150 in size, so that the order of the Gram sums
# shows, some products underflow and some sums overflow to inf.
wide_entries = st.one_of(unit(-3.0, 3.0), st.floats(-1e150, 1e150, allow_nan=False),
                         st.sampled_from([0.0, 1e-150, -1e-150]))


@SETTINGS
@given(st.integers(1, 24).flatmap(lambda d: arrays(np.float64, (d, d), elements=wide_entries)))
def test_row_at_a_time_gram_bound_equals_the_broadcast_one(A):
    assume(not is_monomial(A))
    with np.errstate(all="ignore"):
        expected = gram_bound(A)
    np.testing.assert_array_equal(shadow_search._symbol_norms(affine_family(A))[0][1], expected)


def test_gram_bound_takes_quadratic_memory():
    # The d x d x d product array took a 26 MiB tracemalloc peak at d = 150.
    d = 150
    rng = np.random.default_rng(150)
    A = rng.standard_normal((d, d)) * np.exp(rng.uniform(-20.0, 20.0, (d, d)))
    family = affine_family(A)
    family.affine_parts
    tracemalloc.start()
    try:
        norms, _ = shadow_search._symbol_norms(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert norms[1] == gram_bound(A)


@SETTINGS
@given(st.one_of(disk_systems(), box_systems()).flatmap(
    lambda system: st.tuples(st.just(system), words(system[0].m))),
    st.integers(1, 40), st.integers(0, 2**32), unit(0.2, 1.0), st.data())
def test_trace_gap_bound_covers_every_float_trace(system, horizon, seed, mesh, data):
    """|t_j(z) - t*_j| <= alpha_j D + beta_j for every net point z, incumbent
    z* and checkpoint n, with t the walked float traces and D the float
    distance of their points after n - 1 steps."""
    (family, start), word = system
    indices = IndexSet.from_mask(np.random.default_rng(seed).random(horizon) < 0.3)
    xi = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed)
    P = net(family.space, mesh)
    assert_gap_bound_holds(xi, P, data.draw(st.integers(0, len(P) - 1)),
                           data.draw(st.integers(1, horizon + 1)))


def assert_gap_bound_holds(xi, P, row, n):
    family, word, horizon = xi.family, xi.word, xi.horizon
    space = family.space
    norms, offsets = shadow_search._symbol_norms(family)
    symbols = word.symbols(horizon)
    g = norms[symbols]
    assert np.all(g <= 1.0)
    inc = shadow_search._walk_row(xi, P, row, False, 0.5, 0.5)
    alpha, beta, _ = shadow_search._trace_gap_bound(g, inc, n, offsets[symbols].max(initial=0.0))
    for z in P:
        points = orbit(family, word, z, horizon + 1)
        gap = space.distance(points[n - 1], inc.points[n - 1])
        t = space.distance(points, xi.points)
        assert np.all(np.abs(t[n:] - inc.trace[n:]) <= alpha * gap + beta)


def test_trace_gap_bound_covers_distances_whose_squares_underflow():
    # Under x -> 1.6e-158 x the trace error of 1 after one step is a distance
    # whose square is subnormal: its float value is off by about 1e-8 of
    # itself, far more than one rounding.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]),
                             (GeneratorMap.scale([1.6251689249365563e-158]),))
    xi = true_orbit(family, Word.constant(1, 1), (0.0,), 1)
    assert_gap_bound_holds(xi, np.array([[0.0], [1.0]]), 0, 1)


@st.composite
def monomial_systems(draw):
    """One to three affine maps with monomial matrices (a permutation of a
    signed diagonal, entries at most c <= 1 in size) and offsets at most
    (1 - c) / 2 in each coordinate, which map the disk or the box [-1, 1]^d
    (d = 1-3) into itself, and a start."""
    disk = draw(st.booleans())
    d = 2 if disk else draw(st.integers(1, 3))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.one_of(st.sampled_from([1.0, 0.5]), unit(0.0, 1.0)))
        M = np.zeros((d, d))
        M[range(d), draw(st.permutations(range(d)))] = draw(vectors(d, -c, c))
        maps.append(GeneratorMap.affine(M.tolist(), draw(vectors(d, (c - 1) / 2, (1 - c) / 2))))
    space = MetricSpace.unit_disk() if disk else MetricSpace.box([-1.0] * d, [1.0] * d)
    return GeneratorFamily(space, tuple(maps)), draw(vectors(d, -0.7, 0.7))


@st.composite
def contracting_systems(draw):
    """One to three affine maps of norm bound at most 1 that map a box
    (d = 1-3, [0, 1]^d or [-1, 1]^d) or the disk into itself, and a start;
    one draw in three, monomial ones (monomial_systems)."""
    if draw(st.integers(0, 2)) == 0:
        return draw(monomial_systems())
    if draw(st.booleans()):
        space = MetricSpace.unit_disk()
        maps = st.builds(GeneratorMap.affine, matrices(2, -0.6, 0.6), vectors(2, -0.15, 0.15))
        family = GeneratorFamily(space, tuple(draw(st.lists(maps, min_size=1, max_size=3))))
        assume(all(abs(np.linalg.eigvals(np.array(f.matrix))).max() < 1 for f in family.maps))
        # |A z + b| <= ||A||_2 + |b| <= 0.85 + 0.15 on the unit disk.
        assume(shadow_search._symbol_norms(family)[0].max() <= 0.85)
        return family, draw(vectors(2, -0.7, 0.7))
    d = draw(st.integers(1, 3))
    lo = draw(st.sampled_from([0.0, -1.0]))
    bound = 0.95 / d
    maps = st.builds(GeneratorMap.affine, matrices(d, lo * bound, bound),
                     vectors(d, lo * 0.025, 0.025))
    family = GeneratorFamily(MetricSpace.box([lo] * d, [1.0] * d),
                             tuple(draw(st.lists(maps, min_size=1, max_size=3))))
    assume(shadow_search._symbol_norms(family)[0].max() <= 1.0)
    return family, draw(vectors(d, lo, 1.0))


@SETTINGS
@given(contracting_systems().flatmap(
    lambda system: st.tuples(st.just(system), words(system[0].m))),
    st.integers(1, 300), st.integers(0, 2**32), unit(0.2, 1.0), unit(0.01, 1.0),
    st.booleans(), unit(0.05, 0.95), st.sampled_from([1, 2, 16]), st.data())
def test_dominance_picks_what_the_full_scan_picks(system, horizon, seed, mesh, eps, on_value,
                                                  tail_fraction, first, data):
    (family, start), word = system
    rng = np.random.default_rng(seed)
    indices = IndexSet.from_mask(rng.random(horizon) < 0.2)
    xi = make_corrupted_orbit(family, word, start, indices, JumpRule("uniform"), seed)
    P = net(family.space, mesh)
    if on_value:
        # eps exactly a trace error of a net point: a tie at eps.
        t = trace_report(P[data.draw(st.integers(0, len(P) - 1))], xi, 1.0).trace_errors
        eps = float(t[data.draw(st.integers(0, horizon))]) or eps
    for objective, pick, dropped in ((LIMSUP, np.argmin, math.inf),
                                     (HIT_DENSITY, np.argmax, -math.inf)):
        full = full_scan(xi, P, objective, eps, tail_fraction)
        with mock.patch.object(shadow_search, "FIRST_CHECKPOINT", first):
            pruned, t = _scan(xi, P, objective, eps, tail_fraction)
        # Every kept value is exact, and the pick is the full scan's.
        assert np.all((pruned == full) | (pruned == dropped))
        assert pick(pruned) == pick(full)
        if t is not None:
            assert t.tobytes() == trace_report(P[pick(full)], xi, eps).trace_errors.tobytes()


@pytest.mark.parametrize("space, isometry", [
    (MetricSpace.box([-1.0, -1.0], [1.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]]),
    (MetricSpace.unit_disk(), [[-1.0, 0.0], [0.0, 1.0]]),
], ids=["swap-box", "reflection-disk"])
def test_affine_monomial_isometries_no_longer_block_pruning(space, isometry, monkeypatch):
    # A swap or a reflection written as an affine matrix, alternating with a
    # signed diagonal contraction. The isometry's Gram bound was 1 + 2^-40,
    # above 1, so the scan ran in full; its monomial bound is 1 exactly, and
    # the scan now ends early. Its picks are the full scan's.
    family = GeneratorFamily(space, (
        GeneratorMap.affine(isometry, [0.0, 0.0]),
        GeneratorMap.affine([[-0.5, 0.0], [0.0, 0.5]], [0.25, 0.0])))
    assert shadow_search._symbol_norms(family)[0].tolist() == [1.0, 1.0, 0.5]
    indices = IndexSet.from_iterable(range(0, 400, 9), 400)
    xi = make_corrupted_orbit(family, Word.periodic((1, 2), 2), (0.3, -0.2), indices,
                              JumpRule("uniform"), seed=4)
    for objective in (LIMSUP, HIT_DENSITY):
        expected = full_scan_picks(xi, objective, 0.3, [0.1], 0.5)
        steps = scan_steps(monkeypatch)
        got = _net_pick(xi, objective, 0.3, 0.1, 0.5)
        assert pick_bytes([got[:4]]) == pick_bytes(expected)
        assert len(steps) < xi.horizon + 1
        z, t = got[0], got[4]
        assert t is None or t.tobytes() == trace_report(z, xi, 0.3).trace_errors.tobytes()


def test_hit_density_keeps_a_lower_row_that_ties_the_incumbent_at_eps(monkeypatch):
    # x -> x / 2 + 1/4 on [0, 1], eps = 0.1. The incumbent is 0.5 (row 2),
    # the only point within eps of x_0 = 0.5. At step 1, x_1 puts 0.5 just
    # past eps (a near-tie at eps) and 0.25's image 0.375 inside it; from
    # then on x_j = 0.5 and both hit at every step. So 0.25 (row 1) ties the
    # incumbent exactly, and as the lower row it is the full scan's pick.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]),
                             (GeneratorMap.affine([[0.5]], [0.25]),))
    x1 = 0.5 - 0.1 - 2.0 ** -50
    points = np.array([0.5, x1] + [0.5] * 39)[:, None]
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), points)
    P = net(family.space, 0.25)
    assert P.ravel().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    hits = [trace_report(z, xi, 0.1).trace_errors < 0.1 for z in P]
    assert hits[2][:2].tolist() == [True, False] and hits[1][:2].tolist() == [False, True]
    full = full_scan(xi, P, HIT_DENSITY, 0.1, 0.5)
    assert full[1] == full[2] == full.max() and np.argmax(full) == 1
    monkeypatch.setattr(shadow_search, "FIRST_CHECKPOINT", 1)
    pruned, _ = _scan(xi, P, HIT_DENSITY, 0.1, 0.5)
    # The tie with a higher row (0.75) and the rows below it are dropped at
    # n = 1; the tie below the incumbent is kept, with its exact value.
    assert pruned[[1, 2]].tolist() == full[[1, 2]].tolist()
    assert pruned[[3, 4]].tolist() == [-math.inf, -math.inf]
    got = net_picks(xi, HIT_DENSITY, 0.1, [0.25], 0.5)
    assert pick_bytes(got) == pick_bytes(full_scan_picks(xi, HIT_DENSITY, 0.1, [0.25], 0.5))
    assert m_alpha_shadow_search(xi, 0.1, 0.5, 0.25).report.net_index == 1


def test_non_normal_contraction_ends_the_scan_at_its_first_checkpoint(monkeypatch):
    # [[0.5, 0.4], [0, 0.5]] maps [0, 1]^2 into itself with offset
    # (0.05, 0.25); its iterates grow before they shrink.
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.affine([[0.5, 0.4], [0.0, 0.5]], [0.05, 0.25]),))
    indices = IndexSet.from_iterable(range(0, 300, 7), 300)
    xi = make_corrupted_orbit(family, Word.constant(1, 1), (0.9, 0.1), indices,
                              JumpRule("uniform"), seed=5)
    expected = {objective: full_scan_picks(xi, objective, 0.2, [0.05], 0.5)
                for objective in (LIMSUP, HIT_DENSITY)}
    steps = scan_steps(monkeypatch)
    for objective in (LIMSUP, HIT_DENSITY):
        steps.clear()
        got = net_picks(xi, objective, 0.2, [0.05], 0.5)
        assert pick_bytes(got) == pick_bytes(expected[objective])
        assert steps == [441] * shadow_search.FIRST_CHECKPOINT


def test_a_member_that_beats_the_incumbent_is_walked_and_replaces_it(monkeypatch):
    # x -> 0.9 x on [0, 1] against x_0 = 0.5 and then 0: at n = 1 the
    # incumbent is 0.5 (row 2), the point nearest x_0, but 0 tracks every
    # later step exactly. At n = 16 the bounds show 0 beating 0.5, so 0 is
    # walked, becomes the incumbent and ends the scan alone.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.affine([[0.9]], [0.0]),))
    points = np.array([0.5] + [0.0] * 100)[:, None]
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), points)
    P = net(family.space, 0.25)
    full = full_scan(xi, P, LIMSUP, 0.2, 0.5)
    assert np.argmin(full) == 0
    walked = []
    walk_row = shadow_search._walk_row

    def recording(xi, P, row, *args):
        walked.append(row)
        return walk_row(xi, P, row, *args)

    monkeypatch.setattr(shadow_search, "_walk_row", recording)
    monkeypatch.setattr(shadow_search, "FIRST_CHECKPOINT", 1)
    steps = scan_steps(monkeypatch)
    pruned, t = _scan(xi, P, LIMSUP, 0.2, 0.5)
    assert walked == [2, 0]
    assert t.tobytes() == trace_report(P[0], xi, 0.2).trace_errors.tobytes()
    assert pruned.tolist() == [full[0]] + [math.inf] * 4
    assert len(steps) == 16
    got = net_picks(xi, LIMSUP, 0.2, [0.25], 0.5)
    assert pick_bytes(got) == pick_bytes(full_scan_picks(xi, LIMSUP, 0.2, [0.25], 0.5))


def recording_walks(monkeypatch):
    """The rows _walk_row walks, each with whether its walk left the space, in
    a list that grows as scans run."""
    walked = []
    walk_row = shadow_search._walk_row

    def recording(xi, P, row, *args):
        try:
            inc = walk_row(xi, P, row, *args)
        except DomainError:
            walked.append((row, True))
            raise
        walked.append((row, False))
        return inc

    monkeypatch.setattr(shadow_search, "_walk_row", recording)
    return walked


def test_a_rival_that_leaves_the_box_ends_pruning(monkeypatch):
    # x -> x / 2 + 0.55 on [0, 1] fixes 1.1. The net is 0, 0.5 and 1, and
    # the pseudo-orbit 0.25, 0.8, 0.95, 1. At n = 1 the incumbent is 0 (it
    # ties 0.5 and has the lower row), whose orbit stays, and the bounds drop
    # nothing; at n = 2 they prove 0.5 better, but its orbit leaves the box
    # at step 3. That one walk of 0.5 ends pruning: n = 2 drops nothing and
    # the rest of the net is scanned in full.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]),
                             (GeneratorMap.affine([[0.5]], [0.55]),))
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), [[0.25], [0.8], [0.95], [1.0]])
    P = net(family.space, 0.5)
    assert P.ravel().tolist() == [0.0, 0.5, 1.0]
    full = full_scan(xi, P, LIMSUP, 0.2, 0.5)
    walked = recording_walks(monkeypatch)
    monkeypatch.setattr(shadow_search, "FIRST_CHECKPOINT", 1)
    pruned, t = _scan(xi, P, LIMSUP, 0.2, 0.5)
    assert walked == [(0, False), (1, True)]
    # The pick is 0.5, whose walk leaves the box; the walked incumbent is 0.
    assert np.argmin(pruned) == 1 and t is None
    assert pruned.tobytes() == full.tobytes()
    with pytest.raises(DomainError) as caught:
        average_shadow_search(xi, 0.2, 0.5)
    with pytest.raises(DomainError) as walked_pick:
        trace_report((0.5,), xi, 0.2)
    assert str(caught.value) == str(walked_pick.value)


@st.composite
def escaping_systems(draw):
    """One to three maps z -> p + A (z - p) on [0, 1]^d (d = 1, 2) or the
    disk, with A of norm bound at most 0.99 and the centre p in or near the
    space, drawn from a seed: the pruning gate passes, but a map may carry net
    points out of the space, so some walks stay in it and some leave."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    disk = draw(st.booleans())
    d = 2 if disk else draw(st.integers(1, 2))
    space = MetricSpace.unit_disk() if disk else MetricSpace.box([0.0] * d, [1.0] * d)
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        a = rng.uniform(-1.0, 1.0, (d, d))
        a *= rng.uniform(0.2, 0.99) / math.sqrt(np.abs(a.T @ a).sum(axis=1).max())
        p = rng.uniform(-0.9, 0.9, 2) if disk else rng.uniform(-0.2, 1.2, d)
        maps.append(GeneratorMap.affine(a.tolist(), (p - a @ p).tolist()))
    family = GeneratorFamily(space, tuple(maps))
    assume(shadow_search._symbol_norms(family)[0].max() <= 1.0)
    return family


@SETTINGS
@given(escaping_systems().flatmap(lambda family: st.tuples(st.just(family), words(family.m))),
       st.integers(1, 40), unit(0.1, 0.5), unit(0.01, 1.0), unit(0.05, 0.95), st.data())
def test_escaping_walks_end_pruning_and_keep_the_full_scans_pick(system, horizon, mesh, eps,
                                                                 tail_fraction, data):
    # The pseudo-orbit's points are drawn in the space, not walked, since a
    # walk may leave it: a net point whose walk leaves (the rival) has its
    # orbit projected onto the space at each step, after a first point a
    # little nearer the closest net point whose walk stays. Every pruned value
    # is the full scan's or dropped, the pick is the full scan's, and a search
    # returns that pick or raises its walk's error.
    family, word = system
    space = family.space
    P = net(space, mesh)
    leaves = np.array([outcome(orbit, family, word, z, horizon + 1)[0] != "ok" for z in P])
    rival = P[data.draw(st.sampled_from(np.flatnonzero(leaves).tolist() or [0]))]
    other = P[np.argmin(np.where(leaves, np.inf, space.distance(P, rival)))]
    points, p = [(rival + data.draw(unit(0.5, 0.6)) * (other - rival)).tolist()], rival.tolist()
    for s in word.symbols(horizon).tolist():
        p = reference_project(space, reference_map(family.maps[s - 1], p))
        points.append(p)
    xi = PseudoOrbit.from_points(family, word, points)
    full = {objective: full_scan(xi, P, objective, eps, tail_fraction)
            for objective in (LIMSUP, HIT_DENSITY)}
    z = P[np.argmin(full[LIMSUP])]
    walk = outcome(trace_report, z, xi, eps, tail_fraction)
    with pytest.MonkeyPatch.context() as patch:
        walked = recording_walks(patch)
        for first in (1, 2, 16):
            patch.setattr(shadow_search, "FIRST_CHECKPOINT", first)
            for objective, pick, dropped in ((LIMSUP, np.argmin, math.inf),
                                             (HIT_DENSITY, np.argmax, -math.inf)):
                walked.clear()
                pruned, t = _scan(xi, P, objective, eps, tail_fraction)
                if walked[:1] and walked[0][1]:
                    event("the first incumbent's walk leaves the space")
                if any(escaped for _, escaped in walked[1:]):
                    event("a rival's walk leaves the space")
                assert np.all((pruned == full[objective]) | (pruned == dropped))
                assert pick(pruned) == pick(full[objective])
                if t is not None:
                    w = P[pick(full[objective])]
                    assert t.tobytes() == trace_report(w, xi, eps).trace_errors.tobytes()
            try:
                found = average_shadow_search(xi, eps, mesh, tail_fraction).report.candidate
            except DomainError as exc:
                assert walk == (DomainError, str(exc))
            else:
                assert found.tobytes() == z.tobytes()


def circle_rotation():
    family = GeneratorFamily(MetricSpace.circle(), (GeneratorMap.affine([[1.0]], [0.3137]),))
    return true_orbit(family, Word.constant(1, 1), (0.2,), 300)


def circle_reflection():
    # x -> -x has the norm bound 1 exactly; only the circle's wrap declines it.
    family = GeneratorFamily(MetricSpace.circle(), (GeneratorMap.scale([-1.0]),))
    return true_orbit(family, Word.constant(1, 1), (0.2,), 300)


def disk_rotation():
    c, s = math.cos(0.7), math.sin(0.7)
    family = GeneratorFamily(MetricSpace.unit_disk(),
                             (GeneratorMap.affine([[c, -s], [s, c]], [0.0, 0.0]),))
    return true_orbit(family, Word.constant(1, 1), (0.3, 0.4), 300)


def expanding_box():
    # x -> 2x - 1/2 fixes 1/2 and sends every other point out of [0, 1].
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]),
                             (GeneratorMap.affine([[2.0]], [-0.5]),))
    return PseudoOrbit.from_points(family, Word.constant(1, 1), np.full((301, 1), 0.5))


def circle_doubling():
    # x -> 2x + 0.1 stretches the circle: no analytic trace follows it.
    family = GeneratorFamily(MetricSpace.circle(), (GeneratorMap.affine([[2.0]], [0.1]),))
    return true_orbit(family, Word.constant(1, 1), (0.2,), 300)


@pytest.mark.parametrize("make", [disk_rotation, expanding_box, circle_doubling])
def test_dominance_never_fires_on_isometries_or_expanding_maps(make, monkeypatch):
    # None of these passes a pruning gate: a rotation written as a matrix has
    # the norm bound 1 + 2^-40, x -> 2x - 1/2 the bound 2, and a circle map of
    # slope 2 is no isometry. Such a scan is the full scan: it walks no
    # incumbent and steps every column to the end.
    xi = make()
    P = net(xi.family.space, 0.1)

    def refuse(*args):
        raise AssertionError("a full scan walks no incumbent")

    full = {objective: full_scan(xi, P, objective, 0.2, 0.5)
            for objective in (LIMSUP, HIT_DENSITY)}
    monkeypatch.setattr(shadow_search, "_walk_row", refuse)
    steps = scan_steps(monkeypatch)
    for objective in (LIMSUP, HIT_DENSITY):
        steps.clear()
        pruned, t = _scan(xi, P, objective, 0.2, 0.5)
        assert steps == [len(P)] * (xi.horizon + 1)
        assert pruned.tobytes() == full[objective].tobytes() and t is None


# ---------------------------------------------------------------------------
# Circle isometries: analytic traces bound every candidate, and only the
# survivors are walked


def circle_offsets():
    """Offsets of every size: plain ones, and ones with tiny and large exponents."""
    return st.one_of(unit(-2.0, 2.0),
                     st.builds(math.ldexp, unit(-1.0, 1.0), st.integers(-1074, 70)))


@st.composite
def isometry_systems(draw):
    """One to three circle maps of slope +-1 (the identity, the permutation,
    scale [+-1] and affine [[+-1]] with any offset) and a word over them."""
    slope = st.sampled_from([1.0, -1.0])
    maps = st.one_of(
        st.just(GeneratorMap.identity()),
        st.just(GeneratorMap.permutation((0,))),
        st.builds(GeneratorMap.scale, slope.map(lambda a: [a])),
        st.builds(GeneratorMap.affine, slope.map(lambda a: [[a]]), circle_offsets().map(
            lambda b: [b])),
    )
    family = GeneratorFamily(MetricSpace.circle(),
                             tuple(draw(st.lists(maps, min_size=1, max_size=3))))
    return family, draw(words(family.m))


def isometry_orbit(family, word, horizon, seed):
    """Seeded points anywhere on the line, which the circle reads mod 1, with
    runs of exact steps between them."""
    rng = np.random.default_rng(seed)
    points = [[float(rng.uniform(-3.0, 3.0))]]
    for s in word.symbols(horizon).tolist():
        jump = rng.random() < 0.3
        points.append([float(rng.uniform(-3.0, 3.0))] if jump
                      else reference_map(family.maps[s - 1], points[-1]))
    return PseudoOrbit.from_points(family, word, points)


@SETTINGS
@given(isometry_systems(), st.integers(0, 300), st.integers(0, 2**32),
       st.lists(unit(0.0, 0.9999), min_size=1, max_size=4))
def test_every_walked_circle_trace_lies_within_sigma_of_the_analytic_one(system, horizon,
                                                                         seed, starts):
    family, word = system
    xi = isometry_orbit(family, word, horizon, seed)
    y, sigma = shadow_search._isometry_targets(xi, word.symbols(horizon))
    assert len(y) == len(sigma) == horizon + 1
    for z in starts + net(family.space, 0.1).ravel().tolist():
        t = trace_report([z], xi, 1.0).trace_errors
        m = np.abs(z - y)
        assert np.all(np.abs(t - np.minimum(m, 1.0 - m)) <= sigma)


@SETTINGS
@given(isometry_systems(), st.integers(1, 300), st.integers(0, 2**32), unit(0.01, 0.5),
       unit(0.01, 0.6), st.booleans(), unit(0.05, 0.95), st.sampled_from([1, 2, 16]),
       st.sampled_from([0, 1, 4]), st.sampled_from([1, 7, 2**12]), st.data())
def test_isometry_scan_picks_what_the_full_scan_picks(system, horizon, seed, mesh, eps,
                                                      on_value, tail_fraction, first, most,
                                                      block, data):
    # most = 0 sends every survivor to the step loop. Blocks of 1 and 7
    # entries hold one net row each; blocks of 2**12 several short rows.
    family, word = system
    xi = isometry_orbit(family, word, horizon, seed)
    P = net(family.space, mesh)
    if on_value:
        # eps exactly a trace error of a net point: a tie at eps.
        t = trace_report(P[data.draw(st.integers(0, len(P) - 1))], xi, 1.0).trace_errors
        eps = float(t[data.draw(st.integers(0, horizon))]) or eps
    for objective, pick, dropped in ((LIMSUP, np.argmin, math.inf),
                                     (HIT_DENSITY, np.argmax, -math.inf)):
        full = full_scan(xi, P, objective, eps, tail_fraction)
        with mock.patch.multiple(shadow_search, FIRST_CHECKPOINT=first, _MOST_WALKS=most,
                                 _BLOCK_ENTRIES=block):
            pruned, t = _scan(xi, P, objective, eps, tail_fraction)
        assert np.all((pruned == full) | (pruned == dropped))
        assert pick(pruned) == pick(full)
        if t is not None:
            assert t.tobytes() == trace_report(P[pick(full)], xi, eps).trace_errors.tobytes()


@pytest.mark.parametrize("g", [GeneratorMap.affine([[1.0]], [0.3137]), GeneratorMap.scale([-1.0])])
def test_isometry_scan_past_one_block_a_row_picks_what_the_full_scan_picks(g):
    # H + 1 = 5 001 > _BLOCK_ENTRIES: each block is one net row, longer than
    # _BLOCK_ENTRIES.
    family = GeneratorFamily(MetricSpace.circle(), (g,))
    xi = isometry_orbit(family, Word.constant(1, 1), 5_000, 7)
    P = net(family.space, 0.02)
    for objective, pick in ((LIMSUP, np.argmin), (HIT_DENSITY, np.argmax)):
        full = full_scan(xi, P, objective, 0.3, 0.5)
        pruned, _ = _scan(xi, P, objective, 0.3, 0.5)
        assert pick(pruned) == pick(full) and pruned[pick(full)] == full[pick(full)]


@pytest.mark.parametrize("make", [circle_rotation, circle_reflection])
def test_circle_isometry_scan_walks_only_its_survivors(make, monkeypatch):
    # The true orbit of 0.2 under x -> x + 0.3137 or x -> -x, on the net
    # 0, 0.1, ..., 0.9. Its LIMSUP pick is 0.2, whose trace is 0; for
    # HIT_DENSITY at eps 0.15, 0.1, 0.2 and 0.3 hit at every step, and the
    # analytic bounds are exact, so only the lowest, 0.1, survives.
    xi = make()
    P = net(xi.family.space, 0.1)
    full = {objective: full_scan(xi, P, objective, 0.15, 0.5)
            for objective in (LIMSUP, HIT_DENSITY)}
    walked = recording_walks(monkeypatch)
    steps = scan_steps(monkeypatch)
    for objective, pick, row in ((LIMSUP, np.argmin, 2), (HIT_DENSITY, np.argmax, 1)):
        walked.clear()
        pruned, t = _scan(xi, P, objective, 0.15, 0.5)
        assert steps == [] and walked == [(row, False)]
        assert pick(full[objective]) == row and pruned[row] == full[objective][row]
        assert np.isinf(np.delete(pruned, row)).all()
        assert t.tobytes() == trace_report(P[row], xi, 0.15).trace_errors.tobytes()
    # With no walks allowed, the survivors run the step loop, over their rows only.
    monkeypatch.setattr(shadow_search, "_MOST_WALKS", 0)
    for objective, row in ((LIMSUP, 2), (HIT_DENSITY, 1)):
        walked.clear()
        steps.clear()
        pruned, t = _scan(xi, P, objective, 0.15, 0.5)
        assert steps == [1] * (xi.horizon + 1) and walked == []
        assert pruned[row] == full[objective][row] and t is None
    got = net_picks(xi, LIMSUP, 0.15, [0.1, 0.05], 0.5)
    assert pick_bytes(got) == pick_bytes(full_scan_picks(xi, LIMSUP, 0.15, [0.1, 0.05], 0.5))


@pytest.mark.parametrize("unused", [
    # x -> 3x: its 1000th power overflows, and its norm bound is 3.
    GeneratorMap.scale([3.0, 3.0]),
    # x -> x + (1e299, 0): its offset alone puts R + H h over _SAFE_MAGNITUDE.
    GeneratorMap.affine([[1.0, 0.0], [0.0, 1.0]], [1e299, 0.0]),
], ids=["expanding", "far-offset"])
def test_a_word_that_skips_a_map_ends_at_its_first_checkpoint(unused, monkeypatch):
    # The word uses only x -> x / 2: the gate reads the norm bounds and the
    # offsets of the word's maps, so the LIMSUP scan ends at its first
    # checkpoint whatever the unused map is.
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.scale([0.5, 0.5]), unused))
    indices = IndexSet.from_iterable(range(0, 1000, 7), 1000)
    xi = make_corrupted_orbit(family, Word.constant(1, 2), (0.9, 0.1), indices,
                              JumpRule("uniform"), seed=5)
    expected = full_scan_picks(xi, LIMSUP, 0.2, [0.05], 0.5)
    steps = scan_steps(monkeypatch)
    got = net_picks(xi, LIMSUP, 0.2, [0.05], 0.5)
    assert pick_bytes(got) == pick_bytes(expected)
    assert steps == [441] * shadow_search.FIRST_CHECKPOINT
