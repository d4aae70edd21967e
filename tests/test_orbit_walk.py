"""Differential and property tests of the sequential orbit walk and of the
space and map operations that take a point or rows.

``orbit`` and ``make_corrupted_orbit`` step a point with symbols computed
once and check membership once per orbit. The references below, and the
per-point ones they import from ``oracles``, step one symbol at a time
through the per-index symbol rule, and evaluate each map and space
operation as its documented expression on a list of Python floats, one
point at a time (not through the library's symbol rule, step table or
space methods); they draw each jump when it is needed. Results
must agree bit for bit, and failures must raise the same error at the same
step. ``net``, ``trace_report`` and the net scan are checked against
per-point and per-step loops of the same expressions.
"""

import dataclasses
import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadowlab import (
    DomainError,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    PseudoOrbit,
    RangeError,
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
from shadowlab import shadow_search
from shadowlab.dynamics import CIRCLE, UNIT_DISK
from shadowlab.pseudo_orbits import recompute_step_errors
from shadowlab.serialize import json_default
from shadowlab.shadow_search import HIT_DENSITY, LIMSUP, _net_search, _scan

from oracles import reference_contains, reference_dot, reference_map, reference_step

SETTINGS = settings(max_examples=150, deadline=None)


def reference_symbol(word, j):
    """Symbol j of the word, one index at a time: an iid index hashes its own
    SHA-256 draw and walks the cumulative weights; a prefix word's tail is
    read at its own index."""
    b = word.offset + j
    if word.kind == "constant":
        return word.symbol
    if word.kind == "periodic":
        return word.pattern[b % len(word.pattern)]
    if word.kind == "iid":
        key = b"shadowlab-word" + word.seed.to_bytes(8, "big")
        u = int.from_bytes(hashlib.sha256(key + b.to_bytes(8, "big")).digest()[:8], "big")
        u /= 2.0**64
        total, acc = sum(word.weights), 0.0
        for s, w in enumerate(word.weights, start=1):
            acc += w / total
            if u < acc:
                return s
        return word.m
    if b < len(word.prefix):
        return word.prefix[b]
    return reference_symbol(word.tail, b - len(word.prefix))


def reference_project(space, q):
    if space.kind == UNIT_DISK:
        r = math.sqrt(reference_dot(q, q))
        return [x / r for x in q] if r > 1.0 else q
    if space.kind == CIRCLE:
        return [q[0] % 1.0]
    return [lo if x <= lo else hi if x >= hi else x for x, lo, hi in zip(q, space.lo, space.hi)]


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
    except (DomainError, RangeError) as exc:
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
        word = Word.with_prefix(draw(st.lists(symbol, max_size=6)), draw(words(m, depth - 1)))
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
    assert symbols.dtype == np.int64
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
        assert symbols.dtype == np.int64 and not symbols.flags.writeable
        if n > 0:
            with pytest.raises(ValueError):
                symbols[0] = 1
    assert word == dataclasses.replace(word) and hash(word) == hash(dataclasses.replace(word))


def test_shifted_words_share_no_symbols_memo():
    word = Word.with_prefix((2, 1, 2), Word.iid((0.3, 0.7), seed=5))
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
    rule = JumpRule(kind, point=point, scale=scale, power=power)
    expected, clamped = reference_corrupted_orbit(family, word, start, indices, rule, seed)
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
    family = GeneratorFamily(space, (GeneratorMap.scale([0.5] * d),))
    word = Word.constant(1, m=1)
    indices = IndexSet.from_iterable(range(0, 60, 3), 60)
    rule = JumpRule(kind, point=(3.0,) * d if kind == "fixed" else None, scale=3.0)
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


@SETTINGS
@given(st.lists(st.integers(1, 2), min_size=1, max_size=6), st.integers(0, 6),
       vectors(2, 0.0, 1.0), st.integers(1, 12))
def test_error_parity_on_expanding_box_with_out_of_range_symbols(pattern, shift, start, n):
    # One map (scale 2) under a two-letter word: the first failing step is
    # either an image leaving the box or the symbol 2 outside [0, 1].
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.scale((2.0, 2.0)),))
    word = Word.periodic(pattern, m=2).shifted(shift)
    assert same_outcome(outcome(orbit, family, word, start, n),
                        outcome(reference_orbit, family, word, start, n))


@pytest.mark.parametrize("pattern, error", [((1, 1, 1, 2), DomainError),
                                            ((1, 2, 1, 1), RangeError)])
def test_first_failing_step_decides_the_error(pattern, error):
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.scale((2.0, 2.0)),))
    word = Word.periodic(pattern, m=2)
    with pytest.raises(error) as caught:
        orbit(family, word, (0.2, 0.3), 6)
    with pytest.raises(error) as expected:
        reference_orbit(family, word, (0.2, 0.3), 6)
    assert str(caught.value) == str(expected.value)


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
# One entry point per operation: a point or rows


def reference_distance(space, a, b):
    """Geodesic on the circle, else the square root of the sum of squared
    coordinate differences, accumulated left to right."""
    if space.kind == CIRCLE:
        m = abs(a[0] % 1.0 - b[0] % 1.0)
        return min(m, 1.0 - m)
    diff = [x - y for x, y in zip(a, b)]
    return math.sqrt(reference_dot(diff, diff))


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
    assert space.project(rows).tobytes() == np.array([space.project(r) for r in rows]).tobytes()


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
        assert _scan(xi, P, objective, eps, tail_fraction).tobytes() == oracle.tobytes()
        z, index, value, size = next(_net_search(xi, objective, eps, [mesh], tail_fraction))
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
        values = _scan(xi, points, LIMSUP, budget, tail_fraction)
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
    estimates = [float(_scan(xi, net(family.space, mesh), LIMSUP, 1.0, tail_fraction).min())
                 for mesh in meshes]
    eps0 = eps0_failing_at(estimates, stage)
    assume(eps0 is not None)
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
    estimates = [float(_scan(xi, net(space, mesh), LIMSUP, 1.0, 0.5).min())
                 for mesh in meshes]
    eps0 = eps0_failing_at(estimates, stage)
    expected = reference_refined(xi, eps0, meshes, 0.5)
    assert expected["failed_stage"] == stage
    got = refined_asymptotic_search(xi, eps0, meshes).to_dict()
    assert refined_bytes(got) == refined_bytes(expected)


@SETTINGS
@given(system_and_word(), st.integers(1, 8), st.integers(0, 2**32))
def test_point_and_rows_agree_for_maps_and_project(system, n, seed):
    family, _, _ = system
    space = family.space
    d = space.dimension
    P = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, d))
    for p, row in zip(P, space.project(P)):
        assert space.project(p).tobytes() == row.tobytes()
        assert row.tobytes() == np.array(reference_project(space, p.tolist())).tobytes()
    for g in family.maps:
        for p, row in zip(P, g(P)):
            assert g(p).tobytes() == row.tobytes()
            assert row.tobytes() == np.array(reference_map(g, p.tolist())).tobytes()


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


def full_scan_picks(xi, objective, eps, meshes, tail_fraction):
    """Each mesh's net scanned alone and in full, then argmin (LIMSUP) or
    argmax (HIT_DENSITY): the point, its index, its value and the net size."""
    pick = np.argmax if objective == HIT_DENSITY else np.argmin
    picks = []
    for mesh in meshes:
        P = net(xi.family.space, mesh)
        values = _scan(xi, P, objective, eps, tail_fraction)
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
            got = list(_net_search(xi, objective, eps, meshes, tail_fraction))
        assert pick_bytes(got) == pick_bytes(expected)


def test_pruned_scan_keeps_a_later_row_that_ties_the_lowest_index_minimiser():
    # At n = 16 the row 0.5 tracks exactly and becomes the incumbent; from
    # n = 32 on the rows 0.25 and 0.5 have the same sums, so both end at
    # exactly 0.125, and the pick is the lower index, 0.25.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.identity(),))
    points = np.array([0.5] * 16 + [0.25] * 16 + [0.375] * 168)[:, None]
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), points)
    P = net(family.space, 0.25)
    assert P.ravel().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    pruned = _scan(xi, P, LIMSUP, 0.2, 0.5, [np.arange(5)])
    assert pruned.tolist() == [math.inf, 0.125, 0.125, math.inf, math.inf]
    expected = full_scan_picks(xi, LIMSUP, 0.2, [0.25, 0.25], 0.5)
    got = list(_net_search(xi, LIMSUP, 0.2, [0.25, 0.25], 0.5))
    assert pick_bytes(got) == pick_bytes(expected)
    assert [index for _, index, _, _ in got] == [1, 1]


def test_a_row_of_two_stage_nets_can_be_dropped_in_one_and_kept_in_the_other():
    # 0.5 lies in both nets. Against a constant 0.3 it is the best point of
    # the 0.5 net, so it is that net's incumbent and is kept, while in the
    # 0.25 net the point 0.25 is better and 0.5 is dropped.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]), (GeneratorMap.identity(),))
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), np.full((100, 1), 0.3))
    nets = [net(family.space, mesh) for mesh in (0.5, 0.25)]
    assert [P.ravel().tolist() for P in nets] == [[0.0, 0.5, 1.0],
                                                  [0.0, 0.25, 0.5, 0.75, 1.0]]
    stacked = np.concatenate(nets)
    pruned = _scan(xi, stacked, LIMSUP, 0.2, 0.5, [np.arange(3), np.arange(3, 8)])
    full = _scan(xi, stacked, LIMSUP, 0.2, 0.5)
    assert full[1] == full[5] and pruned[1] == full[1] and pruned[5] == math.inf
    got = list(_net_search(xi, LIMSUP, 0.2, [0.5, 0.25], 0.5))
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
    got = list(_net_search(xi, LIMSUP, 0.2, [0.25, 0.25], 0.5))
    assert pick_bytes(got) == pick_bytes(expected)
    # argmin returns the first NaN, the first row that leaves the box.
    z, index, value, _ = got[0]
    assert math.isnan(value) and z.tolist() == [0.25, 0.0]
    with pytest.raises(DomainError) as caught:
        average_shadow_search(xi, 0.2, 0.25)
    with pytest.raises(DomainError) as walked:
        trace_report(z, xi, 0.2)
    assert str(caught.value) == str(walked.value)


def test_a_net_whose_incumbent_leaves_the_space_is_scanned_in_full():
    # x -> 2x - 0.5 fixes 0.5 and sends every other point of [0, 1] out.
    # The pseudo-orbit starts on the true orbit of 0.5625, which tracks
    # exactly up to the checkpoint n = 2 and leaves the box at step 4; 0.5
    # stays and is the pick of every net.
    family = GeneratorFamily(MetricSpace.box([0.0], [1.0]),
                             (GeneratorMap.affine([[2.0]], [-0.5]),))
    points = np.array([0.5625, 0.625, 0.75] + [0.5] * 38)[:, None]
    xi = PseudoOrbit.from_points(family, Word.constant(1, 1), points)
    P = net(family.space, 1 / 16)
    with pytest.raises(DomainError):
        orbit(family, xi.word, (0.5625,), xi.horizon + 1)
    with mock.patch.object(shadow_search, "FIRST_CHECKPOINT", 2):
        pruned = _scan(xi, P, LIMSUP, 0.2, 0.5, [np.arange(len(P))])
        assert pruned.tobytes() == _scan(xi, P, LIMSUP, 0.2, 0.5).tobytes()
        meshes = [1 / 8, 1 / 16]
        got = list(_net_search(xi, LIMSUP, 0.2, meshes, 0.5))
        assert pick_bytes(got) == pick_bytes(full_scan_picks(xi, LIMSUP, 0.2, meshes, 0.5))
        assert [z.tolist() for z, _, _, _ in got] == [[0.5], [0.5]]
        refined = refined_asymptotic_search(xi, 0.1, meshes).to_dict()
        assert refined_bytes(refined) == refined_bytes(reference_refined(xi, 0.1, meshes, 0.5))
        average = average_shadow_search(xi, 0.2, 1 / 16)
        assert average.report.candidate.tolist() == [0.5]
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


def test_refined_scan_of_a_decaying_disk_ends_with_under_one_percent_live(monkeypatch):
    # The decaying disk instance of the benchmark's refined search: horizon
    # 2 000, every step displaced by 1/(j+1)^2, meshes 0.1 / 0.05 / 0.025.
    family, word = build_disk_system()
    indices = IndexSet.from_iterable(range(2000), 2000)
    xi = make_corrupted_orbit(family, word, (0.5, 0.5), indices,
                              JumpRule("offset", scale=1.0, power=2.0), seed=3)
    columns = []
    distance = MetricSpace._distance

    def counting(self, a, b, xp):
        # A scan step measures columns against one orbit point of floats.
        if isinstance(b[0], float) and isinstance(a[0], np.ndarray):
            columns.append(len(a[0]))
        return distance(self, a, b, xp)

    monkeypatch.setattr(MetricSpace, "_distance", counting)
    refined_asymptotic_search(xi, 0.4, [0.1, 0.05, 0.025])
    # The stage nets are scanned stacked: 373 + 1 369 + 5 253 rows.
    sizes = [len(net(family.space, mesh)) for mesh in (0.1, 0.05, 0.025)]
    assert sizes == [373, 1369, 5253]
    assert len(columns) == xi.horizon + 1 and columns[0] == sum(sizes) == 6995
    assert columns[-1] < 0.01 * sum(sizes)
