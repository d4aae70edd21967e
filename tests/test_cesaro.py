import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowlab import (
    BoundedSequence,
    IndexSet,
    ParameterError,
    PreconditionError,
    extract_null_set,
    verify_equivalence,
)
from shadowlab.cesaro import _FIRST_CHUNK, _first_certified
from shadowlab.density import prefix_means

from oracles import (
    reference_extract_null_set,
    reference_first_certified,
    threshold_inequality_holds,
)


def squares_indicator(horizon):
    values = np.zeros(horizon)
    k = 0
    while k * k < horizon:
        values[k * k] = 1.0
        k += 1
    return BoundedSequence(values, 1.0)


def test_cesaro_means_small_example():
    a = BoundedSequence(np.array([1.0, 0.0, 0.0, 1.0]), 1.0)
    assert np.allclose(a.means, [1.0, 0.5, 1.0 / 3.0, 0.5])


def test_cesaro_means_zero():
    a = BoundedSequence(np.zeros(50), 0.0)
    assert np.all(a.means == 0.0)


def test_cesaro_means_squares_at_horizon():
    a = squares_indicator(10_000)
    # Oracle: direct count of squares below 10^4 (0^2 .. 99^2).
    assert a.means[-1] == pytest.approx(100 / 10_000)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=300))
def test_means_are_derived_once_and_read_only(values):
    a = BoundedSequence.from_values(values)
    assert a.means is a.means and not a.means.flags.writeable
    assert np.array_equal(a.means, prefix_means(a.values))


def test_means_monotone_under_domination():
    rng = np.random.default_rng(0)
    lo = rng.random(200)
    hi = lo + rng.random(200)
    ma = BoundedSequence.from_values(lo).means
    mb = BoundedSequence.from_values(hi).means
    assert np.all(ma <= mb + 1e-15)


# ---------------------------------------------------------------------------
# extract_null_set


def test_extract_zero_sequence_gives_empty_J():
    a = BoundedSequence(np.zeros(1000), 1.0)
    extraction = extract_null_set(a)
    assert len(extraction.J) == 0


def test_extract_squares_large_horizon():
    H = 100_000
    a = squares_indicator(H)
    extraction = extract_null_set(a)
    J = extraction.J
    squares = {k * k for k in range(317) if k * k < H}
    assert set(J.to_list()) <= squares
    assert len(J) / H <= 316 / H + 1e-15
    # everything at or past the first boundary that is a square must be flagged
    T1 = extraction.boundaries[0]
    assert set(J.to_list()) == {s for s in squares if s >= T1}


def test_extract_constant_half_rejected():
    a = BoundedSequence(np.full(1000, 0.5), 1.0)
    with pytest.raises(PreconditionError):
        extract_null_set(a)


def test_extract_off_J_guarantee_per_stage():
    # For n not in J with n >= T_k, a_n < level_k (the construction's promise).
    rng = np.random.default_rng(3)
    values = (rng.random(20_000) < 0.002) * rng.random(20_000)
    a = BoundedSequence.from_values(values, 1.0)
    extraction = extract_null_set(a)
    mask = extraction.J.mask()
    levels = extraction.params["levels"]
    for k, T in enumerate(extraction.boundaries, start=1):
        off = ~mask[T:]
        if np.any(off):
            assert a.values[T:][off].max() < levels[k - 1]


def test_extract_stage_contributions_match_rule():
    a = squares_indicator(100_000)
    extraction = extract_null_set(a)
    mask = extraction.J.mask()
    for rec in extraction.stages:
        lo, hi, level = rec["T"], rec["T_next"], rec["level"]
        expected = (a.values[lo:hi] >= level)
        assert np.array_equal(mask[lo:hi], expected)
        if rec["certified_density"] is not None:
            assert rec["certified_density"] < level


def test_extract_truncation_reported():
    # Level sets stay too dense for the fine levels to certify.
    rng = np.random.default_rng(4)
    values = (rng.random(2000) < 0.05).astype(float)
    values[:100] = 1.0
    a = BoundedSequence.from_values(values, 1.0)
    extraction = extract_null_set(a, level_schedule=[1.0, 0.5, 0.01, 0.005])
    assert extraction.truncated_at_stage is not None
    # guarantee still covers the horizon: past the last boundary, off-J
    # values sit below the level that failed to certify
    mask = extraction.J.mask()
    T_last = extraction.boundaries[-1]
    failed_level = extraction.params["levels"][extraction.truncated_at_stage]
    off = ~mask[T_last:]
    if np.any(off):
        assert a.values[T_last:][off].max() < failed_level


# ---------------------------------------------------------------------------
# verify_equivalence


def test_equivalence_squares_both_directions():
    H = 100_000
    a = squares_indicator(H)
    extraction = extract_null_set(a)
    verdict = verify_equivalence(a, extraction.J, tol=0.02)
    assert verdict
    assert verdict.params["off_J_tail_sup"] < 0.02


def test_equivalence_full_J_degenerate():
    rng = np.random.default_rng(5)
    a = BoundedSequence.from_values(rng.random(500), 1.0)
    J = IndexSet.from_iterable(range(500), 500)
    assert verify_equivalence(a, J, tol=0.05)


def test_equivalence_zero_sequence_empty_J():
    a = BoundedSequence(np.zeros(300), 1.0)
    J = IndexSet.from_iterable([], 300)
    assert verify_equivalence(a, J, tol=0.01)


def test_equivalence_detects_bad_J():
    # Large values off J in the tail must fail direction (ii).
    values = np.zeros(1000)
    values[900:] = 0.8
    a = BoundedSequence.from_values(values, 1.0)
    J = IndexSet.from_iterable([], 1000)
    verdict = verify_equivalence(a, J, tol=0.1)
    assert not verdict
    assert verdict.witness["direction"] == "ii"


# ---------------------------------------------------------------------------
# Exact threshold inequality


def test_equivalence_needs_j_on_the_sequences_horizon():
    a = BoundedSequence(np.zeros(20), 1.0)
    with pytest.raises(ParameterError, match="^J must share the sequence's horizon$"):
        verify_equivalence(a, IndexSet.from_iterable([], 21), 0.1)
    assert verify_equivalence(a, IndexSet.from_iterable([], 20), 0.1).verdict


def test_threshold_inequality_randomized():
    rng = np.random.default_rng(6)
    for _ in range(25):
        H = int(rng.integers(10, 2000))
        B = float(rng.uniform(0.5, 3.0))
        a = BoundedSequence(rng.uniform(0, B, size=H), B)
        for theta in (0.01, 0.1, 0.5, B):
            assert threshold_inequality_holds(a, theta)


def test_bounded_sequence_validation():
    with pytest.raises(ParameterError):
        BoundedSequence(np.array([-0.1, 0.2]), 1.0)
    with pytest.raises(ParameterError):
        BoundedSequence(np.array([0.5, 2.0]), 1.0)


def test_empty_sequence_is_a_parameter_error():
    with pytest.raises(ParameterError, match="nonempty"):
        BoundedSequence.from_values([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_are_a_parameter_error(bad):
    # A NaN maximum made the bound NaN, every comparison with it False, and
    # the extraction ran on.
    with pytest.raises(ParameterError, match="values must be finite numbers"):
        BoundedSequence.from_values([0.1, bad] + [0.0] * 20)
    with pytest.raises(ParameterError, match="values must be finite numbers"):
        BoundedSequence(np.array([0.1, bad] + [0.0] * 20), 1.0)


@pytest.mark.parametrize("bound", [float("nan"), float("inf")])
def test_a_non_finite_bound_is_a_parameter_error(bound):
    with pytest.raises(ParameterError, match="bound must be a finite number"):
        BoundedSequence(np.zeros(20), bound)
    with pytest.raises(ParameterError, match="bound must be a finite number"):
        BoundedSequence.from_values(np.zeros(20), bound)


# ---------------------------------------------------------------------------
# Differential: the chunked boundary search against every prefix compared


def chunk_last_index(lo, j):
    """The last t that chunk j (from 1) of a search from lo compares."""
    return lo + _FIRST_CHUNK * (2 ** j - 1) - 1


@st.composite
def certification_problems(draw):
    """Values, a level and [lo, hi]: 0/1 values whose counts tie dyadic levels,
    drawn reals, or a run of ones that puts the answer at level 1 on, just
    before or just past the last index of a chunk."""
    kind = draw(st.sampled_from(["binary", "reals", "chunk-edge"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "chunk-edge":
        lo = draw(st.integers(1, 300))
        answer = chunk_last_index(lo, draw(st.integers(1, 5))) + draw(st.integers(-1, 1))
        values = np.concatenate([np.ones(answer - 1), [0.0], rng.random(draw(st.integers(0, 50)))])
        return values, 1.0, lo, values.size
    H = draw(st.integers(1, 3000))
    if kind == "binary":
        values = (rng.random(H) < draw(st.sampled_from([0.25, 0.5, 0.75]))).astype(np.float64)
        level = draw(st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.125]))
    else:
        values = rng.random(H) * draw(st.floats(0.0, 2.0))
        level = draw(st.floats(1e-3, 2.0))
    lo = draw(st.integers(1, H + 2))
    return values, level, lo, H


@settings(max_examples=300, deadline=None)
@given(certification_problems())
def test_first_certified_matches_every_prefix_compared(problem):
    values, level, lo, hi = problem
    cum = np.cumsum(values >= level)
    t = reference_first_certified(cum, level, lo, hi)
    assert _first_certified(values, level, lo, hi) == (None if t is None else (t, int(cum[t - 1])))


def extraction_outcome(fn, a, levels):
    try:
        e = fn(a, levels)
    except (ParameterError, PreconditionError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return (e.J.indices.tobytes(), e.J.horizon, e.boundaries, e.stages,
            e.truncated_at_stage, e.params)


@st.composite
def null_sequences(draw):
    """Sparse large values (indices near k^p, p > 1, and a few random ones)
    over small noise decaying like n^-q: Cesàro-null as H grows. Some draws
    open with a dense block, which pushes the boundaries of the levels below
    its value past their stages' lower limits (or makes the sequence fail the
    precondition), or with a run of ones that ends the first stage on or just
    past the last index of a chunk."""
    H = draw(st.integers(10, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = np.arange(1, H + 1, dtype=np.float64)
    values = draw(st.floats(0.0, 0.5)) * rng.random(H) * n ** -draw(st.floats(0.2, 2.0))
    spikes = (np.arange(int(H ** 0.5) + 1) ** draw(st.floats(1.5, 3.0))).astype(np.int64)
    values[spikes[spikes < H]] = draw(st.floats(0.1, 2.0))
    values[rng.integers(0, H, size=draw(st.integers(0, 5)))] = 1.0
    start = draw(st.sampled_from(["sparse", "dense", "chunk-edge"]))
    if start == "dense":
        values[:draw(st.integers(1, H // 4 + 1))] = draw(st.sampled_from([1.0, 0.5, 0.3, 0.25]))
    elif start == "chunk-edge":
        # T_1 is the run's length plus one, the first prefix with a value below 1.
        run = chunk_last_index(1, draw(st.integers(1, 3))) - 1 + draw(st.integers(0, 1))
        values = np.concatenate([np.ones(run), np.minimum(values, 0.5)])
    return BoundedSequence(values, max(1.0, float(values.max())))


level_schedules = st.one_of(
    st.none(),
    st.lists(st.floats(1e-4, 4.0), min_size=1, max_size=12, unique=True).map(
        lambda ls: sorted(ls, reverse=True)),
    # Dyadic levels, whose products with t are exact: counts tie them.
    st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True).map(
        lambda es: [2.0 ** -e for e in sorted(es)]),
    # Levels below the noise, so that the schedule truncates.
    st.just([1.0, 0.5, 1e-6, 1e-9]),
    st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3),
)


def ones_then_small(run, tail):
    return BoundedSequence(np.concatenate([np.ones(run), np.full(tail, 1e-3)]), 1.0)


@settings(max_examples=300, deadline=None)
@given(null_sequences(), level_schedules)
@example(ones_then_small(chunk_last_index(1, 1) - 1, 400), None)  # T_1 on a chunk's end
@example(ones_then_small(chunk_last_index(1, 1), 400), None)  # T_1 just past it
@example(BoundedSequence(np.r_[np.full(40, 0.25), np.zeros(400)], 1.0),
         [1.0, 0.5, 0.25, 0.125])  # the level-1/4 count ties t / 4 at t = 160
@example(BoundedSequence(np.r_[np.ones(10), np.full(400, 1e-3)], 1.0),
         [1.0, 0.5, 1e-6])  # truncates at stage 2
@example(BoundedSequence(np.full(100, 0.5), 1.0), None)  # PreconditionError
@example(BoundedSequence(np.full(100, 0.5), 1.0), [0.25, 0.5])  # not decreasing
@example(BoundedSequence(np.tile([0.25, 0.0, 0.0, 0.0], 25), 1.0),
         [0.25])  # a quarter of the values sit at level 1: no level-1 boundary
def test_extract_null_set_matches_eager_counts(a, levels):
    assert extraction_outcome(extract_null_set, a, levels) == \
        extraction_outcome(reference_extract_null_set, a, levels)


def test_the_examples_reach_past_lower_limits_and_truncate():
    # The differential's fixed examples do what their comments say.
    tie = extract_null_set(BoundedSequence(np.r_[np.full(40, 0.25), np.zeros(400)], 1.0),
                           [1.0, 0.5, 0.25, 0.125])
    assert tie.boundaries == [1, 3, 161]
    for run in (chunk_last_index(1, 1) - 1, chunk_last_index(1, 1)):
        assert extract_null_set(ones_then_small(run, 400)).boundaries[0] == run + 1
    truncated = extract_null_set(BoundedSequence(np.r_[np.ones(10), np.full(400, 1e-3)], 1.0),
                                 [1.0, 0.5, 1e-6])
    assert truncated.truncated_at_stage == 2
    # A first level below 1/2 can pass the precondition with no boundary.
    none = extract_null_set(BoundedSequence(np.tile([0.25, 0.0, 0.0, 0.0], 25), 1.0), [0.25])
    assert none.truncated_at_stage == 0 and none.boundaries == [] and len(none.J) == 0
    with pytest.raises(ParameterError, match="^level schedule must be strictly decreasing$"):
        extract_null_set(BoundedSequence(np.full(100, 0.5), 1.0), [0.25, 0.5])
