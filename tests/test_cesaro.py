import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    BoundedSequence,
    IndexSet,
    NullSetExtraction,
    ParameterError,
    PreconditionError,
    extract_null_set,
    verify_equivalence,
)
from shadowlab.cesaro import (
    DEFAULT_LEVELS,
    DENSITY_MARGIN,
    MIN_STAGE_RATIO,
    _first_certified,
)
from shadowlab.density import (
    DEFAULT_TAIL_FRACTION,
    prefix_density,
    prefix_means,
    tail_extremum,
)

from oracles import threshold_inequality_holds


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
    assert extraction.truncated
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


# ---------------------------------------------------------------------------
# Differential: level counts computed per stage against all counts up front


def reference_extract_null_set(a, level_schedule=None, tail_fraction=DEFAULT_TAIL_FRACTION):
    """The eager form: every level's count of the level set built before stage 1."""
    levels = list(DEFAULT_LEVELS if level_schedule is None else level_schedule)
    if not levels or any(l <= 0 for l in levels):
        raise ParameterError("level schedule must be positive")
    if any(b >= a_ for a_, b in zip(levels, levels[1:])):
        raise ParameterError("level schedule must be strictly decreasing")
    H = a.horizon
    tail_mean, _ = tail_extremum(prefix_means(a.values), tail_fraction)
    if tail_mean >= levels[0] * DENSITY_MARGIN:
        raise PreconditionError(
            f"tail Cesàro means reach {tail_mean}, not below "
            f"level_1 * margin = {levels[0] * DENSITY_MARGIN}; sequence is not Cesàro-null "
            f"at this horizon",
            witness={"tail_mean_max": tail_mean, "required_below": levels[0] * DENSITY_MARGIN})
    cums = {level: np.cumsum(a.values >= level) for level in levels}
    boundaries, stages = [], []
    flagged = np.zeros(H, dtype=bool)
    truncated_at = None
    T1 = _first_certified(cums[levels[0]], levels[0], 1, H)
    if T1 is None:
        truncated_at = 0
    else:
        boundaries.append(T1)
        k = 1
        while k < len(levels):
            level = levels[k]
            Tk = boundaries[-1]
            lo = Tk + max(1, math.ceil(MIN_STAGE_RATIO * Tk))
            T_next = _first_certified(cums[level], level, lo, H)
            if T_next is None:
                truncated_at = k
                break
            flagged[Tk:T_next] |= a.values[Tk:T_next] >= level
            certified = float(cums[level][T_next - 1] / T_next)
            boundaries.append(T_next)
            stages.append({"stage": k, "T": Tk, "T_next": T_next, "level": level,
                           "certified_density": certified})
            k += 1
        tail_level = levels[min(len(boundaries), len(levels) - 1)]
        Tk = boundaries[-1]
        if Tk < H:
            flagged[Tk:] |= a.values[Tk:] >= tail_level
            stages.append({"stage": len(boundaries), "T": Tk, "T_next": H,
                           "level": tail_level, "certified_density": None})
    J = IndexSet.from_mask(flagged)
    for rec in stages:
        rec["realized_J_density_at_T_next"] = prefix_density(J, rec["T_next"])
    params = {"levels": levels, "density_margin": DENSITY_MARGIN,
              "min_stage_ratio": MIN_STAGE_RATIO, "tail_fraction": tail_fraction,
              "horizon": H, "realized_J_density_at_horizon": prefix_density(J, H)}
    return NullSetExtraction(J, boundaries, stages, truncated_at, params)


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
    over small noise decaying like n^-q: Cesàro-null as H grows."""
    H = draw(st.integers(10, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    n = np.arange(1, H + 1, dtype=np.float64)
    values = draw(st.floats(0.0, 0.5)) * rng.random(H) * n ** -draw(st.floats(0.2, 2.0))
    spikes = (np.arange(int(H ** 0.5) + 1) ** draw(st.floats(1.5, 3.0))).astype(np.int64)
    values[spikes[spikes < H]] = draw(st.floats(0.1, 2.0))
    values[rng.integers(0, H, size=draw(st.integers(0, 5)))] = 1.0
    return BoundedSequence(values, max(1.0, float(values.max())))


level_schedules = st.one_of(
    st.none(),
    st.lists(st.floats(1e-4, 4.0), min_size=1, max_size=12, unique=True).map(
        lambda ls: sorted(ls, reverse=True)),
    st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(null_sequences(), level_schedules)
def test_extract_null_set_matches_eager_counts(a, levels):
    assert extraction_outcome(extract_null_set, a, levels) == \
        extraction_outcome(reference_extract_null_set, a, levels)
