import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    IndexSet,
    ParameterError,
    RangeError,
    prefix_density,
    upper_density_estimate,
)
from shadowlab.density import tail_window_start

from oracles import (complement, lower_density_estimate, prefix_density_exact,
                     reference_index_set)


def evens(horizon):
    return IndexSet.from_iterable(range(0, horizon, 2), horizon)


def test_prefix_density_evens():
    assert prefix_density(evens(10), 10) == 0.5


def test_prefix_density_empty_and_full():
    empty = IndexSet.from_iterable([], 10)
    assert all(prefix_density(empty, n) == 0.0 for n in range(11))
    full = IndexSet.from_iterable(range(10), 10)
    assert all(prefix_density(full, n) == 1.0 for n in range(1, 11))
    assert prefix_density(full, 0) == 0.0


# Each form of an iterable of indices, made afresh for every read (a
# generator is read once).
FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda v: (j for j in v),
    "int64 array": lambda v: np.array(v, dtype=np.int64),
    "int32 array": lambda v: np.array(v, dtype=np.int32),
    "set": set,
}


def index_set_or_error(make):
    """(indices, horizon) of the set that make() builds, or the error it raises."""
    try:
        A = make()
    except ParameterError as exc:
        return str(exc)
    assert A.indices.dtype == np.int64
    return A.indices.tolist(), A.horizon


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.lists(st.integers(-2, 40), max_size=60), st.sampled_from(sorted(FORMS))),
    # Ranges, ascending or descending.
    st.builds(range, st.integers(-2, 40), st.integers(-2, 40),
              st.integers(1, 7) | st.integers(-7, -1)).map(lambda r: (r, "range"))),
    st.integers(0, 40))
def test_from_iterable_matches_sorted_then_unique(case, horizon):
    # Duplicates in any order are dropped; an index outside [0, horizon) is
    # the same ParameterError.
    values, form = case
    make = (lambda: values) if form == "range" else (lambda: FORMS[form](values))
    assert (index_set_or_error(lambda: IndexSet.from_iterable(make(), horizon))
            == index_set_or_error(lambda: reference_index_set(make(), horizon)))


entries = st.one_of(st.integers(-2, 40), st.integers(-2, 40).map(float), st.floats(-2.0, 40.0),
                  st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf]))


def _not_an_integer(v) -> bool:
    return isinstance(v, bool) or not float(v).is_integer()


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, max_size=12), st.integers(0, 40), st.booleans())
def test_from_iterable_takes_integers_and_integral_floats_only(values, horizon, as_array):
    # Each entry was truncated to an int: [1.5, 2.7] gave [1, 2], and
    # [True, False] gave [0, 1]. Now the first entry that is not an integer or
    # an integral float is named; the others read as their ints.
    if as_array:
        values = [float(v) for v in values if not isinstance(v, bool)]
    make = (lambda: np.array(values, dtype=np.float64)) if as_array else (lambda: values)
    bad = [v for v in values if _not_an_integer(v)]
    expected = (f"index must be an integer, got {bad[0]!r}" if bad else
                index_set_or_error(lambda: reference_index_set(map(int, values), horizon)))
    assert index_set_or_error(lambda: IndexSet.from_iterable(make(), horizon)) == expected


@pytest.mark.parametrize("make, message", [
    (lambda: IndexSet.from_iterable([1.5, 2.7], 10), "index must be an integer, got 1.5"),
    (lambda: IndexSet(np.array([1.5, 2.5]), 10), "index must be an integer, got 1.5"),
    (lambda: IndexSet.from_iterable(np.array([True, False]), 10),
     "index must be an integer, got True"),
    (lambda: IndexSet.from_iterable([2, 10**30], 10), "indices must fit in int64"),
])
def test_an_index_that_is_not_an_integer_is_rejected_naming_it(make, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        make()


def test_prefix_density_range_error():
    with pytest.raises(RangeError):
        prefix_density(evens(10), 11)


def test_upper_density_evens():
    # Oracle: direct scan of prefix densities over the tail window.
    A = evens(1000)
    direct = max(sum(1 for j in range(0, n, 2)) / n for n in range(500, 1001))
    est = upper_density_estimate(A, 0.5)
    assert est == pytest.approx(direct, abs=1e-15)
    assert abs(est - 0.5) <= 1 / 500


def test_finite_set_has_tiny_upper_density():
    A = IndexSet.from_iterable(range(10), 10_000)
    assert upper_density_estimate(A, 0.5) <= 10 / 5000


def test_full_set_density_one():
    A = IndexSet.from_iterable(range(1000), 1000)
    assert upper_density_estimate(A, 0.5) == 1.0
    assert lower_density_estimate(A, 0.5) == 1.0


def test_in_M_alpha_evens():
    A = evens(1000)
    assert lower_density_estimate(A, 0.5) > 0.4
    assert not lower_density_estimate(A, 0.5) > 0.6


def test_in_M_alpha_full_set():
    A = IndexSet.from_iterable(range(1000), 1000)
    for alpha in (0.1, 0.5, 0.99):
        assert lower_density_estimate(A) > alpha


def test_duality_at_every_prefix():
    rng = np.random.default_rng(0)
    for _ in range(25):
        H = int(rng.integers(10, 400))
        mask = rng.random(H) < rng.random()
        A = IndexSet.from_mask(mask)
        Ac = complement(A)
        for n in range(1, H + 1):
            assert prefix_density_exact(A, n) + prefix_density_exact(Ac, n) == Fraction(1)
            assert prefix_density(A, n) + prefix_density(Ac, n) == pytest.approx(1.0, abs=1e-12)


def test_monotone_coarsening():
    rng = np.random.default_rng(1)
    H = 300
    mask_a = rng.random(H) < 0.3
    mask_b = mask_a | (rng.random(H) < 0.3)
    A, B = IndexSet.from_mask(mask_a), IndexSet.from_mask(mask_b)
    for n in range(1, H + 1):
        assert prefix_density(A, n) <= prefix_density(B, n)


def test_upper_at_least_lower():
    rng = np.random.default_rng(2)
    for _ in range(20):
        H = int(rng.integers(10, 500))
        A = IndexSet.from_mask(rng.random(H) < rng.random())
        assert upper_density_estimate(A) >= lower_density_estimate(A)


def test_index_set_validation():
    # Each said only "indices must be strictly increasing naturals" or "all
    # indices must be < horizon 10"; each names the value and the rule it breaks.
    with pytest.raises(ParameterError, match="^index 3 is not above the index before it, 3$"):
        IndexSet(np.array([3, 3, 5]), 10)
    with pytest.raises(ParameterError, match="^index 12 is not below the horizon 10$"):
        IndexSet(np.array([4, 12]), 10)
    with pytest.raises(ParameterError, match="^index -1 is negative$"):
        IndexSet.from_iterable([-1], 10)
    with pytest.raises(ParameterError, match="^index 2 is not above the index before it, 7$"):
        IndexSet(np.array([1, 7, 2]), 10)
    with pytest.raises(ParameterError, match="^index -3 is negative$"):
        IndexSet(np.array([-3, 7, 2]), 10)
    with pytest.raises(ParameterError, match="^horizon must be nonnegative, got -1$"):
        IndexSet(np.array([], dtype=np.int64), -1)


def test_index_set_complement_partitions():
    A = IndexSet.from_iterable([1, 4, 7], 9)
    assert complement(A).to_list() == [0, 2, 3, 5, 6, 8]


def test_small_horizon_rejected():
    with pytest.raises(ParameterError):
        upper_density_estimate(IndexSet.from_iterable([0], 5))


@st.composite
def index_sets(draw):
    horizon = draw(st.integers(10, 2_000))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return IndexSet.from_mask(np.random.default_rng(seed).random(horizon) < density)


@given(A=index_sets(), tail_fraction=st.floats(0.01, 0.99))
@settings(max_examples=150, deadline=None)
def test_density_estimates_are_the_scalar_prefix_density_extrema(A, tail_fraction):
    # Oracle: the scalar prefix_density at every n of the tail window.
    n_lo = tail_window_start(A.horizon, tail_fraction)
    scalar = [prefix_density(A, n) for n in range(n_lo, A.horizon + 1)]
    assert upper_density_estimate(A, tail_fraction) == max(scalar)
    assert lower_density_estimate(A, tail_fraction) == min(scalar)
