"""Differential tests of the O(H) window scan against the quadratic full scan.

``full_scan_oracle`` is the scan ``is_average_pseudo_orbit`` used before:
one pass per window length n in [N, H], the first violating start of each
length, and the lexicographically first (k, n) over all of them. The fast
scan must reproduce its verdict and witness exactly, and its
``max_window_mean`` must equal the same scan over lengths N..min(2N - 1, H).
The two maxima agree when the window differences are exact (the dyadic
cases), but rounded prefix-sum differences can make a longer window's float
mean exceed every shorter one's.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shadowlab import is_average_pseudo_orbit

MAX_H = 80


def full_scan_oracle(e: np.ndarray, delta: float, N: int, longest: int | None = None):
    """(witness or None, max window mean) of the quadratic scan over window
    lengths N..longest (default: every length up to H)."""
    H = len(e)
    S = np.concatenate(([0.0], np.cumsum(e)))
    worst = None
    candidates = []
    for n in range(N, (longest or H) + 1):
        means = (S[n:] - S[: H - n + 1]) / n
        bad = np.flatnonzero(means >= delta)
        if bad.size:
            k = int(bad[0])
            candidates.append((k, n, float(means[k])))
        top = float(means.max())
        if worst is None or top > worst:
            worst = top
    if not candidates:
        return None, worst
    k, n, mean = min(candidates, key=lambda t: (t[0], t[1]))
    return {"k": k, "n": n, "window_mean": mean}, worst


def orbit_with_step_errors(e) -> SimpleNamespace:
    """A stand-in for a pseudo-orbit with the given step errors. A PseudoOrbit
    derives its step errors from its points, so the stand-in holds only the
    two attributes is_average_pseudo_orbit reads: step_errors and horizon."""
    e = np.asarray(e, dtype=np.float64)
    return SimpleNamespace(step_errors=e, horizon=len(e))


def assert_matches_oracle(e, delta: float):
    xi = orbit_with_step_errors(e)
    H = len(e)
    for N in range(1, H + 1):
        verdict = is_average_pseudo_orbit(xi, delta, N)
        witness, _ = full_scan_oracle(xi.step_errors, delta, N)
        assert verdict.verdict is (witness is None)
        assert verdict.witness == witness
        _, worst = full_scan_oracle(xi.step_errors, delta, N, min(2 * N - 1, H))
        assert verdict.params["max_window_mean"] == worst
        assert verdict.params["scan"] == "full"


def exact_reaching_windows(e: list[Fraction], delta: Fraction) -> np.ndarray:
    """reach[k, n]: the exact mean of window (k, n) is at least delta."""
    H = len(e)
    reach = np.zeros((H, H + 1), dtype=bool)
    for k in range(H):
        total = Fraction(0)
        for n in range(1, H - k + 1):
            total += e[k + n - 1]
            reach[k, n] = total / n >= delta
    return reach


def first_window(reach: np.ndarray, N: int):
    """Lexicographically first (k, n), n >= N, with reach[k, n]."""
    rows = np.flatnonzero(reach[:, N:].any(axis=1))
    if not rows.size:
        return None
    k = int(rows[0])
    return k, N + int(np.argmax(reach[k, N:]))


@st.composite
def dyadic_case(draw):
    # Sums of sixteenths are exact in binary floating point; a mean below
    # a sixteenth-valued delta is below it by at least 1/(16 H), far above
    # the rounding of one division, so the float scan must match exact
    # rational arithmetic, ties included.
    H = draw(st.integers(1, MAX_H))
    units = draw(st.lists(st.integers(0, 16), min_size=H, max_size=H))
    delta_units = draw(st.integers(1, 16))
    return units, delta_units


@given(dyadic_case())
@settings(max_examples=120, deadline=None)
def test_dyadic_ties_match_oracle_and_exact_arithmetic(case):
    units, delta_units = case
    e = np.array(units, dtype=np.float64) / 16
    delta = delta_units / 16
    assert_matches_oracle(e, delta)
    xi = orbit_with_step_errors(e)
    reach = exact_reaching_windows([Fraction(u, 16) for u in units], Fraction(delta_units, 16))
    for N in range(1, len(units) + 1):
        verdict = is_average_pseudo_orbit(xi, delta, N)
        # Exact differences: the densest window is shorter than 2N.
        assert verdict.params["max_window_mean"] == full_scan_oracle(e, delta, N)[1]
        expected = first_window(reach, N)
        got = None if verdict.verdict else (verdict.witness["k"], verdict.witness["n"])
        assert got == expected


unit_floats = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def periodic_case(draw):
    pattern = draw(st.lists(unit_floats, min_size=1, max_size=5))
    H = draw(st.integers(1, MAX_H))
    e = np.resize(np.array(pattern, dtype=np.float64), H)
    return e, draw_delta(draw, e)


@st.composite
def sparse_case(draw):
    H = draw(st.integers(1, MAX_H))
    spikes = draw(st.dictionaries(st.integers(0, H - 1), unit_floats, max_size=6))
    e = np.zeros(H)
    for j, v in spikes.items():
        e[j] = v
    return e, draw_delta(draw, e)


def draw_delta(draw, e: np.ndarray) -> float:
    """A free delta, or one exactly equal to some window mean (a tie)."""
    H = len(e)
    if draw(st.booleans()):
        return draw(st.floats(1e-6, 1.0))
    k = draw(st.integers(0, H - 1))
    n = draw(st.integers(1, H - k))
    S = np.concatenate(([0.0], np.cumsum(e)))
    mean = float((S[k + n] - S[k]) / n)
    return mean if mean > 0 else 0.5


@given(periodic_case())
@settings(max_examples=120, deadline=None)
def test_periodic_errors_match_oracle(case):
    assert_matches_oracle(*case)


@given(sparse_case())
@settings(max_examples=120, deadline=None)
# Subnormal errors: 2u/3 rounds up to u = delta, though 2u < 3 delta.
@example((np.array([5e-324, 5e-324, 0.0]), 5e-324))
def test_sparse_errors_match_oracle(case):
    assert_matches_oracle(*case)


def test_subnormal_mean_rounding_up_to_delta_is_a_violation():
    u = float(np.finfo(np.float64).smallest_subnormal)
    for e in ([u, u, 0.0], [0.0, u, 0.0, u, 0.0], [u, 0.0, u] * 5):
        assert_matches_oracle(np.array(e), u)


# Rounded differences: at N = 1 the window (2, 3) reads 0.8644625966881375,
# above the max over windows of length 1, 0.8644625966881374.
ROUNDED_LONG_WINDOW = [0.050919444647296044, 1e-05] + [0.8644625966881374] * 3


@given(st.lists(unit_floats, min_size=1, max_size=MAX_H), st.floats(1e-6, 1.0))
@settings(max_examples=120, deadline=None)
@example(ROUNDED_LONG_WINDOW, 0.5)
def test_random_errors_match_oracle(values, delta):
    assert_matches_oracle(np.array(values), delta)


def test_a_long_window_above_the_reported_max_is_still_the_witness():
    # max_window_mean reads 0.8644625966881374 < delta, yet within the gate's
    # slack, so the scan runs and finds the violating window (2, 3).
    delta = 0.8644625966881375
    assert_matches_oracle(np.array(ROUNDED_LONG_WINDOW), delta)
    verdict = is_average_pseudo_orbit(orbit_with_step_errors(ROUNDED_LONG_WINDOW), delta, 1)
    assert verdict.params["max_window_mean"] < delta
    assert not verdict.verdict
    assert verdict.witness == {"k": 2, "n": 3, "window_mean": delta}


def test_constant_and_zero_errors_match_oracle():
    for c in (0.0, 0.1, 0.3, 1 / 3, 0.7):
        for delta in (0.1, 0.3, 1 / 3, 0.5):
            assert_matches_oracle(np.full(60, c), delta)
