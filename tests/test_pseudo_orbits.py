import copy
import dataclasses
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlab import (
    BoundedSequence,
    DiskExampleInstance,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    ParameterError,
    PseudoOrbit,
    Word,
    aasp_demo,
    block_length,
    build_disk_system,
    extract_null_set,
    is_asymptotic_average,
    is_average_pseudo_orbit,
    is_ergodic_pseudo_orbit,
    is_pseudo_orbit,
    is_weak_asymptotic_average,
    make_corrupted_orbit,
    make_decaying_instance,
    repair,
    true_orbit,
    verify_equivalence,
)
from shadowlab.concat import BlockPlan
from shadowlab.density import prefix_density
from shadowlab.dynamics import orbit
from shadowlab.pseudo_orbits import jump_sizes, recompute_step_errors
from shadowlab.surgery import select_anchors

from oracles import reference_step


def interval_identity():
    space = MetricSpace.box([0.0], [1.0])
    return GeneratorFamily(space, (GeneratorMap.identity(),)), Word.constant(1, m=1)


def orbit_with_errors(values):
    """1-d identity-family pseudo-orbit whose step errors equal |diff(values)|."""
    family, word = interval_identity()
    return PseudoOrbit.from_points(family, word, np.asarray(values, dtype=float))


def brute_force_average(xi, delta, N):
    e = xi.step_errors
    for n in range(N, xi.horizon + 1):
        for k in range(0, xi.horizon - n + 1):
            if e[k:k + n].mean() >= delta:
                return False
    return True


# ---------------------------------------------------------------------------
# is_pseudo_orbit


def test_true_orbit_is_pseudo_orbit_for_any_delta():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.5, 0.5), 200)
    for delta in (1e-9, 0.1, 1.0):
        assert is_pseudo_orbit(xi, delta)


def test_single_jump_violates_small_delta():
    xi = orbit_with_errors([0.0] * 10 + [0.3] + [0.3] * 5)
    verdict = is_pseudo_orbit(xi, 0.2)
    assert not verdict
    assert verdict.witness["index"] == 9
    assert verdict.witness["step_error"] == pytest.approx(0.3)


def test_noisy_orbit_below_half_delta_passes():
    family, word = build_disk_system()
    delta = 0.2
    all_idx = IndexSet.from_iterable(range(300), 300)
    xi = make_corrupted_orbit(family, word, (0.1, 0.2), all_idx,
                              JumpRule("offset", scale=0.45 * delta, power=0.0), seed=3)
    assert np.all(xi.step_errors < delta)
    assert is_pseudo_orbit(xi, delta)


# ---------------------------------------------------------------------------
# is_ergodic_pseudo_orbit


def test_powers_of_two_corruption_is_ergodic():
    family, word = build_disk_system()
    H = 10_000
    powers = IndexSet.from_iterable([2**k for k in range(14)], H)
    xi = make_corrupted_orbit(family, word, (0.3, 0.1), powers, JumpRule("uniform"), seed=1)
    assert is_ergodic_pseudo_orbit(xi, 0.1, density_tol=0.01)


def test_evens_corruption_is_not_ergodic():
    family, word = build_disk_system()
    H = 2_000
    evens = IndexSet.from_iterable(range(0, H, 2), H)
    xi = make_corrupted_orbit(family, word, (0.3, 0.1), evens, JumpRule("uniform"), seed=2)
    verdict = is_ergodic_pseudo_orbit(xi, 0.05, density_tol=0.01)
    assert not verdict
    assert verdict.witness["exceptional_density"] > 0.01


def test_pseudo_orbit_is_ergodic_at_zero_tolerance():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.5, 0.0), 500)
    assert is_ergodic_pseudo_orbit(xi, 0.01, density_tol=0.0)


# ---------------------------------------------------------------------------
# is_average_pseudo_orbit


def test_true_orbit_is_average():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.2, 0.2), 300)
    assert is_average_pseudo_orbit(xi, 1e-6, N=1)


@pytest.mark.parametrize("N", [0, 201])
def test_average_pseudo_orbit_needs_n_in_1_to_the_horizon(N):
    xi = make_decaying_instance(0, 200).xi
    with pytest.raises(ParameterError, match=r"^N must lie in \[1, horizon=200\]$"):
        is_average_pseudo_orbit(xi, 0.1, N=N)


def test_single_diameter_jump_with_matching_N():
    # x jumps the full diameter once at index 0, then follows the identity.
    values = [0.0] + [1.0] * 200
    xi = orbit_with_errors(values)
    delta = 0.1
    N = int(np.ceil(1.0 / delta)) + 1
    verdict = is_average_pseudo_orbit(xi, delta, N)
    assert verdict
    assert brute_force_average(xi, delta, N)
    tight = is_average_pseudo_orbit(xi, delta, N - 1)
    assert not tight
    assert not brute_force_average(xi, delta, N - 1)
    k, n = tight.witness["k"], tight.witness["n"]
    assert xi.step_errors[k:k + n].mean() >= delta


def test_periodic_unit_jumps_fail():
    # One unit-size error every 5 steps: window means approach 0.2.
    values = []
    for block in range(100):
        values.extend([float(block % 2)] * 5)
    xi = orbit_with_errors(values)
    assert not is_average_pseudo_orbit(xi, 0.1, N=100)


def test_average_witness_recheck():
    values = [0.0, 1.0] * 50
    xi = orbit_with_errors(values)
    verdict = is_average_pseudo_orbit(xi, 0.5, N=2)
    assert not verdict
    k, n, mean = verdict.witness["k"], verdict.witness["n"], verdict.witness["window_mean"]
    assert xi.step_errors[k:k + n].mean() == pytest.approx(mean, abs=1e-12)


def test_exact_scan_at_horizon_40k_with_n_1():
    # 8e8 (k, n) windows: every one is covered without a budget.
    family, word = interval_identity()
    xi = true_orbit(family, word, [0.5], 40_000)
    verdict = is_average_pseudo_orbit(xi, 0.1, N=1)
    assert verdict
    assert verdict.params["scan"] == "full"
    assert verdict.params["max_window_mean"] == 0.0
    values = np.full(40_001, 0.5)
    values[30_000] = 0.75
    jumped = orbit_with_errors(values)
    verdict = is_average_pseudo_orbit(jumped, 0.2, N=1)
    assert not verdict
    assert verdict.witness == {"k": 29_999, "n": 1, "window_mean": 0.25}
    assert verdict.params["max_window_mean"] == 0.25


# ---------------------------------------------------------------------------
# weak asymptotic / asymptotic


def test_weak_asymptotic_constant_error():
    c = 0.25
    xi = orbit_with_errors([0.0 if j % 2 == 0 else c for j in range(41)])
    assert np.allclose(xi.step_errors, c)
    assert is_weak_asymptotic_average(xi, c + 0.01)
    assert not is_weak_asymptotic_average(xi, c)
    assert not is_weak_asymptotic_average(xi, c / 2)


def test_asymptotic_harmonic_errors():
    # Oracle: direct summation of prefix means of 1/(j+1).
    H = 10_000
    e = 1.0 / (np.arange(H) + 1.0)
    # explicit zigzag achieving |x_{j+1} - x_j| = e_j inside [0,1]
    pts = [0.0]
    for err in e:
        nxt = pts[-1] + err if pts[-1] + err <= 1.0 else pts[-1] - err
        pts.append(nxt)
    xi = orbit_with_errors(pts)
    assert np.allclose(xi.step_errors, e, atol=1e-12)
    means = np.cumsum(e) / np.arange(1, H + 1)
    oracle_max_tail = means[5000 - 1:].max()
    assert oracle_max_tail < 0.01
    assert is_asymptotic_average(xi, 0.01, tail_fraction=0.5)


def test_asymptotic_constant_error_fails():
    xi = orbit_with_errors([0.0 if j % 2 == 0 else 0.5 for j in range(101)])
    assert not is_asymptotic_average(xi, 0.01)


def test_true_orbit_asymptotic():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.1, 0.7), 100)
    assert is_asymptotic_average(xi, 1e-9)


# ---------------------------------------------------------------------------
# make_corrupted_orbit


def test_empty_corruption_gives_true_orbit():
    family, word = build_disk_system()
    empty = IndexSet.from_iterable([], 100)
    xi = make_corrupted_orbit(family, word, (0.4, -0.2), empty, JumpRule("uniform"), seed=0)
    assert np.all(xi.step_errors == 0.0)


def test_fixed_jump_at_zero():
    family, word = build_disk_system()
    target = (0.25, 0.25)
    only_zero = IndexSet.from_iterable([0], 50)
    xi = make_corrupted_orbit(family, word, (1.0, 0.0), only_zero,
                              JumpRule("fixed", point=target), seed=0)
    image = reference_step(family, word.symbol_at(0), [1.0, 0.0])
    assert xi.step_errors[0] == pytest.approx(family.space.distance(image, target))
    assert np.all(xi.step_errors[1:] == 0.0)
    assert np.allclose(xi.points[1], target)


def test_squares_corruption_is_ergodic_at_2_percent():
    family, word = build_disk_system()
    H = 10_000
    squares = IndexSet.from_iterable([k * k for k in range(100)], H)
    xi = make_corrupted_orbit(family, word, (0.6, 0.3), squares, JumpRule("uniform"), seed=4)
    assert is_ergodic_pseudo_orbit(xi, 0.1, density_tol=0.02)


def test_corruption_deterministic_under_seed():
    family, word = build_disk_system()
    squares = IndexSet.from_iterable([k * k for k in range(10)], 100)
    a = make_corrupted_orbit(family, word, (0.6, 0.3), squares, JumpRule("uniform"), seed=9)
    b = make_corrupted_orbit(family, word, (0.6, 0.3), squares, JumpRule("uniform"), seed=9)
    assert np.array_equal(a.points, b.points)


def test_clamped_jumps_flagged_and_in_space():
    family, word = build_disk_system()
    all_idx = IndexSet.from_iterable(range(50), 50)
    xi = make_corrupted_orbit(family, word, (1.0, 0.0), all_idx,
                              JumpRule("offset", scale=3.0, power=0.0), seed=5)
    assert np.all(family.space.contains(xi.points))
    assert len(xi.meta["clamped_indices"]) > 0


@pytest.mark.parametrize("scale, power, fails", [
    # 50 ** power as a Python int: past 2**1024 a float scale cannot divide it.
    (1.0, 10**9, True), (1.0, 182, True), (1.0, 181, False),
    # An int scale would divide it exactly, to a jump of size 0; it fails alike.
    (1, 10**9, True), (1, 10**6, True), (1, 182, True), (1, 181, False)])
def test_an_integer_jump_power_out_of_float_range_fails_fast_naming_it(scale, power, fails):
    # 50 ** 10**9 took hours to compute before the error was raised.
    family, word = build_disk_system()
    last = IndexSet.from_iterable([49], 50)
    rule = JumpRule("offset", scale=scale, power=power)
    start = time.perf_counter()
    if fails:
        with pytest.raises(ParameterError, match="out of floating-point range") as err:
            make_corrupted_orbit(family, word, (0.1, 0.1), last, rule, seed=1)
        assert err.value.path == ("power",)
    else:
        make_corrupted_orbit(family, word, (0.1, 0.1), last, rule, seed=1)
    assert time.perf_counter() - start < 1.0


def reference_jump_sizes(rule, steps):
    """Python's scale / (j + 1) ** power at each step, or the error jump_sizes
    raises where one size is not a finite float: where the expression raises
    or is not finite, or where an int (j + 1) ** power has no float, which an
    int scale would divide exactly."""
    out_of_range = f"jump power {rule.power} is out of floating-point range"
    try:
        if steps and type(rule.power) is int and rule.power > 0:
            float((steps[-1] + 1) ** rule.power)
        sizes = np.array([rule.scale / (j + 1) ** rule.power for j in steps])
    except (OverflowError, ZeroDivisionError):
        return out_of_range
    return sizes.tobytes() if np.isfinite(sizes).all() else out_of_range


def jump_sizes_or_error(rule, steps):
    try:
        return jump_sizes(rule, steps).tobytes()
    except ParameterError as exc:
        assert exc.path == ("power",)
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(scale=st.one_of(st.floats(1e-300, 1e300), st.integers(1, 10**6)),
       power=st.one_of(st.floats(-400.0, 400.0), st.integers(-400, 400),
                       st.sampled_from([0.5, 1.5, 2.0, 2.5, 3.3, -0.5, 181, 182])),
       steps=st.lists(st.integers(0, 10**6 - 1), max_size=40, unique=True).map(sorted))
def test_jump_sizes_are_pythons_power_bit_for_bit(scale, power, steps):
    # np.power differs from ** in the last bit on some sizes (numpy 2.4 on
    # AVX-512: 710 of 10**6 at power 0.5), so each size stays one expression.
    rule = JumpRule("offset", scale=scale, power=power)
    assert jump_sizes_or_error(rule, steps) == reference_jump_sizes(rule, steps)


@pytest.mark.parametrize("scale", [1.0, 1])
@pytest.mark.parametrize("power, fails", [(1023, False), (1024, True)])
def test_a_jump_power_at_the_edge_of_float_range_fails_alike_for_either_scale(scale, power,
                                                                                fails):
    # At step 1, (j + 1) ** power is 2 ** power: 2 ** 1024 is the first power of
    # two past the float range, inside the margin of the probe's estimate.
    family, word = build_disk_system()
    rule = JumpRule("offset", scale=scale, power=power)
    step = IndexSet.from_iterable([1], 2)
    if fails:
        with pytest.raises(ParameterError, match="out of floating-point range") as err:
            make_corrupted_orbit(family, word, (0.1, 0.1), step, rule, seed=1)
        assert err.value.path == ("power",)
    else:
        make_corrupted_orbit(family, word, (0.1, 0.1), step, rule, seed=1)


# ---------------------------------------------------------------------------
# Cross-class properties


def test_implication_chain_on_generated_corpus():
    family, word = build_disk_system()
    rng = np.random.default_rng(12)
    for seed in range(5):
        H = 400
        count = int(rng.integers(0, 12))
        idx = IndexSet.from_iterable(
            sorted(rng.choice(H, size=count, replace=False)), H)
        xi = make_corrupted_orbit(family, word, family.space.sample(rng), idx,
                                  JumpRule("offset", scale=0.05, power=0.0), seed=seed)
        delta = float(xi.step_errors.max()) + 1e-6
        delta_prime = delta * 1.5
        assert is_pseudo_orbit(xi, delta)
        assert is_average_pseudo_orbit(xi, delta_prime, N=1)
        assert is_weak_asymptotic_average(xi, delta_prime)


def test_classification_invariant_under_recache():
    family, word = build_disk_system()
    squares = IndexSet.from_iterable([k * k for k in range(10)], 120)
    xi = make_corrupted_orbit(family, word, (0.2, 0.2), squares, JumpRule("uniform"), seed=6)
    recached = PseudoOrbit.from_points(family, word, xi.points, xi.meta)
    assert np.array_equal(recompute_step_errors(family, word, xi.points), xi.step_errors)
    for delta in (0.05, 0.5):
        assert is_pseudo_orbit(xi, delta).verdict == is_pseudo_orbit(recached, delta).verdict
    assert np.array_equal(xi.step_errors, recached.step_errors)


def test_a_pseudo_orbit_derives_its_record_and_takes_none():
    # A disk orbit with jumps at steps 5 and 50. The constructor took a zero
    # record for its points, replace kept a true orbit's record on them, and
    # every array took writes; each orbit then passed is_pseudo_orbit at 0.01.
    family, word = build_disk_system()
    jumps = IndexSet.from_iterable([5, 50], 100)
    xi = make_corrupted_orbit(family, word, (0.6, 0.3), jumps,
                              JumpRule("fixed", point=(0.9, 0.0)), seed=0)
    assert xi.defects.tolist() == [5, 50] and not is_pseudo_orbit(xi, 0.01)
    for record in ("step_errors", "defects"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{record}'"):
            PseudoOrbit(family, word, xi.points, {}, **{record: np.zeros(100)})
        with pytest.raises(ValueError, match=f"field {record} is declared with init=False"):
            dataclasses.replace(xi, **{record: np.zeros(100)})
    jumped = dataclasses.replace(true_orbit(family, word, (0.6, 0.3), 100), points=xi.points)
    assert jumped.defects.tolist() == [5, 50]
    assert np.array_equal(jumped.step_errors, xi.step_errors)
    for name, index, value in (("points", 3, [5.0, 5.0]), ("step_errors", 5, 0.0),
                               ("defects", 0, 1)):
        with pytest.raises(ValueError, match="read-only"):
            getattr(xi, name)[index] = value
    # The orbit's points are a view: the array given stays writable.
    given = xi.points.copy()
    PseudoOrbit(family, word, given)
    given[0] = 0.0


def test_a_pseudo_orbit_takes_no_symbols():
    # A swap-only true orbit, built under the alternating word with the swap's
    # symbols handed in, reported no defect and passed is_pseudo_orbit at 0.01.
    family, word = build_disk_system()
    swaps = true_orbit(family, Word.constant(1, 2), (0.6, 0.3), 100)
    assert "symbols" not in {f.name for f in dataclasses.fields(PseudoOrbit)}
    with pytest.raises(TypeError, match="unexpected keyword argument 'symbols'"):
        PseudoOrbit(family, word, swaps.points, {}, symbols=Word.constant(1, 2).symbols(100))
    xi = PseudoOrbit(family, word, swaps.points)
    assert xi.defects.tolist() == list(range(1, 100, 2)) and not is_pseudo_orbit(xi, 0.01)


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda xi: pickle.loads(pickle.dumps(xi))}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copy_of_a_pseudo_orbit_is_built_by_the_constructor(monkeypatch, how):
    # A deep copy and a pickle gave writable arrays, so a point written into
    # one kept the original's record, and no copy went through the constructor.
    family, word = build_disk_system()
    xi = make_corrupted_orbit(family, word, (0.6, 0.3), IndexSet.from_iterable([5, 50], 100),
                              JumpRule("fixed", point=(0.9, 0.0)), seed=0)
    built, post_init = [], PseudoOrbit.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PseudoOrbit, "__post_init__", counted)
    got = COPIES[how](xi)
    assert len(built) == 1 and built[0] is got
    for name in ("points", "step_errors", "defects"):
        assert not getattr(got, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        got.points[3] = [0.9, 0.0]
    again = PseudoOrbit(got.family, got.word, got.points.copy(), got.meta)
    assert got.meta == xi.meta and got.points.tobytes() == xi.points.tobytes()
    assert got.step_errors.tobytes() == again.step_errors.tobytes()
    assert got.defects.tobytes() == again.defects.tobytes() and got.defects.tolist() == [5, 50]


def test_step_errors_bounded_by_diameter():
    family, word = build_disk_system()
    all_idx = IndexSet.from_iterable(range(200), 200)
    xi = make_corrupted_orbit(family, word, (0.9, 0.1), all_idx, JumpRule("uniform"), seed=7)
    assert np.all(xi.step_errors >= 0.0)
    assert np.all(xi.step_errors <= family.space.diameter + 1e-12)


def test_false_verdict_requires_witness():
    from shadowlab import ClassificationVerdict
    with pytest.raises(ValueError):
        ClassificationVerdict("anything", False, None, {})
    ok = ClassificationVerdict("anything", True, None, {"x": 1})
    assert bool(ok) and ok.to_dict()["params"] == {"x": 1}


def brute_min_witness(e, delta, N):
    """Lexicographic-min violating (k, n) by direct window means."""
    H = len(e)
    for k in range(H):
        for n in range(N, H - k + 1):
            if np.mean(e[k:k + n]) >= delta:
                return k, n
    return None


def test_average_scan_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(15):
        H = int(rng.integers(40, 120))
        e = rng.uniform(0, 0.5, size=H) * (rng.random(H) < 0.3)
        pts = [0.0]
        for err in e:
            pts.append(pts[-1] + err if pts[-1] + err <= 1.0 else pts[-1] - err)
        xi = orbit_with_errors(pts)
        assert np.allclose(xi.step_errors, e, atol=1e-12)
        delta = float(rng.uniform(0.05, 0.4))
        N = int(rng.integers(1, 10))
        verdict = is_average_pseudo_orbit(xi, delta, N)
        expected = brute_min_witness(xi.step_errors, delta, N)
        if expected is None:
            assert verdict.verdict
        else:
            assert not verdict.verdict
            assert (verdict.witness["k"], verdict.witness["n"]) == expected


# ---------------------------------------------------------------------------
# Thresholds: one rule, "not > 0", so NaN is rejected with 0 and negatives


def _no_null_set(xi, tol):
    a = BoundedSequence.from_values(xi.step_errors)
    return verify_equivalence(a, IndexSet.from_iterable([], a.horizon), tol)


THRESHOLD_CHECKS = {
    "is_pseudo_orbit": is_pseudo_orbit,
    "is_ergodic_pseudo_orbit": is_ergodic_pseudo_orbit,
    "is_average_pseudo_orbit": lambda xi, v: is_average_pseudo_orbit(xi, v, 5),
    "is_weak_asymptotic_average": is_weak_asymptotic_average,
    "is_asymptotic_average": is_asymptotic_average,
    "block_length": lambda xi, v: block_length(xi.family.space, v),
    "verify_equivalence": _no_null_set,
    "extract_null_set": lambda xi, v: extract_null_set(
        BoundedSequence.from_values(xi.step_errors), [0.5, v]),
    "repair": repair,
    "aasp_demo": lambda xi, v: aasp_demo(DiskExampleInstance(xi, xi.points[0]), 0.5, v),
}


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("check", sorted(THRESHOLD_CHECKS))
def test_a_threshold_that_is_not_positive_is_rejected(check, value):
    # NaN passed the `delta <= 0` checks: three classifiers called a 200-step
    # decaying orbit a pseudo-orbit of every kind at delta = NaN, while the
    # weak asymptotic one said no, verify_equivalence took any tol, and a NaN
    # level gave an empty null set truncated at stage 0.
    xi = make_decaying_instance(0, 200).xi
    with pytest.raises(ParameterError, match="must be positive"):
        THRESHOLD_CHECKS[check](xi, value)


# A threshold checked under the caller's own name before the call it delegates
# to: repair said "delta must be positive, got -0.5", its gate's delta / 2, and
# is_asymptotic_average and aasp_demo said "delta must be positive".
CALLERS_NAMES = {
    "repair": ("delta", repair),
    "is_asymptotic_average": ("tol", is_asymptotic_average),
    "aasp_demo": ("asymptotic_tol", THRESHOLD_CHECKS["aasp_demo"]),
}


@pytest.mark.parametrize("value", [-1.0, 0.0])
@pytest.mark.parametrize("case", sorted(CALLERS_NAMES))
def test_a_threshold_error_names_the_callers_argument(case, value):
    xi = make_decaying_instance(0, 200).xi
    name, call = CALLERS_NAMES[case]
    with pytest.raises(ParameterError, match=f"^{name} must be positive, got {value}$"):
        call(xi, value)


@pytest.mark.parametrize("density_tol", [-1.0, float("nan")])
def test_a_density_tol_that_is_negative_or_nan_is_rejected(density_tol):
    xi = make_decaying_instance(0, 200).xi
    with pytest.raises(ParameterError, match="density_tol must be nonnegative"):
        is_ergodic_pseudo_orbit(xi, 0.1, density_tol)
    assert is_ergodic_pseudo_orbit(xi, 0.1, 0.0).params["density_tol"] == 0.0


# Each case: the argument's name, as the error names it, and a call that sets
# it, on a 200-step orbit and the index set {1, 4, 7} below 10.
INTEGER_ARGUMENTS = {
    "n": ("n", lambda xi, A, v: prefix_density(A, v)),
    "N": ("N", lambda xi, A, v: is_average_pseudo_orbit(xi, 0.1, v)),
    "M": ("M", lambda xi, A, v: select_anchors(A, v).to_list()),
    "N_k": ("N_1", lambda xi, A, v: BlockPlan((xi,), (v,)).N_levels),
    "IndexSet horizon": ("horizon", lambda xi, A, v: IndexSet.from_iterable([1], v).horizon),
    "orbit n": ("n", lambda xi, A, v: orbit(xi.family, xi.word, xi.points[0], v).tolist()),
    "true_orbit horizon": ("horizon", lambda xi, A, v: true_orbit(
        xi.family, xi.word, xi.points[0], v).points.tolist()),
}


@pytest.mark.parametrize("value", [True, 2.5, "2"])
@pytest.mark.parametrize("case", sorted(INTEGER_ARGUMENTS))
def test_an_integer_argument_that_is_not_an_integer_is_rejected_naming_it(case, value):
    # prefix_density(A, 2.5) returned 0.4, is_average_pseudo_orbit ran N = True
    # as N = 1 and raised a TypeError at N = 2.5, and select_anchors took 2.5.
    # BlockPlan ran N_k = 2.5 as 2, IndexSet stored the horizon 10.5, and
    # orbit and true_orbit ran True as 1 and raised a TypeError at 2.5.
    xi, A = make_decaying_instance(0, 200).xi, IndexSet.from_iterable([1, 4, 7], 10)
    name, call = INTEGER_ARGUMENTS[case]
    with pytest.raises(ParameterError, match=f"^{name} must be an integer, got {value!r}$"):
        call(xi, A, value)
    assert call(xi, A, 2.0) == call(xi, A, 2)


def test_a_negative_true_orbit_horizon_is_rejected_naming_it():
    # true_orbit(..., -5) raised orbit's "orbit length must be >= 1".
    family, word = build_disk_system()
    with pytest.raises(ParameterError, match=r"^horizon must be >= 0, got -5$") as err:
        true_orbit(family, word, (0.6, 0.3), -5)
    assert err.value.path == ("horizon",)
    assert true_orbit(family, word, (0.6, 0.3), 0).horizon == 0
