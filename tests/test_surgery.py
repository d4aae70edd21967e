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
    ParameterError,
    PreconditionError,
    PseudoOrbit,
    RepairResult,
    Word,
    block_length,
    build_disk_system,
    is_average_pseudo_orbit,
    make_corrupted_orbit,
    prefix_density,
    repair,
    select_anchors,
    true_orbit,
)
from shadowlab.dynamics import CIRCLE, UNIT_DISK

from oracles import reference_repair, window_violation_bound_check
from test_orbit_files import families, start_point


def halving_interval():
    space = MetricSpace.box([0.0], [1.0])
    return GeneratorFamily(space, (GeneratorMap.scale([0.5]),)), Word_constant()


def Word_constant():
    from shadowlab import Word
    return Word.constant(1, m=1)


def derived_instance():
    """[0,1] halving system, H=2000, unit jumps at {100, 160, 400}, delta=0.8."""
    family, word = halving_interval()
    bad = IndexSet.from_iterable([100, 160, 400], 2000)
    xi = make_corrupted_orbit(family, word, [1.0], bad, JumpRule("fixed", point=(1.0,)), seed=0)
    return xi


def window_means_oracle(e, N):
    """Direct per-window summation (no prefix sums): max mean per length n."""
    out = {}
    for n in range(N, len(e) + 1):
        windows = np.lib.stride_tricks.sliding_window_view(e, n)
        out[n] = windows.sum(axis=1).max() / n
    return out


# ---------------------------------------------------------------------------
# block_length


def test_block_length_disk_examples():
    disk = MetricSpace.unit_disk()
    assert block_length(disk, 0.4) == 41
    assert block_length(disk, 0.05) == 321


def test_block_length_boundary_case():
    unit = MetricSpace.box([0.0], [1.0])
    assert block_length(unit, 8.1) == 1


def test_block_length_minimality():
    disk = MetricSpace.unit_disk()
    for delta in (0.05, 0.11, 0.4, 1.7):
        M = block_length(disk, delta)
        assert disk.diameter / M < delta / 8
        assert M == 1 or disk.diameter / (M - 1) >= delta / 8


def test_block_length_horizon_gate():
    disk = MetricSpace.unit_disk()
    with pytest.raises(ParameterError) as err:
        block_length(disk, 0.001, horizon=100)
    assert "16001" in str(err.value)


def test_block_length_rejects_a_delta_too_small_for_a_finite_length():
    # 8 * diameter / delta overflows to inf.
    with pytest.raises(ParameterError,
                       match="^delta=5e-324 is too small for a finite block length$"):
        block_length(MetricSpace.unit_disk(), 5e-324)


# ---------------------------------------------------------------------------
# select_anchors


@pytest.mark.parametrize("M", [0, -3])
def test_select_anchors_rejects_a_block_length_below_1(M):
    with pytest.raises(ParameterError, match="^M must be >= 1$"):
        select_anchors(IndexSet.from_iterable([3], 30), M)


def test_select_anchors_greedy():
    bad = IndexSet.from_iterable([3, 5, 12, 20], 30)
    assert select_anchors(bad, 4).to_list() == [3, 12, 20]


def test_select_anchors_single_block():
    bad = IndexSet.from_iterable(range(10), 30)
    assert select_anchors(bad, 10).to_list() == [0]


def test_select_anchors_empty():
    assert select_anchors(IndexSet.from_iterable([], 30), 5).to_list() == []


def test_select_anchors_spacing_property():
    rng = np.random.default_rng(8)
    for _ in range(20):
        H = 500
        bad = IndexSet.from_mask(rng.random(H) < 0.2)
        M = int(rng.integers(1, 40))
        anchors = select_anchors(bad, M).to_list()
        assert all(b - a >= M for a, b in zip(anchors, anchors[1:]))
        # every bad index is covered by some anchor's block
        for l in bad.to_list():
            assert any(a <= l < a + M for a in anchors)


# ---------------------------------------------------------------------------
# repair


def test_repair_true_orbit_unchanged():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.4, 0.4), 300)
    result = repair(xi, 0.5)
    assert np.array_equal(result.y.points, xi.points)
    assert len(result.anchors) == 0
    assert len(result.diff_set) == 0


def test_repair_derived_interval_instance():
    xi = derived_instance()
    delta = 0.8
    assert block_length(xi.family.space, delta) == 11
    result = repair(xi, delta)
    assert result.M == 11
    assert result.anchors.to_list() == [100, 160, 400]
    allowed = set()
    for a in (100, 160, 400):
        allowed.update(range(a, a + 11))
    assert set(result.diff_set.to_list()) <= allowed
    assert is_average_pseudo_orbit(result.y, delta, N=result.M)
    # independent O(H^2) oracle: direct window sums, no prefix-sum reuse
    oracle = window_means_oracle(result.y.step_errors, result.M)
    assert max(oracle.values()) < delta


def test_repair_rejects_non_ergodic():
    family, word = build_disk_system()
    H = 2000
    evens = IndexSet.from_iterable(range(0, H, 2), H)
    xi = make_corrupted_orbit(family, word, (0.5, 0.1), evens, JumpRule("uniform"), seed=1)
    with pytest.raises(PreconditionError) as err:
        repair(xi, 0.2)
    assert err.value.witness is not None


def test_repair_result_invariants():
    family, word = build_disk_system()
    H = 4000
    squares = IndexSet.from_iterable([k * k for k in range(64) if k * k < H], H)
    xi = make_corrupted_orbit(family, word, (0.2, 0.6), squares, JumpRule("uniform"), seed=3)
    delta = 0.4
    result = repair(xi, delta, density_tol=0.03)
    bad = xi.exceptional_set(delta / 2)
    blocks = set(result.blocks.to_list())
    assert set(bad.to_list()) <= blocks
    assert set(result.diff_set.to_list()) <= blocks
    anchors = result.anchors.to_list()
    assert all(b - a >= result.M for a, b in zip(anchors, anchors[1:]))
    # density accounting at the horizon
    assert prefix_density(result.diff_set, H) <= result.M * len(anchors) / H + 1e-12
    assert len(anchors) <= len(bad)


def test_repair_in_block_errors_vanish():
    xi = derived_instance()
    result = repair(xi, 0.8)
    e = result.y.step_errors
    for a in result.anchors.to_list():
        inside = e[a:min(a + result.M - 1, len(e))]
        assert np.all(inside <= 1e-12)


def test_window_decomposition_inequality():
    xi = derived_instance()
    delta = 0.8
    result = repair(xi, delta)
    e = result.y.step_errors
    diam = xi.family.space.diameter
    rng = np.random.default_rng(4)
    H = len(e)
    for _ in range(200):
        n = int(rng.integers(result.M, H))
        k = int(rng.integers(0, H - n + 1))
        window = e[k:k + n]
        count = int(np.count_nonzero(window >= delta / 2))
        mean = window.mean()
        assert mean <= count / n * diam + delta / 2 + 1e-12
        assert mean <= 4.0 / result.M * diam + delta / 2 + 1e-12
        assert 4.0 / result.M * diam + delta / 2 < delta


# ---------------------------------------------------------------------------
# window_violation_bound_check


def test_bound_check_empty_anchor_repair():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.4, 0.4), 300)
    result = repair(xi, 0.5)
    assert window_violation_bound_check(result, 0, result.M)
    assert window_violation_bound_check(result, 50, 2 * result.M)


def test_bound_check_derived_window():
    result = repair(derived_instance(), 0.8)
    assert result.M == 11
    # bound at (k=95, n=50) is 2*61/11, roughly 11.09
    assert window_violation_bound_check(result, 95, 50)
    e = result.y.step_errors
    assert np.count_nonzero(e[95:145] >= 0.4) <= 11


def test_bound_check_window_inside_block():
    result = repair(derived_instance(), 0.8)
    a = result.anchors.to_list()[0]
    e = result.y.step_errors
    # only the block-exit step can violate inside one block
    assert np.count_nonzero(e[a:a + result.M] >= 0.4) <= 1
    assert window_violation_bound_check(result, a, result.M)


def test_bound_check_sampled_windows():
    result = repair(derived_instance(), 0.8)
    rng = np.random.default_rng(5)
    H = result.y.horizon
    for _ in range(300):
        n = int(rng.integers(result.M, H))
        k = int(rng.integers(0, H - n + 1))
        assert window_violation_bound_check(result, k, n)


def test_bound_check_requires_long_window():
    result = repair(derived_instance(), 0.8)
    with pytest.raises(ParameterError):
        window_violation_bound_check(result, 0, result.M - 1)


def test_repair_truncates_block_at_horizon_edge():
    family, word = halving_interval()
    H = 300
    bad = IndexSet.from_iterable([295], H)
    xi = make_corrupted_orbit(family, word, [1.0], bad, JumpRule("fixed", point=(1.0,)), seed=0)
    result = repair(xi, 0.8)
    assert result.truncated_last_block
    assert max(result.blocks.to_list()) <= H
    assert is_average_pseudo_orbit(result.y, 0.8, N=result.M)


# ---------------------------------------------------------------------------
# repair against the per-block oracle


def far_point(space, image) -> tuple:
    """A point of the space at least 0.5 from image: the farther of (1, 0) and
    (-1, 0) on the disk, the farthest corner of the unit box. On the circle it
    is the antipode, image - 0.5 (exact) or image + 0.5 (rounded), whose
    distance from image is 0.5 or, for an image below 0.5, may round down to
    0.5 - 2**-54."""
    if space.kind == UNIT_DISK:
        return (-1.0, 0.0) if image[0] > 0 else (1.0, 0.0)
    if space.kind == CIRCLE:
        return (image[0] - 0.5 if image[0] >= 0.5 else image[0] + 0.5,)
    return tuple(0.0 if x > 0.5 else 1.0 for x in image)


def jumping_orbit(family, word, start, H, jumps) -> PseudoOrbit:
    """The walk of start that lands far_point of the image at each step of jumps:
    those steps, and no other, have errors of at least 0.5 (0.5 - 2**-54 on the
    circle)."""
    p, points = tuple(start), [tuple(start)]
    for j, s in enumerate(word.symbols(H).tolist()):
        p = family.steps[s](p)
        p = far_point(family.space, p) if j in jumps else p
        points.append(p)
    return PseudoOrbit.from_points(family, word, points)


@st.composite
def repair_inputs(draw):
    """(xi, delta): a disk, box or circle orbit over a periodic or iid word whose
    bad steps are drawn; a pair of them exactly M apart, and one whose block the
    horizon cuts, are drawn more often than chance would."""
    kind, family = draw(families())
    m, symbols = family.m, st.integers(1, family.m)
    if draw(st.booleans()):
        word = Word.periodic(draw(st.lists(symbols, min_size=1, max_size=4)), m)
    else:
        word = Word.iid([draw(st.floats(0.1, 1.0)) for _ in range(m)],
                        seed=draw(st.integers(0, 2**64 - 1)))
    # Below 1, delta / 2 is at most 0.5 - 2**-54, so a circle's jump reaches it.
    delta = draw(st.floats(0.5, 1.0, exclude_max=kind == "circle"))
    M = block_length(family.space, delta)
    H = draw(st.integers(max(M + 1, 10), 4 * M + 10))
    jumps = set(draw(st.lists(st.integers(0, H - 1), min_size=1, max_size=6)))
    if draw(st.booleans()):
        k = draw(st.integers(0, H - 1 - M))
        jumps |= {k, k + M}
    if draw(st.booleans()):
        jumps.add(draw(st.integers(max(0, H - M + 1), H - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return jumping_orbit(family, word, start_point(draw, kind, family.space, rng), H,
                         jumps), delta


def assert_same_repair(got, want) -> None:
    """Equal bit for bit: points and step errors; equal blocks and bookkeeping."""
    assert np.array_equal(got.y.points.view(np.uint64), want.y.points.view(np.uint64))
    assert np.array_equal(got.y.step_errors.view(np.uint64), want.y.step_errors.view(np.uint64))
    assert got.y.meta == want.y.meta
    assert (got.M, got.truncated_last_block) == (want.M, want.truncated_last_block)
    for name in ("anchors", "blocks", "diff_set"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.to_list(), a.horizon) == (b.to_list(), b.horizon)


@settings(max_examples=200, deadline=None)
@given(repair_inputs())
def test_repair_equals_one_orbit_per_block(case):
    xi, delta = case
    assert_same_repair(repair(xi, delta, density_tol=1.0), reference_repair(xi, delta))


def test_a_circle_jump_from_above_one_half_reaches_delta_one():
    """The antipode of 0.54..., which (x + 0.5) % 1.0 missed by 2**-53."""
    family = GeneratorFamily(MetricSpace.circle(), (GeneratorMap.identity(),))
    xi = jumping_orbit(family, Word.iid([1.0], seed=0), (float.fromhex("0x1.14eb5d6fa7bb1p-1"),),
                       10, {0})
    assert xi.step_errors[0] == 0.5
    got = repair(xi, 1.0, density_tol=1.0)
    assert got.anchors.to_list() == [0]
    assert_same_repair(got, reference_repair(xi, 1.0))


@pytest.mark.parametrize("word", [Word.periodic([1, 2, 2], 2), Word.iid([0.3, 0.7], seed=7)])
def test_repair_with_anchors_exactly_m_apart_and_a_cut_block(word):
    family, _ = build_disk_system()
    M = block_length(family.space, 0.8)
    H = 4 * M
    xi = jumping_orbit(family, word, (0.3, 0.2), H, {5, 5 + M, H - 3})
    got = repair(xi, 0.8, density_tol=1.0)
    assert got.anchors.to_list() == [5, 5 + M, H - 3]
    assert got.truncated_last_block
    assert_same_repair(got, reference_repair(xi, 0.8))
    # Block 1's last step lands anchor 2's point as stored, and keeps an error.
    assert got.y.points[5 + M].tolist() == xi.points[5 + M].tolist()
    assert got.y.step_errors[5 + M - 1] > 0.0


@pytest.mark.parametrize("M, diff, message", [
    (5, [5, 14], None),
    (5, [4, 14], "diff set must be contained in the block union"),
    (5, [5, 15], "diff set must be contained in the block union"),
    (5, [5, 9, 30], "diff set must be contained in the block union"),
    (6, [5, 14], "anchors must be spaced >= M=6 apart"),
])
def test_a_repair_result_rejects_a_diff_outside_the_blocks_and_anchors_closer_than_m(M, diff,
                                                                                   message):
    family, word = halving_interval()
    y = true_orbit(family, word, [0.5], 30)
    anchors, blocks = IndexSet.from_iterable([5, 10], 31), IndexSet.from_iterable(range(5, 15), 31)
    diff_set = IndexSet.from_iterable(diff, 31)
    if message is None:
        assert RepairResult(y, M, anchors, blocks, diff_set, 0.4).diff_set.to_list() == diff
        return
    with pytest.raises(ParameterError, match=message):
        RepairResult(y, M, anchors, blocks, diff_set, 0.4)
