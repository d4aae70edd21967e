import numpy as np
import pytest

from shadowlab import (
    DiskExampleInstance,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    ParameterError,
    PreconditionError,
    Word,
    aasp_demo,
    build_disk_system,
    make_corrupted_orbit,
    make_decaying_instance,
    orbit,
    tracking_inequality_curve,
    true_orbit,
)
from shadowlab.disk_example import TRACKING_TOL

from oracles import reference_step, step_recurrence_holds


def tight_instance(horizon=400):
    """xi = true orbit from (0.5, 0.5), tracked from the origin."""
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.5, 0.5), horizon)
    return DiskExampleInstance(xi, (0.0, 0.0))


def closed_form_lhs(n):
    """Geometric-series oracle for the tight instance."""
    q, r = divmod(n, 2)
    total = 4.0 - 2.0 ** (2 - q)
    if r:
        total += 2.0 ** (-q)
    return np.sqrt(0.5) * total


def test_build_disk_system_maps():
    family, word = build_disk_system()
    assert np.allclose(reference_step(family, 1, [0.6, -0.2]), (-0.2, 0.6))
    assert np.allclose(reference_step(family, 2, [0.6, -0.2]), (0.3, -0.1))
    pts = orbit(family, word, (1.0, 0.0), 5)
    assert np.allclose(pts, [(1, 0), (0, 1), (0, 0.5), (0.5, 0), (0.25, 0)])


@pytest.mark.parametrize("family, start, message", [
    ("halving-swap", (2.0, 0.0), "start must lie in the unit disk"),
    ("quartering-swap", (0.0, 0.0), "instance requires the swap/halving disk family"),
])
def test_instance_requires_the_disk_family_and_a_start_in_the_disk(family, start, message):
    disk, word = build_disk_system()
    if family == "quartering-swap":
        disk = GeneratorFamily(disk.space, (disk.maps[0], GeneratorMap.scale([0.25, 0.25])))
    xi = true_orbit(disk, word, (0.5, 0.0), 20)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        DiskExampleInstance(xi, start)


def test_instance_requires_alternating_word():
    family, word = build_disk_system()
    xi = true_orbit(family, Word.periodic((2, 1), m=2), (0.5, 0.0), 20)
    with pytest.raises(ParameterError):
        DiskExampleInstance(xi, (0.0, 0.0))


def test_tight_instance_oracle_agreement():
    inst = tight_instance()
    assert inst.M == pytest.approx(np.sqrt(0.5))
    lhs, rhs, verdict = tracking_inequality_curve(inst)
    assert verdict
    for n in (1, 2, 7, 50, 200, 401):
        assert lhs[n - 1] == pytest.approx(closed_form_lhs(n), abs=1e-6)
    assert np.allclose(rhs, 4 * inst.M)


def test_tight_instance_near_tightness():
    inst = tight_instance(horizon=400)
    lhs, rhs, _ = tracking_inequality_curve(inst)
    ratio = lhs / rhs
    assert np.all(ratio <= 1.0 + 1e-12)
    assert np.all(ratio[49:] >= 0.99)
    assert 2 * np.sqrt(2) == pytest.approx(rhs[0], abs=1e-12)


def test_zero_start_trivial_bound():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.5, 0.5), 50)
    inst = DiskExampleInstance(xi, xi.points[0])
    lhs, rhs, verdict = tracking_inequality_curve(inst)
    assert verdict
    assert np.all(lhs == 0.0)
    assert np.all(rhs == 0.0)


def test_single_prefix_check():
    inst = tight_instance()
    lhs, rhs, _ = tracking_inequality_curve(inst)
    assert lhs[9] <= rhs[9] + TRACKING_TOL
    assert lhs[9] == pytest.approx(closed_form_lhs(10), abs=1e-9)
    assert rhs[9] == pytest.approx(4 * np.sqrt(0.5))


def test_decaying_instances_bound_every_prefix():
    for seed in range(5):
        inst = make_decaying_instance(seed, horizon=2000)
        _, _, verdict = tracking_inequality_curve(inst)
        assert verdict


def test_decaying_instance_alphas_match_rule():
    inst = make_decaying_instance(3, horizon=500)
    decay = 1.0 / (np.arange(500) + 1.0) ** 2
    assert np.all(inst.xi.step_errors <= decay + 1e-12)
    # most steps should realize the decay exactly (no clamping needed)
    exact = np.isclose(inst.xi.step_errors, decay, atol=1e-12)
    assert exact.mean() > 0.9


def test_step_recurrences():
    for seed in range(3):
        inst = make_decaying_instance(seed, horizon=800)
        assert step_recurrence_holds(inst)
    assert step_recurrence_holds(tight_instance())


def test_arbitrary_start_exercises_M():
    inst = make_decaying_instance(1, horizon=1000, start=(0.3, -0.8))
    assert inst.M > 0
    _, _, verdict = tracking_inequality_curve(inst)
    assert verdict


# ---------------------------------------------------------------------------
# aasp_demo


def test_aasp_demo_zero_start():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.5, 0.5), 200)
    demo = aasp_demo(DiskExampleInstance(xi, xi.points[0]))
    assert demo["tracking_mean_final"] == 0.0
    assert demo["all_prefixes_bounded"]


def test_aasp_demo_nonzero_start_bound():
    inst = tight_instance(horizon=10_000)
    demo = aasp_demo(inst)
    for row in demo["checkpoints"]:
        assert row["tracking_mean"] <= 4 * inst.M / row["n"] + 1e-9
        assert row["below_bound"]


def test_aasp_demo_decaying_instance():
    inst = make_decaying_instance(2, horizon=5000)
    demo = aasp_demo(inst)
    assert all(row["below_bound"] for row in demo["checkpoints"])


def test_aasp_demo_rejects_persistent_errors():
    family, word = build_disk_system()
    all_idx = IndexSet.from_iterable(range(500), 500)
    xi = make_corrupted_orbit(family, word, (0.5, 0.0), all_idx,
                              JumpRule("offset", scale=0.5, power=0.0), seed=0)
    inst = DiskExampleInstance(xi, xi.points[0])
    with pytest.raises(PreconditionError) as err:
        aasp_demo(inst)
    assert err.value.witness is not None


@pytest.mark.parametrize("build", [
    # The first two raised a bare OverflowError (34, 'Numerical result out of
    # range') from the size of the third jump; the third, a ZeroDivisionError.
    lambda: make_decaying_instance(1, 50, power=1000.0),
    lambda: make_corrupted_orbit(*build_disk_system(), (0.5, 0.0),
                                 IndexSet.from_iterable(range(50), 50),
                                 JumpRule("offset", power=1000.0), seed=0),
    lambda: make_decaying_instance(1, 50, power=-1000.0),
])
def test_a_jump_power_out_of_float_range_raises_naming_it(build):
    with pytest.raises(ParameterError, match="jump power") as err:
        build()
    assert err.value.path == ("power",)


def test_true_orbit_stepped_once_per_instance_and_read_only(monkeypatch):
    import shadowlab.disk_example as disk_example

    calls = []

    def counting_orbit(*args):
        calls.append(args)
        return orbit(*args)

    monkeypatch.setattr(disk_example, "orbit", counting_orbit)
    inst = make_decaying_instance(4, horizon=2000, start=(0.1, -0.3))
    tracking_inequality_curve(inst)
    aasp_demo(inst)
    assert step_recurrence_holds(inst)
    assert len(calls) == 1
    points = inst.true_orbit_points()
    family, word = build_disk_system()
    assert np.array_equal(points, orbit(family, word, (0.1, -0.3), 2001))
    assert not points.flags.writeable
    with pytest.raises(ValueError):
        points[0, 0] = 0.0


def test_tracking_curve_derived_once_per_instance_and_read_only(monkeypatch):
    # example-disk reads the curve and the means, then aasp_demo reads them
    # again: the tracking errors are summed once.
    calls = []
    errors = DiskExampleInstance.tracking_errors

    def counting_errors(self):
        calls.append(self)
        return errors(self)

    monkeypatch.setattr(DiskExampleInstance, "tracking_errors", counting_errors)
    inst = make_decaying_instance(4, horizon=2000, start=(0.1, -0.3))
    lhs, rhs, verdict = tracking_inequality_curve(inst)
    means = inst.tracking_means()
    demo = aasp_demo(inst)
    assert len(calls) == 1
    assert tracking_inequality_curve(inst)[0] is lhs and inst.tracking_means() is means
    assert means.tobytes() == (lhs / np.arange(1, 2002)).tobytes()
    assert demo["tracking_mean_final"] == means[-1] and demo["all_prefixes_bounded"] is verdict
    for curve in (lhs, rhs, means):
        assert not curve.flags.writeable
