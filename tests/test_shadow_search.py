import json

import numpy as np
import pytest

from shadowlab import (
    DomainError,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    ParameterError,
    ResourceCapError,
    PseudoOrbit,
    Word,
    average_shadow_search,
    build_disk_system,
    is_average_pseudo_orbit,
    m_alpha_shadow_search,
    make_corrupted_orbit,
    net,
    prefix_density,
    refined_asymptotic_search,
    trace_report,
    true_orbit,
)
from shadowlab import shadow_search
from shadowlab.density import prefix_means
from shadowlab.serialize import json_default

from oracles import complement, diameter_bound_check, markov_inequality_check


def constant_orbit(p, horizon):
    """Identity family on [0,1]^2 pinned at p."""
    space = MetricSpace.box([0, 0], [1, 1])
    family = GeneratorFamily(space, (GeneratorMap.identity(),))
    word = Word.constant(1, m=1)
    return true_orbit(family, word, p, horizon)


def decaying_disk_orbit(seed=0, horizon=2000):
    family, word = build_disk_system()
    all_idx = IndexSet.from_iterable(range(horizon), horizon)
    return make_corrupted_orbit(family, word, (0.5, 0.5), all_idx,
                                JumpRule("offset", scale=1.0, power=2.0), seed=seed)


def rotation_circle_orbit(horizon=1000, error=0.3, seed=1):
    space = MetricSpace.circle()
    family = GeneratorFamily(space, (GeneratorMap.affine([[1.0]], [0.3137]),))
    word = Word.constant(1, m=1)
    all_idx = IndexSet.from_iterable(range(horizon), horizon)
    return make_corrupted_orbit(family, word, [0.2], all_idx,
                                JumpRule("offset", scale=error, power=0.0), seed=seed)


def matrix_rescan(xi, points, tail_fraction=0.5):
    """Independent full-net rescan: materialize every trace, then reduce."""
    space = xi.family.space
    L = xi.horizon + 1
    T = np.empty((len(points), L))
    P = points.copy()
    T[:, 0] = space.distance(P, xi.points[0])
    for j in range(1, L):
        P = np.stack(xi.family.steps[xi.word.symbol_at(j - 1)](tuple(P.T)), axis=-1)
        T[:, j] = space.distance(P, xi.points[j])
    means = np.cumsum(T, axis=1) / np.arange(1, L + 1)
    n_lo = max(1, int(np.ceil(tail_fraction * L)))
    return means[:, n_lo - 1:].max(axis=1)


# ---------------------------------------------------------------------------
# trace_report


def test_trace_true_orbit_of_itself():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.4, -0.2), 100)
    report = trace_report((0.4, -0.2), xi, eps=0.1)
    assert np.all(report.trace_errors == 0.0)
    assert report.limsup_estimate == 0.0
    assert len(report.hit_set) == 101


def test_trace_disk_geometric_decay():
    # Oracle: closed form sqrt(2) * (0.5, 0.5, 0.25, 0.25, ...) for z = origin.
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.5, 0.5), 40)
    report = trace_report((0.0, 0.0), xi, eps=0.1)
    expected = np.sqrt(2) * 0.5 * 0.5 ** (np.arange(41) // 2)
    assert np.allclose(report.trace_errors, expected, atol=1e-12)
    assert report.prefix_means[-1] < report.prefix_means[0]


@pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan"), 1.5, 1.0])
def test_trace_report_rejects_an_alpha_outside_the_unit_interval(alpha):
    # The candidate's hit lower density is about 0.94; without the check,
    # alpha -1 and 0 gave m_alpha True and NaN, 1.5 and 1 gave False.
    xi = decaying_disk_orbit(horizon=200)
    assert trace_report((0.1, 0.1), xi, 0.2, alpha=0.5).verdicts["m_alpha"]
    with pytest.raises(ParameterError, match="alpha must lie in"):
        trace_report((0.1, 0.1), xi, 0.2, alpha=alpha)


@pytest.mark.parametrize("search, args, message", [
    # alpha first for m-alpha, then eps, then the tail fraction.
    (m_alpha_shadow_search, dict(eps=0.0, alpha=1.5, tail_fraction=1.5), "alpha must lie in"),
    # alpha None scanned the whole net, then ended in a TypeError.
    (m_alpha_shadow_search, dict(eps=0.2, alpha=None, tail_fraction=0.5),
     r"alpha must lie in \(0,1\), got None"),
    (m_alpha_shadow_search, dict(eps=0.0, alpha=0.5, tail_fraction=1.5), "eps"),
    (m_alpha_shadow_search, dict(eps=0.1, alpha=0.5, tail_fraction=1.5), "tail_fraction"),
    (average_shadow_search, dict(eps=0.0, tail_fraction=1.5), "eps"),
    (average_shadow_search, dict(eps=0.1, tail_fraction=1.5), "tail_fraction"),
])
def test_a_net_search_checks_its_arguments_in_order_before_any_net(monkeypatch, search, args,
                                                                 message):
    def no_net(*a, **k):
        raise AssertionError("a net was built")
    monkeypatch.setattr(shadow_search, "net", no_net)
    with pytest.raises(ParameterError, match=message):
        search(constant_orbit((0.25, 0.25), 50), mesh=0.5, **args)


def test_trace_constant_distance():
    xi = constant_orbit((0.25, 0.25), 50)
    z = (0.75, 0.25)
    report = trace_report(z, xi, eps=0.1)
    assert np.allclose(report.trace_errors, 0.5)
    assert report.limsup_estimate == pytest.approx(0.5)


def test_hit_set_matches_definition():
    xi = decaying_disk_orbit(horizon=300)
    eps = 0.2
    report = trace_report((0.1, 0.1), xi, eps=eps)
    manual = {j for j, t in enumerate(report.trace_errors) if t < eps}
    assert set(report.hit_set.to_list()) == manual


# ---------------------------------------------------------------------------
# Tracing-error inequalities


def test_markov_small_example():
    t = [0.5, 0.1, 0.5]
    assert markov_inequality_check(t, 0.4)
    means = prefix_means(t)
    assert means[2] == pytest.approx(1.1 / 3)
    assert means[2] >= 0.4 * (2 / 3)


def test_markov_zero_and_boundary():
    assert markov_inequality_check(np.zeros(10), 0.3)
    assert markov_inequality_check(np.full(10, 0.3), 0.3)


def test_diameter_bound_trivials():
    assert diameter_bound_check(np.zeros(10), 2.0, 0.5)
    assert diameter_bound_check(np.full(10, 2.0), 2.0, 0.5)


def test_inequalities_on_random_traces():
    rng = np.random.default_rng(7)
    for diam in (1.0, 2.0):
        for _ in range(30):
            t = rng.uniform(0, diam, size=1000)
            assert markov_inequality_check(t, 0.25)
            for eta in (0.1, 0.5):
                assert diameter_bound_check(t, diam, eta)


def test_report_duality_and_monotonicity():
    xi = decaying_disk_orbit(horizon=200)
    small = trace_report((0.2, 0.2), xi, eps=0.1)
    large = trace_report((0.2, 0.2), xi, eps=0.3)
    assert set(small.hit_set.to_list()) <= set(large.hit_set.to_list())
    comp = complement(small.hit_set)
    for n in range(1, 202):
        total = prefix_density(small.hit_set, n) + prefix_density(comp, n)
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# average_shadow_search


def test_search_true_orbit_of_net_point():
    family, word = build_disk_system()
    points = net(family.space, 0.25)
    z = points[7]
    xi = true_orbit(family, word, z, 200)
    result = average_shadow_search(xi, eps=0.05, mesh=0.25)
    assert result.success
    assert result.params["scan_objective"] == 0.0


def test_search_identity_constant_orbit_finds_nearest():
    xi = constant_orbit((0.33, 0.61), 100)
    result = average_shadow_search(xi, eps=0.3, mesh=0.2)
    assert result.success
    points = net(xi.family.space, 0.2)
    dists = xi.family.space.distance(points, np.array([0.33, 0.61]))
    assert result.params["scan_objective"] == pytest.approx(dists.min(), abs=1e-12)


def test_search_decaying_disk_instance_with_rescan_oracle():
    xi = decaying_disk_orbit(horizon=2000)
    assert is_average_pseudo_orbit(xi, 0.2, N=50)
    result = average_shadow_search(xi, eps=0.2, mesh=0.05)
    assert result.success
    points = net(xi.family.space, 0.05)
    oracle = matrix_rescan(xi, points)
    assert result.params["scan_objective"] == pytest.approx(oracle.min(), abs=1e-12)
    assert result.report.net_index == int(np.argmin(oracle))


def test_search_byte_identical_across_repeated_calls():
    xi = decaying_disk_orbit(horizon=500)
    payloads = []
    for _ in range(3):
        result = average_shadow_search(xi, eps=0.2, mesh=0.1)
        payloads.append(json.dumps(result.to_dict(), sort_keys=True, default=json_default).encode())
    assert payloads[0] == payloads[1] == payloads[2]


def test_trace_report_rejects_a_candidate_sent_out_of_the_space():
    # Scale (2, 2) does not map the unit box into itself; the per-step loop
    # this replaced reported trace errors larger than the box's diameter.
    family = GeneratorFamily(MetricSpace.box([0.0, 0.0], [1.0, 1.0]),
                             (GeneratorMap.scale((2.0, 2.0)),))
    xi = PseudoOrbit.from_points(family, Word.constant(1, m=1), np.full((20, 2), 0.1))
    with pytest.raises(DomainError, match="outside the space"):
        trace_report((0.9, 0.9), xi, eps=0.1)


def test_trace_report_rejects_a_candidate_outside_the_space():
    xi = constant_orbit((0.25, 0.25), 20)
    with pytest.raises(DomainError, match=r"^candidate \[2.0, 0.0\] is outside the box-kd space$"):
        trace_report((2.0, 0.0), xi, eps=0.1)


def test_search_failure_on_circle_rotation():
    xi = rotation_circle_orbit()
    result = average_shadow_search(xi, eps=0.1, mesh=0.02)
    assert not result.success
    assert result.params["scan_objective"] >= 0.1


# ---------------------------------------------------------------------------
# m_alpha_shadow_search


def test_m_alpha_true_orbit_success():
    family, word = build_disk_system()
    points = net(family.space, 0.25)
    xi = true_orbit(family, word, points[3], 150)
    for alpha in (0.5, 0.9):
        result = m_alpha_shadow_search(xi, eps=0.05, alpha=alpha, mesh=0.25)
        assert result.success
        assert result.report.hit_lower_density == 1.0


def test_m_alpha_failure_reports_best_density():
    # mesh > eps: every net point sits farther than eps from the target.
    xi = constant_orbit((0.26, 0.26), 100)
    result = m_alpha_shadow_search(xi, eps=0.1, alpha=0.5, mesh=0.5)
    assert not result.success
    assert result.report.hit_lower_density == 0.0
    assert result.params["scan_objective"] == 0.0


def test_m_alpha_decaying_disk_with_oracle():
    xi = decaying_disk_orbit(horizon=1000)
    result = m_alpha_shadow_search(xi, eps=0.2, alpha=0.9, mesh=0.1)
    assert result.success
    # exhaustive oracle over the same net: some candidate has tail hit density > 0.9
    points = net(xi.family.space, 0.1)
    best = max(trace_report(p, xi, eps=0.2, alpha=0.9).hit_lower_density for p in points)
    assert best == pytest.approx(result.params["scan_objective"], abs=1e-12)
    assert best > 0.9


def test_m_alpha_monotone_in_eps():
    xi = decaying_disk_orbit(horizon=400)
    small = m_alpha_shadow_search(xi, eps=0.15, alpha=0.8, mesh=0.1)
    large = m_alpha_shadow_search(xi, eps=0.3, alpha=0.8, mesh=0.1)
    if small.success:
        assert large.success


# ---------------------------------------------------------------------------
# refined_asymptotic_search


def test_refined_true_orbit_stays_put():
    family, word = build_disk_system()
    points = net(family.space, 0.2)
    xi = true_orbit(family, word, points[5], 200)
    result = refined_asymptotic_search(xi, eps0=0.4, mesh_schedule=[0.2, 0.2, 0.2])
    assert result.succeeded
    assert all(d == 0.0 for d in result.candidate_distances)
    assert all(s["estimate"] == 0.0 for s in result.stages)


def test_refined_decaying_disk_budgets():
    xi = decaying_disk_orbit(horizon=2000)
    meshes = [0.2, 0.1, 0.05, 0.05]
    result = refined_asymptotic_search(xi, eps0=0.4, mesh_schedule=meshes)
    assert result.succeeded
    for m, stage in enumerate(result.stages, start=1):
        assert stage["estimate"] < 1.2 * 0.4 / 2**m
    for m, dist in enumerate(result.candidate_distances, start=1):
        assert dist <= 2 * meshes[m - 1] + 1e-12


def test_refined_rotation_fails_early():
    xi = rotation_circle_orbit()
    result = refined_asymptotic_search(xi, eps0=0.4, mesh_schedule=[0.05, 0.02, 0.01])
    assert not result.succeeded
    assert result.failed_stage == 1
    assert not result.stages[0]["success"]


NOT_POSITIVE = [0.0, -1.0, float("nan")]


@pytest.fixture
def no_net_or_scan(monkeypatch):
    """Fail the test if a search builds a net or scans one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a net was built or scanned before the parameters were checked")
    monkeypatch.setattr(shadow_search, "net", refuse)
    monkeypatch.setattr(shadow_search, "_scan", refuse)


@pytest.mark.parametrize("eps", NOT_POSITIVE)
def test_searches_reject_a_budget_that_is_not_positive_before_any_net(no_net_or_scan, eps):
    xi = constant_orbit((0.3, 0.6), 20)
    with pytest.raises(ParameterError, match="eps must be positive"):
        average_shadow_search(xi, eps=eps, mesh=0.2)
    with pytest.raises(ParameterError, match="eps must be positive"):
        m_alpha_shadow_search(xi, eps=eps, alpha=0.5, mesh=0.2)
    with pytest.raises(ParameterError, match="eps0"):
        refined_asymptotic_search(xi, eps0=eps, mesh_schedule=[0.2, 0.1])


def test_refined_rejects_a_budget_that_underflows_before_any_net(no_net_or_scan):
    xi = constant_orbit((0.3, 0.6), 20)
    with pytest.raises(ParameterError, match="eps0"):
        refined_asymptotic_search(xi, eps0=5e-324, mesh_schedule=[0.2])


@pytest.mark.parametrize("tail_fraction", [1.5, 0.0, float("nan")])
def test_searches_reject_a_bad_tail_fraction_before_any_net(no_net_or_scan, tail_fraction):
    # The tail fraction was checked only inside the scan, after every net was built.
    xi = decaying_disk_orbit(horizon=200)
    with pytest.raises(ParameterError, match="tail_fraction"):
        average_shadow_search(xi, 0.2, 0.1, tail_fraction)
    with pytest.raises(ParameterError, match="tail_fraction"):
        m_alpha_shadow_search(xi, 0.2, 0.5, 0.1, tail_fraction)
    with pytest.raises(ParameterError, match="tail_fraction"):
        refined_asymptotic_search(xi, 0.4, [0.1, 0.05, 0.025], tail_fraction)


@pytest.mark.parametrize("schedule", [[0.2, float("nan")], [0.2, 0.0], [0.2, 0.1, -0.1],
                                      [float("nan"), 0.2]])
def test_refined_rejects_every_bad_schedule_mesh_before_any_net(no_net_or_scan, schedule):
    xi = constant_orbit((0.3, 0.6), 20)
    with pytest.raises(ParameterError, match="mesh must be positive"):
        refined_asymptotic_search(xi, eps0=0.4, mesh_schedule=schedule)


def test_searches_reject_a_nan_mesh():
    xi = constant_orbit((0.3, 0.6), 20)
    with pytest.raises(ParameterError, match="mesh must be positive"):
        average_shadow_search(xi, eps=0.2, mesh=float("nan"))
    with pytest.raises(ParameterError, match="mesh must be positive"):
        m_alpha_shadow_search(xi, eps=0.2, alpha=0.5, mesh=float("nan"))


def test_refined_net_over_the_cap_raises_only_after_every_earlier_stage_succeeds():
    # The 0.001 net of the disk needs about 4e6 grid points, over the cap.
    schedule = [0.5, 0.001]
    failing = refined_asymptotic_search(decaying_disk_orbit(horizon=200), eps0=0.002,
                                        mesh_schedule=schedule)
    assert failing.failed_stage == 1 and len(failing.stages) == 1
    family, word = build_disk_system()
    xi = true_orbit(family, word, net(family.space, 0.5)[3], 200)
    with pytest.raises(ResourceCapError):
        refined_asymptotic_search(xi, eps0=0.4, mesh_schedule=schedule)


def test_refined_stages_are_scanned_one_net_each(monkeypatch):
    xi = decaying_disk_orbit(horizon=300)
    schedule = [0.3, 0.2, 0.2, 0.15]
    scanned = []
    scan = shadow_search._scan

    def counting_scan(xi, P, *args):
        scanned.append(len(P))
        return scan(xi, P, *args)

    monkeypatch.setattr(shadow_search, "_scan", counting_scan)
    result = refined_asymptotic_search(xi, eps0=0.4, mesh_schedule=schedule)
    # Every stage succeeds, and each scans its own net once, in stage order.
    assert result.succeeded
    assert scanned == [stage["net_size"] for stage in result.stages] == [60, 109, 109, 193]


def test_refined_search_that_fails_at_stage_1_builds_and_scans_only_its_first_net(
        monkeypatch):
    xi = decaying_disk_orbit(horizon=200)
    built, scanned = [], []
    build, scan = shadow_search.net, shadow_search._scan

    def recording_net(space, mesh):
        built.append(mesh)
        return build(space, mesh)

    def recording_scan(xi, P, *args):
        scanned.append(len(P))
        return scan(xi, P, *args)

    monkeypatch.setattr(shadow_search, "net", recording_net)
    monkeypatch.setattr(shadow_search, "_scan", recording_scan)
    result = refined_asymptotic_search(xi, eps0=0.002, mesh_schedule=[0.1, 0.05, 0.025])
    assert result.failed_stage == 1 and len(result.stages) == 1
    assert built == [0.1] and scanned == [373]
