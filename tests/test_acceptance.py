"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import time
from fractions import Fraction

import numpy as np

from shadowlab import (
    BlockPlan,
    BoundedSequence,
    DiskExampleInstance,
    GeneratorFamily,
    GeneratorMap,
    IndexSet,
    JumpRule,
    MetricSpace,
    PseudoOrbit,
    Word,
    asymptotic_certificate,
    average_shadow_search,
    build_disk_system,
    concatenate,
    extract_null_set,
    is_average_pseudo_orbit,
    make_corrupted_orbit,
    make_decaying_instance,
    net,
    prefix_density,
    refined_asymptotic_search,
    repair,
    tracking_inequality_curve,
    true_orbit,
    verify_equivalence,
)
from shadowlab.serialize import json_default

from oracles import (
    complement,
    diameter_bound_check,
    markov_inequality_check,
    prefix_density_exact,
    window_violation_bound_check,
)


def _line(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number}: {name}{suffix}"


def test_criterion_1_disk_bound_all_prefixes():
    start_t = time.monotonic()
    ok = True
    rng = np.random.default_rng(2024)
    for seed in range(100):
        start = None if seed % 2 == 0 else rng.uniform(-0.6, 0.6, size=2)
        inst = make_decaying_instance(seed, horizon=10_000, start=start)
        _, _, verdict = tracking_inequality_curve(inst)
        ok = ok and verdict
    elapsed = time.monotonic() - start_t
    _line(1, "disk-example bound holds at every prefix for 100 seeded instances",
          ok and elapsed <= 60.0, f"{elapsed:.1f}s")


def test_criterion_2_disk_near_tightness():
    family, word = build_disk_system()
    xi = true_orbit(family, word, (0.5, 0.5), 2000)
    inst = DiskExampleInstance(xi, (0.0, 0.0))
    lhs, rhs, verdict = tracking_inequality_curve(inst)
    oracle_limit = 2.0 * np.sqrt(2.0)

    def closed_form(n):
        q, r = divmod(n, 2)
        total = 4.0 - 2.0 ** (2 - q)
        if r:
            total += 2.0 ** (-q)
        return np.sqrt(0.5) * total

    oracle_ok = all(abs(lhs[n - 1] - closed_form(n)) <= 1e-6
                    for n in range(1, len(lhs) + 1))
    oracle_ok = oracle_ok and abs(rhs[0] - oracle_limit) <= 1e-6
    oracle_ok = oracle_ok and abs(lhs[-1] - oracle_limit) <= 1e-6
    ratio = lhs / rhs
    ok = (verdict and oracle_ok
          and bool(np.all(ratio <= 1.0 + 1e-12))
          and bool(np.all(ratio[49:] >= 0.99)))
    _line(2, "disk-example near-tightness against the geometric-series oracle", ok)


def test_criterion_3_surgery_postconditions():
    start_t = time.monotonic()
    family, word = build_disk_system()
    H = 10_000
    squares = IndexSet.from_iterable([k * k for k in range(100)], H)
    deltas = (0.2, 0.4, 0.8)
    ok = True
    rng = np.random.default_rng(99)
    for seed in range(50):
        delta = deltas[seed % 3]
        z = family.space.sample(rng)
        xi = make_corrupted_orbit(family, word, z, squares, JumpRule("uniform"), seed=seed)
        result = repair(xi, delta, density_tol=0.02)
        ok = ok and bool(is_average_pseudo_orbit(result.y, delta, N=result.M))
        ok = ok and set(result.diff_set.to_list()) <= set(result.blocks.to_list())
        e = result.y.step_errors
        for a in result.anchors.to_list():
            inside = e[a:min(a + result.M - 1, len(e))]
            if inside.size and float(inside.max()) > 1e-12:
                ok = False
        for _ in range(1000):
            n = int(rng.integers(result.M, H))
            k = int(rng.integers(0, H - n + 1))
            if not window_violation_bound_check(result, k, n):
                ok = False
        if not ok:
            break
    elapsed = time.monotonic() - start_t
    _line(3, "surgery postconditions for 50 seeded ergodic pseudo-orbits",
          ok and elapsed <= 600.0, f"{elapsed:.1f}s")


def test_criterion_4_exact_tracing_inequalities():
    rng = np.random.default_rng(7)
    ok = True
    for diam in (1.0, 2.0):
        for _ in range(500):
            t = rng.uniform(0.0, diam, size=10_000)
            eps = float(rng.uniform(0.01, diam))
            eta = float(rng.uniform(0.01, diam))
            ok = ok and markov_inequality_check(t, eps)
            ok = ok and diameter_bound_check(t, diam, eta)
        if not ok:
            break
    _line(4, "Markov and diameter inequalities at every prefix, 1000 random traces", ok)


def test_criterion_5_cesaro_duality():
    H = 100_000
    values = np.zeros(H)
    k = 0
    while k * k < H:
        values[k * k] = 1.0
        k += 1
    a = BoundedSequence(values, 1.0)
    extraction = extract_null_set(a)
    J = extraction.J
    ok = prefix_density(J, H) <= 0.0032
    mask = J.mask()
    for rec in extraction.stages:
        lo, hi, level = rec["T"], rec["T_next"], rec["level"]
        off = ~mask[lo:hi]
        if np.any(off) and float(a.values[lo:hi][off].max()) >= level:
            ok = False
    verdict = verify_equivalence(a, J, tol=0.02)
    ok = ok and bool(verdict)
    _line(5, "null-set extraction and equivalence for the squares indicator at 1e5",
          ok, f"|J|/H={prefix_density(J, H):.5f}")


def test_criterion_6_density_duality_identity():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        H = int(rng.integers(10, 400))
        A = IndexSet.from_mask(rng.random(H) < rng.random())
        Ac = complement(A)
        for n in range(1, H + 1):
            if prefix_density_exact(A, n) + prefix_density_exact(Ac, n) != Fraction(1):
                ok = False
        if not ok:
            break
    _line(6, "prefix-density duality is exact for 1000 random index sets", ok)


def test_criterion_7_concatenation_decomposition():
    space = MetricSpace.box([0.0], [1.0])
    family = GeneratorFamily(space, (GeneratorMap.identity(),))
    word = Word.constant(1, m=1)

    def zigzag(steps, err):
        pts = [(err if j % 2 else 0.0) for j in range(steps + 1)]
        return PseudoOrbit.from_points(family, word, np.array(pts))

    blocks = tuple(zigzag(m, 0.999 / k) for k, m in enumerate((8, 64, 1024), start=1))
    plan = BlockPlan(blocks, (1, 1, 1))
    xi = concatenate(plan, word)
    cert = asymptotic_certificate(xi, plan)
    ok = bool(cert)
    for rec in cert.params["split_records"]:
        direct = float(np.sum(xi.step_errors[:rec["j"]]))
        if abs(rec["interior"] + rec["junction"] + rec["tail"] - direct) > 1e-9:
            ok = False
    means = [rec["prefix_mean"] for rec in cert.params["boundary_records"]]
    ok = ok and all(a >= b for a, b in zip(means, means[1:]))
    _line(7, "three-part split equals direct prefix sums; boundary means non-increasing", ok)


def test_criterion_8_search_soundness_and_determinism():
    family, word = build_disk_system()
    points = net(family.space, 0.2)
    xi = true_orbit(family, word, points[4], 1000)
    exact = average_shadow_search(xi, eps=0.05, mesh=0.2)
    ok = exact.success and exact.params["scan_objective"] == 0.0

    all_idx = IndexSet.from_iterable(range(1000), 1000)
    noisy = make_corrupted_orbit(family, word, (0.5, 0.5), all_idx,
                                 JumpRule("offset", scale=1.0, power=2.0), seed=5)
    payloads = []
    for _ in range(3):
        result = average_shadow_search(noisy, eps=0.2, mesh=0.1)
        payloads.append(json.dumps(result.to_dict(), sort_keys=True, default=json_default).encode())
    ok = ok and payloads[0] == payloads[1] == payloads[2]

    circle = MetricSpace.circle()
    rotation = GeneratorFamily(circle, (GeneratorMap.affine([[1.0]], [0.3137]),))
    cword = Word.constant(1, m=1)
    call = IndexSet.from_iterable(range(1000), 1000)
    persistent = make_corrupted_orbit(rotation, cword, [0.2], call,
                                      JumpRule("offset", scale=0.3, power=0.0), seed=6)
    negative = average_shadow_search(persistent, eps=0.1, mesh=0.02)
    ok = ok and (not negative.success) and negative.params["scan_objective"] >= 0.1
    _line(8, "search minimum 0 on a true net orbit; byte-identical across 3 calls; "
             "rotation negative reports failure", ok)


def test_criterion_9_refined_search_budgets():
    inst = make_decaying_instance(3, horizon=5000, x0=(0.5, 0.5))
    xi = inst.xi
    eps0 = 0.4
    meshes = [0.2, 0.1, 0.05, 0.025]
    result = refined_asymptotic_search(xi, eps0=eps0, mesh_schedule=meshes)
    ok = result.succeeded
    for m, stage in enumerate(result.stages, start=1):
        if stage["estimate"] > 1.2 * eps0 / 2**m:
            ok = False
    for m, dist in enumerate(result.candidate_distances, start=1):
        if dist > 2 * meshes[m - 1] + 1e-12:
            ok = False
    _line(9, "refined search meets halving budgets with converging candidates",
          ok, f"estimates={[round(s['estimate'], 5) for s in result.stages]}")
