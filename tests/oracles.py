"""Reference checks that several test files share.

Each is a direct, slow statement of one fact the library relies on or one
inequality of the paper's constructions, evaluated independently of the
code under test where it can be. None of them is part of the library.
"""

import math
from fractions import Fraction

import numpy as np

from shadowlab import (DomainError, IndexSet, NullSetExtraction, ParameterError,
                       PreconditionError, PseudoOrbit, RepairResult, block_length,
                       select_anchors)
from shadowlab.cesaro import DEFAULT_LEVELS, DENSITY_MARGIN, MIN_STAGE_RATIO
from shadowlab.density import (DEFAULT_TAIL_FRACTION, ROUNDING_TOL, prefix_density,
                               prefix_means, tail_extremum)
from shadowlab.dynamics import CIRCLE, MEMBERSHIP_TOL, UNIT_DISK, orbit
from shadowlab.serialize import ORBIT_SCHEMA, PLAN_SCHEMA, dump_json, step_error_checksum

# ---------------------------------------------------------------------------
# One point at a time: maps and spaces on lists of Python floats


def reference_dot(u, v):
    """The sum of u[k] * v[k], accumulated left to right."""
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def reference_contains(space, q):
    """Membership of one point within MEMBERSHIP_TOL, as the space defines it."""
    if space.kind == UNIT_DISK:
        return math.sqrt(reference_dot(q, q)) <= 1.0 + MEMBERSHIP_TOL
    if space.kind == CIRCLE:
        return math.isfinite(q[0])
    return all(x >= lo - MEMBERSHIP_TOL and x <= hi + MEMBERSHIP_TOL
               for x, lo, hi in zip(q, space.lo, space.hi))


def reference_map(g, p):
    """f(p) for one point p, a list of floats: an affine row is
    ((p0*a_i0 + p1*a_i1) + ...) + b_i."""
    if g.kind == "identity":
        return p
    if g.kind == "permutation":
        return [p[i] for i in g.perm]
    if g.kind == "affine":
        return [reference_dot(p, a) + b for a, b in zip(g.matrix, g.offset)]
    return [x * f for x, f in zip(p, g.factors)]


def reference_image(family, s, p):
    """f_s(p) for one point p, a list of floats, checking nothing; symbol 0 is
    the identity and a circle image wraps into [0, 1)."""
    if s == 0:
        return p
    image = reference_map(family.maps[s - 1], p)
    return [image[0] % 1.0] if family.space.kind == CIRCLE else image


def reference_step(family, s, p):
    """f_s(p) for one point p, a list of floats, as reference_image steps it.

    Pins the errors of one step of a walk: DomainError for a point outside
    the space, and DomainError naming the map, the point and the image for an
    image outside it.
    """
    space = family.space
    if not reference_contains(space, p):
        raise DomainError(f"point {p} is outside the {space.kind} space")
    image = reference_image(family, s, p)
    if s != 0 and not reference_contains(space, image):
        raise DomainError(f"map {s} sends {p} to {image}, outside the space")
    return image


def reference_defects(family, word, points) -> list[int]:
    """The steps j whose point x_{j+1}'s bytes differ from those of the image
    of x_j (reference_image), one step at a time: what a pseudo-orbit records
    as its defects."""
    P = np.asarray(points, dtype=np.float64)
    return [j for j, s in enumerate(word.symbols(len(P) - 1).tolist())
            if np.array(reference_image(family, s, P[j].tolist())).tobytes() != P[j + 1].tobytes()]


def reference_project(space, q):
    """The nearest point of the space to one point q, a list of floats: the
    box clamps each coordinate (a tie goes to the bound), the disk divides by
    a norm past 1, the circle wraps into [0, 1)."""
    if space.kind == UNIT_DISK:
        r = math.sqrt(reference_dot(q, q))
        return [x / r for x in q] if r > 1.0 else q
    if space.kind == CIRCLE:
        return [q[0] % 1.0]
    return [lo if x <= lo else hi if x >= hi else x for x, lo, hi in zip(q, space.lo, space.hi)]


def reference_distance(space, a, b):
    """d(a, b) for two points, lists of floats: geodesic on the circle, else
    the square root of the sum of squared coordinate differences, accumulated
    left to right."""
    if space.kind == CIRCLE:
        m = abs(a[0] % 1.0 - b[0] % 1.0)
        return min(m, 1.0 - m)
    diff = [x - y for x, y in zip(a, b)]
    return math.sqrt(reference_dot(diff, diff))


def project(space, P) -> np.ndarray:
    """The library's nearest point of the space (clamp / normalize / wrap) to
    each row of P."""
    return np.stack(space._project(tuple(np.atleast_2d(P).T)), axis=-1)


# ---------------------------------------------------------------------------
# The walk as one loop over the step table


def reference_loop(family, walked, p, at, rows, landing):
    """The walk's loop as the library ran it before it was generated: one
    call of the step table per symbol of walked (symbols in 1..m) from the
    point p, and at the steps at (sorted, each below len(walked)) the image
    kept and rows[k] landed by the landing rule, through reference_contains
    and reference_project. Returns the points, the images and the clamped
    steps, checking nothing."""
    space, d = family.space, family.space.dimension
    wrap = (lambda x: x % 1.0) if space.kind == CIRCLE else (lambda x: x)
    land = {"target": lambda p, q: [wrap(y) for y in q],
            "offset": lambda p, q: [wrap(x + y) for x, y in zip(p, q)],
            "stored": lambda p, q: q}[landing]
    aligned = [None] * len(walked)
    for j, q in zip(at, rows):
        aligned[j] = q
    points, images, clamped = list(p), [], []
    for j, (s, q) in enumerate(zip(walked, aligned)):
        p = reference_map(family.maps[s - 1], p)
        if space.kind == CIRCLE:
            p = [p[0] % 1.0]
        if q is not None:
            images.extend(p)
            p = land(p, q)
            if landing != "stored" and not reference_contains(space, p):
                p = reference_project(space, p)
                clamped.append(j)
        points.extend(p)
    return np.array(points).reshape(-1, d), np.array(images).reshape(-1, d), clamped


def reference_walk(family, word, z, horizon, jumps=((), ()), landing="target"):
    """What ``dynamics._walk`` returns or raises, from reference_loop: the
    alphabet and the start checked, every image but a stored walk's checked
    (DomainError at the first outside), the step errors at the landing
    steps, by reference_distance, and the landing steps whose landed point's
    bytes differ from the image's."""
    space, d = family.space, family.space.dimension
    if word.m > family.m:
        raise ParameterError(f"the word has {word.m} symbols, the family {family.m} maps",
                             "word", "m")
    p = [float(x) for x in z]
    if not reference_contains(space, p):
        raise DomainError(f"start {p} is outside the {space.kind} space")
    symbols = [word.symbol_at(j) for j in range(horizon)]
    at = [int(j) for j in jumps[0]]
    rows = np.asarray(jumps[1], dtype=np.float64).reshape(-1, d).tolist()
    points, images, clamped = reference_loop(family, symbols, p, at, rows, landing)
    if landing != "stored":
        every = points[1:].copy()
        every[at] = images
        for j, image in enumerate(every.tolist()):
            if not reference_contains(space, image):
                raise DomainError(f"map {symbols[j]} sends {points[j].tolist()} to "
                                  f"{image}, outside the space")
    errors = np.zeros(horizon)
    for k, j in enumerate(at):
        errors[j] = reference_distance(space, images[k].tolist(), points[j + 1].tolist())
    defects = [j for k, j in enumerate(at) if images[k].tobytes() != points[j + 1].tobytes()]
    return points, clamped, errors, defects


def orbit_v1_dict(xi) -> dict:
    """The orbit in the v1 layout, which lists every point; v1 files still load."""
    return {"schema": ORBIT_SCHEMA, "system": xi.family.spec(), "word": xi.word.spec(),
            "points": xi.points.tolist(),
            "step_error_checksum": step_error_checksum(xi.step_errors), "meta": xi.meta}


def save_orbit_v1(xi, path) -> None:
    """The v1 orbit file of xi, byte for byte as save_orbit wrote it before v2."""
    dump_json(orbit_v1_dict(xi), path)


def save_block_plan_manifest(block_paths, N_levels, path) -> None:
    """A plan manifest of the given block files and levels, as ``concat`` reads it."""
    dump_json({"schema": PLAN_SCHEMA, "blocks": list(block_paths),
               "N_levels": [int(n) for n in N_levels]}, path)


# ---------------------------------------------------------------------------
# Index sets and repair


def reference_index_set(indices, horizon: int) -> IndexSet:
    """The distinct indices, by the direct expression: Python's sorted, then
    numpy's unique."""
    return IndexSet(np.unique(np.asarray(sorted(indices), dtype=np.int64)), horizon)


def reference_repair(xi, delta: float) -> RepairResult:
    """repair of an input with a bad step, as one true orbit per block: each
    anchor k's block is the orbit of x_k under the word shifted by k; every
    step error is recomputed from the repaired points on columns, and the
    defects are compared one step at a time."""
    H = xi.horizon
    M = block_length(xi.family.space, delta, horizon=H)
    anchors = select_anchors(xi.exceptional_set(delta / 2.0), M)
    points = xi.points.copy()
    block_indices: list[int] = []
    truncated = False
    for k in anchors.to_list():
        length = min(M, H + 1 - k)
        truncated = truncated or length < M
        points[k:k + length] = orbit(xi.family, xi.word.shifted(k), xi.points[k], length)
        block_indices.extend(range(k, k + length))
    meta = {**xi.meta, "repaired": True, "M": M, "delta": delta}
    y = PseudoOrbit(xi.family, xi.word, points, meta)
    assert y.defects.tolist() == reference_defects(xi.family, xi.word, points)
    diff = IndexSet.from_mask(np.any(points != xi.points, axis=1))
    return RepairResult(y, M, reference_index_set(anchors.to_list(), H + 1),
                        reference_index_set(block_indices, H + 1), diff, delta, truncated)


# ---------------------------------------------------------------------------
# Norm bounds


def broadcast_gram(A) -> np.ndarray:
    """A^T A of a square matrix A, as one d x d x d array of the products
    A[i, j] A[i, k] summed over i: O(d^3) memory, and the sum, in row order,
    that the Gram bound's row-at-a-time one must equal bit for bit."""
    A = np.asarray(A, dtype=np.float64)
    return (A[:, :, None] * A[:, None, :]).sum(axis=0)


# ---------------------------------------------------------------------------
# Densities


def complement(A):
    """The indices of [0, H) that A does not hold."""
    return IndexSet.from_mask(~A.mask())


def prefix_density_exact(A, n):
    """|A ∩ [0, n)| / n as a Fraction; 0 at n = 0.

    Pins the exact duality density(A, n) + density(complement of A, n) = 1.
    """
    if n == 0:
        return Fraction(0)
    return Fraction(A.count_below(n), n)


def lower_density_estimate(A, tail_fraction=0.5):
    """Min prefix density of A over the tail window: the finite lower density.

    A set is in M_alpha when this exceeds alpha, the rule by which a trace
    report decides its ``m_alpha`` verdict on the hit set.
    """
    return tail_extremum(prefix_means(A.mask()), tail_fraction, "min")[0]


# ---------------------------------------------------------------------------
# Inequalities of the paper's constructions, at every prefix


def markov_inequality_check(t, eps):
    """Markov: mean_n(t) >= eps * density({j : t_j >= eps}, n) at every prefix n.

    Holds for every nonnegative trace-error vector t.
    """
    t = np.asarray(t, dtype=np.float64)
    return bool(np.all(prefix_means(t) >= eps * prefix_means(t >= eps) - ROUNDING_TOL))


def diameter_bound_check(t, diam, eta):
    """mean_n(t) <= diam * density({j : t_j >= eta}, n) + eta at every prefix n.

    Holds for every trace-error vector t with entries in [0, diam].
    """
    t = np.asarray(t, dtype=np.float64)
    return bool(np.all(prefix_means(t) <= diam * prefix_means(t >= eta) + eta + ROUNDING_TOL))


def window_violation_bound_check(result, k, n):
    """After repair, a window [k, k+n) of length n >= M holds at most 2(n+M)/M
    steps whose error reaches delta/2: one block exit per block it meets."""
    if n < result.M:
        raise ParameterError(f"window length n={n} must be >= M={result.M}")
    y = result.y
    hi = min(k + n, y.horizon)
    count = int(np.count_nonzero(y.step_errors[k:hi] >= result.delta / 2.0))
    return count <= 2.0 * (n + result.M) / result.M


def step_recurrence_holds(instance):
    """On the disk example, the tracking error d obeys d_{k+1} <= alpha_k + d_k
    after a swap and d_{k+1} <= alpha_k + d_k / 2 after a halving; their sum is
    the bound that ``tracking_inequality_curve`` checks."""
    d = instance.tracking_errors()
    symbols = instance.xi.word.symbols(instance.xi.horizon)
    prev = d[:-1].copy()
    prev[symbols == 2] /= 2.0
    return bool(np.all(d[1:] <= instance.alphas + prev + ROUNDING_TOL))


def threshold_inequality_holds(a, theta):
    """For a bounded sequence with bound B, mean_n <= B * density({i : a_i >=
    theta}, n) + theta at every prefix n: the direction of the Cesàro/null-set
    equivalence that ``verify_equivalence`` checks on the tail."""
    dens = prefix_means(a.values >= theta)
    return bool(np.all(a.means <= a.bound * dens + theta + ROUNDING_TOL))


# ---------------------------------------------------------------------------
# Cesàro null-set extraction with every level's counts built up front


def reference_first_certified(cum, level, lo, hi):
    """Smallest t in [lo, hi] with cum[t - 1] < level * t, every t compared."""
    if lo > hi:
        return None
    ts = np.arange(lo, hi + 1, dtype=np.int64)
    hit = np.flatnonzero(cum[ts - 1] < level * ts)
    return int(ts[hit[0]]) if hit.size else None


def reference_extract_null_set(a, level_schedule=None, tail_fraction=DEFAULT_TAIL_FRACTION):
    """The eager form of ``extract_null_set``: each level's cumulative count
    over the whole sequence, built before stage 1, and every prefix length
    from a stage's lower limit to the horizon compared."""
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
    T1 = reference_first_certified(cums[levels[0]], levels[0], 1, H)
    if T1 is None:
        truncated_at = 0
    else:
        boundaries.append(T1)
        k = 1
        while k < len(levels):
            level = levels[k]
            Tk = boundaries[-1]
            lo = Tk + max(1, math.ceil(MIN_STAGE_RATIO * Tk))
            T_next = reference_first_certified(cums[level], level, lo, H)
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
