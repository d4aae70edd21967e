"""Tracing-error reports and shadow-point search over nets.

A candidate z is judged by its trace errors t_j = d(f_w^j(z), x_j): the
tail max of prefix means stands in for the limsup, and the hit set
{j : t_j < eps} carries the density-flavored verdicts. Searches are
exhaustive over a net, so failure is a first-class, reportable outcome.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .density import (
    DEFAULT_TAIL_FRACTION,
    IndexSet,
    check_tail_fraction,
    prefix_means,
    tail_extremum,
    tail_window_start,
)
from .dynamics import CIRCLE, DEFAULT_NET_CAP, as_point, net, orbit, row_keys
from .errors import (
    DomainError,
    ParameterError,
    ResourceCapError,
    check_alpha,
    check_positive,
)
from .pseudo_orbits import PseudoOrbit


@dataclass(frozen=True)
class ShadowReport:
    """Everything measured about one tracing candidate."""

    candidate: np.ndarray
    trace_errors: np.ndarray
    prefix_means: np.ndarray
    limsup_estimate: float
    hit_set: IndexSet
    hit_lower_density: float
    hit_upper_density: float
    verdicts: dict
    params: dict
    diam: float
    net_index: int | None = None


def _tail_of_means(x, tail_fraction: float, mode: str) -> tuple[np.ndarray, float]:
    """The prefix means of x, and their max (or min) over the tail window."""
    curve = prefix_means(x)
    return curve, tail_extremum(curve, tail_fraction, mode)[0]


def _build_report(t: np.ndarray, eps: float, diam: float, tail_fraction: float,
                  candidate: np.ndarray, alpha: float | None,
                  net_index: int | None) -> ShadowReport:
    L = len(t)
    means, limsup = _tail_of_means(t, tail_fraction, "max")
    hit_mask = t < eps
    hit_curve, lower = _tail_of_means(hit_mask, tail_fraction, "min")
    upper, _ = tail_extremum(hit_curve, tail_fraction)
    verdicts = {"shadowed_on_average": limsup < eps}
    if alpha is not None:
        verdicts["m_alpha"] = lower > alpha
    params = {"eps": eps, "alpha": alpha, "tail_fraction": tail_fraction, "length": L}
    return ShadowReport(candidate, t, means, limsup, IndexSet.from_mask(hit_mask),
                        lower, upper, verdicts, params, diam, net_index)


def _trace_errors(xi: PseudoOrbit, z: np.ndarray) -> np.ndarray:
    """t_j = d(f_w^j(z), x_j) from one walk of z, which raises DomainError if
    the family sends it out of the space."""
    space = xi.family.space
    return space.distance(orbit(xi.family, xi.word, z, xi.horizon + 1), xi.points)


def trace_report(z, xi: PseudoOrbit, eps: float,
                 tail_fraction: float = DEFAULT_TAIL_FRACTION,
                 alpha: float | None = None, net_index: int | None = None) -> ShadowReport:
    """Full tracing report of candidate z against the pseudo-orbit.

    The candidate's orbit is one walk, so a family that sends it out of the
    space raises DomainError. eps must be positive and alpha, when given,
    must lie in (0, 1).
    """
    check_positive("eps", eps)
    check_alpha(alpha)
    space = xi.family.space
    zp = as_point(z, space.dimension)
    if not space.contains(zp):
        raise DomainError(f"candidate {zp.tolist()} is outside the {space.kind} space")
    t = _trace_errors(xi, zp)
    return _build_report(t, eps, space.diameter, tail_fraction, zp, alpha, net_index)


# ---------------------------------------------------------------------------
# Net scans

LIMSUP = "limsup_estimate"
HIT_DENSITY = "hit_lower_density"

# A scan over several nets bounds its candidates at prefix lengths
# FIRST_CHECKPOINT, 2 * FIRST_CHECKPOINT, 4 * FIRST_CHECKPOINT, ...
FIRST_CHECKPOINT = 16


def _scan(xi: PseudoOrbit, P: np.ndarray, objective: str, eps: float,
          tail_fraction: float, nets: list[np.ndarray] | None = None) -> np.ndarray:
    """Per-candidate objective over the tail window: the max of the prefix
    means of the trace errors t (LIMSUP), or the min of the prefix means of
    1[t < eps] (HIT_DENSITY).

    Given nets (one array of row indices into P per net), the scan drops the
    candidates that cannot be any of their nets' picks (LIMSUP is minimised,
    HIT_DENSITY maximised). At each checkpoint n it bounds every live
    candidate's final value in floats: LIMSUP from below by sums / n_lo before
    the tail window [n_lo, H + 1] (a float sum of t >= 0 never decreases) and
    by its running max inside it; HIT_DENSITY from above by
    (sums + n_lo - n) / n_lo, then by its running min. At the first checkpoint
    each net's best-bounded member (lowest index on ties) is walked once, and
    its exact value is that net's incumbent; from then on a candidate whose
    bound is strictly worse than the worst incumbent of the nets that hold it
    is dropped and reads +inf (LIMSUP) or -inf (HIT_DENSITY). A NaN bound
    never drops, and every kept value is exact, so each net's argmin or argmax
    is the one of the full scan. A net whose incumbent leaves the space is
    scanned in full, and so is a LIMSUP scan whose trace errors might become
    NaN after a drop (see _nan_free).
    """
    hits = objective == HIT_DENSITY
    extremum, worse = (np.minimum, np.less) if hits else (np.maximum, np.greater)
    family = xi.family
    n_lo = tail_window_start(xi.horizon + 1, tail_fraction)
    symbols = family.checked_symbols(xi.word.symbols(xi.horizon)).tolist()
    sums = np.zeros(len(P))
    best = np.full(len(P), np.inf if hits else -np.inf)
    live, incumbents = np.arange(len(P)), None
    prune = nets is not None and (hits or _nan_free(xi))
    checkpoint = FIRST_CHECKPOINT if prune else 0  # n starts at 1: no checkpoint
    c = tuple(P.T)
    # Symbol 0 is the identity: at n = 1 the candidates are scored as they are.
    for n, (s, x) in enumerate(zip([0, *symbols], xi.points.tolist()), start=1):
        c = family.steps[s](c)
        t = family.space._distance(c, x, np)
        sums += t < eps if hits else t
        if n >= n_lo:
            extremum(best, sums / n, out=best)
        if n == checkpoint:
            if n >= n_lo:
                bound = best
            else:
                bound = (sums + (n_lo - n) if hits else sums) / n_lo
            if incumbents is None:
                incumbents = _incumbents(xi, P, objective, eps, tail_fraction, nets, bound)
            keep = ~worse(bound, incumbents[live])
            c = tuple(col[keep] for col in c)
            sums, best, live = sums[keep], best[keep], live[keep]
            checkpoint *= 2
    values = np.full(len(P), -np.inf if hits else np.inf)
    values[live] = best
    return values


def _incumbents(xi: PseudoOrbit, P: np.ndarray, objective: str, eps: float,
                tail_fraction: float, nets: list[np.ndarray],
                bound: np.ndarray) -> np.ndarray:
    """For each row of P, the worst exact value among the incumbents of the
    nets that hold it: each net's incumbent is its member with the best bound,
    walked once; a net whose incumbent leaves the space has none, which no
    bound is worse than."""
    hits = objective == HIT_DENSITY
    pick, worst = (np.argmax, np.minimum) if hits else (np.argmin, np.maximum)
    incumbents = np.full(len(P), np.inf if hits else -np.inf)
    for rows in nets:
        try:
            t = _trace_errors(xi, P[rows[pick(bound[rows])]])
        except DomainError:
            value = -np.inf if hits else np.inf
        else:
            value = _tail_of_means(t < eps if hits else t, tail_fraction,
                                   "min" if hits else "max")[1]
        incumbents[rows] = worst(incumbents[rows], value)
    return incumbents


# Below this bound on every coordinate's magnitude no step overflows.
_SAFE_MAGNITUDE = 1e300


def _nan_free(xi: PseudoOrbit) -> bool:
    """Whether no trace error of a scan over the space can be NaN.

    Only a coordinate that overflows makes t NaN. Let g bound the operator
    2-norm of every map's linear part (at least 1; for a matrix A, the square
    root of the largest absolute row sum of A^T A, which is exact when A is
    orthogonal or diagonal) and h the norm of every offset. A point of norm
    at most R, the bounding box's corner, then has norm at most g^n (R + n h)
    after n steps: H steps, or one on the circle, whose images wrap into
    [0, 1). Below _SAFE_MAGNITUDE that leaves rounding a margin of 10^8.
    """
    space = xi.family.space
    growth, offsets = [1.0], [0.0]
    with np.errstate(all="ignore"):
        for f in xi.family.maps:
            if f.kind == "affine":
                a = np.array(f.matrix)
                gram = (a[:, :, None] * a[:, None, :]).sum(axis=0)
                growth.append(np.sqrt(np.abs(gram).sum(axis=1).max()))
                offsets.append(np.sqrt(np.square(f.offset).sum()))
            elif f.kind == "scale":
                growth.append(np.abs(f.factors).max())
        g, h = np.max(growth), np.max(offsets)
    corner = math.hypot(*map(max, map(abs, space.lo), map(abs, space.hi)))
    n = 1 if space.kind == CIRCLE else xi.horizon
    # A NaN bound (from an overflowing A^T A) compares False.
    return n * math.log(g) + math.log(corner + n * h) < math.log(_SAFE_MAGNITUDE)


def _net_search(xi: PseudoOrbit, objective: str, eps: float, meshes: list[float],
                tail_fraction: float) -> Iterator[tuple[np.ndarray, int, float, int]]:
    """For each mesh in turn, the best point of its net for objective (LIMSUP is
    minimised, HIT_DENSITY maximised, ties go to the lowest net index), its index,
    its value and the net size.

    Consecutive nets are scanned together, as one union of their exact rows, while
    that union stays within DEFAULT_NET_CAP points; a group is scanned only when its
    first result is asked for. A candidate's value is column arithmetic, the same in
    any batch, and the scan drops only candidates that provably are no net's pick,
    so each net's pick is the one a full scan of that net alone makes. A group costs
    one union scan whose live columns shrink at doubling checkpoints, plus one walk
    per net. A net over the cap raises once the results of the nets before it have
    been taken.
    """
    group, merged = [], None
    for mesh in meshes:
        try:
            points = net(xi.family.space, mesh)
        except ResourceCapError:
            if group:
                yield from _best_of_each(xi, objective, eps, group, merged, tail_fraction)
            raise
        grown = _union([*group, points])
        if group and len(grown[0]) > DEFAULT_NET_CAP:
            yield from _best_of_each(xi, objective, eps, group, merged, tail_fraction)
            group, grown = [], _union([points])
        group.append(points)
        merged = grown
    yield from _best_of_each(xi, objective, eps, group, merged, tail_fraction)


def _union(nets: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows (exact bytes) of the stacked nets, and the position of each
    stacked row among them."""
    stacked = np.concatenate(nets)
    _, first, inverse = np.unique(row_keys(stacked), return_index=True, return_inverse=True)
    return stacked[first], inverse


def _best_of_each(xi: PseudoOrbit, objective: str, eps: float, nets: list[np.ndarray],
                  merged: tuple[np.ndarray, np.ndarray],
                  tail_fraction: float) -> Iterator[tuple[np.ndarray, int, float, int]]:
    """One scan of the union of nets (merged, as _union gives it), then each net's
    pick from its own values."""
    union, inverse = merged
    rows = np.split(inverse, np.cumsum([len(p) for p in nets[:-1]]))
    values = _scan(xi, union, objective, eps, tail_fraction, rows)
    pick = np.argmax if objective == HIT_DENSITY else np.argmin
    for points, index in zip(nets, rows):
        own = values[index]
        best = int(pick(own))
        yield points[best], best, float(own[best]), len(points)


@dataclass(frozen=True)
class SearchResult:
    """Best candidate found by an exhaustive net scan."""

    report: ShadowReport
    success: bool
    objective: str
    mesh: float
    net_size: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        rep = self.report
        return {
            "candidate": rep.candidate.tolist(),
            "net_index": rep.net_index,
            "limsup_estimate": rep.limsup_estimate,
            "hit_lower_density": rep.hit_lower_density,
            "hit_upper_density": rep.hit_upper_density,
            "hit_set": rep.hit_set.to_list(),
            "verdicts": rep.verdicts,
            "params": rep.params,
            "success": self.success,
            "objective": self.objective,
            "mesh": self.mesh,
            "net_size": self.net_size,
            "search_params": self.params,
        }


def average_shadow_search(xi: PseudoOrbit, eps: float, mesh: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION) -> SearchResult:
    """Minimize the limsup estimate of trace means over a net.

    Success means the minimum is below eps.
    """
    check_positive("eps", eps)
    check_tail_fraction(tail_fraction)
    z, index, value, size = next(_net_search(xi, LIMSUP, eps, [mesh], tail_fraction))
    report = trace_report(z, xi, eps, tail_fraction, net_index=index)
    return SearchResult(report, value < eps, LIMSUP, mesh, size,
                        {"scan_objective": value, "eps": eps, "tail_fraction": tail_fraction})


def m_alpha_shadow_search(xi: PseudoOrbit, eps: float, alpha: float, mesh: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION) -> SearchResult:
    """Find a net point whose hit set has lower density estimate above alpha."""
    check_alpha(alpha)
    check_positive("eps", eps)
    check_tail_fraction(tail_fraction)
    z, index, value, size = next(_net_search(xi, HIT_DENSITY, eps, [mesh], tail_fraction))
    report = trace_report(z, xi, eps, tail_fraction, alpha=alpha, net_index=index)
    return SearchResult(report, value > alpha, HIT_DENSITY, mesh, size,
                        {"scan_objective": value, "eps": eps, "alpha": alpha,
                         "tail_fraction": tail_fraction})


@dataclass(frozen=True)
class RefinedSearchResult:
    """Outcome of the staged search with halving tracing budgets."""

    candidate: np.ndarray
    stages: list[dict]
    candidate_distances: list[float]
    failed_stage: int | None

    @property
    def succeeded(self) -> bool:
        return self.failed_stage is None

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.tolist(),
            "stages": self.stages,
            "candidate_distances": self.candidate_distances,
            "failed_stage": self.failed_stage,
            "succeeded": self.succeeded,
        }


def refined_asymptotic_search(xi: PseudoOrbit, eps0: float, mesh_schedule: list[float],
                              tail_fraction: float = DEFAULT_TAIL_FRACTION) -> RefinedSearchResult:
    """Stage m picks the point of the m-th mesh's net with the least limsup
    estimate and succeeds when that estimate is below eps0 / 2^m; there is one
    stage per mesh.

    A failed stage stops the refinement and returns the last successful
    candidate, flagged; successive candidate distances diagnose whether
    the stages are converging to one point.

    The limsup estimate does not depend on the budget, so the stages share
    scans: consecutive stage nets are scanned as one union (exact rows) while
    it stays within DEFAULT_NET_CAP points, and a later group is scanned only
    if every earlier stage succeeded. A search therefore costs about one scan
    of the union of its nets whichever stage fails. The budget, the tail
    fraction and the whole schedule are checked before any net is built; a
    net over the cap raises ResourceCapError only once every earlier stage
    has succeeded.
    """
    meshes = [float(v) for v in mesh_schedule]
    if not meshes:
        raise ParameterError("mesh schedule must not be empty")
    for mesh in meshes:
        check_positive("mesh", mesh)
    if any(b > a for a, b in zip(meshes, meshes[1:])):
        raise ParameterError("mesh schedule must be non-increasing")
    check_positive(f"eps0 / 2**{len(meshes)}", math.ldexp(eps0, -len(meshes)))
    check_tail_fraction(tail_fraction)

    stages, candidates = [], []
    picks = _net_search(xi, LIMSUP, eps0, meshes, tail_fraction)
    for m, (mesh, (z, _, estimate, size)) in enumerate(zip(meshes, picks), start=1):
        budget = math.ldexp(eps0, -m)
        ok = estimate < budget
        stages.append({"stage": m, "mesh": mesh, "budget": budget, "estimate": estimate,
                       "candidate": z.tolist(), "net_size": size, "success": ok})
        candidates.append(z)
        if not ok:
            break
    failed_stage = None if ok else m
    distances = [xi.family.space.distance(a, b) for a, b in zip(candidates, candidates[1:])]
    # The failed stage's candidate is returned only when no stage succeeded.
    final = candidates[-2] if failed_stage and failed_stage > 1 else candidates[-1]
    return RefinedSearchResult(final, stages, distances, failed_stage)
