"""Tracing-error reports and shadow-point search over nets.

A candidate z is judged by its trace errors t_j = d(f_w^j(z), x_j): the
tail max of prefix means stands in for the limsup, and the hit set
{j : t_j < eps} carries the density-flavored verdicts. Searches are
exhaustive over a net, so failure is a first-class, reportable outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import (
    DEFAULT_TAIL_FRACTION,
    IndexSet,
    prefix_means,
    tail_extremum,
    tail_window_start,
)
from .dynamics import DEFAULT_NET_CAP, as_point, net, orbit
from .errors import DomainError, ParameterError
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

    @classmethod
    def from_trace_errors(cls, t, eps: float, diam: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION,
                          candidate=None, alpha: float | None = None) -> "ShadowReport":
        """Build a report from a raw trace-error vector (synthetic or measured)."""
        return _build_report(np.asarray(t, dtype=np.float64), eps, diam, tail_fraction,
                             np.asarray(candidate, dtype=np.float64) if candidate is not None
                             else np.zeros(1), alpha, None, {})


def _build_report(t: np.ndarray, eps: float, diam: float, tail_fraction: float,
                  candidate: np.ndarray, alpha: float | None, net_index: int | None,
                  extra_params: dict) -> ShadowReport:
    if eps <= 0:
        raise ParameterError("eps must be positive")
    L = len(t)
    means = prefix_means(t)
    limsup, _ = tail_extremum(means, tail_fraction)
    hit_mask = t < eps
    hit_curve = prefix_means(hit_mask)
    lower, _ = tail_extremum(hit_curve, tail_fraction, "min")
    upper, _ = tail_extremum(hit_curve, tail_fraction)
    verdicts = {"shadowed_on_average": limsup < eps}
    if alpha is not None:
        verdicts["m_alpha"] = lower > alpha
    params = {"eps": eps, "alpha": alpha, "tail_fraction": tail_fraction,
              "length": L, **extra_params}
    return ShadowReport(candidate, t, means, limsup, IndexSet.from_mask(hit_mask),
                        lower, upper, verdicts, params, diam, net_index)


def trace_report(z, xi: PseudoOrbit, eps: float,
                 tail_fraction: float = DEFAULT_TAIL_FRACTION,
                 alpha: float | None = None, net_index: int | None = None) -> ShadowReport:
    """Full tracing report of candidate z against the pseudo-orbit.

    The candidate's orbit is one walk, so a family that sends it out of the
    space raises DomainError.
    """
    space = xi.family.space
    zp = as_point(z, space.dimension)
    if not space.contains(zp):
        raise DomainError(f"candidate {zp.tolist()} is outside the {space.kind} space")
    t = space.distance(orbit(xi.family, xi.word, zp, xi.horizon + 1), xi.points)
    return _build_report(t, eps, space.diameter, tail_fraction, zp, alpha, net_index, {})


def markov_inequality_check(report: ShadowReport, eps: float, tol: float = 1e-12) -> bool:
    """mean_n >= eps * density({j : t_j >= eps}, n) at every prefix n."""
    miss_density = prefix_means(report.trace_errors >= eps)
    return bool(np.all(report.prefix_means >= eps * miss_density - tol))


def diameter_bound_check(report: ShadowReport, eta: float, tol: float = 1e-12) -> bool:
    """mean_n <= diam * density({j : t_j >= eta}, n) + eta at every prefix n."""
    big_density = prefix_means(report.trace_errors >= eta)
    return bool(np.all(report.prefix_means <= report.diam * big_density + eta + tol))


# ---------------------------------------------------------------------------
# Net scans


def _scan(xi: PseudoOrbit, P: np.ndarray, eps: float, tail_fraction: float):
    """Per-candidate tail max of prefix means and tail min of hit density."""
    family = xi.family
    steps = family.steps
    n_lo = tail_window_start(xi.horizon + 1, tail_fraction)
    t = family.space.distance(P, xi.points[0])
    sums = t.copy()
    hits = (t < eps).astype(np.float64)
    max_mean = np.full(len(P), -np.inf)
    min_density = np.full(len(P), np.inf)
    if 1 >= n_lo:
        np.maximum(max_mean, sums, out=max_mean)
        np.minimum(min_density, hits, out=min_density)
    for j, s in enumerate(family.checked_symbols(xi.word.symbols(xi.horizon)).tolist(), start=1):
        P = steps[s](P)
        t = family.space.distance(P, xi.points[j])
        sums += t
        hits += t < eps
        n = j + 1
        if n >= n_lo:
            np.maximum(max_mean, sums / n, out=max_mean)
            np.minimum(min_density, hits / n, out=min_density)
    return max_mean, min_density


@dataclass(frozen=True)
class SearchResult:
    """Best candidate found by an exhaustive net scan."""

    report: ShadowReport
    success: bool
    objective: str
    mesh: float
    net_size: int
    params: dict = field(default_factory=dict)


def average_shadow_search(xi: PseudoOrbit, eps: float, mesh: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION,
                          net_cap: int = DEFAULT_NET_CAP) -> SearchResult:
    """Minimize the limsup estimate of trace means over a net.

    Success means the minimum is below eps; ties break to the lowest net
    enumeration index, so results are reproducible.
    """
    candidates = net(xi.family.space, mesh, cap=net_cap)
    max_mean, _ = _scan(xi, candidates, eps, tail_fraction)
    best = int(np.argmin(max_mean))
    report = trace_report(candidates[best], xi, eps, tail_fraction, net_index=best)
    scan_objective = float(max_mean[best])
    return SearchResult(report, scan_objective < eps, "limsup_estimate", mesh,
                        len(candidates), {"scan_objective": scan_objective, "eps": eps,
                                          "tail_fraction": tail_fraction})


def m_alpha_shadow_search(xi: PseudoOrbit, eps: float, alpha: float, mesh: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION,
                          net_cap: int = DEFAULT_NET_CAP) -> SearchResult:
    """Find a net point whose hit set has lower density estimate above alpha."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0,1), got {alpha}")
    candidates = net(xi.family.space, mesh, cap=net_cap)
    _, min_density = _scan(xi, candidates, eps, tail_fraction)
    best = int(np.argmax(min_density))
    report = trace_report(candidates[best], xi, eps, tail_fraction, alpha=alpha,
                          net_index=best)
    best_density = float(min_density[best])
    return SearchResult(report, best_density > alpha, "hit_lower_density", mesh,
                        len(candidates), {"scan_objective": best_density, "eps": eps,
                                          "alpha": alpha, "tail_fraction": tail_fraction})


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


def refined_asymptotic_search(xi: PseudoOrbit, eps0: float, levels: int,
                              mesh_schedule: list[float],
                              tail_fraction: float = DEFAULT_TAIL_FRACTION,
                              net_cap: int = DEFAULT_NET_CAP) -> RefinedSearchResult:
    """Stage m seeks a candidate with limsup estimate below eps0 / 2^m.

    A failed stage stops the refinement and returns the last successful
    candidate, flagged; successive candidate distances diagnose whether
    the stages are converging to one point.
    """
    if levels < 1:
        raise ParameterError("levels must be >= 1")
    meshes = [float(v) for v in mesh_schedule]
    if len(meshes) < levels:
        raise ParameterError(f"mesh schedule has {len(meshes)} entries, needs {levels}")
    if any(b > a for a, b in zip(meshes, meshes[1:])):
        raise ParameterError("mesh schedule must be non-increasing")

    space = xi.family.space
    stages: list[dict] = []
    candidates_per_stage: list[np.ndarray] = []
    failed_stage: int | None = None
    last_good: np.ndarray | None = None
    for m in range(1, levels + 1):
        budget = eps0 / 2.0**m
        points = net(space, meshes[m - 1], cap=net_cap)
        max_mean, _ = _scan(xi, points, budget, tail_fraction)
        best = int(np.argmin(max_mean))
        estimate = float(max_mean[best])
        ok = estimate < budget
        stages.append({"stage": m, "mesh": meshes[m - 1], "budget": budget,
                       "estimate": estimate, "candidate": points[best].tolist(),
                       "net_size": len(points), "success": ok})
        candidates_per_stage.append(points[best])
        if ok:
            last_good = points[best]
        else:
            failed_stage = m
            break
    distances = [space.distance(a, b)
                 for a, b in zip(candidates_per_stage, candidates_per_stage[1:])]
    final = last_good if last_good is not None else candidates_per_stage[-1]
    return RefinedSearchResult(final, stages, distances, failed_stage)
