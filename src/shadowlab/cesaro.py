"""Cesàro-null sequences and density-zero exceptional sets, constructively.

For a bounded nonnegative sequence, vanishing Cesàro means and convergence
to zero off a density-zero index set are two sides of the same coin; this
module extracts such a set stage by stage and checks both directions as
exact finite inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .density import (
    DEFAULT_TAIL_FRACTION,
    ROUNDING_TOL,
    IndexSet,
    prefix_density,
    prefix_means,
    tail_extremum,
    tail_window_start,
    upper_density_estimate,
)
from .errors import ParameterError, PreconditionError, check_positive
from .verdict import ClassificationVerdict

DEFAULT_LEVELS = tuple(1.0 / k for k in range(1, 33))
DENSITY_MARGIN = 0.5
MIN_STAGE_RATIO = 2.0


@dataclass(frozen=True)
class BoundedSequence:
    """Nonnegative reals a_0..a_{H-1} with an explicit upper bound."""

    values: np.ndarray
    bound: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ParameterError("values must be a nonempty 1-d sequence")
        if np.any(vals < 0):
            raise ParameterError("values must be nonnegative")
        if self.bound < float(vals.max()):
            raise ParameterError(f"bound {self.bound} is below max value {vals.max()}")

    @classmethod
    def from_values(cls, values, bound: float | None = None) -> "BoundedSequence":
        vals = np.asarray(values, dtype=np.float64)
        return cls(vals, float(vals.max(initial=0.0)) if bound is None else float(bound))

    @property
    def horizon(self) -> int:
        return len(self.values)

    @cached_property
    def means(self) -> np.ndarray:
        """Cesàro means, derived once and read-only: element n-1 is (1/n) * sum
        of the first n values, via prefix sums."""
        means = prefix_means(self.values)
        means.flags.writeable = False
        return means


@dataclass(frozen=True)
class NullSetExtraction:
    """Extracted exceptional set with its stage-by-stage audit trail."""

    J: IndexSet
    boundaries: list[int]
    stages: list[dict] = field(default_factory=list)
    truncated_at_stage: int | None = None
    params: dict = field(default_factory=dict)


def _first_certified(cum: np.ndarray, level: float, lo: int, hi: int) -> int | None:
    """Smallest t in [lo, hi] with (count of level-set below t)/t < level."""
    if lo > hi:
        return None
    ts = np.arange(lo, hi + 1, dtype=np.int64)
    ok = cum[ts - 1] < level * ts
    hit = np.flatnonzero(ok)
    return int(ts[hit[0]]) if hit.size else None


def extract_null_set(a: BoundedSequence, level_schedule: list[float] | None = None,
                     tail_fraction: float = DEFAULT_TAIL_FRACTION) -> NullSetExtraction:
    """Stage-wise extraction of an index set off which the sequence is small.

    Stage k flags {n in [T_k, T_{k+1}) : a_n >= level_{k+1}}, where T_{k+1}
    is the first index past the minimum stage length at which the level
    set's prefix density is certified below level_{k+1}. The segment after
    the last admitted boundary is flagged at the next level so the off-set
    guarantee holds through the horizon; an unreachable boundary truncates
    the schedule (recorded, not an error).
    """
    levels = list(DEFAULT_LEVELS if level_schedule is None else level_schedule)
    if not levels or not all(l > 0 for l in levels):
        raise ParameterError("level schedule must be positive")
    if any(b >= a_ for a_, b in zip(levels, levels[1:])):
        raise ParameterError("level schedule must be strictly decreasing")

    H = a.horizon
    tail_mean = tail_extremum(a.means, tail_fraction)[0]
    if tail_mean >= levels[0] * DENSITY_MARGIN:
        raise PreconditionError(
            f"tail Cesàro means reach {tail_mean}, not below "
            f"level_1 * margin = {levels[0] * DENSITY_MARGIN}; sequence is not Cesàro-null "
            f"at this horizon",
            witness={"tail_mean_max": tail_mean, "required_below": levels[0] * DENSITY_MARGIN})

    boundaries: list[int] = []
    stages: list[dict] = []
    flagged = np.zeros(H, dtype=bool)
    truncated_at: int | None = None

    T1 = _first_certified(np.cumsum(a.values >= levels[0]), levels[0], 1, H)
    if T1 is None:
        truncated_at = 0
    else:
        boundaries.append(T1)
        k = 1
        while k < len(levels):
            level = levels[k]
            Tk = boundaries[-1]
            lo = Tk + max(1, math.ceil(MIN_STAGE_RATIO * Tk))
            cum = np.cumsum(a.values >= level)
            T_next = _first_certified(cum, level, lo, H)
            if T_next is None:
                truncated_at = k
                break
            flagged[Tk:T_next] |= a.values[Tk:T_next] >= level
            certified = float(cum[T_next - 1] / T_next)
            boundaries.append(T_next)
            stages.append({"stage": k, "T": Tk, "T_next": T_next, "level": level,
                           "certified_density": certified})
            k += 1
        # Tail segment past the last boundary, flagged at the next level
        # (or the finest available) so the guarantee covers the horizon.
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


def verify_equivalence(a: BoundedSequence, J: IndexSet, tol: float,
                       tail_fraction: float = DEFAULT_TAIL_FRACTION) -> ClassificationVerdict:
    """Both finite-horizon directions of the Cesàro/null-set equivalence.

    (i) If the sequence is below tol off J in the tail, tail means obey
    the exact bound B*density(J) + early off-J mass / n + tol.
    (ii) Off J, tail values stay below tol.
    """
    check_positive("tol", tol)
    if J.horizon != a.horizon:
        raise ParameterError("J must share the sequence's horizon")
    H = a.horizon
    n_lo = tail_window_start(H, tail_fraction)
    in_J = J.mask()

    off_tail = a.values[n_lo:][~in_J[n_lo:]]
    off_tail_sup = float(off_tail.max()) if off_tail.size else 0.0
    early_off_mass = float(a.values[:n_lo][~in_J[:n_lo]].sum())

    dJ = upper_density_estimate(J, tail_fraction)
    ns = np.arange(n_lo, H + 1, dtype=np.int64)
    exact_bound = a.bound * prefix_means(in_J)[n_lo - 1:] + early_off_mass / ns + off_tail_sup
    exact_ok = bool(np.all(a.means[n_lo - 1:] <= exact_bound + ROUNDING_TOL))

    direction_i = (off_tail_sup >= tol) or exact_ok
    tail_mean_max = tail_extremum(a.means, tail_fraction)[0]
    simple_bound_holds = tail_mean_max < tol + a.bound * dJ
    direction_ii = off_tail_sup < tol

    verdict = direction_i and direction_ii
    params = {"tol": tol, "tail_fraction": tail_fraction, "bound": a.bound,
              "off_J_tail_sup": off_tail_sup, "J_upper_density_estimate": dJ,
              "early_off_J_mass": early_off_mass, "tail_mean_max": tail_mean_max,
              "simple_bound_holds": simple_bound_holds, "horizon": H}
    witness = None
    if not verdict:
        bad_dir = "i" if not direction_i else "ii"
        witness = {"direction": bad_dir, "off_J_tail_sup": off_tail_sup,
                   "tail_mean_max": tail_mean_max}
    return ClassificationVerdict("cesaro-null-set-equivalence", verdict, witness, params)
