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
    check_density_horizon,
    prefix_density,
    prefix_means,
    tail_extremum,
    tail_window_start,
)
from .errors import ParameterError, PreconditionError, check_positive
from .verdict import ClassificationVerdict

DEFAULT_LEVELS = tuple(1.0 / k for k in range(1, 33))
DENSITY_MARGIN = 0.5
MIN_STAGE_RATIO = 2.0
# Length of the first chunk that _first_certified compares past its lower limit.
_FIRST_CHUNK = 64


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
        if not np.all(np.isfinite(vals)):
            raise ParameterError("values must be finite numbers")
        if not math.isfinite(self.bound):
            raise ParameterError(f"bound must be a finite number, got {self.bound}", "bound")
        if np.any(vals < 0):
            raise ParameterError("values must be nonnegative")
        if self.bound < float(vals.max()):
            raise ParameterError(f"bound {self.bound} is below max value {vals.max()}", "bound")

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


def _first_certified(values: np.ndarray, level: float, lo: int,
                     hi: int) -> tuple[int, int] | None:
    """Smallest t in [lo, hi] with c_t < level * t, where c_t counts the
    values[:t] at or above level, returned with c_t; None if no t qualifies.

    c_{lo-1} is counted once; then t runs forward from lo in chunks that
    double in length, each compared whole. Invariant: at every chunk start s,
    count holds c_{s-1} exactly, so the chunk's counts are count plus its own
    running sum. Each comparison is an int64 count against a float64
    level * t, as in a cumulative sum over the whole sequence. Past lo the
    scan reads at most the first chunk or twice as far as the answer lies,
    and up to hi when no t qualifies.
    """
    if lo > hi:
        return None
    count = int(np.count_nonzero(values[:lo - 1] >= level))
    start, size = lo, _FIRST_CHUNK
    while start <= hi:
        stop = min(hi, start + size - 1)
        ts = np.arange(start, stop + 1, dtype=np.int64)
        counts = count + np.cumsum(values[start - 1:stop] >= level)
        hit = np.flatnonzero(counts < level * ts)
        if hit.size:
            return int(ts[hit[0]]), int(counts[hit[0]])
        count = int(counts[-1])
        start, size = stop + 1, 2 * size
    return None


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

    first = _first_certified(a.values, levels[0], 1, H)
    if first is None:
        truncated_at = 0
    else:
        boundaries.append(first[0])
        k = 1
        while k < len(levels):
            level = levels[k]
            Tk = boundaries[-1]
            lo = Tk + max(1, math.ceil(MIN_STAGE_RATIO * Tk))
            found = _first_certified(a.values, level, lo, H)
            if found is None:
                truncated_at = k
                break
            T_next, count = found
            flagged[Tk:T_next] |= a.values[Tk:T_next] >= level
            boundaries.append(T_next)
            stages.append({"stage": k, "T": Tk, "T_next": T_next, "level": level,
                           "certified_density": count / T_next})
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
    J_means = prefix_means(in_J)

    off_tail = a.values[n_lo:][~in_J[n_lo:]]
    off_tail_sup = float(off_tail.max()) if off_tail.size else 0.0
    early_off_mass = float(a.values[:n_lo][~in_J[:n_lo]].sum())

    check_density_horizon(H)
    dJ = tail_extremum(J_means, tail_fraction)[0]
    ns = np.arange(n_lo, H + 1, dtype=np.int64)
    exact_bound = a.bound * J_means[n_lo - 1:] + early_off_mass / ns + off_tail_sup
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
