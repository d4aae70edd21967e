"""Construction and finite-horizon classification of pseudo-orbit types.

A pseudo-orbit is a point sequence x_0..x_H whose step errors
e_j = d(f_{w_j}(x_j), x_{j+1}) are controlled pointwise, in density, in
sliding-window means, or in Cesàro means.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cesaro import BoundedSequence
from .density import DEFAULT_TAIL_FRACTION, IndexSet, tail_extremum, upper_density_estimate
from .dynamics import (WALK_BLOCK, GeneratorFamily, JumpRule, MetricSpace, Word, _integer, _walk,
                       as_point, orbit)
from .errors import DomainError, ParameterError, check_nonnegative, check_positive
from .verdict import ClassificationVerdict

DEFAULT_DENSITY_TOL = 0.01


# Steps a column pass evaluates at once. It bounds the pass's temporaries (a
# symbol's index and gathered columns, the images, their bit comparison, and
# the distances with the columns gathered for them) to one block: a true orbit
# built on the disk at H = 2e5 peaked at 64 B a step in one full-length pass
# and at 26.7 in blocks of 2**16 steps (tracemalloc), against about 35 for a
# "stored" walk of the same points. With distances taken only where they can
# be nonzero, that orbit peaks at 21.8, and one whose every step is a defect
# at 44.1: a block of defects gathers its columns for the distances, 2.4 MB
# more than a pass that takes every distance, and bounded by the block.
COLUMN_BLOCK = 2**16


def _column_pass(family: GeneratorFamily, symbols: np.ndarray,
                 points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The step errors e_j = d(f_{w_j}(x_j), x_{j+1}) and the defects of the
    given points x_0..x_H under the given symbols w_0..w_{H-1}: the one place
    in the library that turns points into both. No step depends on the one
    before, so each symbol's map runs on the columns of its steps
    (GeneratorFamily._images), COLUMN_BLOCK steps at a time. The defects are
    the steps whose next point differs from the image bit for bit (bits, not
    errors, so that a signed zero or a distance that underflows to 0 counts),
    as a sorted int array. The errors are space._distance from the images to
    the next points, taken at the defects and at the steps whose next point
    is not finite; every other step lands on its image, a finite point, at
    distance 0.0. The pass checks nothing, and a point that left the space
    raises no warning: the constructor checks the alphabet and each point's
    membership before it, recompute_step_errors the alphabet."""
    H = len(points) - 1
    errors, defects = np.empty(H), [np.empty(0, dtype=np.int64)]
    with np.errstate(all="ignore"):  # a point outside the space may overflow
        for j0 in range(0, H, COLUMN_BLOCK):
            j1 = min(j0 + COLUMN_BLOCK, H)
            images = family._images(symbols[j0:j1], tuple(points[j0:j1].T))
            landed = tuple(points[j0 + 1:j1 + 1].T)
            moved = np.zeros(j1 - j0, dtype=bool)
            for image, x in zip(images, landed):
                moved |= image.view(np.uint64) != x.view(np.uint64)
            far = moved.copy()
            for x in landed:
                far |= ~np.isfinite(x)
            idx = np.flatnonzero(far)
            errors[j0:j1] = 0.0
            errors[j0 + idx] = family.space._distance(tuple(c[idx] for c in images),
                                                      tuple(x[idx] for x in landed))
            defects.append(j0 + np.flatnonzero(moved))
    return errors, np.concatenate(defects)


def recompute_step_errors(family: GeneratorFamily, word: Word, points: np.ndarray) -> np.ndarray:
    """e_j = d(f_{w_j}(x_j), x_{j+1}) of the given points, after the word's
    alphabet is checked against the family: the step errors of one column
    pass (_column_pass), as the PseudoOrbit constructor derives them.
    perfbench writes its orbit files' checksums with it, and the tests read
    step errors of given points with it; no code in the library calls it."""
    family.check_alphabet(word)
    points = np.asarray(points, dtype=np.float64)
    return _column_pass(family, word.symbols(len(points) - 1), points)[0]


def _checked_points(family: GeneratorFamily, word: Word, points) -> np.ndarray:
    """points as a new (H+1, d) float64 array, each of them a point of the
    space, after the word's alphabet is checked against the family; a 1-d
    array holds one point of a 1-dimensional space per entry. The copy is the
    orbit's own, so no later write into the array given reaches it."""
    family.check_alphabet(word)
    pts = np.array(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != family.space.dimension or not len(pts):
        raise DomainError("points must be an (H+1, dim) array matching the space")
    outside = np.flatnonzero(~family.space.contains(pts))
    if outside.size:
        raise DomainError(f"point {int(outside[0])} is outside the {family.space.kind} space")
    return pts


@dataclass(frozen=True)
class PseudoOrbit:
    """Finite point sequence x_0..x_H under a word, with the step errors and
    the defects that one column pass over its points derives (_column_pass).

    ``PseudoOrbit(family, word, points, meta)`` is the one way to build one:
    it checks the word's alphabet, the points' shape and each point's
    membership, then makes the pass over word.symbols(H). Neither record is
    an argument, ``dataclasses.replace`` derives both again, and a copy or a
    pickle is rebuilt by the constructor from the four arguments, so it
    derives its record from its own points. ``defects`` are the sorted steps
    j whose point x_{j+1} is not f_{w_j}(x_j) bit for bit; every step with a
    nonzero step error is among them, and every other point is its step's
    image, so a save lists the points at the defects alone. ``points``,
    ``step_errors`` and ``defects`` are read-only arrays of the orbit's own,
    and ``meta``, a JSON-like dict, is the orbit's own deep copy of the one
    given, so no later write into either reaches the orbit.
    """

    family: GeneratorFamily
    word: Word
    points: np.ndarray
    meta: dict = field(default_factory=dict)
    step_errors: np.ndarray = field(init=False)
    defects: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = _checked_points(self.family, self.word, self.points)
        errors, defects = _column_pass(self.family, self.word.symbols(len(pts) - 1), pts)
        for name, a in (("points", pts), ("step_errors", errors), ("defects", defects)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "meta", copy.deepcopy(self.meta))

    def __reduce__(self):
        return type(self), (self.family, self.word, self.points, self.meta)

    @classmethod
    def from_points(cls, family: GeneratorFamily, word: Word, points,
                    meta: dict | None = None) -> "PseudoOrbit":
        """PseudoOrbit(family, word, points, meta), meta left out as {}."""
        return cls(family, word, points, meta or {})

    @property
    def horizon(self) -> int:
        return len(self.step_errors)

    @cached_property
    def error_sequence(self) -> BoundedSequence:
        """step_errors as the one sequence its verdicts read, built on first read: a
        step error that is not finite (an overflow) is a ParameterError naming its step."""
        return BoundedSequence.from_values(self.step_errors)


def true_orbit(family: GeneratorFamily, word: Word, z, horizon: int) -> PseudoOrbit:
    """The actual orbit of z for `horizon` steps (dynamics.orbit), as a
    pseudo-orbit: every point is its step's image, so the column pass finds
    every step error exactly zero and no defect.
    """
    horizon = _integer("horizon", horizon)
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}", "horizon")
    return PseudoOrbit(family, word, orbit(family, word, z, horizon + 1), {"kind": "true-orbit"})


# ---------------------------------------------------------------------------
# Classification of step errors, checked once (PseudoOrbit.error_sequence)


def is_pseudo_orbit(xi: BoundedSequence, delta: float) -> ClassificationVerdict:
    """Every step error below delta."""
    check_positive("delta", delta)
    j = int(np.argmax(xi.values >= delta))
    ok = not xi.values[j] >= delta
    witness = None if ok else {"index": j, "step_error": float(xi.values[j])}
    return ClassificationVerdict("pseudo-orbit", ok, witness,
                                 {"delta": delta, "horizon": xi.horizon})


def is_ergodic_pseudo_orbit(xi: BoundedSequence, delta: float,
                            density_tol: float = DEFAULT_DENSITY_TOL,
                            tail_fraction: float = DEFAULT_TAIL_FRACTION) -> ClassificationVerdict:
    """Step errors reach delta only on a set of (estimated) density <= density_tol."""
    check_positive("delta", delta)
    check_nonnegative("density_tol", density_tol)
    exceptional = IndexSet.from_mask(xi.values >= delta)
    est = upper_density_estimate(exceptional, tail_fraction)
    params = {"delta": delta, "density_tol": density_tol, "horizon": xi.horizon,
              "tail_fraction": tail_fraction}
    ok = est <= density_tol
    witness = None if ok else {"exceptional_density": est, "exceptional_count": len(exceptional),
                               "first_indices": exceptional.to_list()[:8]}
    return ClassificationVerdict("ergodic-pseudo-orbit", ok, witness, params)


# Relative slack against rounding in the O(H) window scan's float shortcuts;
# every decision they do not settle goes through the canonical comparison.
_ROUNDING_SLACK = 1e-9
# Subnormal arithmetic rounds by an absolute half unit, which the relative
# slack underflows to zero on; the division in a window's canonical mean can
# round up by that much, i.e. by n half units once multiplied back by n.
_SUBNORMAL_UNIT = float(np.finfo(np.float64).smallest_subnormal)


def is_average_pseudo_orbit(xi: BoundedSequence, delta: float, N: int) -> ClassificationVerdict:
    """All sliding-window means of step errors with length >= N stay below delta.

    Exact over every window (k, n), n >= N: O(N*H) work for the max below,
    then O(H) for each candidate start the scan confirms (the
    maximum-density-segment argument of Lin, Jiang & Chao 2002; Goldwasser,
    Kao & Lu 2005), so O(H^2) near a tie, where the slack admits every
    start. S is the prefix sum of the step errors, and a window's canonical
    comparison is ``(S[k+n] - S[k]) / n >= delta``.

    - ``max_window_mean`` (worst) is the max of the canonical means over
      lengths N..min(2N - 1, H) only. A longer window's canonical mean can
      exceed it: its difference of rounded prefix sums rounds on its own.
    - The gate ``worst >= delta * (1 - _ROUNDING_SLACK)`` skips the scan
      below only when no window of any length >= N reaches delta. Read the
      float S as real numbers: the real mean (S[k+n] - S[k]) / n of a
      window of length >= 2N is a weighted mean of those of two windows of
      length >= N, so some window of length N..min(2N - 1, H) has a real
      mean at least as large. The canonical mean rounds the real one twice
      (a difference, exact when it underflows, and a division), each within
      a factor 1 +- u, u = 2^-53, plus half a subnormal unit v. So a window
      whose canonical mean reaches delta gives worst >= delta (1 - 4u) - v,
      which is at least fl(delta * (1 - _ROUNDING_SLACK)) for every
      delta >= 1e-314, at any horizon. Below that, deep in the subnormal
      range, the bound is not shown.
    - A window (k, n) reaching delta has g[k+n] >= g[k] for
      g_i = S_i - delta*i. Starts k whose suffix max of g beyond k+N
      reaches g[k], less a relative slack, are candidates; they are
      confirmed in increasing order with the canonical comparison, and the
      first that confirms, with its first n, is the witness: the
      lexicographically first violating window. The slack also holds H
      subnormal units, so a subnormal mean that only rounds up to delta
      stays a candidate.
    """
    check_positive("delta", delta)
    N, H = _integer("N", N), xi.horizon
    if not 1 <= N <= H:
        raise ParameterError(f"N must lie in [1, horizon={H}]")
    S = np.concatenate(([0.0], np.cumsum(xi.values)))
    worst = max(float(((S[n:] - S[:H - n + 1]) / n).max())
                for n in range(N, min(2 * N - 1, H) + 1))
    params = {"delta": delta, "N": N, "horizon": H, "scan": "full", "max_window_mean": worst}
    if worst >= delta * (1 - _ROUNDING_SLACK):
        g = S - delta * np.arange(H + 1)
        reach = np.maximum.accumulate(g[::-1])[::-1]
        slack = _ROUNDING_SLACK * (S[-1] + delta * H) + H * _SUBNORMAL_UNIT
        for k in np.flatnonzero(reach[N:] >= g[:H - N + 1] - slack).tolist():
            means = (S[k + N:] - S[k]) / np.arange(N, H - k + 1)
            bad = np.flatnonzero(means >= delta)
            if bad.size:
                witness = {"k": k, "n": N + int(bad[0]), "window_mean": float(means[bad[0]])}
                return ClassificationVerdict("average-pseudo-orbit", False, witness, params)
    return ClassificationVerdict("average-pseudo-orbit", True, None, params)


def is_weak_asymptotic_average(xi: BoundedSequence, delta: float,
                               tail_fraction: float = DEFAULT_TAIL_FRACTION) -> ClassificationVerdict:
    """Tail-window prefix means of step errors (xi.means) stay below delta."""
    check_positive("delta", delta)
    limsup, n = tail_extremum(xi.means, tail_fraction)
    params = {"delta": delta, "horizon": xi.horizon, "tail_fraction": tail_fraction,
              "limsup_estimate": limsup}
    ok = limsup < delta
    witness = None if ok else {"n": n, "prefix_mean": limsup}
    return ClassificationVerdict("weak-asymptotic-average-pseudo-orbit", ok, witness, params)


def is_asymptotic_average(xi: BoundedSequence, tol: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION) -> ClassificationVerdict:
    """Finite surrogate of Cesàro means of step errors tending to zero."""
    check_positive("tol", tol)
    inner = is_weak_asymptotic_average(xi, tol, tail_fraction)
    return ClassificationVerdict("asymptotic-average-pseudo-orbit", inner.verdict,
                                 inner.witness, {**inner.params, "tol": tol})


# ---------------------------------------------------------------------------
# Corrupted-orbit factory


def jump_sizes(rule: JumpRule, steps: list[int]) -> np.ndarray:
    """The offset sizes scale / (j + 1) ** power at increasing steps j, each a finite
    float, else a ParameterError naming power; they are monotone in j, so the last decides.

    Each size is the bytes of that Python expression. For an integral power
    p >= 0 (2 or 2.0) with (last j + 1) ** p <= 2**53, and a scale that is a
    float or an int of at most 2**53, they are one float64 division of the
    scale by the int64 powers, which are exact: both sides divide the same
    two exact doubles with one correctly rounded division. (An int ** int is
    the exact int, which true division converts exactly; an int ** float is
    libm pow of two doubles, whose result here is a double. glibc's pow
    evaluates it to about 2**-68 relative before its one rounding, its
    bound of 0.52 ulp, so that result comes back exact.) Every other rule
    evaluates the expression once per size."""
    scale, power = rule.scale, rule.power
    if (steps and type(power) in (int, float) and 0 <= power <= 53 and power == int(power)
            and (int(steps[-1]) + 1) ** int(power) <= 2**53
            and (type(scale) is float or type(scale) is int and scale <= 2**53)):
        return float(scale) / (np.asarray(steps, dtype=np.int64) + 1) ** int(power)
    out_of_range = ParameterError(f"jump power {rule.power} is out of floating-point range",
                                  "power")
    # A float scale over a Python int (j + 1) ** power past the float range
    # raises below, but only once the int is computed, which takes hours for a
    # power of 10**9; an int scale divides it exactly, to a size of 0. So
    # whatever the scale's type, the last step's, the largest, is probed
    # first: its size estimated, and converted only once it is small.
    if steps and type(rule.power) is int and rule.power > 0:
        last = steps[-1] + 1
        if rule.power * math.log2(last) > 1025:
            raise out_of_range
        try:
            float(last ** rule.power)
        except OverflowError:
            raise out_of_range from None
    try:
        sizes = np.array([rule.scale / (j + 1) ** rule.power for j in steps])
    except (OverflowError, ZeroDivisionError):
        raise out_of_range from None
    if not np.isfinite(sizes).all():
        raise out_of_range
    return sizes


def _draw_jumps(rule: JumpRule, space: MetricSpace, rng: np.random.Generator,
                steps: np.ndarray) -> np.ndarray:
    """One row per corrupted step, drawn in step order: the target point for
    "uniform" and "fixed" (which draws nothing), the displacement from the
    true image for "offset", of the size jump_sizes gives. The rows are drawn
    WALK_BLOCK at a time into one array: a block's uniform targets are one
    space.sample call of the block's length, and its normal draws one
    rng.normal; each continues the generator's stream, so every row, and the
    generator's final state, is the one a draw per row gives."""
    d = space.dimension
    rows = np.empty((len(steps), d))
    if rule.kind == "fixed":
        rows[:] = as_point(rule.point, d)
        return rows
    for k in range(0, len(steps), WALK_BLOCK):
        block = steps[k:k + WALK_BLOCK]
        if rule.kind == "uniform":
            rows[k:k + len(block)] = space.sample(rng, len(block))
            continue
        u = rng.normal(size=(len(block), d))
        # vecdot rounds exactly as the 1-d np.linalg.norm does; einsum does not.
        norms = np.sqrt(np.vecdot(u, u))[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(norms > 0, u / norms, np.eye(d)[0])
        np.multiply(u, jump_sizes(rule, block.tolist())[:, None], out=rows[k:k + len(block)])
    return rows


def make_corrupted_orbit(family: GeneratorFamily, word: Word, z,
                         corruption_indices: IndexSet, jump_rule: JumpRule,
                         seed: int) -> PseudoOrbit:
    """True orbit except at corrupted steps, where x_{j+1} follows the jump rule.

    Jumps that leave the space are clamped onto it; clamped indices are
    flagged in the metadata. Deterministic under the seed: every jump is
    drawn before stepping, in corrupted-step order. Every image, including
    an image a jump replaces, is checked for membership. The step errors,
    from the walk's points, are nonzero only at corrupted steps.
    """
    steps = corruption_indices.indices
    rows = _draw_jumps(jump_rule, family.space, np.random.default_rng(seed), steps)
    landing = "offset" if jump_rule.kind == "offset" else "target"
    points, clamped = _walk(family, word, z, corruption_indices.horizon, (steps, rows), landing)
    meta = {"kind": "corrupted-orbit", "seed": seed, "jump_rule": jump_rule.spec(),
            "corrupted_count": len(corruption_indices), "clamped_indices": clamped}
    return PseudoOrbit(family, word, points, meta)
