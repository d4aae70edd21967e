"""The worked unit-disk system: swap and halving maps under the alternating word.

Tracking errors against any true orbit obey per-step recurrences (a swap
step preserves the gap, a halving step halves it), which sum to the
executable bound lhs(n) <= 4(M + sum of step errors).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import DEFAULT_TAIL_FRACTION, IndexSet
from .dynamics import GeneratorFamily, JumpRule, Word, as_point, orbit
from .errors import ParameterError, PreconditionError, check_positive
from .pseudo_orbits import PseudoOrbit, is_asymptotic_average, make_corrupted_orbit

TRACKING_TOL = 1e-9
# Prefix lengths at which aasp_demo reports the tracking mean against its bound.
AASP_CHECKPOINTS = (1_000, 10_000)
# The defaults of make_decaying_instance and aasp_demo, which the built-in config reads.
DEFAULT_SCALE, DEFAULT_POWER, DEFAULT_ASYMPTOTIC_TOL = 1.0, 2.0, 0.01
# The worked system as a spec, which the built-in config shares.
DISK_SYSTEM = {
    "space": {"kind": "unit-disk-2d"},
    "maps": [{"kind": "permutation", "perm": [1, 0]},
             {"kind": "scale", "factors": [0.5, 0.5]}],
    "word": {"kind": "periodic", "m": 2, "pattern": [1, 2]},
}


def build_disk_system() -> tuple[GeneratorFamily, Word]:
    """Closed unit disk with f_1 = coordinate swap, f_2 = halving, word 1,2,1,2,…"""
    return GeneratorFamily.from_spec(DISK_SYSTEM), Word.from_spec(DISK_SYSTEM["word"])


@dataclass(frozen=True)
class DiskExampleInstance:
    """A pseudo-orbit on the disk system, a true-orbit start, and the derived data."""

    xi: PseudoOrbit
    start: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "start", as_point(self.start, 2))
        family, word = build_disk_system()
        if self.xi.family.spec() != family.spec():
            raise ParameterError("instance requires the swap/halving disk family")
        symbols = self.xi.word.symbols(self.xi.horizon)
        expected = word.symbols(self.xi.horizon)
        if not np.array_equal(symbols, expected):
            raise ParameterError("instance requires the alternating word 1,2,1,2,…")
        if not self.xi.family.space.contains(self.start):
            raise ParameterError("start must lie in the unit disk")

    @property
    def M(self) -> float:
        return self.xi.family.space.distance(self.start, self.xi.points[0])

    @cached_property
    def _true_orbit(self) -> np.ndarray:
        pts = orbit(self.xi.family, self.xi.word, self.start, self.xi.horizon + 1)
        pts.flags.writeable = False
        return pts

    def true_orbit_points(self) -> np.ndarray:
        """The true orbit of the start, stepped once per instance (read-only)."""
        return self._true_orbit

    def tracking_errors(self) -> np.ndarray:
        """d((a_i, b_i), (x_i, y_i)) along the whole horizon."""
        return self.xi.family.space.distance(self.true_orbit_points(), self.xi.points)

    @cached_property
    def _tracking(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """lhs(n), rhs(n) and lhs(n) / n for every prefix n (read-only), and
        whether lhs(n) <= rhs(n) + TRACKING_TOL at every n."""
        H = self.xi.horizon
        lhs = np.cumsum(self.tracking_errors())
        alpha_partial = np.concatenate(([0.0], np.cumsum(self.xi.step_errors)))
        rhs = 4.0 * (self.M + alpha_partial[np.minimum(np.arange(1, H + 2), H)])
        means = lhs / np.arange(1, H + 2)
        for curve in (lhs, rhs, means):
            curve.flags.writeable = False
        return lhs, rhs, means, bool(np.all(lhs <= rhs + TRACKING_TOL))

    def tracking_means(self) -> np.ndarray:
        """The tracking means lhs(n) / n for every prefix n, derived once per
        instance with the curve (read-only)."""
        return self._tracking[2]


def make_decaying_instance(seed: int, horizon: int, scale: float = DEFAULT_SCALE,
                           power: float = DEFAULT_POWER, start=None) -> DiskExampleInstance:
    """Seeded instance with per-step corruption of size scale/(i+1)^power.

    The true-orbit start defaults to x_0 (which makes M = 0); pass a
    different start to exercise the M term.
    """
    family, word = build_disk_system()
    z = family.space.sample(np.random.default_rng(seed))
    all_indices = IndexSet(np.arange(horizon), horizon)
    xi = make_corrupted_orbit(family, word, z, all_indices,
                              JumpRule("offset", scale=scale, power=power), seed)
    return DiskExampleInstance(xi, xi.points[0] if start is None else start)


def tracking_inequality_curve(instance: DiskExampleInstance):
    """(lhs(n), rhs(n)) for every prefix n, plus the all-prefixes verdict.

    lhs(n) sums tracking errors below n; rhs(n) = 4(M + sum of step
    errors below n). The curve is derived once per instance (read-only).
    """
    lhs, rhs, _, verdict = instance._tracking
    return lhs, rhs, verdict


def aasp_demo(instance: DiskExampleInstance, tail_fraction: float = DEFAULT_TAIL_FRACTION,
              asymptotic_tol: float = DEFAULT_ASYMPTOTIC_TOL) -> dict:
    """Show tracking prefix means driven to zero by the summed bound.

    Requires the instance's pseudo-orbit to pass the asymptotic-average
    verdict at the configured tolerance; rejected with that witness
    otherwise.
    """
    check_positive("asymptotic_tol", asymptotic_tol)
    gate = is_asymptotic_average(instance.xi.error_sequence, asymptotic_tol, tail_fraction)
    if not gate:
        raise PreconditionError("instance is not an asymptotic average pseudo-orbit "
                                f"at tol={asymptotic_tol}", witness=gate.witness)
    lhs, rhs, verdict = tracking_inequality_curve(instance)
    means = instance.tracking_means()
    bound = rhs / np.arange(1, len(rhs) + 1)
    rows = []
    for n in AASP_CHECKPOINTS:
        if n <= len(lhs):
            rows.append({"n": int(n), "tracking_mean": float(means[n - 1]),
                         "bound": float(bound[n - 1]),
                         "below_bound": bool(means[n - 1] <= bound[n - 1] + TRACKING_TOL)})
    return {"M": instance.M, "checkpoints": rows,
            "tracking_mean_final": float(means[-1]),
            "bound_final": float(bound[-1]),
            "all_prefixes_bounded": verdict,
            "params": {"tail_fraction": tail_fraction, "asymptotic_tol": asymptotic_tol,
                       "horizon": instance.xi.horizon}}
