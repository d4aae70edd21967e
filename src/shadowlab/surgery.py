"""Repair of ergodic pseudo-orbits into average pseudo-orbits.

Large step errors are confined to blocks of length M anchored at greedily
chosen bad indices; inside each block the sequence is replaced by the true
orbit of the block's first point (composition shifted to the block's symbol
index), so in-block step errors vanish and only one block-exit error per
block survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DEFAULT_TAIL_FRACTION, IndexSet
from .dynamics import MetricSpace, orbit
from .errors import ParameterError, PreconditionError, check_positive
from .pseudo_orbits import DEFAULT_DENSITY_TOL, PseudoOrbit, is_ergodic_pseudo_orbit


@dataclass(frozen=True)
class RepairResult:
    """Repaired orbit plus the bookkeeping needed to audit it."""

    y: PseudoOrbit
    M: int
    anchors: IndexSet
    blocks: IndexSet
    diff_set: IndexSet
    delta: float
    truncated_last_block: bool = False

    def __post_init__(self):
        diff = set(self.diff_set.to_list())
        if not diff <= set(self.blocks.to_list()):
            raise ParameterError("diff set must be contained in the block union")
        anchors = self.anchors.to_list()
        if any(b - a < self.M for a, b in zip(anchors, anchors[1:])):
            raise ParameterError(f"anchors must be spaced >= M={self.M} apart")


def block_length(space: MetricSpace, delta: float, horizon: int | None = None) -> int:
    """Minimal M with diam(X)/M < delta/8."""
    check_positive("delta", delta)
    ratio = 8.0 * space.diameter / delta
    if not math.isfinite(ratio):
        raise ParameterError(f"delta={delta} is too small for a finite block length")
    M = max(1, math.floor(ratio) + 1)
    if horizon is not None and M > horizon:
        raise ParameterError(
            f"delta={delta} needs block length M={M}, which exceeds horizon {horizon}; "
            f"a horizon of at least {M} is required"
        )
    return M


def select_anchors(bad: IndexSet, M: int) -> IndexSet:
    """Greedy recurrence: k_0 = min(bad), k_{n+1} = min{l in bad : l >= k_n + M}."""
    if M < 1:
        raise ParameterError("M must be >= 1")
    idx = bad.indices
    anchors: list[int] = []
    pos = 0
    while pos < idx.size:
        k = int(idx[pos])
        anchors.append(k)
        pos = int(np.searchsorted(idx, k + M, side="left"))
    return IndexSet.from_iterable(anchors, bad.horizon)


def repair(xi: PseudoOrbit, delta: float,
           density_tol: float = DEFAULT_DENSITY_TOL,
           tail_fraction: float = DEFAULT_TAIL_FRACTION) -> RepairResult:
    """Turn a (delta/2, w)-ergodic pseudo-orbit into a (delta, w)-average one.

    An input with no bad step is already good enough and is returned
    unchanged. Rejects inputs that fail the ergodic precondition at the
    caller's tolerance, carrying the classification witness.
    """
    gate = is_ergodic_pseudo_orbit(xi, delta / 2.0, density_tol, tail_fraction)
    if not gate:
        raise PreconditionError(
            f"input is not a ({delta / 2.0}, w)-ergodic pseudo-orbit "
            f"at density_tol={density_tol}", witness=gate.witness)

    H = xi.horizon
    bad = xi.exceptional_set(delta / 2.0)
    empty = IndexSet.from_iterable([], H + 1)
    if len(bad) == 0:
        return RepairResult(xi, block_length(xi.family.space, delta), empty, empty, empty, delta)

    M = block_length(xi.family.space, delta, horizon=H)
    anchors = select_anchors(bad, M)

    points = xi.points.copy()
    block_indices: list[int] = []
    truncated = False
    for k in anchors.to_list():
        length = min(M, H + 1 - k)
        if length < M:
            truncated = True
        block = orbit(xi.family, xi.word.shifted(k), xi.points[k], length)
        points[k:k + length] = block
        block_indices.extend(range(k, k + length))

    meta = {**xi.meta, "repaired": True, "M": M, "delta": delta}
    y = PseudoOrbit.from_points(xi.family, xi.word, points, meta)

    diff_mask = np.any(points != xi.points, axis=1)
    diff = IndexSet.from_mask(diff_mask)
    blocks = IndexSet.from_iterable(block_indices, H + 1)
    anchors_pts = IndexSet.from_iterable(anchors.to_list(), H + 1)
    return RepairResult(y, M, anchors_pts, blocks, diff, delta, truncated)

