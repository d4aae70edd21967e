"""Repair of ergodic pseudo-orbits into average pseudo-orbits.

Large step errors are confined to blocks of length M anchored at greedily
chosen bad indices; inside each block the sequence is replaced by the true
orbit of the block's first point, so in-block step errors vanish and only one
block-exit error per block survives. One walk from x_0 follows the maps inside
the blocks and lands the input's own point, as stored, at each block's exit
and at the input's defects outside the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DEFAULT_TAIL_FRACTION, IndexSet
from .dynamics import MetricSpace, _walk
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
    unchanged; any other is walked once, and its step errors are the walk's.
    Rejects inputs that fail the ergodic precondition at the caller's
    tolerance, carrying the classification witness.
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

    # Block k holds points k..k+M-1 (fewer at the horizon); the walk follows
    # the maps on its steps k..k+M-2. Elsewhere x_{j+1} is the image of x_j
    # except at a defect, so only the defects and each exit step k+M-1 land.
    blocks, followed = np.zeros(H + 1, dtype=bool), np.zeros(H, dtype=bool)
    for k in anchors.to_list():
        blocks[k:k + M] = followed[k:k + M - 1] = True
    exits = anchors.indices + (M - 1)
    landed = np.union1d(xi.defects[~followed[xi.defects]], exits[exits < H])
    points, _, errors, defects = _walk(xi.family, xi.word, xi.points[0], H,
                                       (landed, xi.points[landed + 1]), "stored")
    meta = {**xi.meta, "repaired": True, "M": M, "delta": delta}
    y = PseudoOrbit(xi.family, xi.word, points, errors, meta, defects=defects)
    diff = IndexSet.from_mask(np.any(points != xi.points, axis=1))
    return RepairResult(y, M, IndexSet.from_iterable(anchors.to_list(), H + 1),
                        IndexSet.from_mask(blocks), diff, delta, anchors.to_list()[-1] + M > H + 1)

