"""Prefix densities, tail-window extrema and the finite-horizon upper density estimate.

Counting is exact (integer) with one final division per prefix; limsup and
liminf are replaced by extrema over a declared tail window of prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError

DEFAULT_TAIL_FRACTION = 0.5
# Slack for float rounding in the exact finite inequality checks.
ROUNDING_TOL = 1e-12
# Shortest horizon whose tail window the density estimates read.
MIN_DENSITY_HORIZON = 10


def check_tail_fraction(tail_fraction: float) -> None:
    """Reject a tail fraction outside (0, 1), NaN included."""
    if not 0.0 < tail_fraction < 1.0:
        raise ParameterError(f"tail_fraction must lie in (0,1), got {tail_fraction}")


def tail_window_start(horizon: int, tail_fraction: float) -> int:
    """First prefix length n of the tail window [ceil(tf*H), H]."""
    check_tail_fraction(tail_fraction)
    return max(1, math.ceil(tail_fraction * horizon))


def prefix_means(x) -> np.ndarray:
    """Element n-1 is the mean of x[:n]: one cumulative sum, one division."""
    return np.cumsum(x) / np.arange(1, len(x) + 1, dtype=np.int64)


def tail_extremum(curve, tail_fraction: float, mode: str = "max") -> tuple[float, int]:
    """Max (or min) of a prefix curve over its tail window, and the first
    prefix length n attaining it; curve[n - 1] is the value at prefix n."""
    n_lo = tail_window_start(len(curve), tail_fraction)
    tail = np.asarray(curve)[n_lo - 1:]
    i = int(tail.argmax() if mode == "max" else tail.argmin())
    return float(tail[i]), n_lo + i


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing natural numbers below a declared horizon."""

    indices: np.ndarray
    horizon: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if idx.size and (np.any(np.diff(idx) <= 0) or idx[0] < 0):
            raise ParameterError("indices must be strictly increasing naturals")
        if self.horizon < 0 or (idx.size and idx[-1] >= self.horizon):
            raise ParameterError("all indices must be < horizon")

    @classmethod
    def from_iterable(cls, indices, horizon: int) -> "IndexSet":
        return cls(np.unique(np.asarray(sorted(indices), dtype=np.int64)), horizon)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "IndexSet":
        return cls(np.flatnonzero(np.asarray(mask, dtype=bool)), len(mask))

    def __len__(self) -> int:
        return int(self.indices.size)

    def __contains__(self, j: int) -> bool:
        pos = np.searchsorted(self.indices, j)
        return pos < self.indices.size and self.indices[pos] == j

    def mask(self) -> np.ndarray:
        out = np.zeros(self.horizon, dtype=bool)
        out[self.indices] = True
        return out

    def count_below(self, n: int) -> int:
        """|A ∩ [0, n)| by binary search."""
        return int(np.searchsorted(self.indices, n, side="left"))

    def to_list(self) -> list[int]:
        return [int(j) for j in self.indices]


def prefix_density(A: IndexSet, n: int) -> float:
    """|A ∩ [0,n)| / n with exact counting; defined as 0 at n = 0."""
    if n < 0 or n > A.horizon:
        raise RangeError(f"prefix length {n} outside [0, {A.horizon}]")
    if n == 0:
        return 0.0
    return A.count_below(n) / n


def upper_density_estimate(A: IndexSet, tail_fraction: float = DEFAULT_TAIL_FRACTION) -> float:
    """Finite surrogate of the upper density: max prefix density over the tail window."""
    if A.horizon < MIN_DENSITY_HORIZON:
        raise ParameterError(f"density estimates need horizon >= {MIN_DENSITY_HORIZON}, "
                             f"got {A.horizon}")
    return tail_extremum(prefix_means(A.mask()), tail_fraction)[0]
