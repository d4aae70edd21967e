"""Prefix densities, tail-window extrema and the finite-horizon upper density estimate.

Counting is exact (integer) with one final division per prefix; limsup and
liminf are replaced by extrema over a declared tail window of prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _integer
from .errors import ParameterError, RangeError, check_nonnegative

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


def _index_array(indices) -> np.ndarray:
    """indices as int64: an integer array as it is, else each entry as _integer reads
    it (2.0 as 2, a bool or 2.5 a ParameterError naming it), and none past int64."""
    if isinstance(indices, np.ndarray) and indices.dtype.kind in "iu":
        return indices.astype(np.int64, copy=False)
    try:
        return np.array([_integer("index", v) for v in (
            indices.tolist() if isinstance(indices, np.ndarray) else indices)], np.int64)
    except OverflowError:
        raise ParameterError("indices must fit in int64") from None


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing natural numbers below a declared horizon."""

    indices: np.ndarray
    horizon: int

    def __post_init__(self):
        idx = _index_array(self.indices)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "horizon", _integer("horizon", self.horizon))
        check_nonnegative("horizon", self.horizon)
        if idx.size and (idx[0] < 0 or (np.diff(idx) <= 0).any()):
            k = int(np.flatnonzero(np.diff(idx, prepend=-1) <= 0)[0])  # -1 fails a negative idx[0]
            raise ParameterError(f"index {idx[k]} is negative" if k == 0 else
                                 f"index {idx[k]} is not above the index before it, {idx[k - 1]}")
        if idx.size and idx[-1] >= self.horizon:
            raise ParameterError(f"index {idx[-1]} is not below the horizon {self.horizon}")

    @classmethod
    def from_iterable(cls, indices, horizon: int) -> "IndexSet":
        """The distinct indices of an array or any iterable of integers, in order.
        Duplicates are dropped by sorting: numpy's hashed unique is about 50
        times as slow on int64 (numpy 2.4)."""
        idx = np.sort(_index_array(indices))
        return cls(np.concatenate((idx[:1], idx[1:][idx[1:] != idx[:-1]])), horizon)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "IndexSet":
        return cls(np.flatnonzero(np.asarray(mask, dtype=bool)), len(mask))

    def __len__(self) -> int:
        return int(self.indices.size)

    def mask(self) -> np.ndarray:
        out = np.zeros(self.horizon, dtype=bool)
        out[self.indices] = True
        return out

    def count_below(self, n: int) -> int:
        """|A ∩ [0, n)| by binary search."""
        return int(np.searchsorted(self.indices, n, side="left"))

    def to_list(self) -> list[int]:
        return self.indices.tolist()


def prefix_density(A: IndexSet, n: int) -> float:
    """|A ∩ [0,n)| / n with exact counting; defined as 0 at n = 0."""
    n = _integer("n", n)
    if n < 0 or n > A.horizon:
        raise RangeError(f"prefix length {n} outside [0, {A.horizon}]")
    if n == 0:
        return 0.0
    return A.count_below(n) / n


def check_density_horizon(horizon: int) -> None:
    """Reject a horizon shorter than the density estimates read."""
    if horizon < MIN_DENSITY_HORIZON:
        raise ParameterError(f"density estimates need horizon >= {MIN_DENSITY_HORIZON}, "
                             f"got {horizon}")


def upper_density_estimate(A: IndexSet, tail_fraction: float = DEFAULT_TAIL_FRACTION) -> float:
    """Finite surrogate of the upper density: max prefix density over the tail window."""
    check_density_horizon(A.horizon)
    return tail_extremum(prefix_means(A.mask()), tail_fraction)[0]
