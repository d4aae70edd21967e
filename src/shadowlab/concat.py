"""Stitching pseudo-orbit blocks into one long sequence, with an audit.

Blocks of increasing quality are laid end to end; the only uncontrolled
step errors are the one-per-junction jumps, so prefix means at block
boundaries are driven down by later, longer, better blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import prefix_means
from .errors import ParameterError, PreconditionError
from .dynamics import Word, _integer
from .pseudo_orbits import PseudoOrbit
from .verdict import ClassificationVerdict

GROWTH_CAP = 20
GROWTH_RATIO = 8.0
# Largest deviation of the three-part split from a prefix sum that the certificate accepts.
SPLIT_TOL = 1e-9


@dataclass(frozen=True)
class BlockPlan:
    """Blocks plus their quality levels and cumulative offsets.

    Block k (1-indexed) has m_k + 1 points and must keep its prefix mean
    errors below 1/k for all prefix lengths >= N_k. Offsets satisfy
    M_0 = 0, M_n = sum of (m_i + 1) for i <= n.
    """

    blocks: tuple[PseudoOrbit, ...]
    N_levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "N_levels", tuple(_integer(f"N_{k}", n) for k, n in
                                                   enumerate(self.N_levels, start=1)))
        if not self.blocks:
            raise ParameterError("a block plan needs at least one block")
        if len(self.N_levels) != len(self.blocks):
            raise ParameterError("one quality level N_k per block is required")
        family = self.blocks[0].family
        for k, (block, N) in enumerate(zip(self.blocks, self.N_levels), start=1):
            if block.horizon < 1:
                raise ParameterError(f"block {k} needs at least 2 points")
            if not 1 <= N <= block.horizon:
                raise ParameterError(f"N_{k}={N} must lie in [1, m_{k}={block.horizon}]")
            if block.family != family:
                raise ParameterError(f"block {k} has another generator family than block 1")
        for n in range(1, len(self.blocks) + 1):
            if self.offsets[n] > (n + 1) * self.block_lengths[n - 1]:
                raise ParameterError(
                    f"offset M_{n}={self.offsets[n]} exceeds (n+1)*m_n="
                    f"{(n + 1) * self.block_lengths[n - 1]}; blocks must not shrink")

    @property
    def block_lengths(self) -> list[int]:
        return [b.horizon for b in self.blocks]

    @property
    def offsets(self) -> list[int]:
        out = [0]
        for m in self.block_lengths:
            out.append(out[-1] + m + 1)
        return out

    def growth_floor(self, k: int) -> int:
        """Desk-scale floor for m_k (1-indexed block)."""
        floor = 1
        if k < len(self.N_levels):
            floor = max(floor, 2 ** min(self.N_levels[k], GROWTH_CAP))
        if k >= 2:
            floor = max(floor, int(np.ceil(GROWTH_RATIO * self.offsets[k - 1])))
        return floor

    def growth_floor_report(self) -> list[dict]:
        lengths = self.block_lengths
        return [{"block": k, "m": lengths[k - 1], "floor": self.growth_floor(k),
                 "ok": lengths[k - 1] >= self.growth_floor(k)}
                for k in range(1, len(self.blocks) + 1)]


def concatenate(plan: BlockPlan, word: Word) -> PseudoOrbit:
    """Lay the blocks end to end against the given word.

    Each block must be a pseudo-orbit for the word shifted to its own
    offset, with prefix mean errors below 1/k beyond N_k; both checks read
    the block's slice of the new orbit's step errors. Block k's steps take
    the symbols of the block's own word when it equals the word shifted by
    the block's offset (a frozen spec fixes every symbol, and the block's
    memo already holds them), and those of the shifted word otherwise; a
    junction's symbol is the word's symbol_at. So the laid-out symbols equal
    word.symbols(H), and the orbit is built with them. Junction step errors
    are recorded separately in the metadata.
    """
    offsets = plan.offsets
    family = plan.blocks[0].family
    points = np.concatenate([b.points for b in plan.blocks], axis=0)
    symbols = np.empty(len(points) - 1, dtype=np.min_scalar_type(word.m))
    for k, block in enumerate(plan.blocks, start=1):
        shifted = word.shifted(offsets[k - 1])
        symbols[offsets[k - 1]:offsets[k] - 1] = (
            block.word if block.word == shifted else shifted).symbols(block.horizon)
        if k < len(plan.blocks):
            symbols[offsets[k] - 1] = word.symbol_at(offsets[k] - 1)
    junction_indices = [offsets[k] - 1 for k in range(1, len(plan.blocks))]
    meta = {"kind": "concatenation", "offsets": offsets, "junction_indices": junction_indices}
    xi = PseudoOrbit(family, word, points, meta, symbols=symbols)
    for k, (block, N) in enumerate(zip(plan.blocks, plan.N_levels), start=1):
        block_errors = xi.step_errors[offsets[k - 1]:offsets[k] - 1]
        # A step's error is the same bits wherever it is computed, so any
        # difference means the block was built for another word.
        if not np.array_equal(block_errors, block.step_errors):
            mismatch = float(np.max(np.abs(block_errors - block.step_errors)))
            raise PreconditionError(
                f"block {k} is not a pseudo-orbit for the word shifted by {offsets[k - 1]}",
                witness={"block": k, "offset": offsets[k - 1], "max_error_mismatch": mismatch})
        means = prefix_means(block_errors)
        over = np.flatnonzero(means[N - 1:] >= 1.0 / k)
        if over.size:
            n = N + int(over[0])
            raise PreconditionError(
                f"block {k} has prefix mean {means[n - 1]:.6g} >= 1/{k} at length {n}",
                witness={"block": k, "n": n, "prefix_mean": float(means[n - 1])})
    meta["junction_errors"] = [float(xi.step_errors[i]) for i in junction_indices]
    return xi


def _sample_grid(offsets: list[int], horizon: int) -> list[int]:
    js = {1, horizon}
    for n in range(1, len(offsets)):
        js.add(offsets[n])
        lo, hi = offsets[n - 1], offsets[n]
        for q in (1, 2, 3):
            js.add(lo + (hi - lo) * q // 4)
    return sorted(j for j in js if 1 <= j <= horizon)


def asymptotic_certificate(xi: PseudoOrbit, plan: BlockPlan) -> ClassificationVerdict:
    """Check the three-part split of prefix sums and the per-boundary targets.

    The split (interior block sums + junction sum + tail partial block)
    must reproduce each sampled prefix sum; the boundary report states
    whether the prefix mean at each M_n falls below 1/n, which is a
    heuristic reading of the asymptotic claim at finite horizon.
    """
    offsets = plan.offsets
    if len(xi.points) != offsets[-1]:
        raise ParameterError(
            f"sequence has {len(xi.points)} points, plan expects {offsets[-1]}")
    for k, block in enumerate(plan.blocks, start=1):
        if not np.array_equal(xi.points[offsets[k - 1]:offsets[k]], block.points):
            raise ParameterError(f"sequence does not match block {k} of the plan")

    H = xi.horizon
    e = xi.step_errors
    S = np.concatenate(([0.0], np.cumsum(e)))
    junction_indices = [offsets[k] - 1 for k in range(1, len(plan.blocks))]

    split_records = []
    max_dev = 0.0
    for j in _sample_grid(offsets, H):
        completed = [k for k in range(1, len(plan.blocks) + 1) if offsets[k] <= j]
        n = len(completed)
        interior = sum(float(S[offsets[k] - 1] - S[offsets[k - 1]]) for k in completed)
        junction = sum(float(e[i]) for i in junction_indices[:n])
        tail = float(S[j] - S[offsets[n]])
        direct = float(S[j])
        dev = abs(interior + junction + tail - direct)
        max_dev = max(max_dev, dev)
        split_records.append({"j": j, "completed_blocks": n, "interior": interior,
                              "junction": junction, "tail": tail, "direct": direct,
                              "deviation": dev})

    boundary_records = []
    for n in range(1, len(plan.blocks) + 1):
        Mn = offsets[n]
        j = min(Mn, H)
        mean = float(S[j] / j)
        boundary_records.append({"n": n, "M_n": Mn, "prefix_mean": mean,
                                 "target": 1.0 / n, "below_target": mean < 1.0 / n,
                                 "junction_share": sum(float(e[i]) for i in junction_indices[:n - 1]) / j})

    ok = max_dev <= SPLIT_TOL
    params = {"tol": SPLIT_TOL, "horizon": H, "split_records": split_records,
              "boundary_records": boundary_records,
              "growth_floor": plan.growth_floor_report(),
              "note": "boundary targets are heuristic at finite horizon"}
    witness = None
    if not ok:
        worst = max(split_records, key=lambda r: r["deviation"])
        witness = {"j": worst["j"], "deviation": worst["deviation"]}
    return ClassificationVerdict("concatenation-decomposition", ok, witness, params)
