"""Tracing-error reports and shadow-point search over nets.

A candidate z is judged by its trace errors t_j = d(f_w^j(z), x_j): the
tail max of prefix means stands in for the limsup, and the hit set
{j : t_j < eps} carries the density-flavored verdicts. Searches are
exhaustive over a net, so failure is a first-class, reportable outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import (
    DEFAULT_TAIL_FRACTION,
    IndexSet,
    check_tail_fraction,
    prefix_means,
    tail_extremum,
    tail_window_start,
)
from .dynamics import CIRCLE, _keyed, as_point, net, orbit
from .errors import (
    DomainError,
    ParameterError,
    check_alpha,
    check_positive,
)
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
    net_index: int | None = None


def _build_report(t: np.ndarray, eps: float, tail_fraction: float, candidate: np.ndarray,
                  alpha: float | None, net_index: int | None) -> ShadowReport:
    means = prefix_means(t)
    limsup = tail_extremum(means, tail_fraction, "max")[0]
    hit_mask = t < eps
    hit_curve = prefix_means(hit_mask)
    lower = tail_extremum(hit_curve, tail_fraction, "min")[0]
    upper = tail_extremum(hit_curve, tail_fraction)[0]
    verdicts = {"shadowed_on_average": limsup < eps}
    if alpha is not None:
        verdicts["m_alpha"] = lower > alpha
    params = {"eps": eps, "alpha": alpha, "tail_fraction": tail_fraction, "length": len(t)}
    return ShadowReport(candidate, t, means, limsup, IndexSet.from_mask(hit_mask),
                        lower, upper, verdicts, params, net_index)


def trace_report(z, xi: PseudoOrbit, eps: float,
                 tail_fraction: float = DEFAULT_TAIL_FRACTION,
                 alpha: float | None = None, net_index: int | None = None) -> ShadowReport:
    """Full tracing report of candidate z against the pseudo-orbit.

    The candidate's orbit is one walk, so a family that sends it out of the
    space raises DomainError. eps must be positive and alpha, when given,
    must lie in (0, 1).
    """
    check_positive("eps", eps)
    check_alpha(alpha)
    space = xi.family.space
    zp = as_point(z, space.dimension)
    if not space.contains(zp):
        raise DomainError(f"candidate {zp.tolist()} is outside the {space.kind} space")
    t = space.distance(orbit(xi.family, xi.word, zp, xi.horizon + 1), xi.points)
    return _build_report(t, eps, tail_fraction, zp, alpha, net_index)


# ---------------------------------------------------------------------------
# Net scans

LIMSUP = "limsup_estimate"
HIT_DENSITY = "hit_lower_density"

# A pruned scan compares its candidates at prefix lengths
# FIRST_CHECKPOINT, 2 * FIRST_CHECKPOINT, 4 * FIRST_CHECKPOINT, ...
FIRST_CHECKPOINT = 16

# The floor of every Lipschitz bound: it covers the products and the squares
# that underflow (see _trace_gap_bound).
_TINY = 2.0 ** -500

# Below this bound on every coordinate's magnitude no step overflows.
_SAFE_MAGNITUDE = 1e300


def _scan(xi: PseudoOrbit, P: np.ndarray, objective: str, eps: float,
          tail_fraction: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-candidate objective over the tail window, with the whole of P one
    net: the max of the prefix means of the trace errors t (LIMSUP), or the
    min of the prefix means of 1[t < eps] (HIT_DENSITY); and the trace errors
    of the net's pick (LIMSUP is minimised, HIT_DENSITY maximised, ties go to
    the lowest row) when the scan walked it, else None.

    A scan prunes only when FIRST_CHECKPOINT <= H + 1. On the circle, when
    every symbol of the word has slope +-1 (the identity, a permutation, and
    scale and affine maps of slope +-1), it takes no step loop to do so: every
    candidate's walked trace lies within a proven slack of an analytic one
    (_isometry_targets), which bounds the candidate's value from both sides,
    and the candidates that cannot be the pick are dropped
    (_isometry_survivors). When at most _MOST_WALKS survive, each is walked
    once and reads its walk's value; more are scanned in full by the step loop
    below, over their rows only. Other circle maps run the full loop.

    The step loop drops the candidates that cannot be the pick by Lipschitz
    dominance. It does so only on a box or the disk (whose maps act on
    coordinates without the circle's wrap), for H < 2**26, when every symbol
    of the word has a norm bound (_symbol_norms) of at most 1 and, for LIMSUP,
    R + H h < _SAFE_MAGNITUDE, with R the norm of the bounding box's corner
    and h the largest offset norm of the word's maps. A point of norm at most
    R then has norm at most R + H h after H steps, so no trace error is NaN
    and no NaN pick is dropped. Every other loop is in full and walks nothing.

    At the first checkpoint the member with the best sums (lowest row on ties)
    is walked once, and is the incumbent. Every map is affine, so the
    incumbent's walked trace t* bounds every other member's future: with D the
    distance between a candidate's point and the incumbent's after n - 1
    steps, |t_j - t*_j| <= alpha_j D + beta_j for every j >= n, rounding
    included (_trace_gap_bound). At each checkpoint n a member is dropped when
    its running extremum over the tail window is already worse than the
    incumbent's value, or when that bound proves its value worse, or equal at
    a higher row (_limsup_dominance, _hits_dominance). When the bound proves a
    member better than the incumbent, it is walked and replaces it (one walk
    per checkpoint), and the old incumbent is dropped. A dropped candidate
    reads +inf (LIMSUP) or -inf (HIT_DENSITY).

    A walk that leaves the space, the first incumbent's or a rival's, ends
    pruning: its checkpoint drops nothing and the rest of the net is scanned
    in full, keeping the incumbent walked so far, if any.

    Every value a scan keeps is exact, so the argmin or argmax is the one of
    the full scan. The loop ends once the incumbent is the only live column:
    on a contracting word, at the first checkpoint. It then reads its walk's
    value, which is bit-identical to the scan's.
    """
    hits = objective == HIT_DENSITY
    extremum, worse, pick = ((np.minimum, np.less, np.argmax) if hits
                             else (np.maximum, np.greater, np.argmin))
    family, space, H = xi.family, xi.family.space, xi.horizon
    n_lo = tail_window_start(H + 1, tail_fraction)
    symbols = xi.word.symbols(H)
    live = np.arange(len(P))
    values = np.full(len(P), -np.inf if hits else np.inf)
    if space.kind == CIRCLE and FIRST_CHECKPOINT <= H + 1:
        if np.all(np.abs(family.affine_parts[0][symbols, 0, 0]) == 1.0):
            y, sigma = _isometry_targets(xi, symbols)
            live = _isometry_survivors(xi, P, hits, eps, tail_fraction, y, sigma)
            if len(live) <= _MOST_WALKS:
                walks = [_walk_row(xi, P, row, hits, eps, tail_fraction) for row in live.tolist()]
                values[live] = [w.value for w in walks]
                return values, walks[int(pick(values[live]))].trace
    norms, offsets = _symbol_norms(family)
    g, h = norms[symbols], offsets[symbols].max(initial=0.0)
    corner = math.hypot(*map(max, map(abs, space.lo), map(abs, space.hi)))
    prune = (space.kind != CIRCLE and H < 2**26 and bool(np.all(g <= 1.0))
             and (hits or corner + H * h < _SAFE_MAGNITUDE))
    sums = np.zeros(len(live))
    best = np.full(len(live), np.inf if hits else -np.inf)
    inc = None
    checkpoint = FIRST_CHECKPOINT if prune else 0  # n starts at 1: no checkpoint
    c = tuple(P[live].T)
    # Symbol 0 is the identity: at n = 1 the candidates are scored as they are.
    # A family that leaves the space overflows here; the pick's walk raises.
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (s, x) in enumerate(_steps(symbols, xi.points), start=1):
            c = family.steps[s](c)
            t = space._distance(c, x)
            sums += t < eps if hits else t
            if n >= n_lo:
                extremum(best, sums / n, out=best)
            if n != checkpoint:
                continue
            checkpoint *= 2
            try:
                if inc is None:
                    inc = _walk_row(xi, P, int(live[pick(sums)]), hits, eps, tail_fraction)
                mine = np.flatnonzero(~worse(best, inc.value))
                inc, drop = _dominance(xi, P, hits, eps, tail_fraction, n, inc, live[mine],
                                       tuple(col[mine] for col in c), sums[mine], best[mine], g, h)
            except DomainError:
                checkpoint = 0  # a walk left the space: scan the rest in full
                continue
            keep = mine[~drop]
            c = tuple(col[keep] for col in c)
            sums, best, live = sums[keep], best[keep], live[keep]
            if live.tolist() == [inc.row]:
                best = np.array([inc.value])
                break
    values[live] = best
    return values, inc.trace if inc is not None and pick(values) == inc.row else None


def _steps(symbols: np.ndarray, points: np.ndarray):
    """The scan's step at each prefix length n = 1..len(points), as Python
    values: its symbol (0, the identity, at n = 1, then the word's) and its
    orbit point. Each segment up to a checkpoint is converted when the scan
    reaches it, so a scan that stops early converts only what it steps."""
    steps = np.concatenate(([0], symbols))
    lo = 0
    while lo < len(points):
        hi = max(2 * lo, FIRST_CHECKPOINT)
        yield from zip(steps[lo:hi].tolist(), points[lo:hi].tolist())
        lo = hi


# A circle isometry scan walks its survivors when at most this many are left,
# and else runs the step loop over them: on the benchmark's circle orbit
# (H = 2 000; 2 cores, Python 3.11) one walk took 1.7-3.4 ms and the loop
# 20-30 ms at any net size.
_MOST_WALKS = 4

# The entries of one block of an isometry scan's (net x steps) arrays, 32 KiB
# each: max(1, _BLOCK_ENTRIES // (H + 1)) whole net rows, so one row once
# H + 1 > 2**12. On a 50-point circle net (a rotation with +-0.3 jumps,
# eps 0.1; 2 cores, Python 3.11) _isometry_survivors peaked at 104 / 152 KiB
# of traced memory (LIMSUP / HIT_DENSITY) and took 0.8-1.0 / 1.6-2.1 ms at
# H = 2 000; 276 / 384 KiB and 3.0-3.7 / 6.4-8.3 ms at H = 10**4; 2 737 /
# 3 811 KiB, 28 / 39 bytes a step, and 30-37 / 68-81 ms at H = 10**5. The
# whole circle scan peaked at 143 KiB at H = 2 000, below the step loop's
# 220 KiB, and at 6.1 MiB at H = 10**5, held by its targets and walks.
_BLOCK_ENTRIES = 2**12


def _isometry_targets(xi: PseudoOrbit, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y in [0, 1] and sigma, each of length H + 1, such that the walked float
    trace t of every start z in [0, 1) has |t_j - tau_j| <= sigma_j for
    j = 0..H, with tau_j = min(m, 1 - m) in floats, m = |z - y_j|, the
    circle distance from z to y_j. Every symbol s of the word has slope +-1:
    its map is x -> A[s, 0, 0] x + b[s, 0] (the family's affine_parts).

    The word's first j maps send z to s_j z + c_j mod 1 exactly, with s_j the
    product of their slopes and c_j the composed offset. The offsets are
    dyadic, so c_j is computed exactly, as an integer over 2^E with 2^E the
    largest denominator of the offsets, and rounded to a float once. As
    x -> s_j (x - c_j) is an isometry of the circle, the exact trace error
    d(s_j z + c_j, x_j) is d(z, y_j), with y_j = s_j (x_j - c_j) mod 1.

    Proof. Let u = 2^-53 and x'_j in [0, 1] the float x_j mod 1, the
    coordinate that the scan's distance reads.
    1. A walked step of slope a and offset b (0 for a map that has none) from
       a float p in [0, 1] computes a p exactly and rounds a p + b once, by at
       most u (1 + |b|); its mod 1 is exact but for the 1 it adds to a
       negative remainder, which rounds once more, by at most u. The step is
       an isometry, so the walked point after j steps lies within
       E_j = u D_j of s_j z + c_j, with D_j the sum over i < j of
       2 + |b_(w_i)|.
    2. The float distance between two points of [0, 1] rounds m, their
       difference's magnitude, and then 1 - m, each once, so it lies within
       2u (1 + u) of their circle distance min(m, 1 - m). So
       |t_j - d(z, y_j)| <= E_j + 2u (1 + u).
    3. The float c_j lies within u / 2 of c_j; x'_j - c_j, at most 1 in size,
       rounds once, by at most u; the sign is exact and the mod 1 rounds once
       more. So the float y_j lies within 2.5 u of y_j, and tau_j within
       4.5 u + 2u^2 of d(z, y_j).
    Together |t_j - tau_j| <= u (6.6 + D_j). sigma_j is (8 + D_j) u times
    1 + (H + 8) 2^-50, in floats. The float D_j is within a factor
    1 + (H + 3) u of the exact one (each term and each add rounds once, and
    H < 2^40), so sigma_j exceeds that bound by 1.4 u and by a factor of at
    least 1 + 4u, which covers the rounding of a comparison with it
    (_isometry_survivors). An offset so large that D_j overflows makes
    sigma_j infinite, which proves nothing.
    """
    A, b = xi.family.affine_parts
    ratios = [v.as_integer_ratio() for v in b[:, 0].tolist()]
    E = max(den.bit_length() - 1 for _, den in ratios)
    numerators = [num << (E - den.bit_length() + 1) for num, den in ratios]
    a = [int(v) for v in A[:, 0, 0].tolist()]
    mask, denominator = (1 << E) - 1, 1 << E
    c, s, offsets, signs = 0, 1, [0.0], [1.0]
    for w in symbols.tolist():
        c = (a[w] * c + numerators[w]) & mask
        s *= a[w]
        offsets.append(c / denominator)
        signs.append(s)
    y = (np.array(signs) * (xi.points[:, 0] % 1.0 - np.array(offsets))) % 1.0
    with np.errstate(over="ignore"):
        drift = np.concatenate(([0.0], np.cumsum(2.0 + np.abs(b[symbols, 0]))))
        sigma = (8.0 + drift) * (2.0**-53 * (1 + (xi.horizon + 8) * 2.0**-50))
    return y, sigma


def _isometry_survivors(xi: PseudoOrbit, P: np.ndarray, hits: bool, eps: float,
                        tail_fraction: float, y: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """The rows of P, a net of the circle, that can be the pick of a scan whose
    word applies isometries only, from the analytic traces tau_j(z), each
    within sigma_j of the walked one (_isometry_targets). The (net x steps)
    array of tau is built a block of whole net rows at a time, and each block
    writes its rows' bounds once: nothing is carried from block to block.

    Each row's value V is bounded as L <= V <= U.
    - LIMSUP: V is the max over tail lengths n of fl(S_n / n), S_n the walk's
      float sum of its first n trace errors, each at most 0.5 (1 + 2u),
      u = 2^-53. Its exact sum lies within the exact sum of sigma of the exact
      sum of tau. A float sum of n nonnegative terms, in any order, lies
      within a factor 1 + 1.01 n u of the exact one (n <= H + 1 < 2^40). So,
      with A_n and Sigma_n the float sums of the first n of tau and of sigma,
      fl(S_n / n) lies within h_n = Sigma_n / n + R_n of A_n / n, where
      R_n = 2^-50 (n + 8)(1 + sigma_H) covers the rounding of S_n, A_n,
      Sigma_n (sigma_H is the largest sigma), the divisions and the
      expressions of h_n, L and U about seven times over. With M the max of
      A_n / n and h the max of h_n over tail lengths, L = M - h and U = M + h;
      h does not depend on the row, so it is computed once.
    - HIT_DENSITY: V is the min over tail lengths of fl(K_n / n), K_n the
      walk's count of hits t_j < eps among its first n steps. A step with
      |tau_j - eps| > sigma_j (in floats: sigma_j's margin covers the
      rounding of the difference) is sure: there t_j < eps exactly when
      tau_j < eps. The sure hits count K_n from below and the sure hits and
      the unsure steps from above; fl(k / n) grows with k, so L and U are
      the min over tail lengths of fl(k / n) for those two counts, exactly.
    A row is dropped when the best row's opposite bound proves it worse, or
    equal at a higher row: for LIMSUP, when L exceeds the least U, U*, or
    equals U* above the first row attaining it; for HIT_DENSITY, when U is
    below the greatest L, L*, or equals L* above the first row attaining it.
    The pick, the lowest row of the best value, is never dropped.
    """
    H = xi.horizon
    n = np.arange(tail_window_start(H + 1, tail_fraction), H + 2)
    tail = slice(n[0] - 1, None)
    lower, upper = np.empty(len(P)), np.empty(len(P))
    rows = max(1, _BLOCK_ENTRIES // (H + 1))
    with np.errstate(over="ignore"):
        half = float((np.cumsum(sigma)[tail] / n + 2.0**-50 * (1 + sigma[-1]) * (n + 8)).max())
        for r0 in range(0, len(P), rows):
            block = slice(r0, r0 + rows)
            tau = np.subtract(P[block, :1], y)
            np.abs(tau, out=tau)
            np.minimum(tau, 1.0 - tau, out=tau)
            if hits:
                sure = np.abs(tau - eps) > sigma
                hit = tau < eps
                for bound, steps in ((lower, hit & sure), (upper, hit | ~sure)):
                    means = np.cumsum(steps, axis=1, dtype=float, out=tau)[:, tail]
                    means /= n
                    bound[block] = means.min(axis=1)
            else:
                means = np.cumsum(tau, axis=1, out=tau)[:, tail]
                means /= n
                top = means.max(axis=1)
                lower[block], upper[block] = top - half, top + half
    mine, theirs = (upper, lower) if hits else (lower, upper)
    first = int((np.argmax if hits else np.argmin)(theirs))
    worse = (np.less if hits else np.greater)(mine, theirs[first])
    tie = (mine == theirs[first]) & (np.arange(len(P)) > first)
    return np.flatnonzero(~(worse | tie))


@dataclass(frozen=True)
class _Incumbent:
    """A net member walked once: its row of P, its exact value and the first
    tail length attaining it, its orbit's points and their largest norm, its
    trace errors, and the prefix sums of its terms (t, or 1[t < eps] as
    counts; sums[N - 1] covers the first N)."""

    row: int
    value: float
    at: int
    points: np.ndarray
    radius: float
    trace: np.ndarray
    sums: np.ndarray


def _walk_row(xi: PseudoOrbit, P: np.ndarray, row: int, hits: bool, eps: float,
              tail_fraction: float) -> _Incumbent:
    """Row `row` of P walked once. A family that sends it out of the space
    raises the walk's DomainError, which ends the scan's pruning."""
    points = orbit(xi.family, xi.word, P[row], xi.horizon + 1)
    t = xi.family.space.distance(points, xi.points)
    terms = t < eps if hits else t
    value, at = tail_extremum(prefix_means(terms), tail_fraction, "min" if hits else "max")
    radius = float(np.sqrt(np.square(points).sum(axis=1)).max())
    return _Incumbent(row, value, at, points, radius, t, np.cumsum(terms))


def _dominance(xi: PseudoOrbit, P: np.ndarray, hits: bool, eps: float, tail_fraction: float,
               n: int, inc: _Incumbent, rows: np.ndarray, c: tuple, sums: np.ndarray,
               best: np.ndarray, g: np.ndarray, h: float) -> tuple[_Incumbent, np.ndarray]:
    """Lipschitz dominance at checkpoint n, over the live rows with their
    columns c (points after n - 1 steps), sums and running extrema: the
    incumbent, and which rows to drop.

    When the bounds prove members better than the incumbent, the one with
    the best sums is walked and replaces it, and the old incumbent is
    dropped. A rival whose walk leaves the space raises its DomainError."""

    def test(inc: _Incumbent) -> tuple[np.ndarray, np.ndarray]:
        gap = xi.family.space._distance(c, tuple(inc.points[n - 1].tolist()))
        if hits:
            return _hits_dominance(eps, tail_fraction, n, inc, rows, gap, sums, best, g, h)
        return _limsup_dominance(n, inc, gap, sums, best, g, h)

    drop, beats = test(inc)
    if not beats.any():
        return inc, drop
    i = np.flatnonzero(beats)[(np.argmax if hits else np.argmin)(sums[beats])]
    rival = _walk_row(xi, P, int(rows[i]), hits, eps, tail_fraction)
    return rival, test(rival)[0] | (rows == inc.row)


def _trace_gap_bound(g: np.ndarray, inc: _Incumbent, n: int,
                     h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """alpha, beta and rho such that |t_j(z) - t*_j| <= alpha[j - n] D + beta[j - n]
    for j = n..H, for every candidate z of the incumbent's net whose point
    after n - 1 steps lies at float distance D from the incumbent's. Here t is
    the scan's float trace, g[k] the norm bound of the word's k-th symbol (at
    most 1), h the largest offset norm, and H = len(g).

    Proof. Let u = 2^-53, d the dimension, gamma_k = k u / (1 - k u) and
    rho = (H + 8)(d + 2)^2 2^-49, so that rho / 16 is at least both
    H sqrt(d) gamma_(d+1) and gamma_(H+d+3).
    1. A step of f(p) = A p + b rounds each coordinate's dot product and
       offset, an error of at most gamma_(d+1) (||A||_F |p| + |b|) in norm,
       and ||A||_F <= sqrt(d) g (a scale map rounds once per coordinate, a
       permutation not at all). With E_j the distance between the two float
       points after j steps, E_(n-1) = D and, as |z_j| <= |z*_j| + E_j,
           E_j <= g_(j-1) (1 + gamma_(d+1) sqrt(d)) E_(j-1)
                  + 2 gamma_(d+1) (sqrt(d) M + h),
       with M the largest norm of the incumbent's points. As every g <= 1,
       E_j <= (1 + rho / 8) Lambda_j D + rho (M + h) / 2, with Lambda_j the
       product g_(n-1) ... g_(j-1) and j - n + 1 <= H steps of drift. A
       product that underflows is off by up to 2^-1074 instead, at most
       H d^2 2^-1074 over a walk.
    2. The float cumprod of factors <= 1 is within a factor 1 + rho / 8 of
       Lambda_j while it stays at or above _TINY, and once below it every later
       Lambda_j is below (1 + rho / 8) _TINY; flooring at _TINY covers both.
       D's own rounding is a factor 1 + gamma_(d+3).
    3. A float distance sqrt(sum (p - x)^2) is within a factor
       1 + gamma_(d+3) of the exact one, plus sqrt(d) 2^-537 when its squares
       underflow, and the exact distances differ by at most E_j; so
       |t_j(z) - t*_j| <= (1 + rho / 8) E_j + rho t*_j / 4 plus those terms.
    Together |t_j(z) - t*_j| <= (1 + rho) Lambda_j D + rho (M + h + t*_j)
    with Lambda_j and D as computed. So alpha = (1 + 8 rho) Lambda_j and
    beta = 2 rho (M + h + t*_j) + _TINY hold at least twice the rounding terms
    the steps need, which covers the rounding of their own evaluation, and
    _TINY = 2^-500 is more than twice every underflow term above (three
    distances, D's among them, and a walk's products, for H and d below
    2^60).
    """
    H, d = len(g), inc.points.shape[1]
    rho = (H + 8) * (d + 2) ** 2 * 2.0 ** -49
    lam = np.maximum(np.cumprod(g[n - 1:]), _TINY)
    return (1 + 8 * rho) * lam, 2 * rho * (inc.radius + h + inc.trace[n:]) + _TINY, rho


def _limsup_dominance(n, inc, gap, sums, best, g, h):
    """Which live rows of a LIMSUP scan are dominated by its incumbent, and which
    are proven better than it.

    The incumbent's value V* is the float mean S*_N* / N* at a tail length N*.
    For N* > n, let Delta = S_n(z) - S*_n (float sums) and
    B = sum over n <= j < N* of alpha_j D + beta_j (_trace_gap_bound). The
    float sums of t >= 0 over N terms are within gamma_N of the exact sums of
    their terms (N <= H + 1), so
        S_N*(z) >= S*_N* + Delta - B - rho (S_n(z) + S*_n + S*_N*) / 4.
    When Delta > B + 10 rho (S_n(z) + S*_n + S*_N*), which leaves room for the
    rounding of this comparison, S_N*(z) > (1 + 4u) S*_N* + _TINY: z's mean
    at N* rounds strictly above V*, and so does its max over the tail. Such
    a z is dropped; lengths N <= n are the running max's, which _scan
    compares with V* exactly. By the same steps with z and z* swapped, a z
    whose -Delta exceeds those terms taken over every j >= n (and S*_(H+1))
    has every tail mean past n strictly below the incumbent's; if its running
    max is below V* too, z is proven better.
    """
    alpha, beta, rho = _trace_gap_bound(g, inc, n, h)
    S = inc.sums
    drop = np.zeros(len(sums), dtype=bool)
    if inc.at > n:
        k = inc.at - n
        drop = (sums - S[n - 1] > gap * alpha[:k].sum() + beta[:k].sum()
                + 10 * rho * (sums + S[n - 1] + S[inc.at - 1]))
    beats = ((S[n - 1] - sums > gap * alpha.sum() + beta.sum()
              + 10 * rho * (sums + S[n - 1] + S[-1])) & (best < inc.value))
    return drop, beats


def _hits_dominance(eps, tail_fraction, n, inc, rows, gap, sums, best, g, h):
    """Which live rows of a HIT_DENSITY scan are dominated by its incumbent,
    and which are proven better than it.

    A step j >= n is clear when |t*_j - eps| > alpha_j D + beta_j with D the
    largest over the rows (_trace_gap_bound; a NaN D clears nothing): there
    every row hits exactly when the incumbent does. Counting the other steps
    as hits bounds a row's count K_N at every length N > n from above by
    k + C_N (k its count at n); counting them as misses, from below by
    k + C'_N. The incumbent's value V* is K*_M / M at a tail length M. For
    H + 1 <= 2**26 two counts over lengths up to H + 1 have their float means
    in the order of the fractions, equal only when the fractions are, so
    fl((k + C_N) / N) < V* exactly when (k + C_N) M < K*_M N, in int64. A row
    is dropped when that holds at some tail length N > n, or when equality
    does and its row is above the incumbent's: its value is then below V*,
    or ties it and loses to the lower row. Lengths N <= n are the running
    min's, which _scan compares with V* exactly. A row is proven better
    when (k + C'_N) M > K*_M N at every tail length N > n and its running min
    is above V*.
    """
    alpha, beta, _ = _trace_gap_bound(g, inc, n, h)
    t = inc.trace[n:]
    clear = np.abs(t - eps) > alpha * gap.max(initial=0.0) + beta
    hit = t < eps
    H = len(g)
    N = np.arange(n + 1, H + 2)
    tail = N >= tail_window_start(H + 1, tail_fraction)
    K, M = int(inc.sums[inc.at - 1]), inc.at
    k = sums.astype(np.int64) * M

    def most(counted):
        """The max over tail lengths N > n of K*_M N - M (steps counted in [n, N))."""
        return (K * N - M * np.cumsum(counted))[tail].max(initial=np.iinfo(np.int64).min)

    upper, lower = most(hit | ~clear), most(hit & clear)
    drop = (k < upper) | ((k <= upper) & (rows > inc.row))
    return drop, (k > lower) & (best > inc.value)


def _symbol_norms(family) -> tuple[np.ndarray, np.ndarray]:
    """For each symbol s (0 is the identity), an upper bound on the operator
    2-norm of A[s] and the norm of b[s], with A and b the family's affine_parts.

    A monomial A, at most one nonzero entry in each row and column (the
    identity, a permutation, a scale map or an affine map written so), is a
    permutation P times a diagonal D, and ||P D||_2 = max |d_i|: its bound is
    its largest |a_ij|, exactly. Any other A's bound is the square root of
    the largest absolute row sum of A^T A, which bounds ||A||_2^2, raised by
    a factor 1 + 2^-40 and by _TINY, which cover its own rounding and
    underflow; an entry too large to square makes it inf or NaN. A^T A sums
    the rows' outer products in row order, in O(d^2) memory.
    """
    A, b = family.affine_parts
    monomial = ((A != 0).sum(axis=1).max(axis=1) <= 1) & ((A != 0).sum(axis=2).max(axis=1) <= 1)
    growth = np.abs(A).max(axis=(1, 2))
    with np.errstate(all="ignore"):
        for s in np.flatnonzero(~monomial).tolist():
            gram = sum(np.outer(row, row) for row in A[s])
            growth[s] = np.sqrt(np.abs(gram).sum(axis=1).max()) * (1 + 2.0 ** -40) + _TINY
        return growth, np.sqrt(np.square(b).sum(axis=1))


def _net_pick(xi: PseudoOrbit, objective: str, eps: float, mesh: float,
              tail_fraction: float) -> tuple[np.ndarray, int, float, int, np.ndarray | None]:
    """The best point of the mesh's net for objective (LIMSUP is minimised,
    HIT_DENSITY maximised, ties go to the lowest net index), its index, its
    value, the net size, and the pick's trace errors when the scan walked it
    (else None)."""
    P = net(xi.family.space, mesh)
    values, t = _scan(xi, P, objective, eps, tail_fraction)
    index = int((np.argmax if objective == HIT_DENSITY else np.argmin)(values))
    return P[index], index, float(values[index]), len(P), t


@dataclass(frozen=True)
class SearchResult:
    """Best candidate found by an exhaustive net scan."""

    report: ShadowReport
    success: bool
    objective: str
    mesh: float
    net_size: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        rep = self.report
        return {
            "candidate": rep.candidate.tolist(),
            "net_index": rep.net_index,
            "limsup_estimate": rep.limsup_estimate,
            "hit_lower_density": rep.hit_lower_density,
            "hit_upper_density": rep.hit_upper_density,
            "hit_set": rep.hit_set.to_list(),
            "verdicts": rep.verdicts,
            "params": rep.params,
            "success": self.success,
            "objective": self.objective,
            "mesh": self.mesh,
            "net_size": self.net_size,
            "search_params": self.params,
        }


def _net_search(xi: PseudoOrbit, objective: str, eps: float, mesh: float, tail_fraction: float,
                alpha: float | None) -> SearchResult:
    """The net's pick for objective as a SearchResult, after alpha (which
    HIT_DENSITY needs and LIMSUP takes as None), eps and the tail fraction
    are checked, in that order."""
    if objective == HIT_DENSITY and alpha is None:
        raise ParameterError("alpha must lie in (0,1), got None")
    check_alpha(alpha)
    check_positive("eps", eps)
    check_tail_fraction(tail_fraction)
    z, index, value, size, t = _net_pick(xi, objective, eps, mesh, tail_fraction)
    report = (trace_report(z, xi, eps, tail_fraction, alpha, index) if t is None
              else _build_report(t, eps, tail_fraction, z, alpha, index))
    params = {"scan_objective": value, "eps": eps, "tail_fraction": tail_fraction}
    if objective == LIMSUP:
        return SearchResult(report, value < eps, objective, mesh, size, params)
    return SearchResult(report, value > alpha, objective, mesh, size, {**params, "alpha": alpha})


def average_shadow_search(xi: PseudoOrbit, eps: float, mesh: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION) -> SearchResult:
    """Minimize the limsup estimate of trace means over a net.

    Success means the minimum is below eps.
    """
    return _net_search(xi, LIMSUP, eps, mesh, tail_fraction, None)


def m_alpha_shadow_search(xi: PseudoOrbit, eps: float, alpha: float, mesh: float,
                          tail_fraction: float = DEFAULT_TAIL_FRACTION) -> SearchResult:
    """Find a net point whose hit set has lower density estimate above alpha."""
    return _net_search(xi, HIT_DENSITY, eps, mesh, tail_fraction, alpha)


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

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.tolist(),
            "stages": self.stages,
            "candidate_distances": self.candidate_distances,
            "failed_stage": self.failed_stage,
            "succeeded": self.succeeded,
        }


def check_schedule(eps0: float, stages: int, meshes) -> list[float]:
    """The meshes as floats, read once the last budget eps0 / 2**stages is above 0, if they are
    a non-increasing list of positives, one a stage or more; an error's path is its config field."""
    _keyed("levels", check_positive, f"eps0 / 2**{stages}", math.ldexp(eps0, -stages))
    meshes = [float(v) for v in meshes]
    if not 0 < stages <= len(meshes):
        raise ParameterError(f"mesh schedule must hold a mesh for each of {max(stages, 1)} "
                             f"stages, got {len(meshes)}", "mesh_schedule")
    for mesh in meshes:
        _keyed("mesh_schedule", check_positive, "mesh", mesh)
    if any(b > a for a, b in zip(meshes, meshes[1:])):
        raise ParameterError("mesh schedule must be non-increasing", "mesh_schedule")
    return meshes


def refined_asymptotic_search(xi: PseudoOrbit, eps0: float, mesh_schedule: list[float],
                              tail_fraction: float = DEFAULT_TAIL_FRACTION) -> RefinedSearchResult:
    """Stage m picks the point of the m-th mesh's net with the least limsup
    estimate and succeeds when that estimate is below eps0 / 2^m; there is one
    stage per mesh.

    A failed stage stops the refinement and returns the last successful
    candidate, flagged; successive candidate distances diagnose whether
    the stages are converging to one point.

    Each stage builds and scans its own net, only once every earlier stage
    has succeeded, so a search that fails early builds no later net. The
    budget, the tail fraction and the whole schedule are checked before any
    net is built; a net over the cap raises ResourceCapError only once every
    earlier stage has succeeded.
    """
    meshes = check_schedule(eps0, len(mesh_schedule), mesh_schedule)
    check_tail_fraction(tail_fraction)

    stages, candidates = [], []
    for m, mesh in enumerate(meshes, start=1):
        z, _, estimate, size, _ = _net_pick(xi, LIMSUP, eps0, mesh, tail_fraction)
        budget = math.ldexp(eps0, -m)
        ok = estimate < budget
        stages.append({"stage": m, "mesh": mesh, "budget": budget, "estimate": estimate,
                       "candidate": z.tolist(), "net_size": size, "success": ok})
        candidates.append(z)
        if not ok:
            break
    failed_stage = None if ok else m
    distances = [xi.family.space.distance(a, b) for a, b in zip(candidates, candidates[1:])]
    # The failed stage's candidate is returned only when no stage succeeded.
    final = candidates[-2] if failed_stage and failed_stage > 1 else candidates[-1]
    return RefinedSearchResult(final, stages, distances, failed_stage)
