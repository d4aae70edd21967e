"""Phase spaces, generator families, infinite words, and orbit composition.

Points are float64 vectors. Map specs form a closed algebra (identity,
coordinate permutation, affine, componentwise scale) so that continuity and
self-mapping are verifiable rather than assumed.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import KW_ONLY, dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, ParameterError, RangeError, ResourceCapError

MEMBERSHIP_TOL = 1e-12
DEFAULT_NET_CAP = 1_000_000

UNIT_DISK = "unit-disk-2d"
BOX = "box-kd"
CIRCLE = "circle-1d"


def as_points(P, dimension: int | None = None) -> np.ndarray:
    """P as float64 coordinates: one point (1-d) or an (n, d) array of rows."""
    if type(P) is np.ndarray and P.dtype == np.float64 and 0 < P.ndim <= 2:
        q = P
    else:
        q = np.atleast_1d(np.asarray(P, dtype=np.float64))
    if q.ndim > 2:
        raise DomainError(f"expected a point or an (n, d) array of rows, got shape {q.shape}")
    if dimension is not None and q.shape[-1] != dimension:
        raise DomainError(f"point has dimension {q.shape[-1]}, space has dimension {dimension}")
    return q


def as_point(p, dimension: int | None = None) -> np.ndarray:
    q = as_points(p, dimension)
    if q.ndim != 1:
        raise DomainError(f"a point must be a 1-d coordinate vector, got shape {q.shape}")
    return q


def _integral(value) -> bool:
    """Whether value is an integer, Python or numpy, or an integral float such
    as 2.0; a bool, a string or a non-integral number is not."""
    return not isinstance(value, bool) and (
        isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer())


def _integer(what: str, value) -> int:
    if not _integral(value):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _integers(what: str, values) -> tuple[int, ...]:
    return tuple(_integer(f"{what} entry", v) for v in values)


def _finite(what: str, values) -> tuple[float, ...]:
    """values as floats; a ParameterError naming what at the first entry that is
    not a finite real number, such as a bool, a string, NaN or infinity."""
    values = tuple(values)
    for v in values:
        if (isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating))
                or not abs(v) <= sys.float_info.max):
            raise ParameterError(f"{what} must be finite real numbers, got {v!r}")
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class MetricSpace:
    """Compact phase space with an exact analytic diameter.

    ``lo``/``hi`` always hold the axis-aligned bounding box of the space;
    for ``box-kd`` they are the space itself.
    """

    kind: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    @classmethod
    def unit_disk(cls) -> "MetricSpace":
        return cls(UNIT_DISK, (-1.0, -1.0), (1.0, 1.0))

    @classmethod
    def box(cls, lo, hi) -> "MetricSpace":
        lo_t = _finite("box lo", [lo] if np.ndim(lo) == 0 else lo)
        hi_t = _finite("box hi", [hi] if np.ndim(hi) == 0 else hi)
        if len(lo_t) != len(hi_t) or not lo_t:
            raise ParameterError("box bounds must be nonempty and of equal length")
        if any(h <= l for l, h in zip(lo_t, hi_t)):
            raise ParameterError("box bounds require lo < hi on every axis")
        return cls(BOX, lo_t, hi_t)

    @classmethod
    def circle(cls) -> "MetricSpace":
        """Circle of circumference 1, coordinates in [0, 1), geodesic metric."""
        return cls(CIRCLE, (0.0,), (1.0,))

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def diameter(self) -> float:
        if self.kind == UNIT_DISK:
            return 2.0
        if self.kind == CIRCLE:
            return 0.5
        span = np.asarray(self.hi) - np.asarray(self.lo)
        return float(np.linalg.norm(span))

    def canonical(self, p: np.ndarray) -> np.ndarray:
        """Canonical representative: wraps circle coordinates into [0, 1)."""
        if self.kind == CIRCLE:
            return np.mod(p, 1.0)
        return p

    def contains(self, P):
        """Membership of a point (a bool) or of each row of P (an array), within MEMBERSHIP_TOL."""
        q = as_points(P, self.dimension)
        if self.kind == UNIT_DISK:
            if q.ndim == 1:
                # The 1-d np.linalg.norm without its dispatch, twice as fast as
                # vecdot; a corrupted orbit tests every jump's landing point.
                return math.sqrt(q.dot(q)) <= 1.0 + MEMBERSHIP_TOL
            return np.linalg.norm(q, axis=1) <= 1.0 + MEMBERSHIP_TOL
        if self.kind == CIRCLE:
            inside = np.all(np.isfinite(q), axis=-1)
        else:
            inside = np.all((q >= np.asarray(self.lo) - MEMBERSHIP_TOL)
                            & (q <= np.asarray(self.hi) + MEMBERSHIP_TOL), axis=-1)
        return bool(inside) if q.ndim == 1 else inside

    def distance(self, P, Q):
        """d(P, Q) for two points (a float), or row by row when either is an
        (n, d) array of rows (an array); a single point broadcasts.

        Two rounding forms, both pinned by artifact bytes: two points take
        the 1-d ``np.linalg.norm`` (``sqrt(vecdot)`` rounds the same), rows
        take ``np.linalg.norm(axis=1)``, which can differ in the last bit.
        """
        a, b = as_points(P, self.dimension), as_points(Q, self.dimension)
        if self.kind == CIRCLE:
            m = np.abs(np.mod(a[..., 0], 1.0) - np.mod(b[..., 0], 1.0))
            out = np.minimum(m, 1.0 - m)
            return float(out) if out.ndim == 0 else out
        diff = a - b
        return math.sqrt(diff.dot(diff)) if diff.ndim == 1 else np.linalg.norm(diff, axis=1)

    def project(self, P) -> np.ndarray:
        """Nearest point of the space (clamp / normalize / wrap) to a point or to each row of P."""
        q = as_points(P, self.dimension)
        if self.kind == UNIT_DISK:
            # Division by max(|q|, 1) is exact for points inside; fmax keeps
            # a NaN norm from touching the point.
            return q / np.fmax(np.sqrt(np.vecdot(q, q)), 1.0)[..., None]
        if self.kind == CIRCLE:
            return np.mod(q, 1.0)
        # A tie goes to the bound in both forms, which np.clip does not do for
        # signed zeros on every array layout; NaN stays NaN.
        lo, hi = np.asarray(self.lo), np.asarray(self.hi)
        return np.where(q <= lo, lo, np.where(q >= hi, hi, q))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform seeded point of the space."""
        if self.kind == UNIT_DISK:
            while True:
                q = rng.uniform(-1.0, 1.0, size=2)
                if np.linalg.norm(q) <= 1.0:
                    return q
        if self.kind == CIRCLE:
            return rng.uniform(0.0, 1.0, size=1)
        return rng.uniform(np.asarray(self.lo), np.asarray(self.hi))

    def spec(self) -> dict:
        if self.kind == BOX:
            return {"kind": BOX, "lo": list(self.lo), "hi": list(self.hi)}
        return {"kind": self.kind}

    @classmethod
    def from_spec(cls, spec: dict) -> "MetricSpace":
        kind = spec.get("kind")
        if kind == UNIT_DISK:
            return cls.unit_disk()
        if kind == CIRCLE:
            return cls.circle()
        if kind == BOX:
            return cls.box(spec["lo"], spec["hi"])
        raise ParameterError(f"unknown space kind {kind!r}")


@dataclass(frozen=True)
class GeneratorMap:
    """One continuous self-map from the closed spec algebra."""

    kind: str
    perm: tuple[int, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None
    offset: tuple[float, ...] | None = None
    factors: tuple[float, ...] | None = None

    @classmethod
    def identity(cls) -> "GeneratorMap":
        return cls("identity")

    @classmethod
    def permutation(cls, perm) -> "GeneratorMap":
        perm_t = _integers("permutation", perm)
        if sorted(perm_t) != list(range(len(perm_t))):
            raise ParameterError(f"{perm!r} is not a permutation of 0..{len(perm_t) - 1}")
        return cls("permutation", perm=perm_t)

    @classmethod
    def affine(cls, matrix, offset) -> "GeneratorMap":
        mat = tuple(_finite("affine matrix", row) for row in matrix)
        off = _finite("affine offset", offset)
        if any(len(row) != len(mat) for row in mat) or len(off) != len(mat):
            raise ParameterError("affine spec requires a square matrix and a matching offset")
        return cls("affine", matrix=mat, offset=off)

    @classmethod
    def scale(cls, factors) -> "GeneratorMap":
        return cls("scale", factors=_finite("scale factors",
                                            [factors] if np.ndim(factors) == 0 else factors))

    def __call__(self, P) -> np.ndarray:
        """Image of a point, or of each row of an (n, d) array P."""
        return self._step(as_points(P))

    @cached_property
    def _step(self):
        """The map as one function of a point or of rows, its arrays built once."""
        if self.kind == "identity":
            return lambda P: P
        if self.kind == "permutation":
            perm = np.array(self.perm, dtype=np.intp)
            # On a point p[perm] takes a fifth of the time of P[..., perm], and
            # orbits step one point at a time.
            return lambda P: P[perm] if P.ndim == 1 else P[:, perm]
        if self.kind == "affine":
            # The transposed view, not a contiguous copy: on a point this rounds
            # as A @ p + b does, on rows as the batch form always has.
            AT, b = np.asarray(self.matrix).T, np.asarray(self.offset)
            return lambda P: P @ AT + b
        if self.kind == "scale":
            factors = np.asarray(self.factors)
            return lambda P: P * factors
        raise ParameterError(f"unknown map kind {self.kind!r}")

    def spec(self) -> dict:
        out = {"kind": self.kind}
        if self.perm is not None:
            out["perm"] = list(self.perm)
        if self.matrix is not None:
            out["matrix"] = [list(r) for r in self.matrix]
        if self.offset is not None:
            out["offset"] = list(self.offset)
        if self.factors is not None:
            out["factors"] = list(self.factors)
        return out

    @classmethod
    def from_spec(cls, spec: dict) -> "GeneratorMap":
        kind = spec.get("kind")
        if kind == "identity":
            return cls.identity()
        if kind == "permutation":
            return cls.permutation(spec["perm"])
        if kind == "affine":
            return cls.affine(spec["matrix"], spec["offset"])
        if kind == "scale":
            return cls.scale(spec["factors"])
        raise ParameterError(f"unknown map kind {kind!r}")


@dataclass(frozen=True)
class GeneratorFamily:
    """Maps f_1..f_m acting on a space; symbol 0 always resolves to identity."""

    space: MetricSpace
    maps: tuple[GeneratorMap, ...]

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ParameterError("a generator family needs at least one map")
        sizes = {len(v) for g in self.maps for v in (g.perm, g.offset, g.factors) if v is not None}
        if sizes - {self.space.dimension}:
            raise ParameterError(f"maps of sizes {sorted(sizes)} on a space of dimension "
                                 f"{self.space.dimension}")

    @property
    def m(self) -> int:
        return len(self.maps)

    @cached_property
    def steps(self) -> tuple:
        """Step table: ``steps[s]`` maps a point or rows through f_s.

        Symbol 0 is the identity, and circle images wrap into [0, 1). Every
        stepping loop goes through this table, after ``checked_symbols``.
        """
        maps = [g._step for g in self.maps]
        if self.space.kind == CIRCLE:
            maps = [lambda P, f=f: np.mod(f(P), 1.0) for f in maps]
        return (lambda P: P, *maps)

    def symbols_in_range(self, symbols: np.ndarray) -> int:
        """Length of the longest prefix of the symbols inside [0, m]."""
        bad = np.flatnonzero((symbols < 0) | (symbols > self.m))
        return int(bad[0]) if bad.size else len(symbols)

    def checked_symbols(self, symbols) -> np.ndarray:
        """The symbols as an int64 array; RangeError at the first outside [0, m]."""
        symbols = np.asarray(symbols, dtype=np.int64)
        n = self.symbols_in_range(symbols)
        if n < len(symbols):
            raise RangeError(f"symbol {int(symbols[n])} outside [0, {self.m}]")
        return symbols

    def apply(self, symbol: int, P) -> np.ndarray:
        """Image of a point, or of each row of P, under f_symbol (0 is the identity).

        Inputs and images must lie in the space (DomainError naming the
        first that does not); a symbol outside [0, m] raises RangeError.
        """
        step = self.steps[int(self.checked_symbols((symbol,))[0])]
        q = as_points(P, self.space.dimension)
        i = _first_outside(self.space, q)
        if i is not None:
            raise DomainError(f"point {np.atleast_2d(q)[i].tolist()} is outside the "
                              f"{self.space.kind} space")
        img = step(q)
        i = _first_outside(self.space, img)
        if i is not None:
            raise _left_space(symbol, np.atleast_2d(q)[i], np.atleast_2d(img)[i])
        return img

    def spec(self) -> dict:
        return {"space": self.space.spec(), "maps": [g.spec() for g in self.maps]}

    @classmethod
    def from_spec(cls, spec: dict) -> "GeneratorFamily":
        space = MetricSpace.from_spec(spec["space"])
        return cls(space, tuple(GeneratorMap.from_spec(g) for g in spec["maps"]))


_WORD_KINDS = ("constant", "periodic", "iid", "prefix")


@dataclass(frozen=True)
class Word:
    """Deterministic rule for an infinite symbol sequence over {1..m}.

    Rules are a closed, serializable algebra; ``shifted`` views share the
    base rule, so orbit composition can start at any symbol index. A frozen
    value: every field is checked, and cast to its type, when the word is
    built, and two words are equal when their fields are.
    """

    kind: str
    m: int
    _: KW_ONLY
    symbol: int | None = None
    pattern: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    seed: int | None = None
    prefix: tuple[int, ...] | None = None
    tail: Word | None = None
    offset: int = 0

    def __post_init__(self):
        if self.kind not in _WORD_KINDS:
            raise ParameterError(f"unknown word kind {self.kind!r}")
        for name, check in (("m", _integer), ("offset", _integer), ("symbol", _integer),
                            ("seed", _integer), ("pattern", _integers), ("prefix", _integers),
                            ("weights", _finite)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check(f"word {name}", getattr(self, name)))
        if self.m < 1:
            raise ParameterError("alphabet size m must be >= 1")
        if self.offset < 0:
            raise ParameterError("word offset must be >= 0")
        if self.kind == "constant":
            if not 1 <= self.symbol <= self.m:
                raise ParameterError(f"constant symbol {self.symbol} outside 1..{self.m}")
        elif self.kind == "periodic":
            if not self.pattern:
                raise ParameterError("periodic word needs a nonempty pattern")
            if any(not 1 <= s <= self.m for s in self.pattern):
                raise ParameterError(f"pattern symbols must lie in 1..{self.m}")
        elif self.kind == "iid":
            if self.weights is None or len(self.weights) != self.m:
                raise ParameterError("iid word needs one weight per symbol")
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise ParameterError("iid weights must be nonnegative with positive sum")
            if self.seed is None:
                raise ParameterError("iid word needs a seed")
            if not 0 <= self.seed < 2**64:
                raise ParameterError(f"word seed must lie in [0, 2**64), got {self.seed}")
        elif self.kind == "prefix":
            if self.prefix is None or self.tail is None:
                raise ParameterError("prefix word needs an explicit prefix and a tail word")
            if any(not 1 <= s <= self.m for s in self.prefix):
                raise ParameterError(f"prefix symbols must lie in 1..{self.m}")
            if self.tail.m != self.m:
                raise ParameterError("tail word must share the alphabet size")

    @classmethod
    def constant(cls, symbol: int, m: int) -> "Word":
        return cls("constant", m, symbol=symbol)

    @classmethod
    def periodic(cls, pattern, m: int) -> "Word":
        return cls("periodic", m, pattern=pattern)

    @classmethod
    def iid(cls, weights, seed: int) -> "Word":
        return cls("iid", len(tuple(weights)), weights=weights, seed=seed)

    @classmethod
    def with_prefix(cls, prefix, tail: "Word") -> "Word":
        return cls("prefix", tail.m, prefix=prefix, tail=tail)

    def _iid_draws(self, start: int, n: int) -> bytes:
        """8 big-endian bytes per index start..start+n-1.

        Counter-based draws: deterministic regardless of query order.
        """
        key = b"shadowlab-word" + self.seed.to_bytes(8, "big")
        return b"".join(hashlib.sha256(key + j.to_bytes(8, "big")).digest()[:8]
                        for j in range(start, start + n))

    def _iid_thresholds(self) -> list[float]:
        total = sum(self.weights)
        acc = 0.0
        thresholds = []
        for w in self.weights:
            acc += w / total
            thresholds.append(acc)
        return thresholds

    def symbol_at(self, j: int) -> int:
        """Symbol j, by the rule that ``symbols`` reads."""
        if j < 0:
            raise RangeError("word indices start at 0")
        return int(self._base_symbols(self.offset + j, 1)[0])

    def symbols(self, n: int) -> np.ndarray:
        """The first n symbols as an int array; equal to symbol_at(0..n-1)."""
        return self._base_symbols(self.offset, max(int(n), 0))

    def _base_symbols(self, start: int, n: int) -> np.ndarray:
        """Base-rule symbols start..start+n-1: the one symbol rule of the word."""
        if self.kind == "constant":
            return np.full(n, self.symbol, dtype=np.int64)
        if self.kind == "periodic":
            pattern = np.array(self.pattern, dtype=np.int64)
            return pattern[(start + np.arange(n)) % len(pattern)]
        if self.kind == "iid":
            u = np.frombuffer(self._iid_draws(start, n), dtype=">u8").astype(np.float64) / 2.0**64
            s = np.searchsorted(np.array(self._iid_thresholds()), u, side="right") + 1
            return np.minimum(s, self.m).astype(np.int64)
        L = len(self.prefix)
        head = np.array(self.prefix[start:start + n], dtype=np.int64)
        tail_start = max(start, L) - L
        return np.concatenate((head, self.tail._base_symbols(self.tail.offset + tail_start,
                                                             n - len(head))))

    def shifted(self, k: int) -> "Word":
        if k < 0:
            raise RangeError("word shift must be >= 0")
        return replace(self, offset=self.offset + k)

    def spec(self) -> dict:
        out: dict = {"kind": self.kind, "m": self.m}
        if self.kind == "constant":
            out["symbol"] = self.symbol
        elif self.kind == "periodic":
            out["pattern"] = list(self.pattern)
        elif self.kind == "iid":
            out["weights"] = list(self.weights)
            out["seed"] = self.seed
        else:
            out["prefix"] = list(self.prefix)
            out["tail"] = self.tail.spec()
        if self.offset:
            out["offset"] = self.offset
        return out

    @classmethod
    def from_spec(cls, spec: dict) -> "Word":
        kind = spec["kind"]
        tail = cls.from_spec(spec["tail"]) if kind == "prefix" else None
        return cls(kind, spec["m"], symbol=spec.get("symbol"), pattern=spec.get("pattern"),
                   weights=spec.get("weights"), seed=spec.get("seed"),
                   prefix=spec.get("prefix"), tail=tail, offset=spec.get("offset", 0))


def _first_outside(space: MetricSpace, P: np.ndarray) -> int | None:
    """Index of the first row of P outside the space (a point is one row)."""
    bad = np.flatnonzero(~np.atleast_1d(space.contains(P)))
    return int(bad[0]) if bad.size else None


def _left_space(symbol: int, p: np.ndarray, image: np.ndarray) -> DomainError:
    return DomainError(f"map {int(symbol)} sends {p.tolist()} to {image.tolist()}, "
                       "outside the space")


def _walk(family: GeneratorFamily, symbols, z, jump=None) -> np.ndarray:
    """Step z through the symbols one point at a time; return the points.

    The image of points[j] is ``family.steps[symbols[j]](points[j])``;
    points[j+1] is that image, or jump(j, image) when a jump is given.
    Symbols are range-checked before stepping, and images are checked for
    membership once, over the finished walk. The errors are those of
    ``family.apply`` at the first failing step.
    """
    space = family.space
    p = as_point(z, space.dimension)
    if not space.contains(p):
        raise DomainError(f"start {p.tolist()} is outside the {space.kind} space")
    symbols = np.asarray(symbols, dtype=np.int64)
    n = family.symbols_in_range(symbols)
    steps = family.steps
    points = np.empty((n + 1, space.dimension), dtype=np.float64)
    points[0] = p
    images = points[1:] if jump is None else np.empty((n, space.dimension), dtype=np.float64)
    # A point that left the space may overflow before the membership check raises.
    with np.errstate(all="ignore"):
        for j, s in enumerate(symbols[:n].tolist()):
            p = images[j] = steps[s](p)
            if jump is not None:
                p = points[j + 1] = jump(j, p)
    j = _first_outside(space, images)
    if j is not None:
        raise _left_space(symbols[j], points[j], images[j])
    # The first out-of-range symbol, when no earlier image left the space.
    family.checked_symbols(symbols)
    return points


def orbit(family: GeneratorFamily, word: Word, z, n: int) -> np.ndarray:
    """True orbit of z: n points, element j+1 = f_{w_j}(element j).

    The n - 1 symbols are computed once; membership of every image is
    checked once per orbit.
    """
    if n < 1:
        raise ParameterError("orbit length must be >= 1")
    return _walk(family, word.symbols(n - 1), z)


def net(space: MetricSpace, mesh: float, cap: int = DEFAULT_NET_CAP) -> np.ndarray:
    """Finite point set covering the space to within mesh.

    Axis-aligned grid over the bounding box (lexicographic over grid
    indices), projected onto the space; exact duplicates are dropped
    keeping the first occurrence.
    """
    if mesh <= 0:
        raise ParameterError("mesh must be positive")
    k = space.dimension
    spacing = min(mesh, 2.0 * mesh / math.sqrt(k))
    # Points per axis, counted before any axis is built, so that a tiny mesh
    # hits the cap instead of allocating; an axis is counted at most cap + 1.
    bounds = list(zip(space.lo, space.hi))
    cells = [math.ceil(min((hi - lo) / spacing, cap + 1)) for lo, hi in bounds]
    counts = [max(1, n) if space.kind == CIRCLE else max(2, n + 1) for n in cells]
    total = math.prod(counts)
    if total > cap:
        raise ResourceCapError(f"net for mesh {mesh} needs at least {total} grid points "
                               f"(cap {cap})", required_cap=total)
    axes = [lo + (hi - lo) * np.arange(n) / n if space.kind == CIRCLE else np.linspace(lo, hi, n)
            for (lo, hi), n in zip(bounds, counts)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    proj = space.project(grid)
    # A grid point is kept when its projection lies within mesh of it, by the
    # point form of distance, sqrt(vecdot). On the circle the grid lies in
    # [0, 1), where the projection is the identity.
    gap = grid - proj
    proj = proj[np.sqrt(np.vecdot(gap, gap)) <= mesh]
    rows = np.ascontiguousarray(proj).view(np.dtype((np.void, proj.itemsize * k))).ravel()
    _, first = np.unique(rows, return_index=True)
    return proj[np.sort(first)]


def check_self_mapping(family: GeneratorFamily, mesh: float = 0.1) -> bool:
    """Verify on a net that every generator maps the space into itself."""
    points = net(family.space, mesh)
    return all(bool(np.all(family.space.contains(step(points)))) for step in family.steps[1:])
