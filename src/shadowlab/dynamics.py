"""Phase spaces, generator families, infinite words, and orbit composition.

Points are float64 vectors. Map specs form a closed algebra (identity,
coordinate permutation, affine, componentwise scale) so that continuity and
self-mapping are verifiable rather than assumed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, RangeError, ResourceCapError

MEMBERSHIP_TOL = 1e-12
DEFAULT_NET_CAP = 1_000_000

UNIT_DISK = "unit-disk-2d"
BOX = "box-kd"
CIRCLE = "circle-1d"


def as_point(p, dimension: int | None = None) -> np.ndarray:
    if type(p) is np.ndarray and p.dtype == np.float64 and p.ndim == 1:
        q = p
    else:
        q = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if q.ndim != 1:
        raise DomainError(f"a point must be a 1-d coordinate vector, got shape {q.shape}")
    if dimension is not None and q.shape[0] != dimension:
        raise DomainError(f"point has dimension {q.shape[0]}, space has dimension {dimension}")
    return q


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
        lo_t = tuple(float(v) for v in np.atleast_1d(lo))
        hi_t = tuple(float(v) for v in np.atleast_1d(hi))
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

    def contains(self, p, tol: float = MEMBERSHIP_TOL) -> bool:
        q = as_point(p, self.dimension)
        if self.kind == UNIT_DISK:
            # The 1-d np.linalg.norm, without its dispatch: sqrt of q.dot(q).
            return math.sqrt(q.dot(q)) <= 1.0 + tol
        if self.kind == CIRCLE:
            return bool(np.all(np.isfinite(q)))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return bool(np.all(q >= lo - tol) and np.all(q <= hi + tol))

    def contains_batch(self, P: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
        if self.kind == UNIT_DISK:
            return np.linalg.norm(P, axis=1) <= 1.0 + tol
        if self.kind == CIRCLE:
            return np.all(np.isfinite(P), axis=1)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((P >= lo - tol) & (P <= hi + tol), axis=1)

    def distance(self, p, q) -> float:
        a = as_point(p, self.dimension)
        b = as_point(q, self.dimension)
        if self.kind == CIRCLE:
            m = abs(float(np.mod(a[0], 1.0)) - float(np.mod(b[0], 1.0)))
            return min(m, 1.0 - m)
        return float(np.linalg.norm(a - b))

    def distance_batch(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """Rowwise distances; Q may be a single point broadcast against P."""
        if self.kind == CIRCLE:
            m = np.abs(np.mod(P, 1.0) - np.mod(Q, 1.0))
            m = m.reshape(m.shape[0], -1)[:, 0] if m.ndim > 1 else m
            return np.minimum(m, 1.0 - m)
        diff = P - Q
        return np.linalg.norm(diff.reshape(diff.shape[0], -1), axis=1)

    def project(self, p) -> np.ndarray:
        """Nearest point of the space (clamp / normalize / wrap)."""
        q = as_point(p, self.dimension)
        if self.kind == UNIT_DISK:
            r = float(np.linalg.norm(q))
            return q / r if r > 1.0 else q
        if self.kind == CIRCLE:
            return np.mod(q, 1.0)
        return np.clip(q, np.asarray(self.lo), np.asarray(self.hi))

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
        perm_t = tuple(int(i) for i in perm)
        if sorted(perm_t) != list(range(len(perm_t))):
            raise ParameterError(f"{perm!r} is not a permutation of 0..{len(perm_t) - 1}")
        return cls("permutation", perm=perm_t)

    @classmethod
    def affine(cls, matrix, offset) -> "GeneratorMap":
        mat = tuple(tuple(float(v) for v in row) for row in matrix)
        off = tuple(float(v) for v in offset)
        if any(len(row) != len(mat) for row in mat) or len(off) != len(mat):
            raise ParameterError("affine spec requires a square matrix and a matching offset")
        return cls("affine", matrix=mat, offset=off)

    @classmethod
    def scale(cls, factors) -> "GeneratorMap":
        return cls("scale", factors=tuple(float(v) for v in np.atleast_1d(factors)))

    def __call__(self, p: np.ndarray) -> np.ndarray:
        return self._point_step()(p)

    def _point_step(self):
        """The single-point form p -> image, with the map's arrays built once."""
        if self.kind == "identity":
            return lambda p: p
        if self.kind == "permutation":
            perm = list(self.perm)
            return lambda p: p[perm]
        if self.kind == "affine":
            A, b = np.asarray(self.matrix), np.asarray(self.offset)
            return lambda p: A @ p + b
        if self.kind == "scale":
            factors = np.asarray(self.factors)
            return lambda p: p * factors
        raise ParameterError(f"unknown map kind {self.kind!r}")

    def apply_batch(self, P: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return P
        if self.kind == "permutation":
            return P[:, list(self.perm)]
        if self.kind == "affine":
            return P @ np.asarray(self.matrix).T + np.asarray(self.offset)
        if self.kind == "scale":
            return P * np.asarray(self.factors)
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

    @property
    def m(self) -> int:
        return len(self.maps)

    def apply(self, symbol: int, p) -> np.ndarray:
        """Image of p under f_symbol; symbol 0 returns p unchanged."""
        if not 0 <= symbol <= self.m:
            raise RangeError(f"symbol {symbol} outside [0, {self.m}]")
        q = as_point(p, self.space.dimension)
        if not self.space.contains(q):
            raise DomainError(f"point {q.tolist()} is outside the {self.space.kind} space")
        if symbol == 0:
            return q
        img = self.space.canonical(self.maps[symbol - 1](q))
        if not self.space.contains(img):
            raise DomainError(
                f"map {symbol} sends {q.tolist()} to {img.tolist()}, outside the space"
            )
        return img

    def apply_batch(self, symbol: int, P: np.ndarray) -> np.ndarray:
        """Vectorized apply; assumes rows of P are already members."""
        if not 0 <= symbol <= self.m:
            raise RangeError(f"symbol {symbol} outside [0, {self.m}]")
        if symbol == 0:
            return P
        img = self.maps[symbol - 1].apply_batch(P)
        if self.space.kind == CIRCLE:
            img = np.mod(img, 1.0)
        return img

    def spec(self) -> dict:
        return {"space": self.space.spec(), "maps": [g.spec() for g in self.maps]}

    @classmethod
    def from_spec(cls, spec: dict) -> "GeneratorFamily":
        space = MetricSpace.from_spec(spec["space"])
        return cls(space, tuple(GeneratorMap.from_spec(g) for g in spec["maps"]))


_WORD_KINDS = ("constant", "periodic", "iid", "prefix")


class Word:
    """Deterministic rule for an infinite symbol sequence over {1..m}.

    Rules are a closed, serializable algebra; ``shifted`` views share the
    base rule, so orbit composition can start at any symbol index.
    """

    def __init__(self, kind: str, m: int, *, symbol=None, pattern=None, weights=None,
                 seed=None, prefix=None, tail: "Word | None" = None, offset: int = 0):
        if kind not in _WORD_KINDS:
            raise ParameterError(f"unknown word kind {kind!r}")
        if m < 1:
            raise ParameterError("alphabet size m must be >= 1")
        if offset < 0:
            raise ParameterError("word offset must be >= 0")
        self.kind = kind
        self.m = int(m)
        self.offset = int(offset)
        self.symbol = None if symbol is None else int(symbol)
        self.pattern = None if pattern is None else tuple(int(s) for s in pattern)
        self.weights = None if weights is None else tuple(float(v) for v in weights)
        self.seed = None if seed is None else int(seed)
        self.prefix = None if prefix is None else tuple(int(s) for s in prefix)
        self.tail = tail
        self._validate()

    def _validate(self):
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

    def _base_symbol(self, j: int) -> int:
        if self.kind == "constant":
            return self.symbol
        if self.kind == "periodic":
            return self.pattern[j % len(self.pattern)]
        if self.kind == "iid":
            return self._iid_symbol(j)
        if j < len(self.prefix):
            return self.prefix[j]
        return self.tail.symbol_at(j - len(self.prefix))

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

    def _iid_symbol(self, j: int) -> int:
        u = int.from_bytes(self._iid_draws(j, 1), "big") / 2.0**64
        for s, acc in enumerate(self._iid_thresholds(), start=1):
            if u < acc:
                return s
        return self.m

    def symbol_at(self, j: int) -> int:
        if j < 0:
            raise RangeError("word indices start at 0")
        return self._base_symbol(self.offset + j)

    def symbols(self, n: int) -> np.ndarray:
        """The first n symbols as an int array; equal to symbol_at(0..n-1)."""
        return self._base_symbols(self.offset, max(int(n), 0))

    def _base_symbols(self, start: int, n: int) -> np.ndarray:
        """Base-rule symbols start..start+n-1, without per-index dispatch."""
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
        if k == 0:
            return self
        return Word(self.kind, self.m, symbol=self.symbol, pattern=self.pattern,
                    weights=self.weights, seed=self.seed, prefix=self.prefix,
                    tail=self.tail, offset=self.offset + k)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.spec() == other.spec()

    def __repr__(self) -> str:
        return f"Word({self.spec()!r})"


def apply(family: GeneratorFamily, symbol: int, p) -> np.ndarray:
    return family.apply(symbol, p)


def _walk(family: GeneratorFamily, symbols, z, jump=None) -> np.ndarray:
    """Step z through the symbols one point at a time; return the points.

    The image of points[j] is f_{symbols[j]}(points[j]), in the single-point
    float form of ``GeneratorFamily.apply``; points[j+1] is that image, or
    jump(j, image) when a jump is given. Symbols are range-checked before
    stepping, and images are checked for membership once, with one
    ``contains_batch`` over the finished walk. The errors are those of
    ``apply`` at the first failing step.
    """
    space = family.space
    p = as_point(z, space.dimension)
    if not space.contains(p):
        raise DomainError(f"start {p.tolist()} is outside the {space.kind} space")
    symbols = np.asarray(symbols, dtype=np.int64)
    out_of_range = np.flatnonzero((symbols < 0) | (symbols > family.m))
    n = int(out_of_range[0]) if out_of_range.size else len(symbols)
    steps = [lambda q: q] + [g._point_step() for g in family.maps]
    if space.kind == CIRCLE:
        steps[1:] = [lambda q, f=f: np.mod(f(q), 1.0) for f in steps[1:]]
    points = np.empty((n + 1, space.dimension), dtype=np.float64)
    points[0] = p
    images = points[1:] if jump is None else np.empty((n, space.dimension), dtype=np.float64)
    # A point that left the space may overflow before the membership check raises.
    with np.errstate(all="ignore"):
        for j, s in enumerate(symbols[:n].tolist()):
            p = images[j] = steps[s](p)
            if jump is not None:
                p = points[j + 1] = jump(j, p)
    outside = np.flatnonzero(~space.contains_batch(images))
    if outside.size:
        j = int(outside[0])
        raise DomainError(f"map {int(symbols[j])} sends {points[j].tolist()} to "
                          f"{images[j].tolist()}, outside the space")
    if out_of_range.size:
        raise RangeError(f"symbol {int(symbols[n])} outside [0, {family.m}]")
    return points


def orbit(family: GeneratorFamily, word: Word, z, n: int) -> np.ndarray:
    """True orbit of z: n points, element j+1 = f_{w_j}(element j).

    The n - 1 symbols are computed once; membership of every image is
    checked once per orbit, with ``contains_batch``.
    """
    if n < 1:
        raise ParameterError("orbit length must be >= 1")
    return _walk(family, word.symbols(n - 1), z)


def orbit_shifted(family: GeneratorFamily, word: Word, start_index: int, z, n: int) -> np.ndarray:
    """Orbit composing symbols w_k, w_{k+1}, … from start_index k."""
    return orbit(family, word.shifted(start_index), z, n)


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
    axes = []
    for lo, hi in zip(space.lo, space.hi):
        if space.kind == CIRCLE:
            npts = max(1, math.ceil((hi - lo) / spacing))
            axes.append(lo + (hi - lo) * np.arange(npts) / npts)
        else:
            npts = max(2, math.ceil((hi - lo) / spacing) + 1)
            axes.append(np.linspace(lo, hi, npts))
    total = int(np.prod([len(a) for a in axes]))
    if total > cap:
        raise ResourceCapError(
            f"net for mesh {mesh} needs {total} grid points (cap {cap})", required_cap=total
        )
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k)
    kept = []
    seen = set()
    for g in grid:
        proj = space.project(g)
        if space.distance(g, proj) > mesh:
            continue
        key = proj.tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(proj)
    return np.array(kept, dtype=np.float64)


def check_self_mapping(family: GeneratorFamily, mesh: float = 0.1) -> bool:
    """Verify on a net that every generator maps the space into itself."""
    points = net(family.space, mesh)
    for symbol in range(1, family.m + 1):
        images = family.apply_batch(symbol, points)
        if not bool(np.all(family.space.contains_batch(images))):
            return False
    return True
