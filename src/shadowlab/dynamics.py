"""Phase spaces, generator families, infinite words, and orbit composition.

Map specs form a closed algebra (identity, coordinate permutation, affine,
componentwise scale) so that continuity and self-mapping are verifiable
rather than assumed. Every map and space operation is one fixed-order
elementwise expression over numpy columns of d coordinates, a point read as
one row, so a point and a row round the same. Only a family's generated walk
evaluates the same expressions on Python floats, one point at a time.
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from dataclasses import KW_ONLY, MISSING, dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ParameterError, RangeError, ResourceCapError, check_positive

MEMBERSHIP_TOL = 1e-12
DEFAULT_NET_CAP = 1_000_000
# The largest box dimension. A family's walk is generated source text, and a
# dense affine map writes d^2 terms into it: on a 2-core x86_64 host with
# CPython 3.11, its walk is written and compiled at d = 256 in about 0.5 s
# and 95 MiB, and at d = 512 in about 2.2 s and 380 MiB.
DIMENSION_CAP = 256
# Steps a walk hands its generated loop at a time (see _walk), and jump rows
# drawn at a time. A block's lists hold about 32 bytes a coordinate, and its
# slicing and image check cost about 10 us whatever its length. On the disk
# example (2-core x86_64, CPython 3.11, numpy 2.4), a block of 2 048 steps
# with a jump at each holds about 600 KB, and a 10^4-step orbit walks 2 %
# slower than in one block; at 1 024 steps, 300 KB and 7 %; at 4 096, 1.2 MB
# and 1.4 %.
WALK_BLOCK = 2048
# Indices an iid word hashes before it reads their draws into its output (see
# Word._iid_draws): a build holds one block of 32-byte digests, 128 KiB,
# besides its arrays.
IID_BLOCK = 4096

UNIT_DISK = "unit-disk-2d"
BOX = "box-kd"
CIRCLE = "circle-1d"


def as_points(P, dimension: int | None = None) -> np.ndarray:
    """P as float64 coordinates: one point (1-d) or an (n, d) array of rows."""
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


def _columns(P, dimension: int) -> tuple[tuple, bool]:
    """The columns of P, a point read as one row, and whether P is a point."""
    q = as_points(P, dimension)
    return tuple(np.atleast_2d(q).T), q.ndim == 1


@lru_cache(maxsize=256)
def _code(source: str):
    """source compiled, once per process for each distinct text. Every family
    of one shape has the same text, and a constant is never written into it,
    so the code is shared and each build binds its own constants."""
    return compile(source, "<shadowlab>", "exec")


def _built(source: str, name: str, constants: dict):
    """The function that source defines under name, its names bound to
    constants in a fresh namespace with no builtins. The function is taken
    out of its namespace, so the two form no reference cycle and are freed
    with the family, not by a later garbage collection. name tells a
    profile's rows apart: it is a role and a kind ("walk_target",
    "step_affine"), never a symbol, so families of one shape share a text."""
    namespace = {"__builtins__": {}, **constants}
    exec(_code(source), namespace)
    return namespace.pop(name)


# What a space's rule text (MetricSpace._rule) calls, on columns and on floats.
_ON_COLUMNS = {"sqrt": np.sqrt, "isfinite": np.isfinite, "choose": np.where, "abs": np.absolute,
               "clamp": lambda x, lo, hi: np.where(x <= lo, lo, np.where(x >= hi, hi, x))}
_ON_FLOATS = {"sqrt": math.sqrt, "isfinite": math.isfinite, "choose": lambda t, a, b: a if t else b,
              "clamp": lambda x, lo, hi: lo if x <= lo else hi if x >= hi else x}


def _integral(value) -> bool:
    """Whether value is an integer, Python or numpy, or an integral float such
    as 2.0; a bool, a string or a non-integral number is not."""
    return not isinstance(value, bool) and (
        isinstance(value, (int, np.integer)) or isinstance(value, float) and value.is_integer())


def _integer(what: str, value) -> int:
    if not _integral(value):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _items(what: str, values):
    """An iterator over values; a scalar, a string or an object where a sequence
    is meant is a ParameterError."""
    if isinstance(values, (str, dict)) or not np.iterable(values):
        raise ParameterError(f"{what}: expected a list, got {type(values).__name__}")
    return iter(values)


def _integers(what: str, values) -> tuple[int, ...]:
    return tuple(_integer(f"{what} entry", v) for v in _items(what, values))


def _real(what: str, value):
    """value, if it is a finite real number; a bool, a string, NaN or infinity is not."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not abs(value) <= sys.float_info.max):
        raise ParameterError(f"{what} must be a finite real number, got {value!r}")
    return value


def _reals(what: str, values) -> tuple:
    """A sequence of finite real numbers as a tuple, each entry as given."""
    return tuple(_real(f"{what} entry", v) for v in _items(what, values))


def _finite(what: str, values) -> tuple[float, ...]:
    return tuple(map(float, _reals(what, values)))


def _vector(what: str, value) -> tuple[float, ...]:
    """A number, or a sequence of numbers, as a tuple of finite floats."""
    return _finite(what, value if np.iterable(value) and not isinstance(value, str) else [value])


def _rows(what: str, matrix) -> tuple[tuple[float, ...], ...]:
    return tuple(_finite(what, row) for row in _items(what, matrix))


def _word(what: str, value) -> "Word":
    """A word, or a word's spec as the word."""
    return value if isinstance(value, Word) else Word.from_spec(value)


# The kinds of each spec type, each with the fields it reads and the check that
# casts each field to its type. __post_init__, from_spec and spec all read these.
_SPACE_FIELDS = {UNIT_DISK: {}, BOX: {"lo": _vector, "hi": _vector}, CIRCLE: {}}
_MAP_FIELDS = {"identity": {}, "permutation": {"perm": _integers},
               "affine": {"matrix": _rows, "offset": _finite}, "scale": {"factors": _vector}}
_WORD_FIELDS = {"constant": {"symbol": _integer}, "periodic": {"pattern": _integers},
                "iid": {"weights": _finite, "seed": _integer},
                "prefix": {"prefix": _integers, "tail": _word}}
# Jump fields are checked finite and kept as given: an integer power rounds
# differently from a float one in scale / (j + 1) ** power.
_JUMP_FIELDS = {"uniform": {}, "fixed": {"point": _reals},
                "offset": {"scale": _real, "power": _real}}


def _keyed(key: str, build, *args):
    """build(*args); a ParameterError is raised again with key in front of its path."""
    try:
        return build(*args)
    except ParameterError as exc:
        raise ParameterError(str(exc), key, *exc.path) from None


def _known(what: str, data, keys, required=()) -> dict:
    """data, a JSON object holding no key outside keys and every key of
    required; anything else is a ParameterError, whose path is the first
    unknown or missing key."""
    if not isinstance(data, dict):
        raise ParameterError(f"{what} must be an object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ParameterError(f"unknown key {key!r}, expected one of {sorted(keys)}", key)
    for key in required:
        if key not in data:
            raise ParameterError("required", key)
    return data


def _plain(value):
    """A field as its spec holds it: a tuple as a list, a word as its spec."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.spec() if isinstance(value, Word) else value


def _fields_only(self) -> dict:
    """The pickled state of a frozen dataclass: its fields, not what is cached
    beside them in __dict__. A compiled expression is a lambda, which does not
    pickle; the copy compiles its own on first use."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


class _Spec:
    """The construction path every spec type shares. _FIELDS, the type's table,
    lists its kinds and the fields each reads: __post_init__ checks against it,
    spec writes the kind and those fields, and from_spec reads what spec writes."""

    __getstate__ = _fields_only

    def _check_fields(self, what: str, shared=()) -> None:
        """Check the fields against _FIELDS[kind] and shared, the checks of the
        fields every kind reads: an unknown kind, a missing field that the kind
        reads, a set one that it does not read or one that its check cannot read
        is a ParameterError. Each field read is replaced by its cast value. An
        error puts its field in front of its path."""
        checks = self._FIELDS.get(self.kind) if isinstance(self.kind, str) else None
        if checks is None:
            raise ParameterError(f"unknown {what} kind {self.kind!r}, expected one of "
                                 f"{list(self._FIELDS)}", "kind")
        checks = dict(shared, **checks)
        for name in (f.name for f in fields(self) if f.name != "kind"):
            value = getattr(self, name)
            if (value is None) == (name in checks):
                verb = "needs" if value is None else "reads no"
                raise ParameterError(f"{what} kind {self.kind!r} {verb} field {name!r}", name)
            if value is not None:
                try:
                    object.__setattr__(self, name, checks[name](f"{what} {name}", value))
                except (TypeError, ValueError) as exc:  # a ParameterError is a ValueError
                    raise ParameterError(str(exc), name, *getattr(exc, "path", ())) from None

    def spec(self) -> dict:
        return {"kind": self.kind,
                **{name: _plain(getattr(self, name)) for name in self._FIELDS[self.kind]}}

    @classmethod
    def from_spec(cls, spec: dict):
        """cls built from its spec, a JSON object with a key per field it sets. A
        spec that is not an object, or a key that is unknown, null or missing with
        no default, is a ParameterError naming the key."""
        names = {f.name: f.default for f in fields(cls)}
        _known(f"a {cls.__name__} spec", spec, names)
        for name, default in names.items():
            if spec.get(name, default) is MISSING or name in spec and spec[name] is None:
                raise ParameterError(f"{cls.__name__} spec needs a value for {name!r}", name)
        return cls(**spec)


# lo/hi of the kinds whose bounding box is fixed.
_BOUNDS = {UNIT_DISK: ((-1.0, -1.0), (1.0, 1.0)), CIRCLE: ((0.0,), (1.0,))}


@dataclass(frozen=True)
class MetricSpace(_Spec):
    """Compact phase space with an exact analytic diameter.

    ``lo``/``hi`` always hold the axis-aligned bounding box of the space;
    for ``box-kd`` they are the space itself and are given, for the other
    kinds they are fixed and set when the space is built.
    """

    _FIELDS = _SPACE_FIELDS
    kind: str
    lo: tuple[float, ...] | None = None
    hi: tuple[float, ...] | None = None

    def __post_init__(self):
        self._check_fields("space")
        if self.kind in _BOUNDS:
            object.__setattr__(self, "lo", _BOUNDS[self.kind][0])
            object.__setattr__(self, "hi", _BOUNDS[self.kind][1])
        elif len(self.lo) != len(self.hi) or not self.lo:
            raise ParameterError("box bounds must be nonempty and of equal length")
        elif len(self.lo) > DIMENSION_CAP:
            raise ParameterError(f"a box of dimension {len(self.lo)} is past the dimension cap "
                                 f"of {DIMENSION_CAP}", "lo")
        elif any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ParameterError("box bounds require lo < hi on every axis")

    @classmethod
    def unit_disk(cls) -> "MetricSpace":
        return cls(UNIT_DISK)

    @classmethod
    def box(cls, lo, hi) -> "MetricSpace":
        return cls(BOX, lo, hi)

    @classmethod
    def circle(cls) -> "MetricSpace":
        """Circle of circumference 1, geodesic metric; coordinates wrap mod 1 into [0, 1]."""
        return cls(CIRCLE)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def diameter(self) -> float:
        if self.kind == UNIT_DISK:
            return 2.0
        if self.kind == CIRCLE:
            return 0.5
        return self.distance(self.lo, self.hi)

    def contains(self, P):
        """Membership of a point (a bool) or of each row of P (an array), within MEMBERSHIP_TOL."""
        c, point = _columns(P, self.dimension)
        with np.errstate(all="ignore"):  # a far point overflows the disk norm to inf
            inside = self._inside(c)
        return bool(inside[0]) if point else inside

    def distance(self, P, Q):
        """d(P, Q) for two points (a float), or row by row when either is an
        (n, d) array of rows (an array); a single point broadcasts."""
        (a, a_point), (b, b_point) = _columns(P, self.dimension), _columns(Q, self.dimension)
        with np.errstate(all="ignore"):  # inf % 1.0 is NaN, a far difference overflows
            d = self._distance(a, b)
        return float(d[0]) if a_point and b_point else d

    def _inside(self, c: tuple) -> np.ndarray:
        """Membership of the columns c, within MEMBERSHIP_TOL."""
        return self._on_columns["inside"](c)

    def _project(self, c: tuple) -> tuple:
        """The columns c's nearest points of the space, as columns."""
        return self._on_columns["project"](c)

    def _distance(self, a: tuple, b: tuple) -> np.ndarray:
        """d between the columns a and b, row by row; a column of one row broadcasts."""
        return self._on_columns["distance"](a, b)

    @cached_property
    def _on_columns(self) -> dict:
        """_rule's test, projection and distance on tuples of numpy columns, by role."""
        d, kind = range(self.dimension), self.kind.replace("-", "_")
        c = [f"c{k}" for k in d]
        (inside, project, distance, constants), cs = self._rule(c), ", ".join(c)
        unpack = {x: ", ".join(f"{x}{k}" for k in d) + f", = {x}" for x in "cab"}
        return {role: _built("\n    ".join([f"def {role}_{kind}({args}):", *body]),
                             f"{role}_{kind}", {**_ON_COLUMNS, **constants})
                for role, args, body in (
                    ("inside", "c", [unpack["c"], f"return {inside}"]),
                    ("project", "c", [unpack["c"], *project, f"return {cs},"]),
                    ("distance", "a, b", [unpack["a"], unpack["b"], *distance]))}

    def _rule(self, c: list) -> tuple[str, list, list, dict]:
        """The space's membership test of the coordinates named c, the statements
        that set them to their nearest point, the statements that return the
        distance of the points named a0.. and b0.., and the constants these name.
        They call sqrt, isfinite, choose(test, a, b), clamp(x, lo, hi) and abs:
        numpy's in _on_columns, floats' in _walk_source, which takes no distance.
        A tie goes to the box's bound, NaN stays NaN, and division by
        max(|c|, 1), or by 1 for a NaN norm, is exact inside."""
        cs = ", ".join(c)
        if self.kind == CIRCLE:
            wrap = self._wrap.format
            return (f"isfinite({cs})", [f"{cs} = {wrap(cs)}"],
                    [f"m = abs({wrap('a0')} - {wrap('b0')})", "r = 1.0 - m",
                     "return choose(m <= r, m, r)"], {})
        distance = [*(f"d{k} = a{k} - b{k}" for k in range(len(c))),
                    f"return sqrt({' + '.join(f'd{k} * d{k}' for k in range(len(c)))})"]
        if self.kind == UNIT_DISK:
            norm = f"sqrt({' + '.join(f'{x} * {x}' for x in c)})"
            return (f"{norm} <= r", [f"n_ = {norm}", "n_ = choose(n_ > 1.0, n_, 1.0)",
                                     f"{cs} = {', '.join(f'{x} / n_' for x in c)}"],
                    distance, {"r": 1.0 + MEMBERSHIP_TOL})
        constants = {f"{name}{k}": v for k, (lo, hi) in enumerate(zip(self.lo, self.hi))
                     for name, v in (("lo", lo - MEMBERSHIP_TOL), ("hi", hi + MEMBERSHIP_TOL),
                                     ("clo", lo), ("chi", hi))}
        return (" & ".join(f"({x} >= lo{k}) & ({x} <= hi{k})" for k, x in enumerate(c)),
                [f"{cs} = " + ", ".join(f"clamp({x}, clo{k}, chi{k})" for k, x in enumerate(c))],
                distance, constants)

    @property
    def _wrap(self) -> str:
        """A map's image in the space's coordinates, as a format: mod 1 on the circle."""
        return "({}) % 1.0" if self.kind == CIRCLE else "{}"

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform seeded point of the space, or n of them as an (n, d) array:
        each of its bounding box, redrawn outside the disk.

        The rows are drawn in rounds of exactly as many rows as are still
        missing, each round one rng.uniform of shape (missing, d), so the
        generator never runs past the last row kept: n points from one call
        are the points, and leave the generator in the state, of n calls. A
        box or a circle takes one round. The disk keeps a row whose
        sqrt(vecdot(q, q)) is at most 1.0, which rounds as the 1-d
        np.linalg.norm(q) does."""
        rows = np.empty((1 if n is None else n, self.dimension))
        kept = 0
        while kept < len(rows):
            q = rng.uniform(self.lo, self.hi, size=(len(rows) - kept, self.dimension))
            if self.kind == UNIT_DISK:
                q = q[~(np.sqrt(np.vecdot(q, q)) > 1.0)]
            rows[kept:kept + len(q)] = q
            kept += len(q)
        return rows[0] if n is None else rows


@dataclass(frozen=True)
class GeneratorMap(_Spec):
    """One continuous self-map from the closed spec algebra."""

    _FIELDS = _MAP_FIELDS
    kind: str
    perm: tuple[int, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None
    offset: tuple[float, ...] | None = None
    factors: tuple[float, ...] | None = None

    def __post_init__(self):
        self._check_fields("map")
        for name in ("perm", "matrix", "factors"):
            if getattr(self, name) == ():
                raise ParameterError(f"map {name} is empty: a map acts on at least one "
                                     "coordinate", name)
        if self.kind == "permutation" and sorted(self.perm) != list(range(len(self.perm))):
            raise ParameterError(f"{list(self.perm)} is not a permutation of "
                                 f"0..{len(self.perm) - 1}", "perm")
        if self.kind == "affine" and (any(len(row) != len(self.matrix) for row in self.matrix)
                                      or len(self.offset) != len(self.matrix)):
            raise ParameterError("affine spec requires a square matrix and a matching offset")

    @classmethod
    def identity(cls) -> "GeneratorMap":
        return cls("identity")

    @classmethod
    def permutation(cls, perm) -> "GeneratorMap":
        return cls("permutation", perm=perm)

    @classmethod
    def affine(cls, matrix, offset) -> "GeneratorMap":
        return cls("affine", matrix=matrix, offset=offset)

    @classmethod
    def scale(cls, factors) -> "GeneratorMap":
        return cls("scale", factors=factors)

    @property
    def size(self) -> int | None:
        """The dimension the map's fields fix; None for the identity, which fits any."""
        return next((len(v) for v in (self.perm, self.offset, self.factors) if v is not None), None)

    def _terms(self, c: list, tag: str = "") -> tuple[list, dict]:
        """The map's image of the coordinates named c, one expression per
        coordinate (an affine row is ((c0 * a_i0 + c1 * a_i1) + ...) + b_i),
        and the constants those name, each name ending in tag."""
        d = len(c)
        if self.kind in ("identity", "permutation"):
            return [c[i] for i in self.perm or range(d)], {}
        if self.kind == "scale":
            return ([f"{c[k]} * f{k}{tag}" for k in range(d)],
                    {f"f{k}{tag}": f for k, f in enumerate(self.factors)})
        constants = {f"a{i}_{k}{tag}": a for i, row in enumerate(self.matrix)
                     for k, a in enumerate(row)}
        constants.update((f"b{i}{tag}", b) for i, b in enumerate(self.offset))
        return ([" + ".join([*(f"{c[k]} * a{i}_{k}{tag}" for k in range(d)), f"b{i}{tag}"])
                 for i in range(d)], constants)

    def _compile(self, d: int, wrap: str = "{}"):
        """The map on a tuple c of d coordinates as one straight-line
        expression of its terms, each formatted into wrap.

        The source text holds only indices, operators and names, and its code
        is cached by that text. Each constant is bound by its name, never
        written into the text, so no value is parsed as code and each keeps
        its type and every bit. Python's operators evaluate left to right, so
        a sum accumulates term by term from the left."""
        terms, constants = self._terms([f"c[{k}]" for k in range(d)])
        name = f"step_{self.kind}"
        body = "".join(f"{wrap.format(t)}, " for t in terms)
        return _built(f"def {name}(c): return ({body})", name, constants)


@dataclass(frozen=True)
class GeneratorFamily:
    """Maps f_1..f_m acting on a space; symbol 0 always resolves to identity."""

    space: MetricSpace
    maps: tuple[GeneratorMap, ...]

    __getstate__ = _fields_only

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ParameterError("a generator family needs at least one map")
        sizes = {g.size for g in self.maps} - {None}
        if sizes - {self.space.dimension}:
            raise ParameterError(f"maps of sizes {sorted(sizes)} on a space of dimension "
                                 f"{self.space.dimension}")
        if self.space.kind == CIRCLE:
            # Only integer slopes define maps of R/Z.
            slopes = self.affine_parts[0][1:, 0, 0].tolist()
            if not all(map(_integral, slopes)):
                raise ParameterError(f"circle maps need integer slopes, got {slopes}")

    @property
    def m(self) -> int:
        return len(self.maps)

    @cached_property
    def steps(self) -> tuple:
        """Step table: ``steps[s]`` maps a tuple of d columns through f_s.

        Symbol 0 is the identity, and circle images wrap mod 1, into [0, 1]. The
        scans and the column pass (pseudo_orbits._column_pass) step columns
        through this table; the walk is generated from the same terms
        (_walk_source), so a step rounds the same there on floats.
        """
        d, wrap = self.space.dimension, self.space._wrap
        return (lambda c: c, *(g._compile(d, wrap) for g in self.maps))

    @cached_property
    def affine_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each symbol's map as x -> A[s] x + b[s]: read-only arrays A (m + 1, d, d)
        and b (m + 1, d), row 0 the identity, built on first use; no step reads it."""
        d = self.space.dimension
        A, b = np.zeros((self.m + 1, d, d)), np.zeros((self.m + 1, d))
        A[:, range(d), range(d)] = 1.0
        for s, g in enumerate(self.maps, start=1):
            if g.kind == "permutation":
                A[s] = A[0][list(g.perm)]
            elif g.kind == "scale":
                A[s, range(d), range(d)] = g.factors
            elif g.kind == "affine":
                A[s], b[s] = g.matrix, g.offset
        A.flags.writeable = b.flags.writeable = False
        return A, b

    def _images(self, symbols: np.ndarray, columns: tuple) -> tuple:
        """The images f_{w_i}(x_i) of the points on the columns x under the
        symbols w, as columns: each symbol's map runs once, through the step
        table, on the columns of the points that carry it, gathered by
        np.bincount and np.flatnonzero."""
        images = tuple(np.empty(len(symbols)) for _ in columns)
        for s in np.flatnonzero(np.bincount(symbols)).tolist():
            idx = np.flatnonzero(symbols == s)
            for image, column in zip(images, self.steps[s](tuple(c[idx] for c in columns))):
                image[idx] = column
        return images

    def _walker(self, landing: str):
        """The generated walk under a landing rule, built on first use."""
        walks = self.__dict__.setdefault("_walks", {})
        if landing not in walks:
            source, constants = _walk_source(self, landing)
            walks[landing] = _built(source, f"walk_{landing}", constants)
        return walks[landing]

    def check_alphabet(self, word: Word) -> None:
        """A word over more symbols than the family has maps is a
        ParameterError naming word.m. Every symbol of a word lies in 1..word.m,
        so a word that passes steps only through maps f_1..f_m."""
        if word.m > self.m:
            raise ParameterError(f"the word has {word.m} symbols, the family {self.m} maps",
                                 "word", "m")

    def spec(self) -> dict:
        return {"space": self.space.spec(), "maps": [g.spec() for g in self.maps]}

    @classmethod
    def from_spec(cls, spec: dict) -> "GeneratorFamily":
        """The family of a spec {"space": ..., "maps": [...]}; an error in the space
        or in map i has "space" or "maps[i]" in front of its path. Other keys, such
        as a system's word and start, are not read."""
        _known(f"a {cls.__name__} spec", spec, spec, ("space", "maps"))
        space = _keyed("space", MetricSpace.from_spec, spec["space"])
        if not isinstance(spec["maps"], list):
            raise ParameterError(f"must be a list of map specs, got {spec['maps']!r}", "maps")
        return cls(space, tuple(_keyed(f"maps[{i}]", GeneratorMap.from_spec, g)
                                for i, g in enumerate(spec["maps"])))


@dataclass(frozen=True)
class Word(_Spec):
    """Deterministic rule for an infinite symbol sequence over {1..m}.

    Rules are a closed, serializable algebra; ``shifted`` views share the
    base rule, so orbit composition can start at any symbol index. A frozen
    value: every field is checked, and cast to its type, when the word is
    built, and two words are equal when their fields are.
    """

    _FIELDS = _WORD_FIELDS
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
        self._check_fields("word", {"m": _integer, "offset": _integer})
        if self.m < 1:
            raise ParameterError("alphabet size m must be >= 1", "m")
        if not 0 <= self.offset < 2**63:
            raise ParameterError(f"word offset must lie in [0, 2**63), got {self.offset}", "offset")
        if self.kind == "constant":
            if not 1 <= self.symbol <= self.m:
                raise ParameterError(f"word symbol {self.symbol} outside 1..{self.m}", "symbol")
        elif self.kind == "periodic":
            if not self.pattern:
                raise ParameterError("periodic word needs a nonempty pattern", "pattern")
            if any(not 1 <= s <= self.m for s in self.pattern):
                raise ParameterError(f"pattern symbols must lie in 1..{self.m}", "pattern")
        elif self.kind == "iid":
            if len(self.weights) != self.m:
                raise ParameterError("iid word needs one weight per symbol", "weights")
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise ParameterError("iid weights must be nonnegative with positive sum", "weights")
            if not 0 <= self.seed < 2**64:
                raise ParameterError(f"word seed must lie in [0, 2**64), got {self.seed}", "seed")
        else:
            if any(not 1 <= s <= self.m for s in self.prefix):
                raise ParameterError(f"prefix symbols must lie in 1..{self.m}", "prefix")
            if self.tail.m != self.m:
                raise ParameterError("tail word must share the alphabet size", "tail", "m")

    @classmethod
    def constant(cls, symbol: int, m: int) -> "Word":
        return cls("constant", m, symbol=symbol)

    @classmethod
    def periodic(cls, pattern, m: int) -> "Word":
        return cls("periodic", m, pattern=pattern)

    @classmethod
    def iid(cls, weights, seed: int) -> "Word":
        weights = tuple(weights)
        return cls("iid", len(weights), weights=weights, seed=seed)

    def _iid_draws(self, start: int, n: int) -> np.ndarray:
        """The draws of indices start..start+n-1 as uint64: index j draws the
        first 8 bytes, big-endian, of SHA-256(b"shadowlab-word" + seed + j),
        seed and j each as 8 big-endian bytes.

        Counter-based draws: deterministic regardless of query order. The key
        is hashed once and copied per index, and each IID_BLOCK digests are
        joined and read into the output at once.
        """
        key = hashlib.sha256(b"shadowlab-word" + self.seed.to_bytes(8, "big"))
        draws = np.empty(n, np.uint64)
        for lo in range(0, n, IID_BLOCK):
            digests = []
            for j in range(start + lo, start + min(n, lo + IID_BLOCK)):
                h = key.copy()
                h.update(j.to_bytes(8, "big"))
                digests.append(h.digest())
            # Each digest is four big-endian uint64s; the draw is the first.
            draws[lo:lo + len(digests)] = np.frombuffer(b"".join(digests), ">u8")[::4]
        return draws

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
        """The first n symbols as a read-only array of the smallest unsigned
        dtype that holds m; equal to symbol_at(0..n-1).

        The word keeps the longest prefix asked for so far and computes only
        the symbols past it.
        """
        n = max(int(n), 0)
        memo = self._memo()
        if n > len(memo):
            memo = self._keep(memo, self._base_symbols(self.offset + len(memo), n - len(memo)))
        return memo[:n]

    def _extend_symbols(self, block: "Word", start: int, n: int) -> None:
        """Extend the memo to the first start + n symbols, the last n of them
        those of a block of n steps laid out from step start under its own
        word, block. When the memo ends at start and block is this word
        shifted by start, they are read from block's memo (frozen words with
        equal fields draw equal symbols); otherwise they are drawn by the
        rule."""
        memo = self._memo()
        if len(memo) == start and block == self.shifted(start):
            self._keep(memo, block.symbols(n))
        else:
            self.symbols(start + n)

    def _memo(self) -> np.ndarray:
        """The symbols computed so far, read-only, in the smallest unsigned
        dtype that holds m."""
        memo = self.__dict__.get("_symbols_memo")
        if memo is None:
            memo = np.zeros(0, np.min_scalar_type(self.m))
            memo.flags.writeable = False
        return memo

    def _keep(self, memo: np.ndarray, more: np.ndarray) -> np.ndarray:
        """memo followed by the next symbols, more, as the word's read-only memo."""
        memo = np.concatenate((memo, more))
        memo.flags.writeable = False
        object.__setattr__(self, "_symbols_memo", memo)
        return memo

    def _base_symbols(self, start: int, n: int) -> np.ndarray:
        """Base-rule symbols start..start+n-1: the one symbol rule of the
        word, in the memo's dtype."""
        dtype = np.min_scalar_type(self.m)
        if self.kind == "constant":
            return np.full(n, self.symbol, dtype=dtype)
        if self.kind == "periodic":
            pattern = np.array(self.pattern, dtype=dtype)
            return np.tile(np.roll(pattern, -(start % len(pattern))), -(-n // len(pattern)))[:n]
        if self.kind == "iid":
            u = self._iid_draws(start, n) / 2.0**64
            s = np.searchsorted(np.array(self._iid_thresholds()), u, side="right") + 1
            # A u at or past the last threshold (rounding puts it there) takes
            # the last symbol of positive weight, never a zero-weight one.
            last = max(k for k, w in enumerate(self.weights, start=1) if w > 0)
            return np.minimum(s, last).astype(dtype)
        L = len(self.prefix)
        head = np.array(self.prefix[start:start + n], dtype=dtype)
        tail_start = max(start, L) - L
        return np.concatenate((head, self.tail._base_symbols(self.tail.offset + tail_start,
                                                             n - len(head))))

    def shifted(self, k: int) -> "Word":
        if k < 0:
            raise RangeError("word shift must be >= 0")
        return replace(self, offset=self.offset + k)

    def spec(self) -> dict:
        out = {**super().spec(), "m": self.m}
        if self.offset:
            out["offset"] = self.offset
        return out


@dataclass(frozen=True)
class JumpRule(_Spec):
    """Closed, serializable rule for where a corrupted step lands, by kind:

    - "uniform" reads no field: x_{j+1} is a seeded uniform point of the space;
    - "fixed" reads ``point``, the target x_{j+1};
    - "offset" reads ``scale`` > 0 and ``power``, 1.0 and 0.0 when unset: x_{j+1} is
      the true image displaced by scale / (j + 1) ** power in a seeded direction.
    """

    _FIELDS = _JUMP_FIELDS
    kind: str
    point: tuple[float, ...] | None = None
    scale: float | None = None
    power: float | None = None

    def __post_init__(self):
        if self.kind == "offset":
            object.__setattr__(self, "scale", 1.0 if self.scale is None else self.scale)
            object.__setattr__(self, "power", 0.0 if self.power is None else self.power)
        self._check_fields("jump")
        if self.kind == "offset" and self.scale <= 0:
            raise ParameterError(f"offset jump scale must be positive, got {self.scale}", "scale")


def _walk_source(family: GeneratorFamily, landing: str) -> tuple[str, dict]:
    """The source text of the family's walk under a landing rule, and the
    constants it names.

    ``walk_<landing>(symbols, j0, at, Q0.., c0..)`` steps the coordinates
    c0..c{d-1} through the list of symbols, each in 1..m, numbering the
    steps from j0: symbol s runs branch s, whose terms are f_s's as
    GeneratorMap._terms writes them (wrapped on the circle). At the steps
    listed in at (ended by -1), where the k-th is landed from
    Q0[k]..Q{d-1}[k], the point is landed; under "target" and "offset" a
    landing outside the space is projected onto it, by the text of
    MetricSpace._rule on floats. It returns the point after each step, flat,
    and the clamped steps; it keeps no image, and checks none (_walk checks
    them on columns). _walk calls it once per block of steps, each block
    from the last point of the one before, so its lists never span more
    than a block.
    """
    space, d = family.space, family.space.dimension
    c = [f"c{k}" for k in range(d)]
    cs, Q, wrap = ", ".join(c), [f"Q{k}[k]" for k in range(d)], space._wrap
    constants = {"enumerate": enumerate, **_ON_FLOATS}
    body = []
    for s, g in enumerate(family.maps, start=1):
        terms, named = g._terms(c, f"_{s}")
        terms = [wrap.format(t) for t in terms]
        constants.update(named)
        body += [f"{'if' if s == 1 else 'elif'} s == {s}:",
                 f"    {cs} = {', '.join(terms)}" if terms != c else "    pass"]
    if landing == "stored":
        body += ["if j == nxt:", f"    {cs} = {', '.join(Q)}"]
    else:
        inside, project, _, named = space._rule(c)
        constants.update(named)
        landed = [wrap.format(q if landing == "target" else f"{x} + {q}") for x, q in zip(c, Q)]
        body += ["if j == nxt:", f"    {cs} = {', '.join(landed)}", f"    if not ({inside}):",
                 *(f"        {line}" for line in project), "        clamped.append(j)"]
    body += ["    k += 1", "    nxt = at[k]", "; ".join(f"point({x})" for x in c)]
    source = "\n".join([
        f"def walk_{landing}(symbols, j0, at, {', '.join(f'Q{k}' for k in range(d))}, {cs}):",
        "    points, clamped = [], []",
        "    point, k, nxt = points.append, 0, at[0]",
        "    for j, s in enumerate(symbols, j0):",
        *(f"        {line}" for line in body),
        "    return points, clamped", ""])
    return source, constants


def _floats(values: list) -> np.ndarray:
    """A list of Python floats as a float64 array, bit for bit (a NaN's
    payload included): packed by struct, which is 2 to 3 times as fast as
    np.fromiter on a walk's lists."""
    return np.frombuffer(struct.pack(f"{len(values)}d", *values))


def _walk(family: GeneratorFamily, word: Word, z, horizon: int, jumps=((), ()),
          landing: str = "target") -> tuple[np.ndarray, list[int]]:
    """Step z through the word's first horizon symbols in the family's
    generated walk (one Python loop on float coordinates, built once per
    family and landing rule, see _walk_source); return the points and the
    steps whose jump was clamped. Step errors and defects are not its job:
    the PseudoOrbit constructor derives them from the points. jumps holds sorted
    steps below horizon and an (n, d) array of a point q for each; at step
    j, points[j+1] is where q lands, by the landing rule:

    - "target": q itself, projected onto the space if it left it;
    - "offset": the image displaced by q, projected likewise;
    - "stored": q as it is, a stored point that decoding copies bit for bit
      (a signed zero or a circle point outside [0, 1) included).

    The word's alphabet is checked against the family before any step, and
    the start against the space. The walk runs in blocks of WALK_BLOCK steps:
    each hands the generated loop its symbols, landing steps and rows as
    lists, writes the points it returns into the points array, and checks
    the block's images on columns before the next block starts, so the
    first image outside raises DomainError naming its map, its point and its
    image. A step that lands nothing has its point as its image; the images
    at the block's landing steps are stepped again from the points before
    them, each symbol's map once on the columns of its steps
    (GeneratorFamily._images), and round as the loop's own images did, since
    the step table and the loop run the same terms. A "stored" walk checks
    none: an image it lands off is not a point, and its other images are the
    points, which the caller checks. Only one block's lists and temporaries
    are held at a time.
    """
    family.check_alphabet(word)
    space, d = family.space, family.space.dimension
    z = as_point(z, d)
    if not space.contains(z):
        raise DomainError(f"start {z.tolist()} is outside the {space.kind} space")
    symbols = word.symbols(horizon)
    at = np.asarray(jumps[0], dtype=np.int64)
    rows = np.asarray(jumps[1], dtype=np.float64).reshape(-1, d)
    walk = family._walker(landing)
    points, clamped = np.empty((horizon + 1, d)), []
    points[0] = z
    flat, c = points.reshape(-1), z.tolist()
    cuts = [0, *at.searchsorted(range(WALK_BLOCK, horizon, WALK_BLOCK)).tolist(), at.size]
    with np.errstate(all="ignore"):  # a point that left the space may overflow
        for j0, k0, k1 in zip(range(0, horizon, WALK_BLOCK), cuts, cuts[1:]):
            j1, steps = min(j0 + WALK_BLOCK, horizon), at[k0:k1]
            walked, block_clamped = walk(symbols[j0:j1].tolist(), j0, [*steps.tolist(), -1],
                                         *rows[k0:k1].T.tolist(), *c)
            flat[(j0 + 1) * d:(j1 + 1) * d] = _floats(walked)
            c = walked[-d:]
            clamped += block_clamped
            if landing != "stored":
                every = tuple(points[j0 + 1:j1 + 1].T)
                if steps.size:
                    every = tuple(x.copy() for x in every)
                    images = family._images(symbols[steps], tuple(points[steps].T))
                    for x, image in zip(every, images):
                        x[steps - j0] = image
                inside = space._inside(every)
                if not inside.all():
                    j = int(np.argmin(inside))
                    raise DomainError(f"map {int(symbols[j0 + j])} sends {points[j0 + j].tolist()} "
                                      f"to {[float(x[j]) for x in every]}, outside the space")
    return points, clamped


def orbit(family: GeneratorFamily, word: Word, z, n: int) -> np.ndarray:
    """True orbit of z: n points, element j+1 = f_{w_j}(element j).

    The n - 1 symbols are computed once; every image is checked for
    membership once, block by block as the walk goes.
    """
    n = _integer("n", n)
    if n < 1:
        raise ParameterError("orbit length must be >= 1")
    return _walk(family, word, z, n - 1)[0]


def net(space: MetricSpace, mesh: float) -> np.ndarray:
    """Finite point set covering the space to within mesh.

    Axis-aligned grid over the bounding box (lexicographic over grid
    indices), projected onto the space; exact duplicates are dropped
    keeping the first occurrence. A net of more than DEFAULT_NET_CAP grid
    points raises ResourceCapError.
    """
    check_positive("mesh", mesh)
    k = space.dimension
    spacing = min(mesh, 2.0 * mesh / math.sqrt(k))
    # Points per axis, counted before any axis is built, so that a tiny mesh
    # hits the cap instead of allocating; an axis is counted at most
    # DEFAULT_NET_CAP + 1.
    bounds = list(zip(space.lo, space.hi))
    cells = [math.ceil(min((hi - lo) / spacing, DEFAULT_NET_CAP + 1)) for lo, hi in bounds]
    counts = [max(1, n) if space.kind == CIRCLE else max(2, n + 1) for n in cells]
    total = math.prod(counts)
    if total > DEFAULT_NET_CAP:
        raise ResourceCapError(f"net for mesh {mesh} needs at least {total} grid points "
                               f"(cap {DEFAULT_NET_CAP})", required_cap=total)
    axes = [lo + (hi - lo) * np.arange(n) / n if space.kind == CIRCLE else np.linspace(lo, hi, n)
            for (lo, hi), n in zip(bounds, counts)]
    grid = tuple(axis.ravel() for axis in np.meshgrid(*axes, indexing="ij"))
    proj = space._project(grid)
    proj = np.stack(proj, axis=-1)[space._distance(grid, proj) <= mesh]
    _, first = np.unique(row_keys(proj), return_index=True)
    return proj[np.sort(first)]


def row_keys(P: np.ndarray) -> np.ndarray:
    """Each row of the (n, d) array P as one opaque value, so that rows sort and
    compare by their exact bytes (0.0 and -0.0 differ)."""
    return np.ascontiguousarray(P).view(np.dtype((np.void, P.itemsize * P.shape[1]))).ravel()
