"""JSON/CSV serialization: pseudo-orbits with error checksums, configs, reports.

Payload files are deterministic (sorted keys, no timestamps) so identical
config + seed reproduces byte-identical artifacts. This module is the one
place that knows the config format: ``load_config`` checks every field once
and returns a typed ``ExperimentConfig``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .cesaro import BoundedSequence
from .concat import BlockPlan
from .density import IndexSet, check_density_horizon, check_tail_fraction
from .disk_example import DISK_SYSTEM
from .dynamics import (GeneratorFamily, JumpRule, MetricSpace, Word, _finite, _integer,
                       _integers, _items, _keyed, _known, _real, _walk, as_points)
from .errors import (IntegrityError, ParameterError, ResourceCapError, check_alpha,
                     check_nonnegative, check_positive)
from .pseudo_orbits import PseudoOrbit, jump_sizes
from .shadow_search import check_schedule

CONFIG_SCHEMA = "shadowlab/config/v1"
# Orbit files list every point in v1, which still loads; save_orbit writes v2.
ORBIT_SCHEMA = "shadowlab/pseudo-orbit/v1"
ORBIT_SCHEMA_V2 = "shadowlab/pseudo-orbit/v2"
PLAN_SCHEMA = "shadowlab/block-plan/v1"
PLAN_KEYS = ("schema", "blocks", "N_levels")
# The longest horizon a config, an orbit file (its `horizon` in v2, one less
# than its listed points in v1) or a plan's laid-out blocks may ask for,
# checked before any step. A walk holds its arrays and one block of lists
# (dynamics.WALK_BLOCK), and a command built on walks peaks at 100 bytes a
# step or less in dimension 2 (peak RSS above a 1 000-step run, the shortest
# that repair and example-disk accept, at 2 * 10**6 steps; Python 3.11, numpy
# 2.4): 48 for `generate` (no jumps, or jumps at the squares), 48 for loading
# a v2 file, 75 for `repair` of an orbit with jumps at the squares (at a
# density_tol of 0.05, which its 1 000-step run needs), 89 for `example-disk`.
# So one at the cap peaks near 1 GB. A walk stores (H + 1) d coordinates at
# about 32 bytes each (`generate` at H = 2 * 10**5 on a box: 50 MiB peak RSS
# for d = 2, 346 MiB for d = 50), so (H + 1) d is capped too, at
# 2 (HORIZON_CAP + 1), the coordinates of a d = 2 walk at the cap. The longest
# horizon in use is 10**4, and a concatenation of the benchmark's blocks is
# 10 500 steps long.
HORIZON_CAP = 10**7


def json_default(obj):
    """``json.dumps`` hook: numpy arrays as lists, numpy scalars as Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# Values a digest converts to big-endian bytes at a time (512 KiB).
DIGEST_BLOCK = 2**16
# Rows ``dump_csv`` formats and writes at a time, so a 10^5-row file is never
# held as one string.
CSV_CHUNK_ROWS = 4096


def dump_json(obj, path: Path | str) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, default=json_default) + "\n")


def dump_csv(rows, header: list[str], path: Path | str) -> None:
    """Write the header and ``len(rows)`` data rows, each of ``len(header)`` cells,
    as comma-separated lines, ``str`` of each cell.

    ``rows`` is a sequence, formatted and written CSV_CHUNK_ROWS rows at a time
    by one ``%s`` template per row. Cells are Python ints, floats or str (as
    ``cli.numbered_rows`` builds them), and ``str`` of a float is its ``repr``.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            chunk = rows[start:start + CSV_CHUNK_ROWS]
            fh.write("".join(map(line.__mod__, map(tuple, chunk))))


@contextmanager
def _input_file(what: str, path):
    """A missing, unreadable or malformed input file is a ParameterError naming
    the file; an IntegrityError (a checksum mismatch) or a ResourceCapError stays
    one, naming the file."""
    try:
        yield
    except IntegrityError as exc:
        raise IntegrityError(f"{what} {path}: {exc}") from None
    except ResourceCapError as exc:
        raise ResourceCapError(f"{what} {path}: {exc}", exc.required_cap) from None
    except ParameterError as exc:
        field = f"field {'.'.join(exc.path)!r}: " if exc.path else ""
        raise ParameterError(f"{what} {path}: {field}{exc}") from None
    except (OSError, AttributeError, TypeError, ValueError) as exc:
        raise ParameterError(f"{what} {path}: {exc}") from None


def _read_object(path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ParameterError(f"must hold a JSON object, got a {type(data).__name__}")
    return data


# Suffixes that numpy's path reader (its DataSource) opens decompressed.
_NUMPY_DECOMPRESSES = (".gz", ".bz2", ".xz", ".lzma")


def _read_values(path: Path) -> np.ndarray:
    """The file's whitespace-separated tokens, each as ``float`` reads it.

    A pure ASCII file with the same number of values on every line is read by
    numpy's C reader, which ends in the same string-to-double conversion as
    ``float`` and takes a field only when all of it parses. Every other file
    (ragged lines, underscores, non-ASCII text, no values at all) and any
    error goes to _read_tokens, which gives the values or raises the error
    that ``float`` does. numpy opens a path by name through its DataSource,
    which fetches a URL, decompresses by suffix and looks for path + ".gz"
    when path is missing; so it is given only the absolute path of an
    existing regular file with none of those suffixes.
    """
    if path.is_file() and path.suffix not in _NUMPY_DECOMPRESSES:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(os.path.abspath(path), dtype=np.float64, comments=None,
                                  ndmin=1, encoding="ascii").ravel()
        except (OSError, ValueError, Warning):
            pass
    return _read_tokens(path)


def _read_tokens(path: Path) -> np.ndarray:
    """The file's whitespace-separated tokens, one ``float`` call each."""
    tokens = path.read_text().split()
    return np.fromiter(map(float, tokens), np.float64, count=len(tokens))


def load_sequence(path: Path | str, bound: float | None) -> BoundedSequence:
    """The values file (whitespace-separated finite numbers) as a sequence long
    enough for the density estimates; every error names the file."""
    with _input_file("values file", path):
        values = _read_values(Path(path))
        check_density_horizon(values.size)
        try:
            return BoundedSequence.from_values(values, bound)
        except ParameterError as exc:  # only a bound's error has a path
            raise (config_error(str(exc), "cesaro", *exc.path) if exc.path else exc) from None


def _sha256(values) -> str:
    """SHA-256 of the values as big-endian float64, in C order, hashed
    DIGEST_BLOCK values at a time: no big-endian copy of a whole orbit is made."""
    flat = np.ravel(np.asarray(values, dtype=np.float64))
    digest = hashlib.sha256()
    for k in range(0, flat.size, DIGEST_BLOCK):
        digest.update(flat[k:k + DIGEST_BLOCK].astype(">f8"))
    return digest.hexdigest()


def step_error_checksum(errors: np.ndarray) -> str:
    return _sha256(errors)


def orbit_to_dict(xi: PseudoOrbit) -> dict:
    """The orbit as ORBIT_SCHEMA_V2: its start, and x_{j+1} at each of
    xi.defects, the steps where x_{j+1} is not f_{w_j}(x_j) bit for bit, as
    the column pass that built xi found them. Decoding walks from the start
    and lands each defect's point, so by induction it rebuilds every point
    bit for bit."""
    P, steps = xi.points, xi.defects
    return {
        "schema": ORBIT_SCHEMA_V2,
        "system": xi.family.spec(),
        "word": xi.word.spec(),
        "horizon": xi.horizon,
        "start": P[0].tolist(),
        "defects": [[j, row] for j, row in zip(steps.tolist(), P[steps + 1].tolist())],
        "points_sha256": _sha256(P),
        "step_error_checksum": step_error_checksum(xi.step_errors),
        "meta": xi.meta,
    }


def _text(f: str, value, choices: tuple[str, ...] = ()) -> str:
    if not isinstance(value, str) or choices and value not in choices:
        raise ParameterError(f"must be {f'one of {choices}' if choices else 'a string'}, "
                             f"got {value!r}", f)
    return value


def _at_least(f: str, value, low: int) -> int:
    """An integral number (2.0 included) as an int of at least low, or an error naming f."""
    out = _keyed(f, _integer, "value", value)
    if out < low:
        raise ParameterError(f"must be >= {low}, got {out}", f)
    return out


def _point(what: str, value, dimension: int) -> tuple[float, ...]:
    point = _finite(what, value)
    if len(point) != dimension:
        raise ParameterError(f"{what} has {len(point)} coordinates, the space {dimension}")
    return point


def _capped(name: str, horizon: int, d: int) -> int:
    """horizon, if it is at most HORIZON_CAP and its walk in dimension d stores
    at most the coordinates of a d = 2 walk at the cap; else a ResourceCapError
    naming the field, raised before any symbol or point is computed for it."""
    if horizon > HORIZON_CAP:
        raise ResourceCapError(f"{name}: {horizon} steps exceed the horizon cap of "
                               f"{HORIZON_CAP}", required_cap=horizon)
    coordinates = (horizon + 1) * d
    if coordinates > 2 * (HORIZON_CAP + 1):
        raise ResourceCapError(f"{name}: {horizon} steps in dimension {d} store {coordinates} "
                               f"coordinates, past the cap of {2 * (HORIZON_CAP + 1)}",
                               required_cap=coordinates)
    return horizon


def _walked_points(data: dict, family: GeneratorFamily, word: Word) -> np.ndarray:
    """A v2 file's points, from one walk from its start that lands each
    defect's point as stored; they must match points_sha256."""
    d = family.space.dimension
    H = _capped("field 'horizon'", _at_least("horizon", data["horizon"], 0), d)
    start = _keyed("start", _point, "start", data["start"], d)
    steps, rows = [], []
    for i, defect in enumerate(_keyed("defects", _items, "defects", data["defects"])):
        key = f"defects[{i}]"
        if not isinstance(defect, list) or len(defect) != 2:
            raise ParameterError(f"must be a pair [j, x_(j+1)], got {defect!r}", key)
        j = _keyed(key, _integer, "defect step", defect[0])
        last = steps[-1] if steps else -1
        if not last < j < H:
            raise ParameterError(f"step {j} must lie in ({last}, {H}): defects are sorted, "
                                 "one a step, below the horizon", key)
        steps.append(j)
        rows.append(_keyed(key, _point, "defect point", defect[1], d))
    points = _walk(family, word, start, H, (steps, rows), "stored")[0]
    digest = _sha256(points)
    if digest != data["points_sha256"]:
        raise IntegrityError(f"points digest mismatch: the walk gives {digest[:12]}…, "
                             f"file says {str(data['points_sha256'])[:12]}…")
    return points


# The keys each orbit schema requires; orbit_from_dict reads them and "meta".
ORBIT_KEYS = {
    ORBIT_SCHEMA: ("schema", "system", "word", "points", "step_error_checksum"),
    ORBIT_SCHEMA_V2: ("schema", "system", "word", "horizon", "start", "defects",
                      "points_sha256", "step_error_checksum"),
}


def orbit_from_dict(data: dict) -> PseudoOrbit:
    """The file's one PseudoOrbit, with its meta: the keys (an unknown or
    missing one is an error), specs, meta and caps are checked before its
    points are read (listed in v1, walked in v2), the PseudoOrbit
    constructor builds it from them, and its step errors are then checked
    against the checksum."""
    schema = data.get("schema")
    if schema not in ORBIT_KEYS:
        raise ParameterError(f"unsupported orbit schema {schema!r}")
    _known("an orbit file", data, (*ORBIT_KEYS[schema], "meta"), ORBIT_KEYS[schema])
    _keyed("system", _known, "system", data["system"], ("space", "maps"), ("space", "maps"))
    family = _keyed("system", GeneratorFamily.from_spec, data["system"])
    word = _keyed("word", Word.from_spec, data["word"])
    meta = data.get("meta", {})
    if not isinstance(meta, dict):
        raise ParameterError(f"must be an object, got {meta!r}", "meta")
    if schema == ORBIT_SCHEMA:
        points = as_points(data["points"], family.space.dimension)
        _capped("field 'points'", len(points) - 1, family.space.dimension)
    else:
        points = _walked_points(data, family, word)
    xi = PseudoOrbit(family, word, points, meta)
    checksum = step_error_checksum(xi.step_errors)
    if checksum != data["step_error_checksum"]:
        raise IntegrityError(
            "step-error checksum mismatch: recomputed "
            f"{checksum[:12]}…, file says {str(data['step_error_checksum'])[:12]}…")
    return xi


def save_orbit(xi: PseudoOrbit, path: Path | str) -> None:
    dump_json(orbit_to_dict(xi), path)


def load_orbit(path: Path | str) -> PseudoOrbit:
    with _input_file("orbit file", path):
        return orbit_from_dict(_read_object(path))


def load_block_plan_manifest(path: Path | str) -> tuple[list[Path], list[int]]:
    """The block paths, relative to the manifest's folder, and the levels N_k."""
    with _input_file("plan manifest", path):
        data = _read_object(path)
        if data.get("schema") != PLAN_SCHEMA:
            raise ParameterError(f"unsupported plan schema {data.get('schema')!r}")
        _known("a plan manifest", data, PLAN_KEYS, PLAN_KEYS)
        blocks = _keyed("blocks", _items, "blocks", data["blocks"])
        return ([Path(path).parent / _text(f"blocks[{i}]", p) for i, p in enumerate(blocks)],
                list(_keyed("N_levels", _integers, "N_levels", data["N_levels"])))


def load_block_plan(path: Path | str) -> BlockPlan:
    """The manifest's plan over its loaded blocks; a plan they do not fit names the
    manifest. Once the blocks loaded so far lay out past the cap (_capped), the
    next one is not loaded: the ResourceCapError names the manifest and the block."""
    block_paths, N_levels = load_block_plan_manifest(path)
    blocks, points = [], 0
    for i, p in enumerate(block_paths):
        blocks.append(load_orbit(p))
        points += len(blocks[-1].points)
        with _input_file("plan manifest", path):
            _capped(f"field 'blocks[{i}]', laid out after the blocks before it", points - 1,
                    blocks[-1].family.space.dimension)
    with _input_file("plan manifest", path):
        return BlockPlan(tuple(blocks), tuple(N_levels))


# ---------------------------------------------------------------------------
# Experiment configuration

THRESHOLDS = {"delta": 0.4, "epsilon": 0.2, "alpha": 0.9, "tol": 0.01, "density_tol": 0.01}
THRESHOLD_CHECKS = {"alpha": check_alpha, "density_tol": partial(check_nonnegative, "density_tol")}
# The keys each subcommand section, the system and the root may hold:
# validate_config reads each of them, and rejects every other key, naming it.
# The system needs all of its keys.
SECTION_KEYS = {"classify": ("orbit",), "repair": ("orbit",),
                "cesaro": ("input_csv", "bound"), "concat": ("manifest",),
                "search": ("orbit", "mode", "levels", "mesh_schedule"),
                "example_disk": ("scale", "power", "start")}
SYSTEM_KEYS = ("space", "maps", "word", "start")
ROOT_KEYS = ("schema", "system", "seed", "horizon", "tail_fraction", "thresholds",
             "corruption", "net_mesh", "out", *SECTION_KEYS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One validated experiment, shared by all subcommands: the built system,
    the thresholds, the corruption and each subcommand section, every field
    typed and checked when the config is loaded. An input file left out is None."""

    family: GeneratorFamily
    word: Word
    start: np.ndarray
    seed: int
    horizon: int
    tail_fraction: float
    out: str
    net_mesh: float
    delta: float
    epsilon: float
    alpha: float
    tol: float
    density_tol: float
    corruption_indices: IndexSet
    jump: JumpRule
    classify_orbit: str | None
    repair_orbit: str | None
    cesaro_csv: str | None
    cesaro_bound: float | None
    concat_manifest: str | None
    search_orbit: str | None
    search_mode: str
    search_schedule: tuple[float, ...]
    disk_scale: float
    disk_power: float
    disk_start: np.ndarray | None


def config_error(message: str, *path: str) -> ParameterError:
    """The error of the config field at path, named as every config error is:
    "config field 'a.b': <message>"."""
    return ParameterError(f"config field {'.'.join(path) or '<root>'!r}: {message}")


def _number(f: str, value, check=None) -> float:
    """A JSON number as a finite float, which check accepts when one is given;
    anything else, a string or a bool included, fails naming field f."""
    out = float(_keyed(f, _real, "value", value))
    if check is not None:
        _keyed(f, check, out)
    return out


def _positive(value: float) -> None:
    check_positive("value", value)


def _optional(check, f: str, value, *args):
    """None for a missing or null value, else the value as check(f, value, *args) takes it."""
    return None if value is None else check(f, value, *args)


def _member(f: str, value, space: MetricSpace) -> np.ndarray:
    p = np.array(_keyed(f, _point, "point", value, space.dimension))
    if not space.contains(p):
        raise ParameterError(f"must be a point of the {space.kind} space, got {value!r}", f)
    return p


def _schedule(section: dict, net_mesh: float, epsilon: float) -> tuple[float, ...]:
    """The refined search's meshes, one a stage: the first search.levels entries of
    search.mesh_schedule, else net_mesh / 2**i. Stage m's budget is epsilon / 2**m."""
    levels = _at_least("search.levels", section.get("levels", 3), 1)
    given, f = section.get("mesh_schedule"), "search.mesh_schedule"
    # check_schedule reads a default schedule only once its budget passes.
    meshes = _keyed("search", check_schedule, epsilon, levels,
                    (math.ldexp(net_mesh, -i) for i in range(levels)) if given is None
                    else [_number(f, v) for v in _keyed(f, _items, "meshes", given)])
    return tuple(meshes[:levels])


def _corruption(section, dimension: int, horizon: int, seed: int) -> tuple[IndexSet, JumpRule]:
    """The corrupted steps and the jump rule of the corruption section."""
    section = _keyed("corruption", _known, "corruption", section, ("indices", "jump"))
    # Each kind reads its field by popping it, so that what is left is unread.
    spec = dict(_keyed("corruption.indices", _known, "indices", section.get("indices", {}),
                       ("kind", "density", "base", "indices")))
    kind, H = spec.pop("kind", "none"), horizon
    if kind == "none":
        steps = np.arange(0)
    elif kind == "all":
        steps = np.arange(H)
    elif kind == "squares":
        steps = np.arange(math.isqrt(H - 1) + 1) ** 2
    elif kind == "evens":
        steps = np.arange(0, H, 2)
    elif kind == "powers":
        base = _at_least("corruption.indices.base", spec.pop("base", 2), 2)
        steps, v = [], 1
        while v < H:
            steps.append(v)
            v *= base
    elif kind == "explicit":
        f = "corruption.indices.indices"
        steps = _keyed(f, IndexSet.from_iterable,
                       _keyed(f, _items, "indices", spec.pop("indices", None)), H).indices
    elif kind == "random":
        density = _number("corruption.indices.density", spec.pop("density", 0.01))
        if not 0 <= density <= 1:
            raise ParameterError("must lie in [0, 1]", "corruption.indices.density")
        steps = np.flatnonzero(np.random.default_rng(seed).random(H) < density)
    else:
        raise ParameterError(f"unknown kind {kind!r}", "corruption.indices.kind")
    for key in spec:
        raise ParameterError(f"kind {kind!r} does not read it", f"corruption.indices.{key}")
    rule = _keyed("corruption.jump", JumpRule.from_spec, section.get("jump", {"kind": "uniform"}))
    if rule.kind == "offset":
        _keyed("corruption.jump", jump_sizes, rule, [H - 1])
    if rule.kind == "fixed":
        _keyed("corruption.jump.point", _point, "point", rule.point, dimension)
    return IndexSet.from_iterable(steps, H), rule


def validate_config(data: dict) -> ExperimentConfig:
    """The config as an ExperimentConfig; every error names its field, as config_error does."""
    try:
        return _config(data)
    except ParameterError as exc:
        raise config_error(str(exc), *exc.path) from None


def _config(data: dict) -> ExperimentConfig:
    """validate_config's reading; an error's path is its field's dotted name, whole or in parts."""
    _known("the config", data, ROOT_KEYS)
    if data.get("schema") != CONFIG_SCHEMA:
        raise ParameterError(f"expected {CONFIG_SCHEMA!r}, got {data.get('schema')!r}", "schema")
    system = _keyed("system", _known, "system", data.get("system"), SYSTEM_KEYS, SYSTEM_KEYS)
    seed = _at_least("seed", data.get("seed", 0), 0)
    horizon = _keyed("horizon", _integer, "value", data.get("horizon", 10_000))
    _keyed("horizon", check_density_horizon, horizon)
    tail_fraction = _number("tail_fraction", data.get("tail_fraction", 0.5), check_tail_fraction)
    given = {**THRESHOLDS, **_keyed("thresholds", _known, "thresholds",
                                    data.get("thresholds", {}), THRESHOLDS)}
    thresholds = {name: _number(f"thresholds.{name}", v, THRESHOLD_CHECKS.get(name, _positive))
                  for name, v in given.items()}
    family = _keyed("system", GeneratorFamily.from_spec, system)
    _capped("config field 'horizon'", horizon, family.space.dimension)
    word = _keyed("system.word", Word.from_spec, system["word"])
    _keyed("system", family.check_alphabet, word)
    indices, jump = _corruption(data.get("corruption", {}), family.space.dimension, horizon, seed)

    classify, repair, cesaro, concat, search, disk = (
        _keyed(name, _known, name, data.get(name, {}), keys) for name, keys in SECTION_KEYS.items())
    net_mesh = _number("net_mesh", data.get("net_mesh", 0.1), _positive)
    scale = _number("example_disk.scale", disk.get("scale", 1.0))
    power = _number("example_disk.power", disk.get("power", 2.0))
    _keyed("example_disk",
           lambda: jump_sizes(JumpRule("offset", None, scale, power), [horizon - 1]))
    return ExperimentConfig(
        family=family, word=word, start=_member("system.start", system["start"], family.space),
        seed=seed, horizon=horizon, tail_fraction=tail_fraction,
        out=_text("out", data.get("out", "out")),
        net_mesh=net_mesh,
        **thresholds, corruption_indices=indices, jump=jump,
        classify_orbit=_optional(_text, "classify.orbit", classify.get("orbit")),
        repair_orbit=_optional(_text, "repair.orbit", repair.get("orbit")),
        cesaro_csv=_optional(_text, "cesaro.input_csv", cesaro.get("input_csv")),
        cesaro_bound=_optional(_number, "cesaro.bound", cesaro.get("bound")),
        concat_manifest=_optional(_text, "concat.manifest", concat.get("manifest")),
        search_orbit=_optional(_text, "search.orbit", search.get("orbit")),
        search_mode=_text("search.mode", search.get("mode", "average"),
                          ("average", "m-alpha", "refined")),
        search_schedule=_schedule(search, net_mesh, thresholds["epsilon"]),
        disk_scale=scale, disk_power=power,
        disk_start=_optional(_member, "example_disk.start", disk.get("start"),
                             MetricSpace.unit_disk()))


def load_config(path: Path | str | None = None, **overrides) -> ExperimentConfig:
    """The config file at path, or the built-in system when path is None, with
    every override that is not None set before the one validation."""
    if path is None:
        data = {"schema": CONFIG_SCHEMA, "system": {**DISK_SYSTEM, "start": [1.0, 0.0]}}
    else:
        with _input_file("config file", path):
            data = _read_object(path)
    data.update((k, v) for k, v in overrides.items() if v is not None)
    return validate_config(data)
