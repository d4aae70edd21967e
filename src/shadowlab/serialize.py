"""JSON/CSV serialization: pseudo-orbits with error checksums, configs, reports.

Payload files are deterministic (sorted keys, no timestamps) so identical
config + seed reproduces byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import GeneratorFamily, Word, as_point
from .errors import DomainError, IntegrityError, ParameterError
from .pseudo_orbits import JumpRule, PseudoOrbit, recompute_step_errors

CONFIG_SCHEMA = "shadowlab/config/v1"
ORBIT_SCHEMA = "shadowlab/pseudo-orbit/v1"
PLAN_SCHEMA = "shadowlab/block-plan/v1"


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def dump_json(obj, path: Path | str) -> None:
    Path(path).write_text(json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n")


def dump_csv(rows, header: list[str], path: Path | str) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def step_error_checksum(errors: np.ndarray) -> str:
    payload = np.asarray(errors, dtype=np.float64).astype(">f8").tobytes()
    return hashlib.sha256(payload).hexdigest()


def orbit_to_dict(xi: PseudoOrbit) -> dict:
    return {
        "schema": ORBIT_SCHEMA,
        "system": xi.family.spec(),
        "word": xi.word.spec(),
        "points": to_jsonable(xi.points),
        "step_error_checksum": step_error_checksum(xi.step_errors),
        "meta": to_jsonable(xi.meta),
    }


def orbit_from_dict(data: dict) -> PseudoOrbit:
    """Rebuild, recompute step errors, and verify the embedded checksum."""
    if data.get("schema") != ORBIT_SCHEMA:
        raise ParameterError(f"unsupported orbit schema {data.get('schema')!r}")
    family = GeneratorFamily.from_spec(data["system"])
    word = Word.from_spec(data["word"])
    points = np.asarray(data["points"], dtype=np.float64)
    errors = recompute_step_errors(family, word, points)
    checksum = step_error_checksum(errors)
    if checksum != data["step_error_checksum"]:
        raise IntegrityError(
            "step-error checksum mismatch: recomputed "
            f"{checksum[:12]}…, file says {str(data['step_error_checksum'])[:12]}…")
    return PseudoOrbit(family, word, points, errors, data.get("meta", {}))


def save_orbit(xi: PseudoOrbit, path: Path | str) -> None:
    dump_json(orbit_to_dict(xi), path)


def load_orbit(path: Path | str) -> PseudoOrbit:
    return orbit_from_dict(json.loads(Path(path).read_text()))


def save_block_plan_manifest(block_paths: list[str], N_levels: list[int],
                             path: Path | str) -> None:
    dump_json({"schema": PLAN_SCHEMA, "blocks": list(block_paths),
               "N_levels": [int(n) for n in N_levels]}, path)


def load_block_plan_manifest(path: Path | str) -> tuple[list[Path], list[int]]:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != PLAN_SCHEMA:
        raise ParameterError(f"unsupported plan schema {data.get('schema')!r}")
    base = Path(path).parent
    return [base / p for p in data["blocks"]], [int(n) for n in data["N_levels"]]


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description shared by all subcommands."""

    system: dict
    seed: int = 0
    horizon: int = 10_000
    tail_fraction: float = 0.5
    out: str = "out"
    thresholds: dict = field(default_factory=dict)
    net_mesh: float = 0.1
    corruption: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def delta(self) -> float:
        return float(self.thresholds.get("delta", 0.4))

    @property
    def epsilon(self) -> float:
        return float(self.thresholds.get("epsilon", 0.2))

    @property
    def alpha(self) -> float:
        return float(self.thresholds.get("alpha", 0.9))

    @property
    def tol(self) -> float:
        return float(self.thresholds.get("tol", 0.01))

    @property
    def density_tol(self) -> float:
        return float(self.thresholds.get("density_tol", 0.01))

    def family_and_word(self) -> tuple[GeneratorFamily, Word]:
        family = GeneratorFamily.from_spec(self.system)
        return family, Word.from_spec(self.system["word"])

    def start_point(self) -> np.ndarray:
        return np.asarray(self.system["start"], dtype=np.float64)


def _fail(f: str, msg: str):
    raise ParameterError(f"config field {f!r}: {msg}")


def _number(f: str, value, kind=float):
    """A JSON number as an int, or as a finite float; anything else, a string
    or a bool included, fails naming field f."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        out = kind(value)
        if kind is float and not math.isfinite(out):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        _fail(f, f"must be a finite number, got {value!r}")
    return out


def _object(f: str, value) -> dict:
    if not isinstance(value, dict):
        _fail(f, f"must be an object, got {value!r}")
    return value


def _point(f: str, value, dimension: int) -> np.ndarray:
    try:
        q = as_point(value, dimension)
    except (TypeError, ValueError, DomainError):
        q = None
    if q is None or not np.all(np.isfinite(q)):
        _fail(f, f"must be a point of {dimension} finite coordinates, got {value!r}")
    return q


def check_corruption(section, dimension: int, horizon: int) -> None:
    """Types and ranges of the corruption section, for a space of the given
    dimension; the index kind is checked where the index set is built."""
    indices = _object("corruption.indices", _object("corruption", section).get("indices", {}))
    if "density" in indices:
        if not 0 <= _number("corruption.indices.density", indices["density"]) <= 1:
            _fail("corruption.indices.density", "must lie in [0, 1]")
    if "base" in indices and _number("corruption.indices.base", indices["base"], int) < 2:
        _fail("corruption.indices.base", "must be >= 2")
    if indices.get("kind") == "explicit":
        listed = indices.get("indices")
        if not isinstance(listed, list):
            _fail("corruption.indices.indices", f"must be a list of step indices, got {listed!r}")
        for v in listed:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < horizon:
                _fail("corruption.indices.indices",
                      f"must hold integers in [0, {horizon}), got {v!r}")
    jump = _object("corruption.jump", section.get("jump", {"kind": "uniform"}))
    if "kind" not in jump:
        _fail("corruption.jump.kind", "required")
    _number("corruption.jump.scale", jump.get("scale", 1.0))
    # Offset sizes divide by (j + 1) ** power for j < horizon: keep it a normal float.
    if abs(_number("corruption.jump.power", jump.get("power", 0.0))) * math.log(horizon) > 700:
        _fail("corruption.jump.power", f"{horizon} ** power is out of floating-point range")
    if jump.get("kind") == "fixed" or jump.get("point") is not None:
        _point("corruption.jump.point", jump.get("point"), dimension)
    try:
        JumpRule.from_spec(jump)
    except ParameterError as exc:
        _fail("corruption.jump", str(exc))


def validate_config(data: dict) -> ExperimentConfig:
    _object("<root>", data)
    if data.get("schema") != CONFIG_SCHEMA:
        _fail("schema", f"expected {CONFIG_SCHEMA!r}, got {data.get('schema')!r}")
    system = _object("system", data.get("system"))
    for key in ("space", "maps", "word", "start"):
        if key not in system:
            _fail(f"system.{key}", "required")
    seed = _number("seed", data.get("seed", 0), int)
    if seed < 0:
        _fail("seed", f"must be >= 0, got {seed}")
    horizon = _number("horizon", data.get("horizon", 10_000), int)
    if horizon < 10:
        _fail("horizon", f"must be >= 10, got {horizon}")
    tail_fraction = _number("tail_fraction", data.get("tail_fraction", 0.5))
    if not 0.0 < tail_fraction < 1.0:
        _fail("tail_fraction", f"must lie in (0,1), got {tail_fraction}")
    thresholds = {name: _number(f"thresholds.{name}", v)
                  for name, v in _object("thresholds", data.get("thresholds", {})).items()}
    for name in ("delta", "epsilon", "tol", "density_tol"):
        if name in thresholds and thresholds[name] <= 0:
            _fail(f"thresholds.{name}", "must be positive")
    if "alpha" in thresholds and not 0.0 < thresholds["alpha"] < 1.0:
        _fail("thresholds.alpha", "must lie in (0,1)")
    net_mesh = _number("net_mesh", data.get("net_mesh", 0.1))
    if net_mesh <= 0:
        _fail("net_mesh", "must be positive")
    # v1 key, accepted and ignored: the net scan has no worker count.
    if _number("threads", data.get("threads", 1), int) < 1:
        _fail("threads", "must be >= 1")
    known = {"schema", "system", "seed", "horizon", "tail_fraction", "threads", "out",
             "thresholds", "net_mesh", "corruption"}
    extra = {k: v for k, v in data.items() if k not in known}
    try:
        family = GeneratorFamily.from_spec(system)
        word = Word.from_spec(system["word"])
    except (KeyError, TypeError, ValueError) as exc:
        _fail("system", f"malformed system descriptor ({exc})")
    if word.m > family.m:
        _fail("system.word.m", f"the word has {word.m} symbols, the system {family.m} maps")
    space = family.space
    if not space.contains(_point("system.start", system["start"], space.dimension)):
        _fail("system.start", f"must be a point of the {space.kind} space, "
                              f"got {system['start']!r}")
    corruption = data.get("corruption", {})
    check_corruption(corruption, space.dimension, horizon)
    return ExperimentConfig(system=system, seed=seed, horizon=horizon,
                            tail_fraction=tail_fraction,
                            out=str(data.get("out", "out")), thresholds=thresholds,
                            net_mesh=net_mesh, corruption=dict(corruption), extra=extra)


def load_config(path: Path | str) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ParameterError(f"config file {path} not found")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}")
    return validate_config(data)
