"""Seeded inputs, op definitions and output checks for the three workloads.

Every op gets its own seed, derived from the run seed and the op index, and
its own input files, written during set-up by the workload's ``make_op``
into the op's own directory. An op is a list of shadowlab CLI argument
vectors run in order; its check reads only the op's output
directory and returns the list of broken guarantees (empty when the op
passed).

Input orbit files are written by this module from plain stepping code, not
through ``shadowlab.serialize.save_orbit``, so that set-up stays small
next to the timed ops. Their step-error checksums come from shadowlab's own
``recompute_step_errors`` and ``step_error_checksum``, so every load in an
op verifies them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from shadowlab.dynamics import GeneratorFamily, Word
from shadowlab.pseudo_orbits import PseudoOrbit, recompute_step_errors
from shadowlab.serialize import (
    CONFIG_SCHEMA,
    ORBIT_SCHEMA,
    PLAN_SCHEMA,
    step_error_checksum,
)
from shadowlab.surgery import repair

# Op seeds are run_seed * SEED_STRIDE + op index, so ops never share a seed
# as long as a run has fewer ops than SEED_STRIDE.
SEED_STRIDE = 1000

DISK_SPACE = {"kind": "unit-disk-2d"}
DISK_MAPS = [{"kind": "permutation", "perm": [1, 0]},
             {"kind": "scale", "factors": [0.5, 0.5]}]
DISK_FAMILY = {"space": DISK_SPACE, "maps": DISK_MAPS}
PERIODIC_WORD = {"kind": "periodic", "m": 2, "pattern": [1, 2]}
BOX_SPACE = {"kind": "box-kd", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
BOX_MAPS = [{"kind": "affine", "matrix": [[0.5, 0.1], [0.0, 0.5]], "offset": [0.1, 0.2]},
            {"kind": "affine", "matrix": [[0.4, 0.0], [0.2, 0.4]], "offset": [0.5, 0.3]}]

# The scan objective of a search and the trace_report recomputation of the
# chosen candidate sum the same trace errors in the same order.
OBJECTIVE_TOL = 1e-9


@dataclass
class Op:
    """One timed unit of work: CLI calls in order, then a check of the outputs."""

    index: int
    seed: int
    out: Path
    argvs: list[list[str]]
    check: Callable[[Path], list[str]]


def op_seed(run_seed: int, index: int) -> int:
    return (run_seed % 2**32) * SEED_STRIDE + index


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _write_json(obj, path: Path) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _config(path: Path, seed: int, out: Path, system: dict, **extra) -> str:
    data = {"schema": CONFIG_SCHEMA, "seed": seed, "out": str(out), "system": system}
    data.update(extra)
    return _write_json(data, path)


def _disk_system(word: dict, start) -> dict:
    return {**DISK_FAMILY, "word": word, "start": list(start)}


def _disk_point(rng: np.random.Generator, radius: float = 1.0) -> list[float]:
    while True:
        x, y = rng.uniform(-radius, radius, size=2)
        if x * x + y * y <= radius * radius:
            return [float(x), float(y)]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def write_orbit(path: Path, system: dict, word_spec: dict, points: np.ndarray,
                meta: dict) -> str:
    """Write a pseudo-orbit file in shadowlab's orbit schema."""
    family = GeneratorFamily.from_spec(system)
    word = Word.from_spec(word_spec)
    errors = recompute_step_errors(family, word, points)
    data = {"schema": ORBIT_SCHEMA, "system": family.spec(), "word": word.spec(),
            "points": points.tolist(), "step_error_checksum": step_error_checksum(errors),
            "meta": meta}
    return _write_json(data, path)


def disk_pseudo_orbit(symbols: np.ndarray, start, jumps: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Swap/halving orbit of start, with a uniform disk jump after each step in jumps."""
    x, y = start
    jump_at = set(jumps.tolist())
    pts = [(x, y)]
    for j, s in enumerate(symbols.tolist()):
        if j in jump_at:
            x, y = _disk_point(rng)
        elif s == 1:
            x, y = y, x
        else:
            x, y = x * 0.5, y * 0.5
        pts.append((x, y))
    return np.array(pts, dtype=np.float64)


def _sparse_indices(rng: np.random.Generator, horizon: int, density: float) -> np.ndarray:
    return np.flatnonzero(rng.random(horizon) < density)


# ---------------------------------------------------------------------------
# disk-sweep


class DiskSweep:
    """One op is ``example-disk`` for one seed at horizon 10 000.

    Even ops use the default start (M = 0); odd ops a seeded start in the
    disk of radius 0.6, as acceptance criterion 1 alternates them.
    """

    name = "disk-sweep"
    horizon = 10_000
    nominal_ops_per_s = 1.6

    def make_op(self, d: Path, i: int, seed: int) -> Op:
        extra = {}
        if i % 2:
            extra["example_disk"] = {"start": _disk_point(_rng(seed, 1), radius=0.6)}
        cfg = _config(d / "config.json", seed, d / "out",
                      _disk_system(PERIODIC_WORD, [1.0, 0.0]), horizon=self.horizon, **extra)
        return Op(i, seed, d / "out", [["example-disk", "--config", cfg]], self.check)

    @staticmethod
    def check(out: Path) -> list[str]:
        if _read_json(out / "example_disk.json").get("all_prefixes_bounded") is not True:
            return ["example_disk.json: all_prefixes_bounded is not true"]
        return []


# ---------------------------------------------------------------------------
# file-pipeline


class FilePipeline:
    """One op is generate -> classify -> repair -> cesaro -> concat on one config.

    The system is the unit disk at horizon 10 000 with uniform jumps.
    Corruption alternates squares / random (density 0.01) from op to op. The
    word is periodic on every third op and iid (slower: one SHA-256 per
    symbol) on the other two, so the median and the tail op both fall inside
    the iid cluster, not on the gap between the two. cesaro reads a seeded
    10^5-value density-zero CSV; concat reads a seeded 3-block plan of
    500 / 2 000 / 8 000 steps.
    """

    name = "file-pipeline"
    horizon = 10_000
    nominal_ops_per_s = 0.65
    csv_length = 100_000
    block_steps = (500, 2_000, 8_000)
    commands = ("generate", "classify", "repair", "cesaro", "concat")

    def make_op(self, d: Path, i: int, seed: int) -> Op:
        word = (PERIODIC_WORD if i % 3 == 0
                else {"kind": "iid", "m": 2, "weights": [0.5, 0.5], "seed": seed})
        corruption = ({"kind": "squares"} if i % 2 == 0
                      else {"kind": "random", "density": 0.01})
        csv = self._write_cesaro_csv(d / "values.csv", _rng(seed, 1))
        manifest = self._write_block_plan(d, word, _rng(seed, 2))
        cfg = _config(d / "config.json", seed, d / "out",
                      _disk_system(word, _disk_point(_rng(seed, 3))),
                      horizon=self.horizon,
                      thresholds={"density_tol": 0.05},
                      corruption={"indices": corruption, "jump": {"kind": "uniform"}},
                      cesaro={"input_csv": csv}, concat={"manifest": manifest})
        return Op(i, seed, d / "out", [[c, "--config", cfg] for c in self.commands],
                  self.check)

    def _write_cesaro_csv(self, path: Path, rng: np.random.Generator) -> str:
        """Zero except one seeded index in each gap between squares, valued in [0.5, 1]."""
        n = self.csv_length
        values = np.zeros(n)
        k = np.arange(1, math.isqrt(n - 1) + 1)
        spikes = k * k + (rng.random(k.size) * k).astype(np.int64)
        spikes = spikes[spikes < n]
        values[spikes] = rng.uniform(0.5, 1.0, size=spikes.size)
        path.write_text("\n".join(map(repr, values.tolist())) + "\n")
        return str(path)

    def _write_block_plan(self, d: Path, word: dict, rng: np.random.Generator) -> str:
        """Corrupted orbits, each under the word shifted to the block's offset."""
        total = sum(m + 1 for m in self.block_steps)
        symbols = Word.from_spec(word).symbols(total)
        names, offset = [], 0
        for k, m in enumerate(self.block_steps, start=1):
            jumps = _sparse_indices(rng, m, 0.01)
            pts = disk_pseudo_orbit(symbols[offset:offset + m], _disk_point(rng), jumps, rng)
            shifted = dict(word, offset=offset) if offset else word
            names.append(f"block{k}.json")
            write_orbit(d / names[-1], DISK_FAMILY,
                        shifted, pts, {"kind": "benchmark-block"})
            offset += m + 1
        plan = {"schema": PLAN_SCHEMA, "blocks": names,
                "N_levels": [m // 10 for m in self.block_steps]}
        return _write_json(plan, d / "plan.json")

    @staticmethod
    def check(out: Path) -> list[str]:
        errors = []
        audit = _read_json(out / "repair.json")
        verdict = audit["average_verdict"]
        if verdict.get("verdict") is not True:
            errors.append("repair.json: average_verdict is not true")
        if verdict.get("params", {}).get("N", audit["M"]) != audit["M"]:
            errors.append("repair.json: average_verdict was not taken at N = M")
        if _read_json(out / "cesaro.json")["equivalence"].get("verdict") is not True:
            errors.append("cesaro.json: equivalence verdict is not true")
        if _read_json(out / "concat_certificate.json").get("verdict") is not True:
            errors.append("concat_certificate.json: decomposition certificate fails")
        return errors


# ---------------------------------------------------------------------------
# net-search


class NetSearch:
    """One op is four ``search`` calls, each on its own orbit file.

    average on a repaired corrupted disk orbit (mesh 0.05, 1 369 points);
    m-alpha on a box-2d affine contraction under an iid word (mesh 0.05,
    441 points); average on a circle rotation with constant 0.3 jumps (mesh
    0.02, 50 points), where failure is the expected outcome; refined on a
    decaying disk instance (meshes 0.1 / 0.05 / 0.025: 373 / 1 369 / 5 253
    points). Orbits have horizon 2 000 so that a run holds enough ops for a
    tail percentile; net sizes are what set the per-step against
    per-candidate regimes.
    """

    name = "net-search"
    horizon = 2_000
    nominal_ops_per_s = 1.35
    epsilon = 0.2
    circle_epsilon = 0.1

    def make_op(self, d: Path, i: int, seed: int) -> Op:
        out = d / "out"
        searches = {
            "average": (self._repaired_disk(d / "average_orbit.json", seed),
                        {"mode": "average"}, 0.05, self.epsilon),
            "m-alpha": (self._box_iid(d / "m_alpha_orbit.json", seed),
                        {"mode": "m-alpha"}, 0.05, self.epsilon),
            "circle": (self._circle_rotation(d / "circle_orbit.json", seed),
                       {"mode": "average"}, 0.02, self.circle_epsilon),
            "refined": (self._decaying_disk(d / "refined_orbit.json", seed),
                        {"mode": "refined", "levels": 3,
                         "mesh_schedule": [0.1, 0.05, 0.025]}, 0.1, self.epsilon),
        }
        argvs = []
        for label, (orbit, section, mesh, eps) in searches.items():
            cfg = _config(d / f"{label}_config.json", seed, out / label,
                          _disk_system(PERIODIC_WORD, [1.0, 0.0]),
                          net_mesh=mesh, thresholds={"epsilon": eps, "alpha": 0.5},
                          search={"orbit": orbit, **section})
            argvs.append(["search", "--config", cfg])
        return Op(i, seed, out, argvs, self.check)

    def _repaired_disk(self, path: Path, seed: int) -> str:
        rng = _rng(seed, 1)
        H = self.horizon
        pts = disk_pseudo_orbit(Word.from_spec(PERIODIC_WORD).symbols(H), _disk_point(rng),
                                _sparse_indices(rng, H, 0.01), rng)
        family = GeneratorFamily.from_spec(DISK_FAMILY)
        xi = PseudoOrbit.from_points(family, Word.from_spec(PERIODIC_WORD), pts)
        y = repair(xi, 0.4, density_tol=0.05).y
        return write_orbit(path, DISK_FAMILY, PERIODIC_WORD,
                           y.points, {"kind": "benchmark-repaired"})

    def _box_iid(self, path: Path, seed: int) -> str:
        rng = _rng(seed, 2)
        H = self.horizon
        word = {"kind": "iid", "m": 2, "weights": [0.5, 0.5], "seed": seed}
        symbols = Word.from_spec(word).symbols(H).tolist()
        affine = {s: (g["matrix"], g["offset"]) for s, g in enumerate(BOX_MAPS, start=1)}
        jump_at = set(_sparse_indices(rng, H, 0.01).tolist())
        x, y = rng.uniform(0.0, 1.0, size=2).tolist()
        pts = [(x, y)]
        for j, s in enumerate(symbols):
            if j in jump_at:
                x, y = rng.uniform(0.0, 1.0, size=2).tolist()
            else:
                (m00, m01), (m10, m11) = affine[s][0]
                o0, o1 = affine[s][1]
                x, y = m00 * x + m01 * y + o0, m10 * x + m11 * y + o1
            pts.append((x, y))
        return write_orbit(path, {"space": BOX_SPACE, "maps": BOX_MAPS}, word,
                           np.array(pts), {"kind": "benchmark-box-iid"})

    def _circle_rotation(self, path: Path, seed: int) -> str:
        """Rotation by a seeded angle; every step also jumps 0.3 in a seeded direction."""
        rng = _rng(seed, 3)
        H = self.horizon
        angle = float(rng.uniform(0.1, 0.45))
        steps = angle + 0.3 * rng.choice([-1.0, 1.0], size=H)
        pts = np.mod(float(rng.uniform()) + np.concatenate(([0.0], np.cumsum(steps))), 1.0)
        system = {"space": {"kind": "circle-1d"},
                  "maps": [{"kind": "affine", "matrix": [[1.0]], "offset": [angle]}]}
        return write_orbit(path, system, {"kind": "constant", "m": 1, "symbol": 1},
                           pts.reshape(-1, 1), {"kind": "benchmark-circle"})

    def _decaying_disk(self, path: Path, seed: int) -> str:
        """Every step displaced by 1/(j+1)^2 in a seeded direction, projected onto the disk."""
        rng = _rng(seed, 4)
        H = self.horizon
        dirs = rng.normal(size=(H, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        jumps = (dirs / np.arange(1, H + 1)[:, None] ** 2).tolist()
        x, y = _disk_point(rng)
        pts = [(x, y)]
        for (dx, dy), s in zip(jumps, Word.from_spec(PERIODIC_WORD).symbols(H).tolist()):
            x, y = (y, x) if s == 1 else (x * 0.5, y * 0.5)
            x += dx
            y += dy
            r = math.hypot(x, y)
            if r > 1.0:
                x, y = x / r, y / r
            pts.append((x, y))
        return write_orbit(path, DISK_FAMILY, PERIODIC_WORD,
                           np.array(pts), {"kind": "benchmark-decaying"})

    def check(self, out: Path) -> list[str]:
        errors = []
        for label, key in (("average", "limsup_estimate"), ("m-alpha", "hit_lower_density")):
            report = _read_json(out / label / "search.json")
            gap = abs(report["search_params"]["scan_objective"] - report[key])
            if not gap <= OBJECTIVE_TOL:
                errors.append(f"{label}: scan objective differs from trace_report {key} by {gap}")
        circle = _read_json(out / "circle" / "search.json")
        if circle["success"] is not False:
            errors.append("circle: search reports success on a rotation with 0.3 jumps")
        if not circle["search_params"]["scan_objective"] >= self.circle_epsilon:
            errors.append("circle: scan objective is below epsilon")
        return errors


WORKLOADS = {w.name: w for w in (DiskSweep(), FilePipeline(), NetSearch())}
