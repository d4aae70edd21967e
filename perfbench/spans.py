"""Wrapping tracer: one span per call of a traced shadowlab function.

``Tracer.install`` rebinds every ``shadowlab.*`` module global that refers to
a traced function (so calls between modules, such as ``surgery`` calling
``dynamics.orbit_shifted``, are caught) and patches ``Word.symbols`` on the
class; ``Tracer.uninstall`` puts the originals back. Per-step functions
(``symbol_at``, ``apply``, ``apply_batch``, ``contains``, ``distance*``) are
never wrapped; their work shows up as the step counts computed from
arguments and results.

A span is (name, start, end, parent span, op id, counts). Spans stay in
memory until ``write`` at the end of the run. A span nested inside a span of
the same name (``orbit`` inside ``orbit_shifted``, ``is_weak_asymptotic_average``
inside ``is_asymptotic_average``) is recorded but left out of that name's
sums, so no time or count is counted twice.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Counts must repeat exactly, so each is computed from arguments and results.


def _orbit_steps(a, r):
    return {"dynamics.orbit.steps": a["n"] - 1}


def _net_points(a, r):
    return {"dynamics.net.points": len(r)}


def _corrupted_steps(a, r):
    return {"pseudo_orbits.make_corrupted_orbit.steps": r.horizon}


def _recompute_steps(a, r):
    return {"pseudo_orbits.recompute_step_errors.steps": len(r)}


def _windows(a, r):
    """(k, n) pairs the verdict covers: every window of length n in [N, H]."""
    span = a["xi"].horizon - a["N"] + 1
    return {"pseudo_orbits.is_average_pseudo_orbit.windows": span * (span + 1) // 2}


def _repair_counts(a, r):
    return {"surgery.repair.anchors": len(r.anchors),
            "surgery.repair.block_points": len(r.blocks)}


def _extraction_stages(a, r):
    return {"cesaro.extract_null_set.stages": len(r.stages)}


def _search_counts(net_sizes, xi):
    steps = xi.horizon + 1
    return {"shadow_search.candidate_steps": sum(n * steps for n in net_sizes),
            "shadow_search.net_bytes": max(n * xi.family.space.dimension * 8
                                           for n in net_sizes)}


def _net_search_counts(a, r):
    return _search_counts([r.net_size], a["xi"])


def _refined_counts(a, r):
    return _search_counts([s["net_size"] for s in r.stages], a["xi"])


def _trace_calls(a, r):
    return {"shadow_search.trace_report.calls": 1}


def _saved_bytes(a, r):
    return {"serialize.save_orbit.bytes": os.path.getsize(a["path"])}


def _loaded_bytes(a, r):
    return {"serialize.load_orbit.bytes": os.path.getsize(a["path"])}


def _csv_rows(a, r):
    return {"serialize.dump_csv.rows": len(a["rows"])}


# (module, function, span name, counts from (bound arguments, result))
TRACED = (
    ("dynamics", "orbit", "dynamics.orbit", _orbit_steps),
    ("dynamics", "orbit_shifted", "dynamics.orbit", _orbit_steps),
    ("dynamics", "net", "dynamics.net", _net_points),
    ("pseudo_orbits", "make_corrupted_orbit", "pseudo_orbits.make_corrupted_orbit",
     _corrupted_steps),
    ("pseudo_orbits", "recompute_step_errors", "pseudo_orbits.recompute_step_errors",
     _recompute_steps),
    ("pseudo_orbits", "is_average_pseudo_orbit", "pseudo_orbits.is_average_pseudo_orbit",
     _windows),
    ("pseudo_orbits", "is_pseudo_orbit", "pseudo_orbits.classify_other", None),
    ("pseudo_orbits", "is_ergodic_pseudo_orbit", "pseudo_orbits.classify_other", None),
    ("pseudo_orbits", "is_weak_asymptotic_average", "pseudo_orbits.classify_other", None),
    ("pseudo_orbits", "is_asymptotic_average", "pseudo_orbits.classify_other", None),
    ("surgery", "repair", "surgery.repair", _repair_counts),
    ("cesaro", "extract_null_set", "cesaro.extract_null_set", _extraction_stages),
    ("cesaro", "verify_equivalence", "cesaro.verify_equivalence", None),
    ("concat", "concatenate", "concat.concatenate", None),
    ("concat", "asymptotic_certificate", "concat.asymptotic_certificate", None),
    ("shadow_search", "average_shadow_search", "shadow_search.average", _net_search_counts),
    ("shadow_search", "m_alpha_shadow_search", "shadow_search.m_alpha", _net_search_counts),
    ("shadow_search", "refined_asymptotic_search", "shadow_search.refined", _refined_counts),
    ("shadow_search", "trace_report", "shadow_search.trace_report", _trace_calls),
    ("disk_example", "make_decaying_instance", "disk_example.make_decaying_instance", None),
    ("disk_example", "tracking_inequality_curve", "disk_example.tracking_inequality_curve",
     None),
    ("disk_example", "aasp_demo", "disk_example.aasp_demo", None),
    ("serialize", "save_orbit", "serialize.save_orbit", _saved_bytes),
    ("serialize", "load_orbit", "serialize.load_orbit", _loaded_bytes),
    ("serialize", "dump_json", "serialize.dump_json", None),
    ("serialize", "dump_csv", "serialize.dump_csv", _csv_rows),
    ("serialize", "load_config", "serialize.load_config", None),
)
WORD_SYMBOLS = "dynamics.word_symbols"
SEARCHES = ("shadow_search.average", "shadow_search.m_alpha", "shadow_search.refined")
# Largest candidate array of any scan, set against the L2 cache; not a sum.
MAX_COUNTS = {"shadow_search.net_bytes"}
CLI_SUBCOMMANDS = ("generate", "classify", "repair", "cesaro", "concat", "search",
                   "example-disk")

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "dynamics.orbit.s": "s", "dynamics.orbit.steps": "count",
    "dynamics.word_symbols.s": "s", "dynamics.net.s": "s", "dynamics.net.points": "count",
    "pseudo_orbits.make_corrupted_orbit.s": "s",
    "pseudo_orbits.make_corrupted_orbit.steps": "count",
    "pseudo_orbits.recompute_step_errors.s": "s",
    "pseudo_orbits.recompute_step_errors.steps": "count",
    "pseudo_orbits.is_average_pseudo_orbit.s": "s",
    "pseudo_orbits.is_average_pseudo_orbit.windows": "count",
    "pseudo_orbits.classify_other.s": "s",
    "surgery.repair.s": "s", "surgery.repair.anchors": "count",
    "surgery.repair.block_points": "count",
    "cesaro.extract_null_set.s": "s", "cesaro.extract_null_set.stages": "count",
    "cesaro.verify_equivalence.s": "s",
    "concat.concatenate.s": "s", "concat.asymptotic_certificate.s": "s",
    "shadow_search.average.s": "s", "shadow_search.m_alpha.s": "s",
    "shadow_search.refined.s": "s", "shadow_search.scan.self_s": "s",
    "shadow_search.candidate_steps": "count", "shadow_search.candidate_steps_per_s": "1/s",
    "shadow_search.net_bytes": "B",
    "shadow_search.trace_report.s": "s", "shadow_search.trace_report.calls": "count",
    "disk_example.make_decaying_instance.s": "s",
    "disk_example.tracking_inequality_curve.s": "s", "disk_example.aasp_demo.s": "s",
    "serialize.save_orbit.s": "s", "serialize.save_orbit.bytes": "B",
    "serialize.load_orbit.s": "s", "serialize.load_orbit.bytes": "B",
    "serialize.dump_json.s": "s", "serialize.dump_csv.s": "s",
    "serialize.dump_csv.rows": "count", "serialize.load_config.s": "s",
    **{f"cli.{c}.s": "s" for c in CLI_SUBCOMMANDS},
    "cli.self_s": "s",
    "trace.overhead_frac": "frac", "trace.cli_accounted_frac": "frac",
}


def _sources(metric: str) -> tuple[str, ...]:
    """Span names a per-layer metric is measured on."""
    if metric.startswith("shadow_search.") and metric.split(".")[1] in (
            "candidate_steps", "candidate_steps_per_s", "net_bytes", "scan"):
        return SEARCHES
    if metric == "cli.self_s":
        return tuple(f"cli.{c}" for c in CLI_SUBCOMMANDS)
    return (metric[:-2] if metric.endswith(".s") else metric.rsplit(".", 1)[0],)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._open = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.uncounted: set[str] = set()

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None,
               "nested": self._open[name] > 0, "counts": {}}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        self._open[name] += 1
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()

    def _wrap(self, fn, name: str, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counts is not None:
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        rec["counts"] = counts(bound.arguments, result)
                    except (AttributeError, KeyError, TypeError, OSError):
                        # The function's signature or result changed shape:
                        # its counts are reported absent, the call goes on.
                        self.uncounted.add(name)
            return result
        return traced

    def install(self) -> None:
        """Wrap every traced function that exists; names that do not are skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "shadowlab" or n.startswith("shadowlab."))]
        for module_name, attr, name, counts in TRACED:
            module = sys.modules.get(f"shadowlab.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, counts)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
            self.installed.add(name)
        word = getattr(sys.modules.get("shadowlab.dynamics"), "Word", None)
        if word is not None and "symbols" in vars(word):
            original = vars(word)["symbols"]
            self._restore.append((word, "symbols", original))
            word.symbols = self._wrap(original, WORD_SYMBOLS, None)
            self.installed.add(WORD_SYMBOLS)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}) + "\n")

    def _durations(self) -> list[float]:
        """Span durations, scaled by the ``factor`` set on their top-level span."""
        factors: list[float] = []
        for r in self.spans:
            factors.append(r.get("factor", 1.0) if r["parent"] is None
                           else factors[r["parent"]])
        return [(r["end"] - r["start"]) * f for r, f in zip(self.spans, factors)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer sums over the outermost span of each name; absent when not installed."""
        durations = self._durations()
        child_s = [0.0] * len(self.spans)
        for rec, duration in zip(self.spans, durations):
            if rec["parent"] is not None:
                child_s[rec["parent"]] += duration
        seconds, self_s, counts = Counter(), Counter(), Counter()
        for i, rec in enumerate(self.spans):
            if rec["nested"]:
                continue
            seconds[rec["name"]] += durations[i]
            self_s[rec["name"]] += durations[i] - child_s[i]
            for key, value in rec["counts"].items():
                counts[key] = max(counts[key], value) if key in MAX_COUNTS else counts[key] + value

        present = self.installed | {f"cli.{c}" for c in CLI_SUBCOMMANDS}
        scan = sum(self_s[s] for s in SEARCHES)
        derived = {
            "shadow_search.scan.self_s": scan,
            "shadow_search.candidate_steps_per_s":
                counts["shadow_search.candidate_steps"] / scan if scan > 0 else 0.0,
            "cli.self_s": sum(self_s[f"cli.{c}"] for c in CLI_SUBCOMMANDS),
        }
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            sources = set(_sources(metric))
            if metric.startswith("trace.") or not present & sources:
                continue
            if sources & self.uncounted and LAYER_METRICS[metric] != "s":
                continue
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".s"):
                out[metric] = seconds[metric[:-2]]
            else:
                out[metric] = counts[metric]
        return out

    def cli_seconds(self) -> float:
        """Sum of all ``cli.*`` spans, scaled like ``layer_metrics``."""
        return sum(d for r, d in zip(self.spans, self._durations())
                   if r["name"].startswith("cli.") and not r["nested"])
