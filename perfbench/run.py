"""shadowlab benchmark: one workload, end-to-end metrics, optionally a traced replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload disk-sweep --seed 1 --seconds 20 --trace 0

Every op goes through the public entry point ``shadowlab.cli.main(argv)``,
in this one process, with ``threads`` at its default of 1. Set-up imports
shadowlab from ``src/`` of the checkout, writes every op's inputs under
``.bench_work/`` from the seed, and runs one warm-up op. A run does
``max(MIN_OPS, seconds * nominal ops/s)`` ops, a count that depends only on
the arguments, so per-layer counts repeat exactly.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` also replays the
same ops, with the same seeds, under the wrapping tracer in ``spans.py``;
it prints the per-layer table, writes the spans to ``.bench_work/spans/``,
and counts as failed every op whose output files hash differently from the
untraced pass. The last line of standard output is one JSON object; the exit
status is 1 when any op failed and 2 when shadowlab cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# With fewer ops no percentile above the median has ten ops beyond it.
MIN_OPS = 30
TAIL_BEYOND = 10
# Set-up writes the inputs in this many equal parts, each timed on its own.
SETUP_PARTS = 3
# The host's speed drifts by tens of percent within a minute, and process CPU
# time drifts with it. So every timed interval is bracketed by a fixed
# calibration kernel and scaled to the speed at which that kernel takes
# REFERENCE_KERNEL_S. Raw seconds are printed beside every scaled figure.
REFERENCE_KERNEL_S = 0.007

END_TO_END = {"ops_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s", "setup_s": "s",
              "peak_rss_mib": "MiB", "pass_frac": "frac"}


def import_shadowlab():
    """Import shadowlab from this checkout's src/ and nowhere else."""
    if not (SRC / "shadowlab" / "__init__.py").is_file():
        raise ImportError(f"no shadowlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("shadowlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"shadowlab was imported from {cli.__file__}, not {SRC}")
    return cli


def kernel_seconds() -> float:
    """Three times the median of three runs of a fixed mix of interpreter,
    small-array numpy and JSON work; the median ignores a run that was
    preempted."""
    import numpy as np
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        P, acc = np.linspace(0.0, 1.0, 128).reshape(64, 2), 0.0
        for _ in range(67):
            P = P[:, [1, 0]] * 0.999
            acc += float(np.linalg.norm(P[0])) + sum(k * 0.5 for k in range(8))
        p = np.array([0.3, 0.4])
        for _ in range(200):
            p = p * 0.5 + 0.1
            acc += float(np.linalg.norm(p))
        rows = [[float(i), i * 0.5] for i in range(100)]
        for _ in range(3):
            rows = json.loads(json.dumps(rows))
        runs.append(time.perf_counter() - start)
    return 3 * statistics.median(runs)


class SpeedClock:
    """Scale factors to reference speed, one per interval between two kernel runs."""

    def __init__(self):
        self.before = kernel_seconds()

    def factor(self) -> float:
        """Factor for the interval that just ended; starts the next interval."""
        after = kernel_seconds()
        f = REFERENCE_KERNEL_S / ((self.before + after) / 2.0)
        self.before = after
        return f


def machine_info() -> dict:
    import numpy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(), "caches": caches}


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_op(op, main, clock: SpeedClock, tracer=None) -> dict:
    """Run one op's CLI calls, then its check; time both, raw and scaled.

    The clock's kernel runs after every CLI call and after the check, so
    each call is scaled by the speed measured right before and after it.
    Kernel time is not part of the op.
    """
    shutil.rmtree(op.out, ignore_errors=True)
    op.out.mkdir(parents=True)
    r = {"wall": 0.0, "scaled_wall": 0.0, "failures": [], "digest": None}
    log = io.StringIO()
    for argv in op.argvs:
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), span as rec:
                code = main(argv)
        except Exception:
            code = None
            r["failures"].append(f"`{argv[0]}` raised "
                                 + traceback.format_exc(limit=-3).strip())
        seconds = time.perf_counter() - start
        f = clock.factor()
        if rec is not None:
            rec["factor"] = f
        r["wall"] += seconds
        r["scaled_wall"] += seconds * f
        if code != 0:
            if code is not None:
                r["failures"].append(f"`{argv[0]}` exited with {code}")
            r["failures"].append("output: " + log.getvalue()[-500:].strip())
            break
    start = time.perf_counter()
    if not r["failures"]:
        try:
            r["failures"].extend(op.check(op.out))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            r["failures"].append(f"check could not read the outputs: {exc!r}")
        r["digest"] = output_digest(op.out)
    seconds = time.perf_counter() - start
    r["elapsed"] = r["wall"] + seconds
    r["scaled_elapsed"] = r["scaled_wall"] + seconds * clock.factor()
    return r


def run_pass(ops, main, clock: SpeedClock, tracer=None, expected=None) -> dict:
    """Run every op in order; failures include digests that differ from ``expected``.

    ``walls`` are the ops' CLI calls, ``elapsed`` sums whole ops including
    their checks; both come raw and scaled to reference speed.
    """
    p = {"walls": [], "scaled_walls": [], "digests": [], "failed": [],
         "elapsed": 0.0, "scaled_elapsed": 0.0}
    for op in ops:
        if tracer is not None:
            tracer.op = op.index
        r = run_op(op, main, clock, tracer)
        if expected is not None and r["digest"] is not None and r["digest"] != expected[op.index]:
            r["failures"].append("output files differ from the untraced pass")
        p["walls"].append(r["wall"])
        p["scaled_walls"].append(r["scaled_wall"])
        p["digests"].append(r["digest"])
        p["elapsed"] += r["elapsed"]
        p["scaled_elapsed"] += r["scaled_elapsed"]
        if r["failures"]:
            p["failed"].append((op.index, op.seed, r["failures"]))
    return p


def tail(walls: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND ops beyond it: (value, percentile)."""
    rank = len(walls) - TAIL_BEYOND
    return sorted(walls)[rank - 1], 100.0 * rank / len(walls)


def set_up(workload, seed: int, n_ops: int, main, clock: SpeedClock, work: Path) -> dict:
    """Write every op's inputs, in SETUP_PARTS parts timed on their own, then warm up.

    Each part's time, scaled up to all inputs, estimates the whole input
    set-up; the median of the parts is kept. The warm-up op is the last
    input, one seed past the timed ops.
    """
    from workloads import op_seed
    ops, parts, raw = [], [], 0.0
    bounds = [round(k * (n_ops + 1) / SETUP_PARTS) for k in range(SETUP_PARTS + 1)]
    clock.factor()
    for lo, hi in zip(bounds, bounds[1:]):
        scaled = 0.0
        for i in range(lo, hi):
            start = time.perf_counter()
            d = work / f"op{i:03d}"
            d.mkdir(parents=True)
            ops.append(workload.make_op(d, i, op_seed(seed, i)))
            seconds = time.perf_counter() - start
            raw += seconds
            scaled += seconds * clock.factor()
        parts.append(scaled * (n_ops + 1) / (hi - lo))
    *ops, warm = ops
    r = run_op(warm, main, clock)
    return {"ops": ops, "inputs_s": statistics.median(parts), "raw_inputs_s": raw,
            "warm_s": r["scaled_elapsed"], "raw_warm_s": r["elapsed"],
            "warm_failures": r["failures"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("disk-sweep", "file-pipeline", "net-search"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        cli = import_shadowlab()
    except ImportError as exc:
        print(f"error: cannot import shadowlab: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    clock = SpeedClock()
    scaled_import_s = import_s * REFERENCE_KERNEL_S / clock.before

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    n_ops = max(MIN_OPS, round(args.seconds * workload.nominal_ops_per_s))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    traced = tracer = None
    try:
        setup = set_up(workload, args.seed, n_ops, cli.main, clock, work)
        ops = setup["ops"]
        untraced = run_pass(ops, cli.main, clock)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(ops, cli.main, clock, tracer, expected=untraced["digests"])
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = [untraced] + ([traced] if traced else [])
    attempted = sum(len(p["walls"]) for p in passes) + 1
    failed = sum(len(p["failed"]) for p in passes) + bool(setup["warm_failures"])
    if setup["warm_failures"]:
        print("FAILED warm-up op: " + "; ".join(setup["warm_failures"]), file=sys.stderr)
    for p, label in zip(passes, ("untraced", "traced")):
        for index, seed, failures in p["failed"]:
            print(f"FAILED {label} op {index} (seed {seed}): " + "; ".join(failures),
                  file=sys.stderr)

    walls = untraced["scaled_walls"]
    passed = len(ops) - len(untraced["failed"])
    tail_s, tail_pct = tail(walls)
    raw_tail_s, _ = tail(untraced["walls"])
    e2e = {"ops_per_s": passed / untraced["scaled_elapsed"],
           "op_s.p50": statistics.median(walls),
           "op_s.tail": tail_s,
           "setup_s": scaled_import_s + setup["inputs_s"] + setup["warm_s"],
           "peak_rss_mib": peak_rss_mib,
           "pass_frac": passed / len(ops)}
    raw_setup_s = import_s + setup["raw_inputs_s"] + setup["raw_warm_s"]
    notes = {"ops_per_s": f"{passed} passed ops; raw {passed / untraced['elapsed']:.4g}",
             "op_s.p50": f"{len(walls)} ops; raw {statistics.median(untraced['walls']):.4g}",
             "op_s.tail": f"p{tail_pct:.4g}, {len(walls)} ops, {TAIL_BEYOND} beyond; "
                          f"raw {raw_tail_s:.4g}",
             "setup_s": f"import + inputs (median of {SETUP_PARTS} parts) + warm-up op; "
                        f"raw {raw_setup_s:.4g}",
             "peak_rss_mib": "ru_maxrss of this process",
             "pass_frac": f"fail_frac {len(untraced['failed']) / len(ops):.4g}"}

    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"workload {workload.name}, seed {args.seed}: {len(ops)} ops; "
          f"{workload.__doc__.splitlines()[0]}")
    print(f"times in seconds at the speed where the calibration kernel takes "
          f"{REFERENCE_KERNEL_S * 1e3:g} ms (this run: raw/scaled "
          f"{untraced['elapsed'] / untraced['scaled_elapsed']:.4g}):")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {e2e[name]:>14.6g} {unit:<5} {notes[name]}")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if traced:
        from spans import LAYER_METRICS
        layers = tracer.layer_metrics()
        overhead = traced["scaled_elapsed"] / untraced["scaled_elapsed"] - 1.0
        layers["trace.overhead_frac"] = overhead
        layers["trace.cli_accounted_frac"] = (
            tracer.cli_seconds() / (sum(walls) * (1.0 + overhead)))
        spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"per-layer metrics over {len(ops)} traced ops (spans in {spans_path}):")
        for name, unit in LAYER_METRICS.items():
            value = f"{layers[name]:>14.6g}" if name in layers else f"{'absent':>14}"
            print(f"  {name:<46} {value} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items() if name in layers}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
