"""Reproducible experiment front end.

Every subcommand reads one JSON config (``--config``; omitting it selects
the built-in unit-disk system), emits deterministic JSON/CSV artifacts
under ``--out``, and encodes failures in the exit status: 0 success,
2 config error, 3 precondition-verdict rejection, 4 resource cap.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .cesaro import BoundedSequence, cesaro_means, extract_null_set, verify_equivalence
from .concat import BlockPlan, asymptotic_certificate, concatenate
from .density import IndexSet
from .disk_example import aasp_demo, make_decaying_instance, tracking_inequality_curve
from .errors import (
    DomainError,
    IntegrityError,
    ParameterError,
    PreconditionError,
    RangeError,
    ResourceCapError,
)
from .pseudo_orbits import (
    JumpRule,
    PseudoOrbit,
    is_asymptotic_average,
    is_average_pseudo_orbit,
    is_ergodic_pseudo_orbit,
    is_pseudo_orbit,
    is_weak_asymptotic_average,
    make_corrupted_orbit,
    true_orbit,
)
from .serialize import (
    CONFIG_SCHEMA,
    ExperimentConfig,
    check_corruption,
    dump_csv,
    dump_json,
    load_block_plan_manifest,
    load_config,
    load_orbit,
    save_orbit,
    validate_config,
)
from .shadow_search import (
    SearchResult,
    average_shadow_search,
    m_alpha_shadow_search,
    refined_asymptotic_search,
)
from .surgery import block_length, repair

SUBCOMMANDS = ("generate", "classify", "repair", "cesaro", "concat", "search",
               "example-disk", "equivalence-suite")


def default_config() -> ExperimentConfig:
    """Built-in unit-disk system (swap + halving, alternating word)."""
    return validate_config({
        "schema": CONFIG_SCHEMA,
        "system": {
            "space": {"kind": "unit-disk-2d"},
            "maps": [{"kind": "permutation", "perm": [1, 0]},
                     {"kind": "scale", "factors": [0.5, 0.5]}],
            "word": {"kind": "periodic", "m": 2, "pattern": [1, 2]},
            "start": [1.0, 0.0],
        },
    })


def corruption_index_set(cfg: ExperimentConfig) -> IndexSet:
    spec = cfg.corruption.get("indices", {"kind": "none"})
    kind = spec.get("kind", "none")
    H = cfg.horizon
    if kind == "none":
        return IndexSet.from_iterable([], H)
    if kind == "all":
        return IndexSet.from_iterable(range(H), H)
    if kind == "squares":
        return IndexSet.from_iterable((k * k for k in range(int(H**0.5) + 1) if k * k < H), H)
    if kind == "evens":
        return IndexSet.from_iterable(range(0, H, 2), H)
    if kind == "powers":
        base = int(spec.get("base", 2))
        vals, v = [], 1
        while v < H:
            vals.append(v)
            v *= base
        return IndexSet.from_iterable(vals, H)
    if kind == "explicit":
        return IndexSet.from_iterable(spec["indices"], H)
    if kind == "random":
        rng = np.random.default_rng(cfg.seed)
        mask = rng.random(H) < float(spec.get("density", 0.01))
        return IndexSet.from_mask(mask)
    raise ParameterError(f"config field 'corruption.indices.kind': unknown kind {kind!r}")


def build_orbit(cfg: ExperimentConfig) -> PseudoOrbit:
    family, word = cfg.family_and_word()
    indices = corruption_index_set(cfg)
    if len(indices) == 0:
        return true_orbit(family, word, cfg.start_point(), cfg.horizon)
    jump = JumpRule.from_spec(cfg.corruption.get("jump", {"kind": "uniform"}))
    return make_corrupted_orbit(family, word, cfg.start_point(), indices, jump, cfg.seed)


def report_to_dict(result: SearchResult) -> dict:
    rep = result.report
    return {
        "candidate": rep.candidate.tolist(),
        "net_index": rep.net_index,
        "limsup_estimate": rep.limsup_estimate,
        "hit_lower_density": rep.hit_lower_density,
        "hit_upper_density": rep.hit_upper_density,
        "hit_set": rep.hit_set.to_list(),
        "verdicts": rep.verdicts,
        "params": rep.params,
        "success": result.success,
        "objective": result.objective,
        "mesh": result.mesh,
        "net_size": result.net_size,
        "search_params": result.params,
    }


def write_curve(report, path: Path) -> None:
    rows = [(n + 1, float(v)) for n, v in enumerate(report.prefix_means)]
    dump_csv(rows, ["n", "prefix_mean"], path)


def classify_all(xi: PseudoOrbit, cfg: ExperimentConfig) -> dict:
    N = min(block_length(xi.family.space, cfg.delta), xi.horizon)
    checks = {
        "pseudo_orbit": is_pseudo_orbit(xi, cfg.delta),
        "ergodic_pseudo_orbit": is_ergodic_pseudo_orbit(
            xi, cfg.delta, cfg.density_tol, cfg.tail_fraction),
        "average_pseudo_orbit": is_average_pseudo_orbit(xi, cfg.delta, N),
        "weak_asymptotic_average": is_weak_asymptotic_average(xi, cfg.delta, cfg.tail_fraction),
        "asymptotic_average": is_asymptotic_average(xi, cfg.tol, cfg.tail_fraction),
    }
    return {name: v.to_dict() for name, v in checks.items()}


# ---------------------------------------------------------------------------
# Subcommands


def cmd_generate(cfg: ExperimentConfig, out: Path) -> int:
    xi = build_orbit(cfg)
    save_orbit(xi, out / "orbit.json")
    print(f"wrote {out / 'orbit.json'} (horizon {xi.horizon}, "
          f"max step error {float(xi.step_errors.max(initial=0.0)):.6g})")
    return 0


def _orbit_path(cfg: ExperimentConfig, section: str, out: Path) -> Path:
    configured = cfg.extra.get(section, {}).get("orbit")
    return Path(configured) if configured else out / "orbit.json"


def cmd_classify(cfg: ExperimentConfig, out: Path) -> int:
    # v1 key: both values run the exact window scan.
    scan = cfg.extra.get("classify", {}).get("scan", "full")
    if scan not in ("full", "sampled"):
        raise ParameterError(f"config field 'classify.scan': unknown scan mode {scan!r}")
    xi = load_orbit(_orbit_path(cfg, "classify", out))
    verdicts = classify_all(xi, cfg)
    dump_json(verdicts, out / "classification.json")
    for name, v in verdicts.items():
        print(f"{name}: {'true' if v['verdict'] else 'false'}")
    return 0


def cmd_repair(cfg: ExperimentConfig, out: Path) -> int:
    xi = load_orbit(_orbit_path(cfg, "repair", out))
    result = repair(xi, cfg.delta, cfg.density_tol, cfg.tail_fraction)
    save_orbit(result.y, out / "repaired.json")
    posterior = is_average_pseudo_orbit(result.y, cfg.delta, max(1, min(result.M, xi.horizon)))
    dump_json({
        "M": result.M,
        "delta": result.delta,
        "anchors": result.anchors.to_list(),
        "blocks": result.blocks.to_list(),
        "diff_set": result.diff_set.to_list(),
        "truncated_last_block": result.truncated_last_block,
        "average_verdict": posterior.to_dict(),
    }, out / "repair.json")
    print(f"repair: M={result.M}, anchors={len(result.anchors)}, "
          f"average verdict {'true' if posterior else 'false'}")
    return 0


def cmd_cesaro(cfg: ExperimentConfig, out: Path) -> int:
    section = cfg.extra.get("cesaro", {})
    csv_path = section.get("input_csv")
    if not csv_path:
        raise ParameterError("config field 'cesaro.input_csv': required for the cesaro subcommand")
    values = [float(line) for line in Path(csv_path).read_text().split() if line.strip()]
    a = BoundedSequence.from_values(values, section.get("bound"))
    means = cesaro_means(a)
    dump_csv([(n + 1, float(v)) for n, v in enumerate(means)], ["n", "cesaro_mean"],
             out / "cesaro_means.csv")
    extraction = extract_null_set(a, tail_fraction=cfg.tail_fraction)
    verdict = verify_equivalence(a, extraction.J, cfg.tol, cfg.tail_fraction)
    dump_json({
        "J": extraction.J.to_list(),
        "boundaries": extraction.boundaries,
        "stages": extraction.stages,
        "truncated_at_stage": extraction.truncated_at_stage,
        "params": extraction.params,
        "equivalence": verdict.to_dict(),
    }, out / "cesaro.json")
    print(f"cesaro: |J|={len(extraction.J)}, equivalence "
          f"{'true' if verdict else 'false'}")
    return 0


def cmd_concat(cfg: ExperimentConfig, out: Path) -> int:
    section = cfg.extra.get("concat", {})
    manifest = section.get("manifest")
    if not manifest:
        raise ParameterError("config field 'concat.manifest': required for the concat subcommand")
    block_paths, N_levels = load_block_plan_manifest(manifest)
    plan = BlockPlan(tuple(load_orbit(p) for p in block_paths), tuple(N_levels))
    _, word = cfg.family_and_word()
    xi = concatenate(plan, word)
    save_orbit(xi, out / "concatenated.json")
    cert = asymptotic_certificate(xi, plan)
    dump_json(cert.to_dict(), out / "concat_certificate.json")
    print(f"concat: {len(plan.blocks)} blocks, horizon {xi.horizon}, "
          f"decomposition {'ok' if cert else 'BROKEN'}")
    return 0


def cmd_search(cfg: ExperimentConfig, out: Path) -> int:
    section = cfg.extra.get("search", {})
    orbit_file = section.get("orbit")
    xi = load_orbit(orbit_file) if orbit_file else build_orbit(cfg)
    mode = section.get("mode", "average")
    if mode == "average":
        result = average_shadow_search(xi, cfg.epsilon, cfg.net_mesh, cfg.tail_fraction)
    elif mode == "m-alpha":
        result = m_alpha_shadow_search(xi, cfg.epsilon, cfg.alpha, cfg.net_mesh,
                                       cfg.tail_fraction)
    elif mode == "refined":
        levels = int(section.get("levels", 4))
        schedule = section.get("mesh_schedule") or [cfg.net_mesh / 2**i for i in range(levels)]
        refined = refined_asymptotic_search(xi, cfg.epsilon, levels, schedule,
                                            cfg.tail_fraction)
        dump_json({
            "candidate": refined.candidate.tolist(),
            "stages": refined.stages,
            "candidate_distances": refined.candidate_distances,
            "failed_stage": refined.failed_stage,
            "succeeded": refined.succeeded,
        }, out / "search.json")
        print(f"refined search: {'ok' if refined.succeeded else f'failed at stage {refined.failed_stage}'}")
        return 0
    else:
        raise ParameterError(f"config field 'search.mode': unknown mode {mode!r}")
    dump_json(report_to_dict(result), out / "search.json")
    write_curve(result.report, out / "search_curve.csv")
    print(f"{mode} search: success={result.success}, "
          f"objective={result.params['scan_objective']:.6g}, net={result.net_size}")
    return 0


def cmd_example_disk(cfg: ExperimentConfig, out: Path) -> int:
    section = cfg.extra.get("example_disk", {})
    instance = make_decaying_instance(
        cfg.seed, cfg.horizon,
        scale=float(section.get("scale", 1.0)),
        power=float(section.get("power", 2.0)),
        start=section.get("start"))
    lhs, rhs, verdict = tracking_inequality_curve(instance)
    ns = np.arange(1, len(lhs) + 1)
    rows = [(int(n), float(l), float(r), float(l / n)) for n, l, r in zip(ns, lhs, rhs)]
    dump_csv(rows, ["n", "lhs", "rhs", "mean"], out / "example_disk.csv")
    demo = aasp_demo(instance, cfg.tail_fraction, asymptotic_tol=cfg.tol)
    dump_json({"all_prefixes_bounded": verdict, "demo": demo}, out / "example_disk.json")
    print(f"example-disk: bound holds at every prefix: {verdict}")
    return 0


def cmd_equivalence_suite(cfg: ExperimentConfig, out: Path) -> int:
    xi = build_orbit(cfg)
    save_orbit(xi, out / "orbit.json")
    original = classify_all(xi, cfg)
    result = repair(xi, cfg.delta, cfg.density_tol, cfg.tail_fraction)
    save_orbit(result.y, out / "repaired.json")
    repaired = classify_all(result.y, cfg)

    searches = {}
    avg_on_repaired = average_shadow_search(result.y, cfg.epsilon, cfg.net_mesh,
                                            cfg.tail_fraction)
    searches["average_shadowing_on_repaired"] = report_to_dict(avg_on_repaired)
    mean_ergodic = average_shadow_search(xi, cfg.epsilon, cfg.net_mesh, cfg.tail_fraction)
    searches["mean_ergodic_shadowing_on_original"] = report_to_dict(mean_ergodic)
    m_alpha = m_alpha_shadow_search(xi, cfg.epsilon, cfg.alpha, cfg.net_mesh,
                                    cfg.tail_fraction)
    searches["m_alpha_shadowing_on_original"] = report_to_dict(m_alpha)
    if original["asymptotic_average"]["verdict"]:
        refined = refined_asymptotic_search(xi, cfg.epsilon, 3,
                                            [cfg.net_mesh, cfg.net_mesh / 2, cfg.net_mesh / 4],
                                            cfg.tail_fraction)
        searches["asymptotic_shadowing_on_original"] = {
            "stages": refined.stages, "failed_stage": refined.failed_stage,
            "succeeded": refined.succeeded}
    else:
        searches["asymptotic_shadowing_on_original"] = {
            "skipped": "input is not an asymptotic average pseudo-orbit"}

    matrix = {
        "params": {"delta": cfg.delta, "epsilon": cfg.epsilon, "alpha": cfg.alpha,
                   "tol": cfg.tol, "density_tol": cfg.density_tol,
                   "horizon": cfg.horizon, "tail_fraction": cfg.tail_fraction,
                   "net_mesh": cfg.net_mesh, "seed": cfg.seed},
        "original_classification": original,
        "repair": {"M": result.M, "anchors": len(result.anchors),
                   "diff_count": len(result.diff_set)},
        "repaired_classification": repaired,
        "searches": searches,
    }
    dump_json(matrix, out / "equivalence_matrix.json")
    print("equivalence-suite: wrote", out / "equivalence_matrix.json")
    return 0


DISPATCH = {
    "generate": cmd_generate,
    "classify": cmd_classify,
    "repair": cmd_repair,
    "cesaro": cmd_cesaro,
    "concat": cmd_concat,
    "search": cmd_search,
    "example-disk": cmd_example_disk,
    "equivalence-suite": cmd_equivalence_suite,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Pseudo-orbit laboratory: generate, classify, repair, and search.",
        epilog="Defaults: horizon 10000, tail_fraction 0.5. Exit codes: 0 success, "
               "2 config error, 3 precondition rejection, 4 resource cap.")
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (defaults to the built-in disk system)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--horizon", type=int, default=None, help="override config horizon")
    parser.add_argument("--out", type=Path, default=None, help="override output directory")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.horizon is not None:
        updates["horizon"] = args.horizon
    if args.out is not None:
        updates["out"] = str(args.out)
    if not updates:
        return cfg
    from dataclasses import replace
    new = replace(cfg, **updates)
    if new.seed < 0:
        raise ParameterError("config field 'seed': must be >= 0")
    if new.horizon < 10:
        raise ParameterError("config field 'horizon': must be >= 10")
    check_corruption(new.corruption, len(new.start_point()), new.horizon)
    return new


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        cfg = _apply_overrides(cfg, args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        return DISPATCH[args.command](cfg, out)
    except PreconditionError as exc:
        print(f"precondition rejected: {exc} (witness: {exc.witness})", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except (ParameterError, RangeError, DomainError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
