"""Reproducible experiment front end.

Every subcommand reads one JSON config (``--config``; omitting it selects
the built-in unit-disk system), loaded and checked once by
``serialize.load_config``, emits deterministic JSON artifacts under
``--out``, and encodes failures in the exit status: 0 success, 2 config or
input-file error, 3 precondition-verdict rejection, 4 resource cap or out of
memory.

Three commands can also write a per-step curve as CSV (``CURVES``), only
under ``--curves``. Each curve is a function of the config and seed, or of
the input file, so a rerun with the flag rebuilds it; the JSON artifacts
are the same bytes with and without it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .cesaro import extract_null_set, verify_equivalence
from .concat import asymptotic_certificate, concatenate
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
    ExperimentConfig,
    config_error,
    dump_csv,
    dump_json,
    load_block_plan,
    load_config,
    load_orbit,
    load_sequence,
    save_orbit,
)
from .shadow_search import (
    RefinedSearchResult,
    SearchResult,
    average_shadow_search,
    m_alpha_shadow_search,
    refined_asymptotic_search,
)
from .surgery import block_length, repair


# The per-step curve each command writes under --curves.
CURVES = {"cesaro": "cesaro_means.csv", "example-disk": "example_disk.csv",
          "search": "search_curve.csv"}


def skipped_note(curves: bool, command: str) -> str:
    """What a printed line adds about its curve: nothing when --curves wrote it."""
    return "" if curves else f" ({CURVES[command]} not written: pass --curves)"


def numbered_rows(*columns: np.ndarray) -> list[tuple]:
    """CSV rows (n, columns[0][n-1], ...) for n = 1, 2, ..., as Python numbers."""
    return list(zip(range(1, len(columns[0]) + 1), *(c.tolist() for c in columns)))


def build_orbit(cfg: ExperimentConfig) -> PseudoOrbit:
    if len(cfg.corruption_indices) == 0:
        return true_orbit(cfg.family, cfg.word, cfg.start, cfg.horizon)
    return make_corrupted_orbit(cfg.family, cfg.word, cfg.start, cfg.corruption_indices,
                                cfg.jump, cfg.seed)


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


def cmd_classify(cfg: ExperimentConfig, out: Path) -> int:
    xi = load_orbit(cfg.classify_orbit or out / "orbit.json")
    verdicts = classify_all(xi, cfg)
    dump_json(verdicts, out / "classification.json")
    for name, v in verdicts.items():
        print(f"{name}: {'true' if v['verdict'] else 'false'}")
    return 0


def cmd_repair(cfg: ExperimentConfig, out: Path) -> int:
    xi = load_orbit(cfg.repair_orbit or out / "orbit.json")
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


def cmd_cesaro(cfg: ExperimentConfig, out: Path, curves: bool) -> int:
    if not cfg.cesaro_csv:
        raise config_error("required for the cesaro subcommand", "cesaro", "input_csv")
    a = load_sequence(cfg.cesaro_csv, cfg.cesaro_bound)
    if curves:
        dump_csv(numbered_rows(a.means), ["n", "cesaro_mean"], out / CURVES["cesaro"])
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
          f"{'true' if verdict else 'false'}{skipped_note(curves, 'cesaro')}")
    return 0


def cmd_concat(cfg: ExperimentConfig, out: Path) -> int:
    if not cfg.concat_manifest:
        raise config_error("required for the concat subcommand", "concat", "manifest")
    plan = load_block_plan(cfg.concat_manifest)
    maps = plan.blocks[0].family.m
    if cfg.word.m > maps:
        raise config_error(f"the word has {cfg.word.m} symbols, the blocks of plan manifest "
                           f"{cfg.concat_manifest} {maps} maps", "system", "word", "m")
    xi = concatenate(plan, cfg.word)
    save_orbit(xi, out / "concatenated.json")
    cert = asymptotic_certificate(xi, plan)
    dump_json(cert.to_dict(), out / "concat_certificate.json")
    print(f"concat: {len(plan.blocks)} blocks, horizon {xi.horizon}, "
          f"decomposition {'ok' if cert else 'BROKEN'}")
    return 0


def run_search(cfg: ExperimentConfig, mode: str,
               xi: PseudoOrbit) -> SearchResult | RefinedSearchResult:
    """The configured search of one mode ("average", "m-alpha" or "refined") on xi."""
    if mode == "average":
        return average_shadow_search(xi, cfg.epsilon, cfg.net_mesh, cfg.tail_fraction)
    if mode == "m-alpha":
        return m_alpha_shadow_search(xi, cfg.epsilon, cfg.alpha, cfg.net_mesh,
                                     cfg.tail_fraction)
    return refined_asymptotic_search(xi, cfg.epsilon, cfg.search_schedule, cfg.tail_fraction)


def cmd_search(cfg: ExperimentConfig, out: Path, curves: bool) -> int:
    xi = load_orbit(cfg.search_orbit) if cfg.search_orbit else build_orbit(cfg)
    result = run_search(cfg, cfg.search_mode, xi)
    dump_json(result.to_dict(), out / "search.json")
    if isinstance(result, RefinedSearchResult):
        outcome = "ok" if result.succeeded else f"failed at stage {result.failed_stage}"
        print(f"refined search: {outcome}")
        return 0
    if curves:
        dump_csv(numbered_rows(result.report.prefix_means), ["n", "prefix_mean"],
                 out / CURVES["search"])
    print(f"{cfg.search_mode} search: success={result.success}, "
          f"objective={result.params['scan_objective']:.6g}, net={result.net_size}"
          f"{skipped_note(curves, 'search')}")
    return 0


def cmd_example_disk(cfg: ExperimentConfig, out: Path, curves: bool) -> int:
    instance = make_decaying_instance(cfg.seed, cfg.horizon, scale=cfg.disk_scale,
                                      power=cfg.disk_power, start=cfg.disk_start)
    lhs, rhs, verdict = tracking_inequality_curve(instance)
    if curves:
        dump_csv(numbered_rows(lhs, rhs, instance.tracking_means()),
                 ["n", "lhs", "rhs", "mean"], out / CURVES["example-disk"])
    demo = aasp_demo(instance, cfg.tail_fraction, asymptotic_tol=cfg.tol)
    dump_json({"all_prefixes_bounded": verdict, "demo": demo}, out / "example_disk.json")
    print(f"example-disk: bound holds at every prefix: {verdict}"
          f"{skipped_note(curves, 'example-disk')}")
    return 0


def cmd_equivalence_suite(cfg: ExperimentConfig, out: Path) -> int:
    xi = build_orbit(cfg)
    save_orbit(xi, out / "orbit.json")
    original = classify_all(xi, cfg)
    result = repair(xi, cfg.delta, cfg.density_tol, cfg.tail_fraction)
    save_orbit(result.y, out / "repaired.json")
    repaired = classify_all(result.y, cfg)

    # Each row is what `search` writes for its mode on that orbit.
    searches = {
        "average_shadowing_on_repaired": run_search(cfg, "average", result.y).to_dict(),
        "mean_ergodic_shadowing_on_original": run_search(cfg, "average", xi).to_dict(),
        "m_alpha_shadowing_on_original": run_search(cfg, "m-alpha", xi).to_dict(),
        "asymptotic_shadowing_on_original": (
            run_search(cfg, "refined", xi).to_dict() if original["asymptotic_average"]["verdict"]
            else {"skipped": "input is not an asymptotic average pseudo-orbit"}),
    }

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
        epilog="Defaults: horizon 10000, tail_fraction 0.5; JSON artifacts only, per-step "
               "curves under --curves. Exit codes: 0 success, 2 config error, "
               "3 precondition rejection, 4 resource cap or out of memory.")
    parser.add_argument("command", choices=tuple(DISPATCH))
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (defaults to the built-in disk system)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--horizon", type=int, default=None, help="override config horizon")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--curves", action="store_true",
                        help="also write the per-step curve as CSV: " + ", ".join(
                            f"{name} ({command})" for command, name in CURVES.items())
                        + "; an output choice that changes no JSON artifact")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, horizon=args.horizon, out=args.out)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        curves = {"curves": args.curves} if args.command in CURVES else {}
        return DISPATCH[args.command](cfg, out, **curves)
    except PreconditionError as exc:
        print(f"precondition rejected: {exc} (witness: {exc.witness})", file=sys.stderr)
        return 3
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"resource cap exceeded: out of memory in {args.command}", file=sys.stderr)
        return 4
    except (ParameterError, RangeError, DomainError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
