"""Batch command line front door.

Commands operate on system files, emit one JSON report document (stdout or
--out), and exit 0 when every check passed, 1 when a check failed, and 2 on
input or configuration errors.  Reports are deterministic given the inputs
and the seed.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .errors import GFrameError, InputError
from .frames import canonical_dual, multiplier_report, optimal_scalar_bounds
from .generate import random_system, unit_interval_system
from .hilbert import positive_part_checks
from .reports import PASS
from .serialize import (
    dump_json,
    load_json,
    load_system,
    operator_from_dict,
    operator_to_dict,
    system_to_dict,
)
from .stability import run_perturbation
from .theorems import THEOREM_IDS, verify_theorem


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gframe",
        description="Controlled operator-valued frame systems: bounds, duals, "
                    "theorem checks, perturbations.")
    parser.add_argument("--version", action="version", version=f"gframe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_system=True):
        if with_system:
            p.add_argument("system", help="system JSON file")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--out", help="write the report here instead of stdout")

    common(sub.add_parser("validate", help="parse and structurally validate a system file"))
    common(sub.add_parser("bounds", help="optimal scalar frame bounds"))
    common(sub.add_parser("frame-op", help="frame operator with its spectral properties"))
    common(sub.add_parser("dual", help="canonical dual family with reconstruction residual"))
    common(sub.add_parser("reconstruct", help="reconstruction residuals on seeded unit vectors"))
    common(sub.add_parser("multiplier", help="multiplier norm bound and adjoint identity"))

    p_theorem = sub.add_parser("theorem", help="run one theorem row or the whole suite")
    p_theorem.add_argument("system", nargs="?", help="optional system file; otherwise seeded")
    p_theorem.add_argument("--id", required=True, dest="theorem_id",
                           help="theorem id or 'all'")
    p_theorem.add_argument("--aux", help="JSON file with named auxiliary operators")
    p_theorem.add_argument("--tol", type=float, default=1e-9)
    p_theorem.add_argument("--seed", type=int, default=0)
    p_theorem.add_argument("--samples", type=int, default=200)
    p_theorem.add_argument("--out")

    p_perturb = sub.add_parser("perturb", help="run a perturbation descriptor")
    p_perturb.add_argument("descriptor", help="JSON run descriptor")
    p_perturb.add_argument("--tol", type=float, default=1e-9)
    p_perturb.add_argument("--seed", type=int, default=0)
    p_perturb.add_argument("--samples", type=int, default=200)
    p_perturb.add_argument("--out")

    p_example = sub.add_parser("example", help="generate the unit-interval system")
    p_example.add_argument("--alpha", type=float, required=True)
    p_example.add_argument("--beta", type=float, required=True)
    p_example.add_argument("--rank", type=int, required=True)
    p_example.add_argument("--nodes", type=int, required=True)
    p_example.add_argument("--out")

    p_random = sub.add_parser("random", help="generate a seeded random system")
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--rank", type=int)
    p_random.add_argument("--atoms", type=int)
    p_random.add_argument("--algebra", choices=["matrix", "diagonal"])
    p_random.add_argument("--dim", type=int)
    p_random.add_argument("--non-commuting", action="store_true")
    p_random.add_argument("--out")
    return parser


def _emit(doc: dict, out_path) -> None:
    text = dump_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, config: dict, results, status: str) -> dict:
    return {
        "tool": {"name": "gframe", "version": __version__},
        "command": command,
        "config": config,
        "status": status,
        "results": results,
    }


def _cmd_validate(args) -> int:
    system = load_system(args.system)
    doc = system_to_dict(system)
    results = {
        "algebra": doc["algebra"],
        "module_rank": system.module_rank,
        "atoms": len(system.measure.labels),
        "controls_commute": system.controls.commute_each_other,
        "controls_commute_with_family": system.controls.commute_with_family,
        "frame_operator_norm": system.frame_operator.norm(),
        "round_trip": True,
    }
    _emit(_report("validate", {"system": args.system, "tol": args.tol}, results, PASS), args.out)
    return 0


def _cmd_bounds(args) -> int:
    system = load_system(args.system)
    bounds = optimal_scalar_bounds(system, args.tol)
    results = {
        "scalar_lower": bounds.scalar_lower,
        "scalar_upper": bounds.scalar_upper,
        "verdict": bounds.verdict,
    }
    status = PASS if bounds.is_frame else "fail"
    _emit(_report("bounds", {"system": args.system, "tol": args.tol}, results, status), args.out)
    return 0 if bounds.is_frame else 1


def _cmd_frame_op(args) -> int:
    system = load_system(args.system)
    s = system.frame_operator
    checks = positive_part_checks(s, args.tol)
    results = {"properties": checks, "operator": operator_to_dict(s)}
    good = checks["self_adjoint"] and checks["positive"] and checks["invertible"]
    _emit(_report("frame-op", {"system": args.system, "tol": args.tol}, results,
                  PASS if good else "fail"), args.out)
    return 0 if good else 1


def _cmd_dual(args) -> int:
    system = load_system(args.system)
    cert = canonical_dual(system, samples=args.samples, seed=args.seed,
                          tol=max(args.tol, 1e-8))
    results = {
        "reconstruction_residual": cert.reconstruction_residual,
        "operator_residual": cert.details["operator_residual"],
        "dual_family": {label: operator_to_dict(op) for label, op in cert.dual_family.items()},
    }
    _emit(_report("dual", {"system": args.system, "tol": args.tol, "seed": args.seed,
                           "samples": args.samples}, results,
                  PASS if cert.passed else "fail"), args.out)
    return 0 if cert.passed else 1


def _cmd_reconstruct(args) -> int:
    system = load_system(args.system)
    cert = canonical_dual(system, samples=args.samples, seed=args.seed,
                          tol=max(args.tol, 1e-8))
    results = {
        "samples": args.samples,
        "worst_relative_residual": cert.reconstruction_residual,
        "operator_residual": cert.details["operator_residual"],
    }
    _emit(_report("reconstruct", {"system": args.system, "tol": args.tol, "seed": args.seed,
                                  "samples": args.samples}, results,
                  PASS if cert.passed else "fail"), args.out)
    return 0 if cert.passed else 1


def _cmd_multiplier(args) -> int:
    system = load_system(args.system)
    rng = np.random.default_rng(args.seed)
    symbol = {}
    for label in system.measure.labels:
        z = rng.standard_normal() + 1j * rng.standard_normal()
        symbol[label] = z / max(1.0, abs(z))
    rep = multiplier_report(symbol, dict(system.family), dict(system.family),
                            system.measure, tol=args.tol)
    good = rep["norm_within_bound"] and rep["adjoint_swapped_residual"] <= args.tol * 100
    results = {
        "symbol": {label: [z.real, z.imag] for label, z in symbol.items()},
        "op_norm": rep["op_norm"],
        "bound_product": rep["bound_product"],
        "bound_squared": rep["bound_squared"],
        "adjoint_swapped_residual": rep["adjoint_swapped_residual"],
        "adjoint_unswapped_residual": rep["adjoint_unswapped_residual"],
        "statement_form_matches": rep["statement_form_matches"],
    }
    _emit(_report("multiplier", {"system": args.system, "tol": args.tol, "seed": args.seed},
                  results, PASS if good else "fail"), args.out)
    return 0 if good else 1


def _cmd_theorem(args) -> int:
    system = load_system(args.system) if args.system else None
    aux = None
    if args.aux:
        aux_doc = load_json(args.aux)
        if not isinstance(aux_doc, dict):
            raise InputError(f"{args.aux}: auxiliary operators must be a JSON object of operators")
        aux = {name: operator_from_dict(doc) for name, doc in aux_doc.items()}
    if args.theorem_id == "all":
        ids = sorted(THEOREM_IDS)
    elif args.theorem_id in THEOREM_IDS:
        ids = [args.theorem_id]
    else:
        raise InputError(f"unknown theorem id {args.theorem_id!r}")
    reports = [verify_theorem(tid, system, seed=args.seed, tol=args.tol,
                              samples=args.samples, aux=aux) for tid in ids]
    all_pass = all(rep.status == PASS for rep in reports)
    results = [rep.to_dict() for rep in reports]
    _emit(_report("theorem", {"system": args.system, "id": args.theorem_id, "tol": args.tol,
                              "seed": args.seed, "samples": args.samples}, results,
                  PASS if all_pass else "fail"), args.out)
    return 0 if all_pass else 1


def _cmd_perturb(args) -> int:
    desc = load_json(args.descriptor)
    if not isinstance(desc, dict):
        raise InputError(f"{args.descriptor}: a perturbation descriptor must be a JSON object")
    try:
        kind = desc["kind"]
        paths = (desc["systemA"], desc["systemB"])
        samples = int(desc.get("samples", args.samples))
        seed = int(desc.get("seed", args.seed))
    except KeyError as exc:
        raise InputError(f"descriptor is missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad perturbation descriptor: {exc}") from exc
    if not all(isinstance(path, str) for path in paths):
        raise InputError("descriptor systemA and systemB must be file paths")
    _check_samples(samples)
    params = desc.get("params", {})
    if not isinstance(params, dict):
        raise InputError("descriptor params must be a JSON object")
    sys_a, sys_b = (load_system(path) for path in paths)
    report = run_perturbation(kind, sys_a, sys_b, params,
                              samples=samples, seed=seed, tol=args.tol)
    _emit(_report("perturb", {"descriptor": args.descriptor, "tol": args.tol,
                              "seed": seed, "samples": samples},
                  report.to_dict(), report.status), args.out)
    return 0 if report.status == PASS else 1


def _cmd_example(args) -> int:
    system = unit_interval_system(args.alpha, args.beta, args.rank, args.nodes)
    _emit(system_to_dict(system), args.out)
    return 0


def _cmd_random(args) -> int:
    system = random_system(args.seed, rank=args.rank, atoms=args.atoms,
                           algebra=args.algebra, dim=args.dim,
                           commuting=not args.non_commuting)
    _emit(system_to_dict(system), args.out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "bounds": _cmd_bounds,
    "frame-op": _cmd_frame_op,
    "dual": _cmd_dual,
    "reconstruct": _cmd_reconstruct,
    "multiplier": _cmd_multiplier,
    "theorem": _cmd_theorem,
    "perturb": _cmd_perturb,
    "example": _cmd_example,
    "random": _cmd_random,
}


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")


def _check_options(args) -> None:
    """Reject sample counts below one and tolerances that are not positive and finite."""
    if hasattr(args, "samples"):
        _check_samples(args.samples)
    if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be positive and finite, got {args.tol}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_options(args)
        return _COMMANDS[args.command](args)
    except GFrameError as exc:
        print(f"gframe: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gframe: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
