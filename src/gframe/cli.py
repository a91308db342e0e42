"""Batch command line front door.

Commands operate on system files, emit one JSON report document (stdout or
--out), and exit 0 when every check passed, 1 when a check failed, and 2 on
input or configuration errors.  Reports are deterministic given the inputs
and the seed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .errors import DomainError, GFrameError, InputError
from .frames import canonical_dual, multiplier_report, optimal_scalar_bounds
from .generate import random_system, unit_interval_system
from .hilbert import positive_part_checks
from .reports import FAIL, PASS
from .serialize import (
    _parse_int,
    dump_json,
    family_to_dict,
    load_json,
    load_system,
    operator_from_dict,
    operator_to_dict,
    system_to_dict,
)
from .stability import run_perturbation
from .theorems import THEOREM_IDS, _Draws, verify_theorem


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="gframe",
        description="Controlled operator-valued frame systems: bounds, duals, "
                    "theorem checks, perturbations.")
    parser.add_argument("--version", action="version", version=f"gframe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, samples=True):
        """--tol and --out, and --seed and --samples for the commands that read them."""
        p.add_argument("--tol", type=float, default=1e-9)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if samples:
            p.add_argument("--samples", type=int, default=200)
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    for name, text, seed, samples in (
            ("validate", "parse and structurally validate a system file", False, False),
            ("bounds", "optimal scalar frame bounds", False, False),
            ("frame-op", "frame operator with its spectral properties", False, False),
            ("dual", "canonical dual family with reconstruction residual", True, True),
            ("reconstruct", "reconstruction residuals on seeded unit vectors", True, True),
            ("multiplier", "multiplier norm bound and adjoint identity", True, False)):
        common(sub.add_parser(name, help=text), seed, samples).add_argument(
            "system", help="system JSON file")

    p_theorem = sub.add_parser("theorem", help="run one theorem row or the whole suite")
    p_theorem.add_argument("system", nargs="?", help="optional system file; otherwise seeded")
    p_theorem.add_argument("--id", required=True, dest="theorem_id",
                           help="theorem id or 'all'")
    p_theorem.add_argument("--aux", help="JSON file with named auxiliary operators")
    common(p_theorem)

    p_perturb = sub.add_parser("perturb", help="run a perturbation descriptor")
    p_perturb.add_argument("descriptor", help="JSON run descriptor")
    common(p_perturb, samples=False)

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


def _finish(args, config: dict, results, status: str) -> int:
    """Write the command's report; exit 0 when its status is pass and 1 otherwise."""
    _emit(_report(args.command, config, results, status), args.out)
    return 0 if status == PASS else 1


def _cmd_validate(args) -> int:
    system = load_system(args.system)
    results = {
        "algebra": {"kind": system.descriptor.kind, "dim": system.descriptor.dim},
        "module_rank": system.module_rank,
        "atoms": len(system.measure.labels),
        "controls_commute": system.controls.commute_each_other,
        "controls_commute_with_family": system.controls.commute_with_family,
        "frame_operator_norm": system.frame_operator.norm(),
        "round_trip": True,
    }
    return _finish(args, {"system": args.system, "tol": args.tol}, results, PASS)


def _cmd_bounds(args) -> int:
    system = load_system(args.system)
    bounds = optimal_scalar_bounds(system, args.tol)
    results = {
        "scalar_lower": bounds.scalar_lower,
        "scalar_upper": bounds.scalar_upper,
        "verdict": bounds.verdict,
    }
    return _finish(args, {"system": args.system, "tol": args.tol}, results,
                   PASS if bounds.is_frame else FAIL)


def _cmd_frame_op(args) -> int:
    system = load_system(args.system)
    s = system.frame_operator
    checks = positive_part_checks(s, args.tol)
    results = {"properties": checks, "operator": operator_to_dict(s)}
    good = checks["self_adjoint"] and checks["positive"] and checks["invertible"]
    return _finish(args, {"system": args.system, "tol": args.tol}, results,
                   PASS if good else FAIL)


def _cmd_dual(args) -> int:
    """``dual`` and ``reconstruct``: the canonical dual and its reconstruction residuals."""
    system = load_system(args.system)
    cert = canonical_dual(system, samples=args.samples, seed=args.seed,
                          tol=max(args.tol, 1e-8))
    results = {"operator_residual": cert.operator_residual}
    if args.command == "dual":
        results["reconstruction_residual"] = cert.reconstruction_residual
        results["dual_family"] = family_to_dict(cert.dual)
    else:
        results["samples"] = args.samples
        results["worst_relative_residual"] = cert.reconstruction_residual
    return _finish(args, {"system": args.system, "tol": args.tol, "seed": args.seed,
                          "samples": args.samples}, results, PASS if cert.passed else FAIL)


def _cmd_multiplier(args) -> int:
    system = load_system(args.system)
    labels = system.measure.labels
    # One draw of every real and imaginary part, in the order of one normal at a time.
    draws = np.random.default_rng(args.seed).standard_normal((len(labels), 2)).tolist()
    symbol = {}
    for label, (re, im) in zip(labels, draws):
        z = re + 1j * im
        symbol[label] = z / max(1.0, abs(z))
    rep = multiplier_report(symbol, system.stacked_family, system.stacked_family,
                            system.measure, tol=args.tol)
    results = {
        "symbol": {label: [z.real, z.imag] for label, z in symbol.items()},
        "op_norm": rep["op_norm"],
        "bound_product": rep["bound_product"],
        "bound_squared": rep["bound_squared"],
        "adjoint_swapped_residual": rep["adjoint_swapped_residual"],
        "adjoint_unswapped_residual": rep["adjoint_unswapped_residual"],
        "statement_form_matches": rep["statement_form_matches"],
    }
    return _finish(args, {"system": args.system, "tol": args.tol, "seed": args.seed}, results,
                   PASS if rep["passed"] else FAIL)


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
    draws = _Draws(args.seed)
    reports = [verify_theorem(tid, system, seed=args.seed, tol=args.tol,
                              samples=args.samples, aux=aux, draws=draws) for tid in ids]
    status = PASS if all(rep.status == PASS for rep in reports) else FAIL
    return _finish(args, {"system": args.system, "id": args.theorem_id, "tol": args.tol,
                          "seed": args.seed, "samples": args.samples},
                   [rep.to_dict() for rep in reports], status)


def _cmd_perturb(args) -> int:
    desc = load_json(args.descriptor)
    if not isinstance(desc, dict):
        raise InputError(f"{args.descriptor}: a perturbation descriptor must be a JSON object")
    try:
        kind = desc["kind"]
        paths = (desc["systemA"], desc["systemB"])
        seed = _parse_int(desc.get("seed", args.seed), "descriptor seed")
    except KeyError as exc:
        raise InputError(f"descriptor is missing {exc}") from exc
    if not all(isinstance(path, str) for path in paths):
        raise InputError("descriptor systemA and systemB must be file paths")
    params = desc.get("params", {})
    if not isinstance(params, dict):
        raise InputError("descriptor params must be a JSON object")
    sys_a, sys_b = (load_system(path) for path in paths)
    report = run_perturbation(kind, sys_a, sys_b, params, seed=seed, tol=args.tol)
    return _finish(args, {"descriptor": args.descriptor, "tol": args.tol, "seed": seed},
                   report.to_dict(), report.status)


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
    "reconstruct": _cmd_dual,
    "multiplier": _cmd_multiplier,
    "theorem": _cmd_theorem,
    "perturb": _cmd_perturb,
    "example": _cmd_example,
    "random": _cmd_random,
}


def _check_options(args) -> None:
    """Reject sample counts below one and tolerances that are not positive and finite."""
    if getattr(args, "samples", 1) < 1:
        raise InputError(f"samples must be >= 1, got {args.samples}")
    if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be positive and finite, got {args.tol}")


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore the caller's setting.

    No command creates reference cycles, so a pause defers no garbage.  Left
    running, the collector's full passes walk every object alive, which while
    a system file is read includes the whole decoded document.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run(args) -> int:
    """Run the command with the collector paused and numpy's overflow and
    invalid-value warnings raised as DomainErrors."""
    with _collector_paused(), np.errstate(over="raise", invalid="raise"):
        try:
            return _COMMANDS[args.command](args)
        except FloatingPointError as exc:
            message = f"arithmetic failed ({exc}): entries too large or not finite"
            raise DomainError(message) from exc


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_options(args)
        return _run(args)
    except (GFrameError, OSError) as exc:
        print(f"gframe: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
