"""Batch command line front door.

Commands operate on system files, emit one JSON report document (stdout or
--out), and exit 0 when every check passed, 1 when a check failed, and 2 on
input or configuration errors.  Reports are deterministic given the inputs
and the seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import reprlib
import sys

import numpy as np

from . import __version__
from .errors import DomainError, GFrameError, InputError
from .frames import canonical_dual, multiplier_report, optimal_scalar_bounds
from .generate import random_system, unit_interval_system
from .hilbert import positive_part_checks
from .reports import FAIL, PASS
from .serialize import (
    collector_paused,
    dump_json,
    family_to_dict,
    load_json,
    load_system,
    operator_from_dict,
    operator_to_dict,
    system_to_dict,
)
from .stability import run_perturbation
from .theorems import THEOREM_IDS, _Draws, known_theorem_id, verify_theorem


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="gframe",
        description="Controlled operator-valued frame systems: bounds, duals, "
                    "theorem checks, perturbations.")
    parser.add_argument("--version", action="version", version=f"gframe {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        """--tol and --out, and --seed for the commands that read it."""
        p.add_argument("--tol", type=float, default=1e-9)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    for name, text in (
            ("validate", "parse and structurally validate a system file"),
            ("bounds", "optimal scalar frame bounds"),
            ("frame-op", "frame operator with its spectral properties"),
            ("dual", "canonical dual family with exact reconstruction residual ||R - I||"),
            ("reconstruct", "exact reconstruction residual ||R - I||"),
            ("multiplier", "multiplier norm bound and adjoint identity")):
        p = common(sub.add_parser(name, help=text), seed=name == "multiplier")
        p.add_argument("system", help="system JSON file")
        if name in ("dual", "reconstruct"):
            # Read by nothing; perfbench/workloads.py passes both until ROADMAP item 7.
            p.add_argument("--seed", type=int, default=0, help="ignored")
            p.add_argument("--samples", type=int, default=200, help="ignored")

    p_theorem = sub.add_parser("theorem", help="run one theorem row or the whole suite")
    p_theorem.add_argument("system", nargs="?", help="optional system file; otherwise seeded")
    p_theorem.add_argument("--id", required=True, dest="theorem_id",
                           help="theorem id or 'all'")
    p_theorem.add_argument("--aux", help="JSON file with named auxiliary operators")
    common(p_theorem)

    p_perturb = sub.add_parser("perturb", help="run a perturbation descriptor")
    p_perturb.add_argument("descriptor", help="JSON run descriptor")
    common(p_perturb, seed=False)

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


def _cmd_validate(system, args) -> tuple:
    results = {
        "algebra": {"kind": system.descriptor.kind, "dim": system.descriptor.dim},
        "module_rank": system.module_rank,
        "atoms": len(system.measure.labels),
        "controls_commute": system.controls.commute_each_other,
        "controls_commute_with_family": system.controls.commute_with_family,
        "frame_operator_norm": system.frame_operator.norm(),
        "round_trip": True,
    }
    return results, True


def _cmd_bounds(system, args) -> tuple:
    bounds = optimal_scalar_bounds(system, args.tol)
    results = {
        "scalar_lower": bounds.scalar_lower,
        "scalar_upper": bounds.scalar_upper,
        "verdict": bounds.verdict,
    }
    return results, bounds.is_frame


def _cmd_frame_op(system, args) -> tuple:
    s = system.frame_operator
    checks = positive_part_checks(s, args.tol)
    results = {"properties": checks, "operator": operator_to_dict(s)}
    return results, checks["self_adjoint"] and checks["positive"] and checks["invertible"]


def _cmd_dual(system, args) -> tuple:
    """``dual`` and ``reconstruct``: the canonical dual and its exact reconstruction residual."""
    cert = canonical_dual(system, tol=max(args.tol, 1e-8))
    results = {"operator_residual": cert.operator_residual}
    if args.command == "dual":
        results["dual_family"] = family_to_dict(cert.dual)
    return results, cert.passed


def _cmd_multiplier(system, args) -> tuple:
    labels = system.measure.labels
    # One draw of every real and imaginary part, in the order of one normal at
    # a time.  Each [re, im] row is divided by max(1, |z|) part by part, as
    # Python divides a complex by a float; numpy's complex division differs in
    # the last bit.
    pairs = np.random.default_rng(args.seed).standard_normal((len(labels), 2))
    pairs /= np.maximum(1.0, np.hypot(pairs[:, 0], pairs[:, 1]))[:, None]
    rep = multiplier_report(pairs.view(np.complex128)[:, 0], system.stacked_family,
                            system.stacked_family, system.measure, tol=args.tol)
    results = {
        "symbol": dict(zip(labels, pairs.tolist())),
        "op_norm": rep["op_norm"],
        "bound_product": rep["bound_product"],
        "bound_squared": rep["bound_squared"],
        "adjoint_swapped_residual": rep["adjoint_swapped_residual"],
        "adjoint_unswapped_residual": rep["adjoint_unswapped_residual"],
        "statement_form_matches": rep["statement_form_matches"],
    }
    return results, rep["passed"]


def _on_file(compute, args) -> int:
    """Run a file command: load the system, ``compute`` its (results, passed), and report."""
    results, passed = compute(load_system(args.system), args)
    config = {"system": args.system, "tol": args.tol}
    if args.command in _SEEDED:
        config["seed"] = args.seed
    return _finish(args, config, results, PASS if passed else FAIL)


def _cmd_theorem(args) -> int:
    # The ids are checked before any file is read.
    ids = sorted(THEOREM_IDS) if args.theorem_id == "all" else [known_theorem_id(args.theorem_id)]
    system = load_system(args.system) if args.system else None
    aux = None
    if args.aux:
        aux_doc = load_json(args.aux)
        if not isinstance(aux_doc, dict):
            raise InputError(f"{args.aux}: auxiliary operators must be a JSON object of operators")
        aux = {name: operator_from_dict(doc) for name, doc in aux_doc.items()}
    draws = _Draws(args.seed)
    reports = [verify_theorem(tid, system, seed=args.seed, tol=args.tol, aux=aux, draws=draws)
               for tid in ids]
    status = PASS if all(rep.status == PASS for rep in reports) else FAIL
    return _finish(args, {"system": args.system, "id": args.theorem_id, "tol": args.tol,
                          "seed": args.seed},
                   [rep.to_dict() for rep in reports], status)


# The keys a descriptor may have; samples and seed are read by nothing, but
# accepted so that descriptors written for earlier versions still run.
_DESCRIPTOR_KEYS = ("kind", "systemA", "systemB", "params", "samples", "seed")


def _cmd_perturb(args) -> int:
    desc = load_json(args.descriptor)
    if not isinstance(desc, dict):
        raise InputError(f"{args.descriptor}: a perturbation descriptor must be a JSON object")
    unknown = [key for key in desc if key not in _DESCRIPTOR_KEYS]
    if unknown:
        raise InputError(f"{args.descriptor}: unknown descriptor key {reprlib.repr(unknown[0])}")
    try:
        kind = desc["kind"]
        paths = (desc["systemA"], desc["systemB"])
    except KeyError as exc:
        raise InputError(f"descriptor is missing {exc}") from exc
    if not all(isinstance(path, str) for path in paths):
        raise InputError("descriptor systemA and systemB must be file paths")
    params = desc.get("params", {})
    if not isinstance(params, dict):
        raise InputError("descriptor params must be a JSON object")
    sys_a, sys_b = (load_system(path) for path in paths)
    report = run_perturbation(kind, sys_a, sys_b, params, tol=args.tol)
    return _finish(args, {"descriptor": args.descriptor, "tol": args.tol},
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
    "validate": functools.partial(_on_file, _cmd_validate),
    "bounds": functools.partial(_on_file, _cmd_bounds),
    "frame-op": functools.partial(_on_file, _cmd_frame_op),
    "dual": functools.partial(_on_file, _cmd_dual),
    "reconstruct": functools.partial(_on_file, _cmd_dual),
    "multiplier": functools.partial(_on_file, _cmd_multiplier),
    "theorem": _cmd_theorem,
    "perturb": _cmd_perturb,
    "example": _cmd_example,
    "random": _cmd_random,
}


# The commands that seed numpy's generator with --seed, which refuses a negative seed.
_SEEDED = ("multiplier", "theorem", "random")


def _check_options(args) -> None:
    """Reject tolerances that are not positive and finite, and a negative seed that is read."""
    if hasattr(args, "tol") and not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be positive and finite, got {args.tol}")
    if args.command in _SEEDED and args.seed < 0:
        raise InputError(f"--seed must be a non-negative integer, got {args.seed}")


def _run(args) -> int:
    """Run the command with the collector paused and numpy's overflow and
    invalid-value warnings raised as DomainErrors."""
    with collector_paused(), np.errstate(over="raise", invalid="raise"):
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
    except MemoryError as exc:
        print(f"gframe: error: out of memory ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
