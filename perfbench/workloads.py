"""The four benchmark workloads: their inputs, command lists and oracles.

Inputs are made from the workload seed with the CLI's own ``random`` and
``example`` commands plus raw-JSON edits; this is the timed set-up.  The
command list of one pass and the expected verdicts are built afterwards,
outside every timed region.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracles import (
    AllRows,
    AtMost,
    Close,
    Equal,
    OperatorClose,
    Status,
    frame_operator_flat,
    spectral_bounds,
)

SAMPLES = "50"
SUITE_SEEDS = 8
DENSE_RANK, DENSE_ATOMS = 16, 4
# Relative tolerance of the dense raw-numpy recomputation: it sums the atoms
# in another order than gframe does.
DENSE_REL = 1e-9
# Closed-form unit-interval example: alpha = 2, beta = 3 gives S = 2 diag(1/n^2).
QUAD_RANK, QUAD_NODES = 8, 1001
QUAD_REL = 1e-12
RESIDUAL_LIMIT = 1e-8
PERTURB_NOISE = 0.01
PERTURB_ATOMS = 32


@dataclass
class Command:
    """One CLI invocation of a pass, with the oracles for its report."""

    metric: str
    argv: list
    out: Path
    oracles: list


@dataclass
class Context:
    cli: object      # the gframe.cli module; main is looked up at call time
    work: Path       # the workload's scratch directory inside the checkout
    seed: int
    root: Path       # the checkout root, which holds src/gframe


def run_cli(ctx: Context, argv: list) -> None:
    rc = ctx.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"gframe {' '.join(argv)} exited {rc} during set-up")


def fresh_start_seconds(root: Path) -> float:
    """Wall time of ``python -m gframe.cli --version`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "gframe.cli", "--version"], cwd=root, env=env,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def _read(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _command(ctx: Context, metric: str, argv: list, oracles: list) -> Command:
    out = ctx.work / f"out-{metric}.json"
    return Command(metric, argv + ["--out", str(out)], out, [Status()] + oracles)


def _sampled(ctx: Context, metric: str, command: str, system: Path) -> Command:
    """dual/reconstruct: the exact operator residual must be tiny."""
    return _command(ctx, metric, [command, str(system), "--samples", SAMPLES,
                                  "--seed", str(ctx.seed)],
                    [AtMost("operator_residual", RESIDUAL_LIMIT)])


class Suite:
    name = "suite"
    why = ("theorem --id all over a fixed corpus of 8 theorem seeds: desk-scale rows stress "
           "theorems, generate, algebra and hilbert calls; bypasses serialize")

    def setup(self, ctx: Context) -> None:
        # No input files: set-up is starting the program in a fresh interpreter.
        fresh_start_seconds(ctx.root)

    def commands(self, ctx: Context) -> list:
        # Each theorem seed draws its own instance shapes, so a corpus that
        # moved with the workload seed would time a different amount of work
        # on every seed.  The corpus is fixed; the workload seed orders it.
        order = np.random.default_rng(ctx.seed).permutation(SUITE_SEEDS)
        return [_command(ctx, "theorem_ms", ["theorem", "--id", "all", "--seed", str(s)],
                         [AllRows()])
                for s in order]

class Dense:
    name = "dense"
    why = ("rank 16, M_4, 4 atoms (64x64 flat): few large blocks stress hilbert.compose, "
           "ControlPair.build, frame_operator and serialize; bypasses per-atom loops")

    def system(self, ctx: Context) -> Path:
        return ctx.work / "dense.json"

    def setup(self, ctx: Context) -> None:
        run_cli(ctx, ["random", "--seed", str(ctx.seed), "--rank", str(DENSE_RANK),
                      "--atoms", str(DENSE_ATOMS),
                      "--algebra", "matrix", "--dim", "4", "--out", str(self.system(ctx))])

    def commands(self, ctx: Context) -> list:
        path = self.system(ctx)
        doc = _read(path)
        flat_s = frame_operator_flat(doc)
        lower, upper = spectral_bounds(flat_s)
        sys_arg = [str(path)]
        return [
            _command(ctx, "validate_ms", ["validate"] + sys_arg, [
                Equal("module_rank", DENSE_RANK), Equal("atoms", DENSE_ATOMS),
                Equal("round_trip", True),
                Close("frame_operator_norm", np.linalg.norm(flat_s, 2), DENSE_REL)]),
            _command(ctx, "bounds_ms", ["bounds"] + sys_arg, [
                Equal("verdict", "frame"), Close("scalar_lower", lower, DENSE_REL),
                Close("scalar_upper", upper, DENSE_REL)]),
            _command(ctx, "frame_op_ms", ["frame-op"] + sys_arg,
                     [OperatorClose("operator", flat_s, DENSE_REL)]),
            _sampled(ctx, "dual_ms", "dual", path),
            _sampled(ctx, "reconstruct_ms", "reconstruct", path),
            _command(ctx, "multiplier_ms", ["multiplier"] + sys_arg + ["--seed", str(ctx.seed)],
                     []),
        ]


class Quadrature:
    name = "quadrature"
    why = ("C^8 with 1001 Simpson atoms: tiny diagonal blocks stress per-atom Python loops, "
           "object churn and 2-norms (multiplier); closed-form bounds are the oracle")

    def system(self, ctx: Context) -> Path:
        return ctx.work / "quadrature.json"

    def setup(self, ctx: Context) -> None:
        run_cli(ctx, ["example", "--alpha", "2", "--beta", "3", "--rank", str(QUAD_RANK),
                      "--nodes", str(QUAD_NODES), "--out", str(self.system(ctx))])

    def commands(self, ctx: Context) -> list:
        path = self.system(ctx)
        sys_arg = [str(path)]
        return [
            _command(ctx, "validate_ms", ["validate"] + sys_arg, [
                Equal("module_rank", 1), Equal("atoms", QUAD_NODES), Equal("round_trip", True),
                Close("frame_operator_norm", 2.0, QUAD_REL)]),
            _command(ctx, "bounds_ms", ["bounds"] + sys_arg, [
                Equal("verdict", "frame"),
                Close("scalar_lower", math.sqrt(2.0) / QUAD_RANK, QUAD_REL),
                Close("scalar_upper", math.sqrt(2.0), QUAD_REL)]),
            _sampled(ctx, "dual_ms", "dual", path),
            _command(ctx, "multiplier_ms", ["multiplier"] + sys_arg + ["--seed", str(ctx.seed)],
                     []),
        ]


def _noise_operator(op: dict, rng: np.random.Generator) -> dict:
    """Complex Gaussian operator of the same shape with spectral norm PERTURB_NOISE."""
    n, m = op["in_rank"], op["out_rank"]
    d = op["blocks"][0][0]["dim"]
    blocks = rng.standard_normal((n, m, d, d, 2))
    flat = (blocks[..., 0] + 1j * blocks[..., 1]).transpose(0, 2, 1, 3).reshape(n * d, m * d)
    blocks *= PERTURB_NOISE / np.linalg.norm(flat, 2)
    return {"in_rank": n, "out_rank": m, "blocks": [
        [{"kind": "matrix", "dim": d, "entries": blocks[i, j].reshape(-1, 2).tolist()}
         for j in range(m)] for i in range(n)]}


def _add_operators(a: dict, b: dict) -> dict:
    return {"in_rank": a["in_rank"], "out_rank": a["out_rank"], "blocks": [
        [dict(ea, entries=[[x[0] + y[0], x[1] + y[1]] for x, y in zip(ea["entries"], eb["entries"])])
         for ea, eb in zip(ra, rb)] for ra, rb in zip(a["blocks"], b["blocks"])]}


PERTURB_RUNS = (
    ("perturb.equivalence_ms", "equivalence_M", {}, "b"),
    ("perturb.weighted_ms", "weighted", {"lambda": 0.1, "mu": 0.1}, "b"),
    ("perturb.additive_ms", "additive", {"alpha": 0.05, "beta": 0.05}, "b"),
    ("perturb.sum_ms", "sum", {}, "noise"),
)


class Perturb:
    name = "perturb"
    why = ("rank 4, M_4, 32 atoms with C' = C, a 0.01 noisy copy and the noise alone: "
           "thousands of gram calls stress frames.gram, hilbert apply/inner and measure")

    def setup(self, ctx: Context) -> None:
        a_path = ctx.work / "a.json"
        run_cli(ctx, ["random", "--seed", str(ctx.seed), "--rank", "4",
                      "--atoms", str(PERTURB_ATOMS), "--algebra", "matrix", "--dim", "4",
                      "--out", str(a_path)])
        a = _read(a_path)
        a["controls"]["Cp"] = a["controls"]["C"]
        _write(a_path, a)
        rng = np.random.default_rng(ctx.seed)
        noise = {label: _noise_operator(op, rng) for label, op in a["family"].items()}
        b = dict(a, family={label: _add_operators(op, noise[label])
                            for label, op in a["family"].items()})
        _write(ctx.work / "b.json", b)
        _write(ctx.work / "noise.json", dict(a, family=noise))
        for metric, kind, params, other in PERTURB_RUNS:
            _write(ctx.work / f"{kind}.json", {
                "kind": kind, "params": params, "systemA": str(a_path),
                "systemB": str(ctx.work / f"{other}.json"), "samples": int(SAMPLES),
                "seed": ctx.seed})

    def commands(self, ctx: Context) -> list:
        return [_command(ctx, metric, ["perturb", str(ctx.work / f"{kind}.json")],
                         [Equal("status", "pass")])
                for metric, kind, _, _ in PERTURB_RUNS]


WORKLOADS = {w.name: w for w in (Suite(), Dense(), Quadrature(), Perturb())}
