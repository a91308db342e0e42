"""gframe benchmark: CLI workloads timed end to end, plus an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: every command of a pass is a call of
``gframe.cli.main(argv)`` in this process, issued after the previous one
returned.  Inputs are generated from ``--seed`` (timed as ``setup_s``), one
untimed warm-up pass follows, then passes repeat until ``--seconds`` have
elapsed; ``pass_s`` adds up each command's median latency over the passes.
Every report is checked by the oracles in ``oracles.py``.  With
``--trace 1`` one more pass runs with gframe's public functions wrapped and
the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full report: per-command latency statistics, ``failed_ratio`` and
the environment record.
"""

from __future__ import annotations

import os

# One BLAS thread (never more than nproc), fixed before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import layers
import reference
from tracer import Tracer
from workloads import WORKLOADS, Context, fresh_start_seconds

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
MODULES = ("algebra", "cli", "frames", "generate", "hilbert", "measure", "reports",
           "sampling", "serialize", "stability", "theorems")


def import_gframe() -> SimpleNamespace:
    """Import gframe from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "gframe" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gframe sources under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"gframe.{name}") for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != src / "gframe":
        raise SystemExit(f"benchmark: imported gframe from {modules['cli'].__file__}")
    return SimpleNamespace(**modules)


# -- environment record ------------------------------------------------------

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
    }


# -- passes ------------------------------------------------------------------

class Tally:
    """Invocations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.oracles_checked = 0
        self.vacuous = []

    def record(self, cmd, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"metric": cmd.metric, "argv": cmd.argv, "problems": problems})


def _load_report(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    return doc if isinstance(doc, dict) else {}


class Clock:
    """Times calls in wall seconds and in reference-speed seconds.

    The reference kernel runs after every timed call; a call is scaled by
    the mean of the kernel times just before and just after it (see
    ``reference.py``).
    """

    def __init__(self):
        self.before = reference.measure()
        self.kernel_s = [self.before]

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> tuple:
        """(wall seconds, reference-speed seconds) since ``start``."""
        wall = time.perf_counter() - self._start
        after = reference.measure()
        self.kernel_s.append(after)
        scaled = reference.scale(wall, (self.before + after) / 2)
        self.before = after
        return wall, scaled


def run_pass(ctx, commands, tally, clock, self_check=False, tracer=None):
    """Run every command once; verify each report outside the timed call."""
    latencies, wall, bytes_out = [], [], 0
    for index, cmd in enumerate(commands):
        cmd.out.unlink(missing_ok=True)
        if tracer is not None:
            tracer.invocation = index
        problems = []
        clock.start()
        try:
            rc = ctx.cli.main(cmd.argv)
        except Exception as exc:  # a traceback is a failed invocation, not a benchmark crash
            rc = None
            problems.append(f"raised {exc!r}")
        seconds, scaled = clock.stop()
        wall.append(seconds)
        latencies.append(scaled)
        doc = _load_report(cmd.out)
        bytes_out += cmd.out.stat().st_size if cmd.out.exists() else 0
        problems += [p for oracle in cmd.oracles for p in oracle.problems(rc, doc)]
        tally.record(cmd, problems)
        if self_check:
            for oracle in cmd.oracles:
                tally.oracles_checked += 1
                if not oracle.corrupted().problems(rc, doc):
                    tally.vacuous.append(f"{cmd.metric}: {type(oracle).__name__}")
    return SimpleNamespace(latencies=latencies, wall=wall, pass_s=sum(latencies),
                           bytes_out=bytes_out)


def median_pass_seconds(passes, field="latencies") -> float:
    """Sum over the commands of a pass of each command's median latency.

    The host's speed drifts within a run, so one slow command would move a
    whole pass; a median per command is not moved by a few slow calls.
    """
    return sum(statistics.median(column)
               for column in zip(*(getattr(p, field) for p in passes)))


def _tail(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return {"p": p, "value": ordered[max(0, math.ceil(p / 100.0 * n) - 1)]}
    return None


def latency_report(commands, passes) -> dict:
    samples = {}
    for result in passes:
        for cmd, seconds in zip(commands, result.latencies):
            samples.setdefault(cmd.metric, []).append(seconds * 1e3)
    report = {}
    for metric, values in samples.items():
        report[metric] = {"median": statistics.median(values), "unit": "ms", "n": len(values),
                          "tail": _tail(values)}
    return report


# -- main ----------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser(description="gframe CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    gf = import_gframe()
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(cli=gf.cli, work=work, seed=args.seed, root=ROOT)

    clock = Clock()
    setup_times, setup_wall = [], []
    for _ in range(SETUP_REPEATS):
        clock.start()
        workload.setup(ctx)
        seconds, scaled = clock.stop()
        setup_wall.append(seconds)
        setup_times.append(scaled)
    commands = workload.commands(ctx)

    tally = Tally()
    run_pass(ctx, commands, tally, clock, self_check=True)  # warm-up, untimed
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(ctx, commands, tally, clock))
    pass_s = median_pass_seconds(passes)
    latency = latency_report(commands, passes)

    if args.trace:
        import_s = statistics.median(fresh_start_seconds(ROOT) for _ in range(IMPORT_REPEATS))
        tracer = Tracer(vars(gf).values())
        layers.install(tracer, gf)
        try:
            traced = run_pass(ctx, commands, tally, clock, tracer=tracer)
        finally:
            tracer.restore()
        tracer.write_spans(work / "spans.jsonl")
        values = layers.per_layer_metrics(tracer, traced.pass_s, pass_s, import_s,
                                          traced.bytes_out)
    else:
        values = {
            "pass_s": (pass_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {name: unit for name, (_, unit) in values.items()} != units:
        raise SystemExit("benchmark: metric names or units disagree with BENCHMARK.json")

    correct = tally.failed == 0 and tally.oracles_checked > 0 and not tally.vacuous
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "setup_s": setup_times, "setup_wall_s": setup_wall,
        "pass_wall_s": median_pass_seconds(passes, "wall"),
        "reference": {"seconds": reference.REF_SECONDS,
                      "median_s": statistics.median(clock.kernel_s)},
        "pass_latencies_ms": [[s * 1e3 for s in p.latencies] for p in passes],
        "latency": latency, "failed_ratio": tally.failed / tally.attempted,
        "problems": tally.problems, "oracles_self_checked": tally.oracles_checked,
        "vacuous_oracles": tally.vacuous, "environment": environment(),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
