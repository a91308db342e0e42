"""gframe's layers as the tracer sees them, and the per-layer metrics.

A layer is a gframe module.  ``TARGETS`` names the public functions wrapped
in each one; the hooks add the counters that need a call's arguments or
result.  ``per_layer_metrics`` turns one traced pass into the metrics named
in BENCHMARK.json.
"""

from __future__ import annotations

import os

LAYERS = ("cli", "serialize", "generate", "measure", "algebra", "hilbert", "frames",
          "stability", "theorems", "sampling")


def _compose_flops(counts, args, result):
    # Computed, not measured: 8 real flops per complex multiply-add of the
    # block einsum, d^3 of them per block product (d for the diagonal kind).
    s, t = args
    n, m, k = t.blocks.shape[0], t.blocks.shape[1], s.blocks.shape[1]
    d = s.descriptor.dim
    counts["hilbert.compose.flops"] += 8 * n * m * k * (d ** 3 if s.descriptor.kind == "matrix" else d)


def _flat_dim(counts, args, result):
    counts["hilbert.flat.max_dim"] = max(counts["hilbert.flat.max_dim"], *result.shape)


def _theorem_status(counts, args, result):
    counts[f"theorems.status.{result.status}"] += 1


def _bytes_in(counts, args, result):
    counts["serialize.bytes_in"] += os.path.getsize(args[0])


def install(tracer, gframe):
    """Wrap every target; ``gframe`` is a namespace of the imported modules."""
    g = gframe
    for module, attr, name, hook in (
        (g.cli, "main", "cli.main", None),
        (g.serialize, "load_system", "serialize.load_system", _bytes_in),
        (g.serialize, "system_from_dict", "serialize.system_from_dict", None),
        (g.serialize, "operator_to_dict", "serialize.operator_to_dict", None),
        (g.serialize, "dump_json", "serialize.dump_json", None),
        (g.generate, "random_system", "generate.random_system", None),
        (g.hilbert, "compose", "hilbert.compose", _compose_flops),
        (g.frames, "optimal_scalar_bounds", "frames.optimal_scalar_bounds", None),
        (g.frames, "check_frame", "frames.check_frame", None),
        (g.frames, "canonical_dual", "frames.canonical_dual", None),
        (g.frames, "reconstruction_operator", "frames.reconstruction_operator", None),
        (g.frames, "multiplier", "frames.multiplier", None),
        (g.frames, "bessel_constant", "frames.bessel_constant", None),
        (g.stability, "run_perturbation", "stability.run_perturbation", None),
        (g.theorems, "verify_theorem", "theorems.verify_theorem", _theorem_status),
        (g.sampling, "rand_vector", "sampling.rand_vector", None),
    ):
        tracer.function(module, attr, name, hook)
    element, operator = g.algebra.AlgebraElement, g.hilbert.AdjointableOperator
    for cls, attr, name, hook in (
        (g.measure.MeasureSpace, "integrate", "measure.integrate", None),
        (element, "norm", "algebra.norm", None),
        (element, "eigenvalues_hermitian", "algebra.eigenvalues_hermitian", None),
        (element, "sqrt_positive", "algebra.sqrt_positive", None),
        (element, "invert", "algebra.invert", None),
        (operator, "flat", "hilbert.flat", _flat_dim),
        (operator, "norm", "hilbert.norm", None),
        (operator, "eigenvalues_hermitian", "hilbert.eigenvalues_hermitian", None),
        (operator, "inverse", "hilbert.inverse", None),
        (operator, "sqrt_positive", "hilbert.sqrt_positive", None),
        (operator, "__call__", "hilbert.apply", None),
        (g.hilbert.ModuleVector, "inner", "hilbert.inner", None),
        (g.frames.ControlPair, "build", "frames.control_pair_build", None),
        (g.frames.GFrameSystem, "frame_operator", "frames.frame_operator", None),
        (g.frames.GFrameSystem, "gram", "frames.gram", None),
    ):
        tracer.method(cls, attr, name, hook)
    tracer.count_calls(element, "__post_init__", "algebra.elements_built")
    tracer.count_calls(operator, "__post_init__", "hilbert.operators_built")


def per_layer_metrics(tracer, traced_pass_s, untraced_pass_s, import_s, bytes_out):
    """Metric name -> (value, unit) for one traced pass."""
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (calls, self_s) in tracer.stats.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        layer_self[name.split(".")[0]] += self_s
    counts = tracer.counts
    compose_s = tracer.stats["hilbert.compose"][1]
    flops = counts["hilbert.compose.flops"]
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "serialize.bytes_in": (counts["serialize.bytes_in"], "B"),
        "serialize.bytes_out": (bytes_out, "B"),
        "algebra.elements_built": (counts["algebra.elements_built"], "count"),
        "hilbert.operators_built": (counts["hilbert.operators_built"], "count"),
        "hilbert.flat.max_dim": (counts["hilbert.flat.max_dim"], "count"),
        "hilbert.compose.flops": (flops, "flop"),
        "hilbert.compose.gflops": (flops / compose_s / 1e9 if compose_s > 0 else 0.0, "GFLOP/s"),
        "trace.overhead_ratio": (traced_pass_s / untraced_pass_s, "ratio"),
    })
    for status in ("pass", "not_applicable", "fail"):
        metrics[f"theorems.status.{status}"] = (counts[f"theorems.status.{status}"], "count")
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.share"] = (self_s / traced_pass_s, "ratio")
    return metrics
