"""Per-layer metrics: which package functions the traced run wraps, and how
the wrapped calls and the workloads' own spans become the named metrics in
BENCHMARK.json.

A metric whose calls a workload never makes reads 0 on that workload.
"""

from __future__ import annotations

from workloads import SWEEP_LEVELS

# (stats key, helfrich module, attribute) of every wrapped function.  Each is
# wrapped under every name that binds it in the package (see tracing.py).
TARGETS = (
    ("mesh.validate", "mesh", "validate"),
    ("mesh.with_positions", "mesh", "TriangleMesh.with_positions"),
    ("curvature.face_pass", "curvature", "_face_data"),
    ("variation.residual_values", "variation", "residual_values"),
    ("variation.mesh_energy", "variation", "mesh_energy"),
    ("variation.energy_gradient", "variation", "energy_gradient"),
    ("flow.flow_run", "flow", "flow_run"),
    ("analytic.variation_check", "analytic", "variation_check"),
    ("analytic.estimate_report", "analytic", "estimate_report"),
    ("analytic.identity_check", "analytic", "identity_check"),
    ("analytic.oracle_integrate", "analytic", "oracle_integrate"),
    ("classify.radius_scan", "classify", "radius_scan"),
    ("classify.classify_case", "classify", "classify_case"),
)

# metric prefix -> span key prefix, for the per-level spans of the workloads
LEVEL_SPANS = {
    "mesh.primitive_ms": "mesh.primitive",
    "mesh.halfedge_ms": "mesh.halfedge",
    "mesh.validate_ms": "mesh.validate",
    "curvature.bundle_ms": "curvature.bundle",
    "curvature.operator_ms": "curvature.operator",
    "energy.mesh_ms": "energy.mesh",
    "variation.residual_ms": "variation.residual",
    "variation.gradient_ms": "variation.gradient",
}

# metric -> key whose mean milliseconds per call it reports
MEAN_MS = {
    "mesh.refine_ms.L5": "mesh.refine.L5",
    "mesh.save_ms.L5": "mesh.save.L5",
    "mesh.load_ms.L5": "mesh.load.L5",
    "energy.oracle_ms": "energy.oracle",
    "variation.gradient_check_ms.L4": "variation.gradient_check.L4",
    "variation.oracle_residual_ms": "variation.oracle_residual",
    "analytic.variation_check_ms": "analytic.variation_check",
    "analytic.estimate_report_ms": "analytic.estimate_report",
    "analytic.identity_check_ms": "analytic.identity_check",
    "analytic.integrate_ms": "analytic.oracle_integrate",
    "classify.radius_scan_ms": "classify.radius_scan",
    "classify.classify_case_ms": "classify.classify_case",
    "cli.residual_ms.L5": "cli.residual.L5",
}

# metric -> key whose call count it reports
CALLS = {
    "mesh.validate_calls": "mesh.validate",
    "mesh.with_positions_calls": "mesh.with_positions",
    "curvature.face_pass_calls": "curvature.face_pass",
    "variation.residual_evals": "variation.residual_values",
    "variation.energy_calls": "variation.mesh_energy",
}

# metric -> key whose inclusive seconds it reports
SECONDS = {
    "mesh.validate_s": "mesh.validate",
    "variation.energy_s": "variation.mesh_energy",
    "variation.gradient_s": "variation.energy_gradient",
}


def layer_metrics(stats, counters):
    """Per-layer metric values of one traced pass.

    stats: key -> [calls, inclusive_s, self_s] from the tracer;
    counters: values the workload read off the program's results.
    """
    def get(key):
        return stats.get(key, (0, 0.0, 0.0))

    def mean_ms(key):
        calls, total, _ = get(key)
        return 1e3 * total / calls if calls else 0.0

    out = {}
    for metric, span in LEVEL_SPANS.items():
        for level in SWEEP_LEVELS:
            out[f"{metric}.L{level}"] = mean_ms(f"{span}.L{level}")
    out.update({metric: mean_ms(key) for metric, key in MEAN_MS.items()})
    out.update({metric: get(key)[0] for metric, key in CALLS.items()})
    out.update({metric: get(key)[1] for metric, key in SECONDS.items()})

    iterations = counters.get("flow.iterations", 0)
    _, flow_total, flow_self = get("flow.flow_run")
    out["flow.iterations"] = iterations
    out["flow.s_per_iteration"] = flow_total / iterations if iterations else 0.0
    out["flow.self_s"] = flow_self
    return out
