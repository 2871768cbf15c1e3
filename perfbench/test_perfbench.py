"""Self-tests of the benchmark's input generators and tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from helfrich import curvature, flow, mesh  # noqa: E402
from helfrich.energy import EnergyParams  # noqa: E402


def test_one_seed_gives_bitwise_identical_inputs():
    for name, (setup, _) in workloads.WORKLOADS.items():
        first = workloads.fingerprint(setup(7, tracing.NullTracer()))
        again = workloads.fingerprint(setup(7, tracing.NullTracer()))
        other = workloads.fingerprint(setup(8, tracing.NullTracer()))
        assert first == again, name
        assert first != other, name


def test_rotation_is_proper():
    q = workloads.random_rotation(np.random.default_rng(3))
    assert np.allclose(q @ q.T, np.eye(3), atol=1e-14)
    assert np.isclose(np.linalg.det(q), 1.0)


def test_tracer_wraps_every_binding_and_restores():
    original = curvature._face_data
    tracer = tracing.Tracer()
    tracer.install(layers.TARGETS)
    try:
        assert flow._face_data is curvature._face_data is not original
        m = mesh.icosphere(1.0, 1)
        with tracer.span("outer"):
            flow._residual_objective(m, EnergyParams(0.0, 1.0, -1.0))
            curvature.curvature_bundle(m)
        stats = tracer.take()
    finally:
        tracer.uninstall()
    assert curvature._face_data is original and flow._face_data is original
    assert stats["curvature.face_pass"][0] == 2
    assert stats["variation.residual_values"][0] == 1
    calls, inclusive, self_s = stats["outer"]
    assert calls == 1 and 0.0 <= self_s <= inclusive
    assert tracer.absent == []


def test_missing_target_is_absent_not_an_error():
    tracer = tracing.Tracer()
    tracer.install([("gone", "mesh", "no_such_function"),
                    ("gone_method", "mesh", "TriangleMesh.no_such_method")])
    tracer.uninstall()
    assert tracer.absent == ["mesh.no_such_function",
                             "mesh.TriangleMesh.no_such_method"]


def test_layer_metrics_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"] for m in bench["per_layer"]}
    produced = set(layers.layer_metrics({}, {})) | {"bench.trace_overhead_s"}
    assert produced == declared


def test_gates_count_nan_as_failure():
    gates = workloads.Gates()
    gates.check("nan", abs(float("nan") - 1.0) <= 1.0)
    gates.check("ok", True)
    assert gates.attempted == 2 and gates.failures == ["nan"]
