"""Descent engines and sphere-fit diagnostics."""

import numpy as np
import pytest

import helfrich as hf
from helfrich import flow
from helfrich.curvature import curvature_bundle
from helfrich.energy import EnergyParams
from helfrich.errors import FitError, OperatorError, UnsupportedError
from helfrich.flow import FlowConfig, best_fit_sphere, flow_run
from helfrich.variation import mesh_energy, residual_values


def test_config_validation():
    FlowConfig().validate()
    with pytest.raises(ValueError):
        FlowConfig(mode="newton").validate()
    with pytest.raises(ValueError):
        FlowConfig(backtrack_factor=1.0).validate()
    with pytest.raises(ValueError):
        FlowConfig(sufficient_decrease=0.0).validate()
    with pytest.raises(ValueError):
        FlowConfig(initial_step=-1.0).validate()
    with pytest.raises(ValueError):
        FlowConfig(max_iterations=0).validate()


def test_best_fit_sphere_exact():
    center, radius, rms = best_fit_sphere(hf.icosphere(2.0, 4))
    assert np.abs(center).max() < 1e-3
    assert abs(radius - 2.0) < 1e-3
    assert rms <= 1e-3


def test_best_fit_sphere_perturbed():
    center, radius, rms = best_fit_sphere(hf.perturbed_sphere(1.0, 0.05, 3))
    assert abs(radius - 1.0) / 1.0 < 0.05
    assert 0.0 < rms < 0.06


def test_best_fit_sphere_offset_points():
    rng = np.random.default_rng(5)
    n = rng.normal(size=(400, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    pts = np.array([1.0, -2.0, 0.5]) + 3.0 * n
    center, radius, rms = best_fit_sphere(pts)
    assert np.allclose(center, [1.0, -2.0, 0.5], atol=1e-10)
    assert radius == pytest.approx(3.0, abs=1e-10)
    assert rms < 1e-10


def test_best_fit_sphere_coplanar_raises():
    with pytest.raises(FitError, match="coplanar"):
        best_fit_sphere(hf.flat_patch((6, 6)))


def test_flow_requires_closed_mesh():
    with pytest.raises(UnsupportedError):
        flow_run(hf.flat_patch((4, 4)), EnergyParams(), FlowConfig())


def test_energy_descent_decreases_willmore():
    mesh = hf.perturbed_sphere(1.0, 0.05, 2)
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=50, log_every=1)
    tr = flow_run(mesh, EnergyParams(), cfg)
    objs = [r.objective for r in tr.rows if r.accepted]
    assert len(objs) >= 2
    assert all(b < a for a, b in zip(objs, objs[1:]))  # strict decrease


def test_line_search_sufficient_decrease_from_trace():
    mesh = hf.perturbed_sphere(1.0, 0.05, 2)
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=30, log_every=1)
    tr = flow_run(mesh, EnergyParams(), cfg)
    accepted = [r for r in tr.rows if r.accepted]
    assert accepted and all(r.step_size > 0 for r in accepted)


def test_shrinking_sphere_never_converges():
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=40, grad_tol=1e-13, log_every=1)
    tr = flow_run(hf.icosphere(1.0, 2), EnergyParams(0.0, 1.0, 0.0), cfg)
    assert tr.verdict in ("max_iters", "degenerate_mesh")
    areas = [r.area for r in tr.rows if r.accepted]
    assert all(b < a for a, b in zip(areas, areas[1:]))


def test_residual_descent_objective_nonincreasing_and_bounded():
    mesh = hf.perturbed_sphere(2.0, 0.05, 2)
    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=10, log_every=1)
    tr = flow_run(mesh, EnergyParams(0.0, 1.0, -1.0), cfg)
    objs = [r.objective for r in tr.rows]
    assert all(o >= 0.0 for o in objs)
    accepted = [r.objective for r in tr.rows if r.accepted]
    assert all(b < a for a, b in zip(accepted, accepted[1:]))


def test_residual_descent_small_case_reaches_sphere():
    mesh = hf.perturbed_sphere(2.0, 0.05, 2)
    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=25, grad_tol=1e-8, log_every=1)
    tr = flow_run(mesh, EnergyParams(0.0, 1.0, -1.0), cfg)
    last = tr.rows[-1]
    assert abs(last.fit_radius + 2 * 1.0 / (-1.0)) <= 0.02 * 2.0
    assert last.fit_rms <= 1e-3 * 2.0


def test_trace_files(tmp_path):
    mesh = hf.perturbed_sphere(1.0, 0.05, 2)
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=5, log_every=1)
    tr = flow_run(mesh, EnergyParams(), cfg)
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    tr.write_csv(csv_path)
    tr.write_json(json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("iteration,objective,energy")
    assert len(lines) >= 2
    import json
    payload = json.loads(json_path.read_text())
    assert payload["result"]["verdict"] in ("converged", "max_iters",
                                            "degenerate_mesh")
    assert "wall_time_s" in payload["meta"]


def test_residual_objective_uses_unclamped_tracefree():
    mesh = hf.perturbed_sphere(2.0, 0.05, 2)
    params = EnergyParams(0.0, 1.0, -1.0)
    b = curvature_bundle(mesh)
    assert b.clamp_count > 0       # the clamp would change the objective
    r = residual_values(b.laplace_mean_curvature, b.mean_curvature,
                        b.gauss_curvature, b.tracefree_raw, params)
    expected = float((b.vertex_area * r * r).sum())
    assert flow._residual_objective(mesh, params) == pytest.approx(expected, rel=1e-12)


def test_topology_checked_once_per_run(monkeypatch):
    calls = []
    real = flow.validate
    monkeypatch.setattr(flow, "validate", lambda m: calls.append(m) or real(m))
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=5, log_every=1)
    tr = flow_run(hf.perturbed_sphere(1.0, 0.05, 2), EnergyParams(), cfg)
    assert tr.iterations == 5
    assert len(calls) == 1


def test_degenerate_trial_step_ends_run(monkeypatch):
    """A trial step that collapses a face ends the run with the
    degenerate_mesh verdict on the last accepted mesh."""
    real = flow._EnergyEngine.objective
    trials = []

    def objective(self, mesh):
        trials.append(mesh)
        if len(trials) > 4:
            raise OperatorError("degenerate face 0")
        return real(self, mesh)

    monkeypatch.setattr(flow._EnergyEngine, "objective", objective)
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=50, log_every=1)
    tr = flow_run(hf.perturbed_sphere(1.0, 0.05, 2), EnergyParams(), cfg)
    assert tr.verdict == "degenerate_mesh"
    assert "degenerate face" in tr.message
    assert 0 < tr.iterations < 50
    assert tr.final_mesh is not trials[-1]
    last = tr.rows[-1]
    assert last.iteration == tr.iterations and last.accepted
    assert last.energy == mesh_energy(tr.final_mesh, EnergyParams())
