"""Descent engines over closed meshes: Armijo-backtracking energy descent and
residual-norm descent, plus best-fit-sphere diagnostics used to classify flow
endpoints geometrically.

Residual descent is the workhorse for reproducing the sphere branch of the
critical-point classification: along the sphere family the penalized energy
has a strict maximum at the critical radius, so energy descent flees it while
the squared-residual objective has its global minimum 0 there.

The squared residual is a squared fourth-order operator, whose plain gradient
flow is hopelessly stiff (stable steps scale like the eighth power of the
mesh size).  The engine therefore takes damped Gauss-Newton directions built
from a finite-difference Jacobian of the residual field along vertex normals
(no exact adjoints of the discrete operators are assembled), and Armijo
backtracking on the true objective guards every step.  Inside the optimizer
the tracefree term uses the raw value H^2/2 - 2K without the reporting
clamp, which keeps the objective smooth; trace rows still report the
clamped-residual norms.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass

import numpy as np

from .curvature import curvature_bundle
# Not used here: bound so that the benchmark tracer, which wraps every module
# binding of the face pass (perfbench/tracing.py), keeps finding it in flow.
from .curvature import _face_data  # noqa: F401
from .energy import EnergyParams
from .errors import FitError, NumericalError, OperatorError, UnsupportedError
from .mesh import TriangleMesh, mesh_integrals, validate
from .variation import el_residual, energy_gradient, mesh_energy, residual_values

MODES = ("energy_descent", "residual_descent")
VERDICTS = ("converged", "max_iters", "degenerate_mesh")


@dataclass
class FlowConfig:
    mode: str = "energy_descent"
    initial_step: float = 0.02    # largest vertex displacement attempted first
    backtrack_factor: float = 0.5
    sufficient_decrease: float = 1e-4
    max_iterations: int = 200
    grad_tol: float = 1e-10
    step_tol: float = 1e-14      # on the attempted displacement
    log_every: int = 1
    fd_step_rel: float = 1e-5    # residual-Jacobian FD step, of bbox diagonal

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.initial_step > 0:
            raise ValueError("initial_step must be > 0")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must be in (0, 1)")
        if not 0.0 < self.sufficient_decrease < 1.0:
            raise ValueError("sufficient_decrease must be in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.grad_tol < 0 or self.step_tol < 0:
            raise ValueError("tolerances must be >= 0")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        if not self.fd_step_rel > 0:
            raise ValueError("fd_step_rel must be > 0")


@dataclass
class FlowRow:
    iteration: int
    objective: float
    energy: float
    area: float
    volume: float
    residual_l2: float
    residual_linf: float
    step_size: float
    accepted: bool
    fit_center: tuple
    fit_radius: float
    fit_rms: float

    CSV_FIELDS = ("iteration", "objective", "energy", "area", "volume",
                  "residual_l2", "residual_linf", "step_size", "accepted",
                  "fit_cx", "fit_cy", "fit_cz", "fit_radius", "fit_rms")

    def csv_row(self):
        return [self.iteration, repr(self.objective), repr(self.energy),
                repr(self.area), repr(self.volume), repr(self.residual_l2),
                repr(self.residual_linf), repr(self.step_size),
                int(self.accepted),
                repr(self.fit_center[0]), repr(self.fit_center[1]),
                repr(self.fit_center[2]), repr(self.fit_radius),
                repr(self.fit_rms)]


@dataclass
class FlowTrace:
    verdict: str
    iterations: int
    rows: list
    final_mesh: TriangleMesh
    wall_time: float
    config: FlowConfig
    params: EnergyParams
    message: str = ""

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(FlowRow.CSV_FIELDS)
            for row in self.rows:
                w.writerow(row.csv_row())

    def summary_dict(self):
        last = self.rows[-1]
        return {
            "verdict": self.verdict,
            "iterations": self.iterations,
            "message": self.message,
            "final_objective": last.objective,
            "final_energy": last.energy,
            "final_area": last.area,
            "final_volume": last.volume,
            "final_residual_l2": last.residual_l2,
            "fit_center": list(last.fit_center),
            "fit_radius": last.fit_radius,
            "fit_rms": last.fit_rms,
        }

    def write_json(self, path):
        payload = {"result": self.summary_dict(),
                   "meta": {"wall_time_s": self.wall_time}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _weighted_residual(bundle, params):
    """sqrt(area) * unclamped residual, so that its squared norm is the
    objective."""
    r = residual_values(bundle.laplace_mean_curvature, bundle.mean_curvature,
                        bundle.gauss_curvature, bundle.tracefree_raw, params)
    return np.sqrt(bundle.vertex_area) * r


def _residual_objective(mesh, params):
    rho = _weighted_residual(curvature_bundle(mesh), params)
    return float(rho @ rho)


class _ResidualEngine:
    """Damped Gauss-Newton steps on the squared-residual objective."""

    def __init__(self, params, config):
        self.params = params
        self.config = config
        self.mu = 1e-3

    def objective(self, mesh):
        return _residual_objective(mesh, self.params)

    def direction(self, mesh):
        def rho(positions):
            bundle = curvature_bundle(mesh.with_positions(positions))
            return _weighted_residual(bundle, self.params)

        bundle = curvature_bundle(mesh)
        rho0 = _weighted_residual(bundle, self.params)
        normals = bundle.normal
        V = mesh.n_vertices
        h = self.config.fd_step_rel * mesh.bbox_diagonal()
        base = mesh.vertices
        J = np.empty((V, V))
        for j in range(V):
            step = h * normals[j]
            plus = base.copy()
            plus[j] += step
            minus = base.copy()
            minus[j] -= step
            J[:, j] = (rho(plus) - rho(minus)) / (2.0 * h)
        g = 2.0 * (J.T @ rho0)
        JtJ = J.T @ J
        damp = self.mu * np.maximum(np.diag(JtJ), 1e-30)
        coeff = np.linalg.solve(JtJ + np.diag(damp), -(J.T @ rho0))
        slope = -float(g @ coeff)
        if slope <= 0.0:          # fall back to plain steepest descent
            coeff = -g
            slope = float(g @ g)
        return coeff[:, None] * normals, slope, float(np.linalg.norm(g))

    def feedback(self, backtracks):
        self.mu = min(self.mu * 3.0, 1e8) if backtracks else max(self.mu * 0.3, 1e-12)


class _EnergyEngine:
    """Steepest descent with the assembled normal gradient."""

    def __init__(self, params, config):
        self.params = params
        self.config = config

    def objective(self, mesh):
        return mesh_energy(mesh, self.params)

    def direction(self, mesh):
        G = energy_gradient(mesh, self.params, method="assembled")
        slope = float((G * G).sum())
        return -G, slope, float(np.sqrt(slope))

    def feedback(self, backtracks):
        pass


def flow_run(mesh: TriangleMesh, params: EnergyParams,
             config: FlowConfig) -> FlowTrace:
    """Armijo-backtracking descent on the configured objective.

    Every accepted step strictly decreases the objective.  Manifoldness and
    orientation are checked once on entry, since moving vertices cannot
    change connectivity; a trial step that collapses a face ends the run
    with the degenerate_mesh verdict and the last accepted mesh, rather than
    an exception.
    """
    config.validate()
    if not mesh.closed:
        raise UnsupportedError("flow_run needs a closed mesh")
    if not validate(mesh).ok:
        raise UnsupportedError("flow_run needs a validated mesh")

    engine = (_ResidualEngine if config.mode == "residual_descent"
              else _EnergyEngine)(params, config)

    t0 = time.perf_counter()
    rows = []
    verdict = "max_iters"
    message = "iteration cap reached"

    def record(m, it, obj, step_size, accepted):
        field = el_residual(m, params)
        try:
            center, radius, rms = best_fit_sphere(m)
        except FitError:
            center, radius, rms = (np.nan, np.nan, np.nan), np.nan, np.nan
        rows.append(FlowRow(
            iteration=it, objective=obj, energy=mesh_energy(m, params),
            area=float(field.areas.sum()),
            volume=mesh_integrals(m)["signed_volume"],
            residual_l2=field.l2, residual_linf=field.linf, step_size=step_size,
            accepted=accepted, fit_center=tuple(center), fit_radius=radius,
            fit_rms=rms))

    obj = engine.objective(mesh)
    if not np.isfinite(obj):
        raise NumericalError("non-finite objective at iteration 0")
    it = 0
    while it < config.max_iterations:
        direction, slope, grad_norm = engine.direction(mesh)
        if grad_norm <= config.grad_tol:
            verdict = "converged"
            message = f"gradient norm {grad_norm:.3e} at or below tolerance"
            record(mesh, it, obj, 0.0, False)
            break

        # Fresh line search each iteration, parametrized by the largest
        # vertex displacement; the first trial is the full model step when
        # that is already small enough.
        d_max = float(np.abs(direction).max())
        s_model = 1.0
        if d_max > config.initial_step:
            s_model = config.initial_step / d_max
        s = s_model
        accepted = False
        backtracks = 0
        while s * d_max > config.step_tol:
            trial = mesh.with_positions(mesh.vertices + s * direction)
            try:
                trial_obj = engine.objective(trial)
            except OperatorError as e:
                verdict = "degenerate_mesh"
                message = f"trial step: {e}"
                break
            if np.isfinite(trial_obj) and \
                    trial_obj <= obj - config.sufficient_decrease * s * slope:
                accepted = True
                break
            s *= config.backtrack_factor
            backtracks += 1
        if verdict == "degenerate_mesh":
            break
        if not accepted:
            verdict = "converged"
            message = "no acceptable step above the step tolerance"
            record(mesh, it, obj, 0.0, False)
            break
        engine.feedback(backtracks)

        mesh, obj = trial, trial_obj
        it += 1
        if it % config.log_every == 0 or it == config.max_iterations:
            record(mesh, it, obj, s * d_max, True)

    if not rows or rows[-1].iteration != it:
        record(mesh, it, obj, 0.0, False)
    return FlowTrace(verdict=verdict, iterations=it, rows=rows,
                     final_mesh=mesh, wall_time=time.perf_counter() - t0,
                     config=config, params=params, message=message)


def best_fit_sphere(source):
    """Least-squares sphere through mesh vertices (or an (N, 3) point array):
    algebraic fit refined by at most 10 Gauss-Newton steps.

    Returns (center, radius, rms radial deviation).  Coplanar input raises
    FitError, the plane-candidate signal.
    """
    pts = source.vertices if isinstance(source, TriangleMesh) else \
        np.asarray(source, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 4:
        raise FitError("need at least 4 points in 3D")
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(pts)
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 1e-12 * max(eigvals[-1], 1e-300):
        raise FitError("points are coplanar (plane candidate)")

    # Algebraic fit: |p|^2 = 2 <p, c> + (R^2 - |c|^2), linear in (c, d).
    A = np.column_stack([2.0 * pts, np.ones(len(pts))])
    b = (pts * pts).sum(axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    center = sol[:3]
    radius = float(np.sqrt(max(sol[3] + center @ center, 0.0)))

    for _ in range(10):
        diff = pts - center
        dist = np.maximum(np.linalg.norm(diff, axis=1), 1e-300)
        res = dist - radius
        J = np.column_stack([-diff / dist[:, None], -np.ones(len(pts))])
        try:
            delta, *_ = np.linalg.lstsq(J, -res, rcond=None)
        except np.linalg.LinAlgError:
            break
        center = center + delta[:3]
        radius = float(radius + delta[3])
        if np.linalg.norm(delta) < 1e-14 * max(radius, 1.0):
            break

    dist = np.linalg.norm(pts - center, axis=1)
    rms = float(np.sqrt(((dist - radius) ** 2).mean()))
    return center, radius, rms
