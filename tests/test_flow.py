"""Descent engines and sphere-fit diagnostics."""

import json
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import helfrich as hf
from helfrich import flow
from helfrich.curvature import cotan_operator, curvature_bundle
from helfrich.energy import EnergyParams
from helfrich.errors import FitError, OperatorError, UnsupportedError
from helfrich.flow import FlowConfig, best_fit_sphere, flow_run
from helfrich.variation import energy_gradient, mesh_energy, residual_values

CRITICAL = EnergyParams(0.0, 1.0, -1.0)     # critical sphere radius 2


def test_config_validation():
    FlowConfig().validate()
    with pytest.raises(ValueError):
        FlowConfig(mode="newton").validate()
    with pytest.raises(ValueError):
        FlowConfig(initial_step=-1.0).validate()
    with pytest.raises(ValueError):
        FlowConfig(max_iterations=0).validate()
    for bad in ({"initial_step": np.inf}, {"initial_step": np.nan},
                {"grad_tol": np.nan}, {"grad_tol": np.inf}, {"grad_tol": -1.0},
                {"max_iterations": 2.5}, {"max_iterations": 3.0},
                {"log_every": 1.5}, {"log_every": 0},
                {"max_iterations": True}, {"log_every": True}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            FlowConfig(**bad).validate()
    FlowConfig(max_iterations=np.int64(3), log_every=np.int64(2)).validate()


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
    payload = json.loads(json_path.read_text())
    assert payload["result"]["verdict"] in ("converged", "stalled", "max_iters",
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
    objective, _ = flow._residual_objective(mesh, params)
    assert objective == pytest.approx(expected, rel=1e-12)


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


def _dense_fd_jacobian(mesh, params):
    """Reference: the weighted-residual Jacobian one column at a time by
    forward differences, one residual evaluation per vertex."""
    normals = curvature_bundle(mesh).normal
    h = flow.JACOBIAN_STEP_REL * mesh.bbox_diagonal()
    base = mesh.vertices

    def rho(positions):
        return flow._weighted_residual(
            curvature_bundle(mesh.with_positions(positions)), params)

    rho0 = rho(base)
    J = np.empty((mesh.n_vertices, mesh.n_vertices))
    for j in range(mesh.n_vertices):
        plus = base.copy()
        plus[j] += h * normals[j]
        J[:, j] = (rho(plus) - rho0) / h
    return J


def _jacobian(engine, mesh, normals):
    """The engine's Jacobian data at ``mesh``, from the weighted residual
    there."""
    rho0 = flow._weighted_residual(curvature_bundle(mesh), engine.params)
    return engine.jacobian(mesh, normals, rho0)


def _sparse_jacobian(engine, J):
    """The residual engine's Jacobian data J on its 2-ring pattern as a
    sparse CSC matrix."""
    V = len(engine.indptr) - 1
    return sp.csr_matrix((J, engine.indices, engine.indptr), shape=(V, V)).tocsc()


@pytest.mark.parametrize("level", [2, 3])
def test_colored_jacobian_equals_dense_fd_bitwise(level):
    mesh = hf.perturbed_sphere(2.0, 0.05, level)
    engine = flow._ResidualEngine(CRITICAL, mesh)
    J = _sparse_jacobian(engine, _jacobian(engine, mesh, curvature_bundle(mesh).normal))
    assert engine.evaluations == engine.n_colors
    assert np.array_equal(J.toarray(), _dense_fd_jacobian(mesh, CRITICAL))


@pytest.mark.parametrize("level, n_colors", [(2, 34), (3, 39)])
def test_jacobian_coloring_is_distance_4(level, n_colors):
    mesh = hf.perturbed_sphere(2.0, 0.05, level)
    _, _, colors = flow._jacobian_coloring(flow._Engine(CRITICAL, mesh).ring)
    assert colors.max() + 1 == n_colors
    nbrs = [set() for _ in range(mesh.n_vertices)]
    for a, b, c in mesh.faces.tolist():
        nbrs[a] |= {b, c}
        nbrs[b] |= {a, c}
        nbrs[c] |= {a, b}
    for v in range(mesh.n_vertices):        # breadth-first search, 4 edges deep
        seen, front = {v}, {v}
        for _ in range(4):
            front = {u for w in front for u in nbrs[w]} - seen
            seen |= front
        assert not (colors[sorted(seen - {v})] == colors[v]).any()


def test_residual_descent_radius_error_falls_under_refinement():
    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=40, grad_tol=1e-8, log_every=5)   # c7's
    errors = []
    for level in (2, 3, 4):
        tr = flow_run(hf.perturbed_sphere(2.0, 0.05, level), CRITICAL, cfg)
        assert tr.meta["stop_reason"] in ("grad_tol", "ftol")
        errors.append(abs(tr.rows[-1].fit_radius - 2.0) / 2.0)
    assert errors[2] < errors[1] < errors[0]


@pytest.mark.parametrize("mode", flow.MODES)
def test_summary_meta_counts_residual_evaluations(tmp_path, monkeypatch, mode):
    import helfrich.variation as variation

    calls = []

    def counted(*args):
        calls.append(1)
        return residual_values(*args)

    monkeypatch.setattr(flow, "residual_values", counted)
    monkeypatch.setattr(variation, "residual_values", counted)
    cfg = FlowConfig(mode=mode, max_iterations=3, log_every=1)
    mesh = hf.perturbed_sphere(2.0, 0.05, 1)
    tr = flow_run(mesh, CRITICAL, cfg)
    tr.write_json(tmp_path / "flow_summary.json")
    payload = json.loads((tmp_path / "flow_summary.json").read_text())
    meta = payload["meta"]
    assert meta["residual_evaluations"] == len(calls) > 0
    if mode == "residual_descent":
        _, _, colors = flow._jacobian_coloring(flow._Engine(CRITICAL, mesh).ring)
        assert meta["jacobian_colors"] == colors.max() + 1 == 21
    else:
        assert "jacobian_colors" not in meta
    assert set(payload["result"]) == set(tr.summary_dict())


@pytest.mark.parametrize("mode", flow.MODES)
def test_summary_meta_counts_objective_evaluations(tmp_path, monkeypatch, mode):
    engine = flow._ResidualEngine if mode == "residual_descent" else flow._EnergyEngine
    real = engine.objective
    calls = []
    monkeypatch.setattr(engine, "objective",
                        lambda self, m: calls.append(m) or real(self, m))
    cfg = FlowConfig(mode=mode, max_iterations=4, log_every=1)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 1), CRITICAL, cfg)
    tr.write_json(tmp_path / "flow_summary.json")
    meta = json.loads((tmp_path / "flow_summary.json").read_text())["meta"]
    assert meta["objective_evaluations"] == len(calls) > tr.iterations


def test_energy_direction_is_the_sobolev_gradient(monkeypatch):
    """The step's normal coefficient c solves (M + sigma K M^-1 K) c = -g,
    the slope is -g.c, and the reported norm is the L^2 gradient's; a
    direction runs no face pass: the curvature and K's edge weights come in
    the objective's bundle."""
    import helfrich.curvature as curvature

    mesh = hf.perturbed_sphere(2.0, 0.05, 2)
    engine = flow._EnergyEngine(EnergyParams(), mesh)
    _, bundle = engine.objective(mesh)
    passes = []
    real = curvature._face_data
    monkeypatch.setattr(curvature, "_face_data", lambda m: passes.append(m) or real(m))
    direction, slope, grad_norm = engine.direction(mesh, bundle)
    assert len(passes) == 0
    monkeypatch.undo()
    G = energy_gradient(mesh, EnergyParams())
    normals = curvature_bundle(mesh).normal
    g = (G * normals).sum(axis=1)
    c = (direction * normals).sum(axis=1)
    op = cotan_operator(mesh)
    K, M = op.stiffness.toarray(), op.mass
    sigma = flow.SOBOLEV_SIGMA0 * (M.sum() / (4.0 * np.pi)) ** 2
    metric = np.diag(M) + sigma * K @ np.diag(1.0 / M) @ K
    assert np.allclose(direction, c[:, None] * normals, rtol=0, atol=1e-15)
    assert np.allclose(metric @ c, -g, rtol=0, atol=1e-12 * np.abs(g).max())
    assert slope == pytest.approx(-float(g @ c), rel=1e-12) and slope > 0.0
    assert grad_norm == pytest.approx(float(np.linalg.norm(G)), rel=1e-12)


def test_line_search_first_trial_is_warm_started(monkeypatch):
    """Each iteration's first trial moves no vertex coordinate farther than
    initial_step or WARM_START_FACTOR x the last accepted displacement."""
    real_direction = flow._EnergyEngine.direction
    real_objective = flow._EnergyEngine.objective
    bases, firsts = [], []

    def direction(self, m, bundle):
        bases.append(m.vertices)
        return real_direction(self, m, bundle)

    def objective(self, m):
        if len(firsts) < len(bases):      # the first trial of this iteration
            firsts.append(m.vertices)
        return real_objective(self, m)

    monkeypatch.setattr(flow._EnergyEngine, "direction", direction)
    monkeypatch.setattr(flow._EnergyEngine, "objective", objective)
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=20, log_every=1)
    # Level 3: the flow takes 15 steps before its objective stops falling, so
    # 15 first trials are checked; the level-2 flow stalls after 9 or 10
    # steps by roundoff.
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 3), EnergyParams(), cfg)
    accepted = [r.step_size for r in tr.rows if r.accepted]
    assert len(accepted) == tr.iterations >= 10
    for k, (base, first) in enumerate(zip(bases, firsts)):
        cap = cfg.initial_step if k == 0 else \
            min(cfg.initial_step, flow.WARM_START_FACTOR * accepted[k - 1])
        roundoff = 4 * np.finfo(float).eps * np.abs(base).max()
        assert np.abs(first - base).max() <= cap + roundoff
    assert any(a < cfg.initial_step / flow.WARM_START_FACTOR for a in accepted)


def test_energy_descent_willmore_error_falls_under_refinement():
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05,
                     max_iterations=1500, grad_tol=1e-10, log_every=100)   # c7's
    errors = []
    for level in (2, 3, 4):
        tr = flow_run(hf.perturbed_sphere(2.0, 0.05, level), EnergyParams(), cfg)
        assert tr.verdict == "stalled"
        errors.append(abs(tr.rows[-1].energy - 4.0 * np.pi) / (4.0 * np.pi))
    assert errors[2] < errors[1] < errors[0]


@pytest.mark.parametrize("level", [2, 3])
def test_jacobian_stacks_its_face_passes(monkeypatch, level):
    """One perturbed mesh per color in ceil(C / rows) face passes, with rows
    = JACOBIAN_BLOCK_FACES // F, each on the engine's block mesh, and one
    residual evaluation per perturbed mesh."""
    import helfrich.curvature as curvature

    mesh = hf.perturbed_sphere(2.0, 0.05, level)
    engine = flow._ResidualEngine(CRITICAL, mesh)
    bundle = curvature_bundle(mesh)
    rho0 = flow._weighted_residual(bundle, CRITICAL)
    passes, copies = [], []
    real_pass = curvature._face_data
    real_copy = hf.TriangleMesh.with_positions
    monkeypatch.setattr(curvature, "_face_data",
                        lambda *args: passes.append(args) or real_pass(*args))
    monkeypatch.setattr(hf.TriangleMesh, "with_positions",
                        lambda self, v: copies.append(self) or real_copy(self, v))
    engine.jacobian(mesh, bundle.normal, rho0)
    n_rows = engine.n_colors
    rows = flow.JACOBIAN_BLOCK_FACES // mesh.n_faces
    assert rows == {2: 12, 3: 3}[level]
    assert len(passes) == -(-n_rows // rows)
    block_rows = engine.block.n_vertices // mesh.n_vertices
    assert all(args[0].n_vertices == engine.block.n_vertices for args in passes)
    assert n_rows <= len(passes) * block_rows < n_rows + len(passes)
    assert engine.evaluations == n_rows
    assert len(copies) == len(passes) and all(c is engine.block for c in copies)


def test_jacobian_builds_its_block_mesh_once(monkeypatch):
    """A residual flow constructs one mesh, its block mesh, however many
    Jacobians it builds."""
    real_init = hf.TriangleMesh.__init__
    built = []
    monkeypatch.setattr(hf.TriangleMesh, "__init__", lambda self, *args, **kw: (
        built.append(1) or real_init(self, *args, **kw)))
    mesh = hf.perturbed_sphere(2.0, 0.05, 2)
    built.clear()
    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=40, grad_tol=1e-8)
    tr = flow_run(mesh, CRITICAL, cfg)
    assert tr.meta["jacobian_builds"] >= 3
    assert len(built) == 1


@pytest.mark.parametrize("mode", flow.MODES)
def test_summary_meta_phase_times_add_up_to_wall_time(tmp_path, mode):
    cfg = FlowConfig(mode=mode, max_iterations=6, log_every=2)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 3), CRITICAL, cfg)
    tr.write_json(tmp_path / "flow_summary.json")
    meta = json.loads((tmp_path / "flow_summary.json").read_text())["meta"]
    phases = [meta[key] for key in flow.PHASES]
    assert all(p > 0.0 for p in phases)
    assert sum(phases) == pytest.approx(meta["wall_time_s"], rel=0.05)


@pytest.mark.parametrize("mode", flow.MODES)
def test_summary_meta_reports_engine_setup_outside_wall_time(tmp_path, monkeypatch, mode):
    """meta's setup_s covers the engine's construction (coloring, ordering,
    block mesh), which wall_time_s leaves out."""
    engine = flow._ResidualEngine if mode == "residual_descent" else flow._EnergyEngine
    real_init, inits = engine.__init__, []

    def timed_init(self, *args):
        t0 = time.perf_counter()
        real_init(self, *args)
        inits.append(time.perf_counter() - t0)

    monkeypatch.setattr(engine, "__init__", timed_init)
    cfg = FlowConfig(mode=mode, max_iterations=2, log_every=1)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 2), CRITICAL, cfg)
    tr.write_json(tmp_path / "flow_summary.json")
    meta = json.loads((tmp_path / "flow_summary.json").read_text())["meta"]
    assert len(inits) == 1
    assert inits[0] <= meta["setup_s"] == tr.meta["setup_s"]


def _sobolev_metric(mesh):
    op = cotan_operator(mesh)
    K, M = op.stiffness, op.mass
    sigma = flow.SOBOLEV_SIGMA0 * (M.sum() / (4.0 * np.pi)) ** 2
    # Sorted, each row of K M^-1 K sums over the middle vertex ascending.
    KM = K @ sp.diags(1.0 / M)
    KM.sort_indices()
    return sp.diags(M) + sigma * (KM @ K)


def _scatter_band(band, matrix):
    """Reference band: the lower band of a symmetric sparse matrix in the
    order of ``band`` (a flow._Band), scattered entry by entry from its COO
    form."""
    coo = matrix.tocoo()
    row, col = band.rank[coo.row], band.rank[coo.col]
    lower = row >= col
    offset, col = row[lower] - col[lower], col[lower]
    out = np.zeros((offset.max() + 1, len(band.order)), order="F")
    out[offset, col] = coo.data[lower]
    return out


def _sheared_sphere():
    """An icosphere flattened and sheared until its faces take the obtuse
    mixed-area fallback."""
    m = hf.icosphere(1.0, 3)
    v = m.vertices * [1.0, 1.0, 0.15]
    v[:, 0] += 0.7 * v[:, 1]
    return hf.TriangleMesh(v, m.faces)


@pytest.mark.parametrize("system, make", [
    *(("metric", lambda level=level: hf.perturbed_sphere(2.0, 0.05, level))
      for level in (1, 2, 3)),
    ("metric", _sheared_sphere),
    *(("normal", lambda level=level: hf.perturbed_sphere(2.0, 0.05, level))
      for level in (1, 2, 3)),
], ids=["metric_L1", "metric_L2", "metric_L3", "metric_sheared",
        "normal_L1", "normal_L2", "normal_L3"])
def test_band_assembly_matches_sparse_products_bitwise(monkeypatch, system, make):
    """The band a direction factors is bitwise the COO scatter of the scipy
    products: M + sigma K diag(1/M) K for energy descent, J^T J + mu D for
    residual descent, each entry summed over the middle index ascending."""
    mesh = make()
    bundle = curvature_bundle(mesh)
    assert (bundle.obtuse_faces > 0) == (make is _sheared_sphere)
    engine = (flow._EnergyEngine(EnergyParams(), mesh) if system == "metric"
              else flow._ResidualEngine(CRITICAL, mesh))
    bands = []
    real_step = flow._Engine.step
    monkeypatch.setattr(flow._Engine, "step", lambda self, band, *args: (
        bands.append(band.copy(order="F")) or real_step(self, band, *args)))
    engine.direction(mesh, bundle)
    if system == "metric":
        matrix = _sobolev_metric(mesh)
    else:
        J = _sparse_jacobian(engine, engine.normal_equations[0])
        JtJ = J.T @ J
        matrix = JtJ + sp.diags(engine.mu * np.maximum(JtJ.diagonal(), 1e-30))
    reference = _scatter_band(engine.band, matrix)
    assert len(bands) == 1 and bands[0].flags.f_contiguous
    assert bands[0].shape == reference.shape == (engine.band.width + 1, mesh.n_vertices)
    assert np.array_equal(bands[0], reference)


@pytest.mark.parametrize("system, level", [("metric", 2), ("metric", 3), ("metric", 4),
                                           ("normal", 2), ("normal", 3)])
def test_band_solve_matches_sparse_lu(system, level):
    """The band Cholesky solve agrees with SuperLU on the Sobolev metric and
    on the damped normal equations J^T J + mu D, whose patterns lie within
    2 and 4 rings, so within 2 and 4 times the adjacency's bandwidth."""
    mesh = hf.perturbed_sphere(2.0, 0.05, level)
    normals = curvature_bundle(mesh).normal
    if system == "metric":
        engine = flow._EnergyEngine(EnergyParams(), mesh)
        matrix = _sobolev_metric(mesh)
        rhs = -(energy_gradient(mesh, EnergyParams())
                * normals).sum(axis=1)
        rings = 2
    else:
        engine = flow._ResidualEngine(CRITICAL, mesh)
        J = _sparse_jacobian(engine, _jacobian(engine, mesh, normals))
        JtJ = J.T @ J
        matrix = JtJ + sp.diags(engine.mu * JtJ.diagonal())
        rhs = -(J.T @ flow._weighted_residual(curvature_bundle(mesh), CRITICAL))
        rings = 4
    adjacency, band = engine.ring, engine.band
    x = band.solve(_scatter_band(band, matrix), rhs)
    reference = splu(matrix.tocsc()).solve(rhs)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)
    edges = adjacency.tocoo()
    adjacency_width = np.abs(band.rank[edges.row] - band.rank[edges.col]).max()
    assert 0 < band.width <= rings * adjacency_width < mesh.n_vertices


@pytest.mark.parametrize("mode", flow.MODES)
def test_flow_orders_once_and_reports_its_bandwidth(monkeypatch, mode):
    """One reverse Cuthill-McKee ordering and one band object per flow, one
    band factorization per direction, and the widest band in meta."""
    orders, bands, widths = [], [], []
    real_order, real_band = flow.reverse_cuthill_mckee, flow.solveh_banded
    real_band_class = flow._Band

    def band(ab, b, **kwargs):
        widths.append(len(ab) - 1)
        return real_band(ab, b, **kwargs)

    monkeypatch.setattr(flow, "reverse_cuthill_mckee",
                        lambda *args, **kwargs: orders.append(1) or
                        real_order(*args, **kwargs))
    monkeypatch.setattr(flow, "solveh_banded", band)
    monkeypatch.setattr(flow, "_Band", lambda *args, **kwargs:
                        bands.append(1) or real_band_class(*args, **kwargs))
    cfg = FlowConfig(mode=mode, max_iterations=6, log_every=2)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 2), CRITICAL, cfg)
    assert len(orders) == len(bands) == 1
    assert len(widths) == tr.iterations + (tr.verdict != "max_iters")
    assert tr.meta["solve_bandwidth"] == max(widths) > 0


@pytest.mark.parametrize("mode", flow.MODES)
def test_failed_factorization_falls_back_to_steepest_descent(monkeypatch, mode):
    """A matrix that is not numerically positive definite gives the step
    -g nu with slope g.g, g the objective's gradient coefficient: bitwise for
    the g the engine passes to its step, and to roundoff for g computed
    here."""
    def not_positive_definite(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    mesh = hf.perturbed_sphere(2.0, 0.05, 2)
    normals = curvature_bundle(mesh).normal
    if mode == "residual_descent":
        engine = flow._ResidualEngine(CRITICAL, mesh)
        J = _sparse_jacobian(engine, _jacobian(engine, mesh, normals))
        g = 2.0 * (J.T @ flow._weighted_residual(curvature_bundle(mesh), CRITICAL))
    else:
        engine = flow._EnergyEngine(CRITICAL, mesh)
        g = (energy_gradient(mesh, CRITICAL) * normals).sum(axis=1)
    taken = []       # the gradient coefficient of each step
    real_step = flow._Engine.step
    monkeypatch.setattr(flow._Engine, "step", lambda self, *args: (
        taken.append(args[2]) or real_step(self, *args)))
    monkeypatch.setattr(flow, "solveh_banded", not_positive_definite)
    direction, slope, grad_norm = engine.direction(mesh, curvature_bundle(mesh))
    (g_taken,) = taken
    assert np.array_equal(direction, -g_taken[:, None] * normals)
    assert slope == float(g_taken @ g_taken) > 0.0
    scale = np.abs(g).max()
    assert np.allclose(direction, -g[:, None] * normals, rtol=0, atol=1e-12 * scale)
    assert slope == pytest.approx(float(g @ g), rel=1e-10)
    assert grad_norm == pytest.approx(float(np.linalg.norm(g)), rel=1e-10)


@pytest.mark.parametrize("mode", flow.MODES)
def test_flow_evaluates_each_iterate_once(monkeypatch, mode):
    """Every face pass of a flow is an objective evaluation or a block mesh
    of a Jacobian build (residual descent): directions and trace rows
    read the bundle the objective computed, and the last row equals the
    separate evaluations."""
    import helfrich.curvature as curvature
    from helfrich.variation import el_residual

    passes, directions = [], []
    real_pass = curvature._face_data
    monkeypatch.setattr(curvature, "_face_data",
                        lambda *args: passes.append(args[0].n_vertices) or real_pass(*args))
    real_step = flow._Engine.step      # one step per direction
    monkeypatch.setattr(flow._Engine, "step", lambda self, *args: (
        directions.append(1) or real_step(self, *args)))
    cfg = FlowConfig(mode=mode, max_iterations=4, log_every=1)
    mesh = hf.perturbed_sphere(2.0, 0.05, 1)
    tr = flow_run(mesh, CRITICAL, cfg)
    assert len(tr.rows) >= 4 and directions
    single = passes.count(mesh.n_vertices)
    stacked = len(passes) - single
    assert single == tr.meta["objective_evaluations"]
    if mode == "residual_descent":
        rows = flow.JACOBIAN_BLOCK_FACES // mesh.n_faces
        blocks = -(-tr.meta["jacobian_colors"] // rows)
        assert stacked == blocks * tr.meta["jacobian_builds"]
        assert 0 < tr.meta["jacobian_builds"] <= len(directions)
    else:
        assert stacked == 0
    monkeypatch.undo()
    field = el_residual(tr.final_mesh, CRITICAL)
    last = tr.rows[-1]
    assert last.energy == mesh_energy(tr.final_mesh, CRITICAL)
    assert (last.residual_l2, last.residual_linf) == (field.l2, field.linf)
    assert last.area == float(field.areas.sum())


def test_direction_on_kept_jacobian_solves_its_normal_equations(monkeypatch):
    """After a step that keeps J, the next direction evaluates rho and no
    face pass, and solves (J^T J + mu D) c = -J^T rho with the kept J and D
    the diagonal of J^T J, at the new iterate's rho and the new mu."""
    import helfrich.curvature as curvature

    mesh = hf.perturbed_sphere(2.0, 0.05, 2)
    engine = flow._ResidualEngine(CRITICAL, mesh)
    obj, bundle = engine.objective(mesh)
    engine.direction(mesh, bundle)
    fresh = flow._ResidualEngine(CRITICAL, mesh)
    J = _sparse_jacobian(fresh, _jacobian(fresh, mesh, bundle.normal)).toarray()
    moved = mesh.with_positions(mesh.vertices + 1e-3 * bundle.normal)
    _, moved_bundle = engine.objective(moved)
    engine.feedback(0, obj, flow.REUSE_CONTRACTION * obj)
    assert engine.stale
    evaluations, passes = engine.evaluations, []
    real_pass = curvature._face_data
    monkeypatch.setattr(curvature, "_face_data",
                        lambda *args: passes.append(args) or real_pass(*args))
    direction, slope, grad_norm = engine.direction(moved, moved_bundle)
    assert passes == [] and engine.evaluations == evaluations + 1
    assert engine.jacobian_builds == 1
    Jt_rho = J.T @ flow._weighted_residual(moved_bundle, CRITICAL)
    JtJ = J.T @ J
    matrix = JtJ + engine.mu * np.diag(np.maximum(np.diag(JtJ), 1e-30))
    c = (direction * moved_bundle.normal).sum(axis=1)
    scale = np.abs(matrix).max() * np.abs(c).max()
    assert np.abs(matrix @ c + Jt_rho).max() <= 1e-12 * scale
    assert slope == pytest.approx(-2.0 * float(Jt_rho @ c), rel=1e-12)
    assert grad_norm == pytest.approx(2.0 * float(np.linalg.norm(Jt_rho)), rel=1e-12)


def test_stale_jacobian_gradient_does_not_end_the_run(monkeypatch):
    """A gradient taken with a kept Jacobian that meets grad_tol is taken
    again with a fresh J at the same iterate, and only a fresh gradient ends
    the run converged.  Here every kept J is scaled by 1e-12, so every stale
    gradient meets grad_tol and no fresh one does until the flow gets there."""
    real_feedback = flow._ResidualEngine.feedback
    real_direction = flow._ResidualEngine.direction

    def keep_scaled(self, *args):
        J, band = self.normal_equations
        real_feedback(self, *args)
        self.normal_equations, self.stale = (1e-12 * J, band), True

    log = []       # (iterate, stale, gradient norm) per direction

    def direction(self, m, bundle):
        out = real_direction(self, m, bundle)
        log.append((m, self.stale, out[2]))
        return out

    monkeypatch.setattr(flow._ResidualEngine, "feedback", keep_scaled)
    monkeypatch.setattr(flow._ResidualEngine, "direction", direction)
    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=40, grad_tol=1e-8)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 1), CRITICAL, cfg)
    assert tr.verdict == "converged" and tr.iterations > 1
    stale = [k for k, (_, is_stale, _) in enumerate(log) if is_stale]
    assert len(stale) == tr.iterations
    assert all(log[k][2] <= cfg.grad_tol for k in stale)
    for k in stale:      # each followed by a fresh direction at the same iterate
        assert log[k + 1][0] is log[k][0] and not log[k + 1][1]
    fresh = [g for _, is_stale, g in log if not is_stale]
    assert tr.meta["jacobian_builds"] == len(fresh) == tr.iterations + 1
    assert fresh[-1] <= cfg.grad_tol < min(fresh[:-1])


@pytest.mark.parametrize("fresh_search_fails", [False, True])
def test_failed_line_search_on_stale_jacobian_rebuilds_it(monkeypatch, fresh_search_fails):
    """A line search that fails on a kept Jacobian rebuilds J at the same
    iterate and searches again; only a search on a fresh J ends the run
    stalled.  J is kept after every step without a backtrack, and every
    trial of the first iterate on a kept J (and, if fresh_search_fails, of
    its retry) is rejected."""
    monkeypatch.setattr(flow, "REUSE_CONTRACTION", np.inf)
    real_direction = flow._ResidualEngine.direction
    real_objective = flow._ResidualEngine.objective
    log, target = [], []     # (iterate, stale) per direction; the failing iterate

    def direction(self, m, bundle):
        out = real_direction(self, m, bundle)
        log.append((m, self.stale))
        return out

    def objective(self, m):
        obj, bundle = real_objective(self, m)
        if log and not target and log[-1][1]:
            target.append(log[-1][0])
        if target and log[-1][0] is target[0] and (log[-1][1] or fresh_search_fails):
            obj = np.inf
        return obj, bundle

    monkeypatch.setattr(flow._ResidualEngine, "direction", direction)
    monkeypatch.setattr(flow._ResidualEngine, "objective", objective)
    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=40, grad_tol=1e-8)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 1), CRITICAL, cfg)
    at_target = [is_stale for m, is_stale in log if m is target[0]]
    assert at_target == [True, False]
    assert tr.meta["jacobian_builds"] == sum(not is_stale for _, is_stale in log)
    if fresh_search_fails:
        assert tr.verdict == "stalled" and log[-1][0] is target[0]
    else:
        assert tr.verdict == "converged" and tr.final_mesh is not target[0]


@pytest.mark.parametrize("level, initial_step", [(1, 0.05), (1, 0.1), (3, 0.1)])
def test_step_on_kept_jacobian_that_backtracks_is_dropped(monkeypatch, level,
                                                          initial_step):
    """A step on a kept Jacobian is taken only if its first trial is
    accepted: a search on a kept J stops at a rejected first trial, the step
    is dropped, and J is built again at the same iterate.  Every accepted
    step reaches feedback, which sees the engine still stale when the step's
    J was a kept one.  On the level-1 flow from initial_step 0.05, the kept
    J of iterate 0 would otherwise take a step after 31 backtracks at
    iterate 5."""
    engine = flow._ResidualEngine
    real_feedback, real_direction, real_objective = \
        engine.feedback, engine.direction, engine.objective
    steps = []       # (stale, backtracks) per accepted step
    searches = []    # [stale, objective evaluations] per direction

    def feedback(self, backtracks, obj, trial_obj):
        steps.append((self.stale, backtracks))
        real_feedback(self, backtracks, obj, trial_obj)

    def direction(self, m, bundle):
        out = real_direction(self, m, bundle)
        searches.append([self.stale, 0])
        return out

    def objective(self, m):
        if searches:
            searches[-1][1] += 1
        return real_objective(self, m)

    monkeypatch.setattr(engine, "feedback", feedback)
    monkeypatch.setattr(engine, "direction", direction)
    monkeypatch.setattr(engine, "objective", objective)
    cfg = FlowConfig(mode="residual_descent", initial_step=initial_step,
                     max_iterations=40, grad_tol=1e-8, log_every=5)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, level), CRITICAL, cfg)
    assert len(steps) == tr.iterations
    assert any(stale for stale, _ in steps)
    assert not any(stale and backtracks for stale, backtracks in steps)
    assert all(n <= 1 for stale, n in searches if stale)
    assert tr.meta["objective_evaluations"] == 1 + sum(n for _, n in searches)


def test_ftol_on_kept_jacobian_rebuilds_it_before_the_run_ends(monkeypatch):
    """The ftol test ends a run only after a step on a Jacobian built at its
    own iterate.  A step on a kept J that meets it leaves the run going, and
    once such a step keeps nothing the next direction builds J.  With
    grad_tol 0 only the line search or the ftol test can end this run."""
    real_direction = flow._ResidualEngine.direction
    iterates = []      # [iterate, [stale per direction taken there]]

    def direction(self, m, bundle):
        out = real_direction(self, m, bundle)
        if not iterates or iterates[-1][0] is not m:
            iterates.append([m, []])
        iterates[-1][1].append(self.stale)
        return out

    monkeypatch.setattr(flow._ResidualEngine, "direction", direction)
    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=40, grad_tol=0.0)
    mesh = hf.perturbed_sphere(2.0, 0.05, 1)
    tr = flow_run(mesh, CRITICAL, cfg)
    assert (tr.verdict, tr.meta["stop_reason"]) == ("stalled", "ftol")
    n = tr.iterations
    rows = [r for r in tr.rows if r.accepted]
    assert [r.iteration for r in rows] == list(range(1, n + 1))
    f = [flow._residual_objective(mesh, CRITICAL)[0]] + [r.objective for r in rows]
    stale = [flags for _, flags in iterates]      # per iterate 0 .. n - 1
    assert len(stale) == n

    def fires(k):
        return k >= flow.FTOL_WINDOW and f[k - flow.FTOL_WINDOW] - f[k] <= \
            flow.FTOL * max(abs(f[k]), abs(f[0]))

    def keeps(k):        # step k kept J for the next direction
        return rows[k - 1].backtracks == 0 and f[k] <= flow.REUSE_CONTRACTION * f[k - 1]

    for k in range(1, n):
        assert stale[k][0] == keeps(k)
        assert not fires(k) or stale[k - 1][-1]
    on_kept = [k for k in range(1, n) if fires(k) and not keeps(k)]
    assert on_kept       # the test met on a kept J, and J was built again
    assert fires(n) and not stale[n - 1][-1]
    assert tr.meta["jacobian_builds"] == sum(not s for flags in stale for s in flags)


def _inf_after(engine, evaluations):
    """``engine``'s objective, reading inf from the given evaluation on."""
    real = engine.objective
    calls = []

    def objective(self, m):
        calls.append(m)
        obj, bundle = real(self, m)
        return (np.inf if len(calls) > evaluations else obj), bundle
    return objective


def _degenerate_after(engine, evaluations):
    real = engine.objective
    calls = []

    def objective(self, m):
        calls.append(m)
        if len(calls) > evaluations:
            raise OperatorError("degenerate face 0")
        return real(self, m)
    return objective


@pytest.mark.parametrize("mode, grad_tol, max_iterations, patch, verdict, reason", [
    ("residual_descent", 1e-8, 40, None, "converged", "grad_tol"),
    ("residual_descent", 0.0, 40, None, "stalled", "ftol"),
    ("energy_descent", 1e-10, 40, _inf_after, "stalled", "step_tol"),
    ("residual_descent", 1e-8, 2, None, "max_iters", "max_iters"),
    ("residual_descent", 1e-8, 40, _degenerate_after, "degenerate_mesh",
     "degenerate_mesh"),
], ids=["grad_tol", "ftol", "step_tol", "max_iters", "degenerate_mesh"])
def test_stop_reason_names_the_test_that_ended_the_run(
        tmp_path, monkeypatch, mode, grad_tol, max_iterations, patch, verdict, reason):
    engine = flow._ResidualEngine if mode == "residual_descent" else flow._EnergyEngine
    if patch is not None:
        monkeypatch.setattr(engine, "objective", patch(engine, 4))
    cfg = FlowConfig(mode=mode, initial_step=0.05, max_iterations=max_iterations,
                     grad_tol=grad_tol)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 1), CRITICAL, cfg)
    assert (tr.verdict, tr.meta["stop_reason"]) == (verdict, reason)
    assert 0 < tr.iterations <= max_iterations
    tr.write_json(tmp_path / "flow_summary.json")
    payload = json.loads((tmp_path / "flow_summary.json").read_text())
    assert payload["meta"]["stop_reason"] == reason
    assert payload["result"] == json.loads(json.dumps(tr.summary_dict()))
    assert "stop_reason" not in payload["result"]


def test_trace_rows_carry_gradient_norm_and_backtracks(tmp_path, monkeypatch):
    """Each row holds the norm of the last direction's gradient and the
    trials its line search rejected: every objective evaluation but the first
    is an accepted or a rejected trial, and the CSV's two last columns hold
    the rows' values."""
    real_direction = flow._EnergyEngine.direction
    norms = []

    def direction(self, m, bundle):
        out = real_direction(self, m, bundle)
        norms.append(out[2])
        return out

    monkeypatch.setattr(flow._EnergyEngine, "objective",
                        _inf_after(flow._EnergyEngine, 6))
    monkeypatch.setattr(flow._EnergyEngine, "direction", direction)
    cfg = FlowConfig(mode="energy_descent", initial_step=0.05, max_iterations=40)
    tr = flow_run(hf.perturbed_sphere(2.0, 0.05, 1), EnergyParams(), cfg)
    assert tr.meta["stop_reason"] == "step_tol"
    *steps, closing = tr.rows
    assert all(r.accepted for r in steps) and not closing.accepted
    assert [r.grad_norm for r in tr.rows] == norms
    assert closing.backtracks > 0 and tr.meta["objective_evaluations"] == \
        1 + sum(r.backtracks + r.accepted for r in tr.rows)
    tr.write_csv(tmp_path / "trace.csv")
    header, *lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert tuple(header.split(",")) == flow.FlowRow._fields
    assert header.endswith(",fit_rms,grad_norm,backtracks")
    assert [line.split(",")[-2:] for line in lines] == \
        [[repr(r.grad_norm), str(r.backtracks)] for r in tr.rows]
