"""The benchmark workloads: a seeded input generator and one measured pass
each, with the correctness gates every pass must meet.

The program sees only the generated inputs.  Every threshold below is the
one an acceptance criterion in ``helfrich.acceptance`` pins (c1, c3, c5, c6,
c7, c8, c9), or an exact identity (Gauss-Bonnet, bitwise OBJ round trip, CLI
and in-process residual norms equal).

Why these three:
  flow_residual  residual descent to the critical sphere with c7's weights
                 and seed perturbation, on the level-2 icosphere (V = 162).
                 Nearly all of its time is the finite-difference Jacobian:
                 2V residual evaluations and a dense V x V solve per
                 iteration.  At c7's own level 3 one descent takes about
                 20 s, so a run held one or two of them and its time spread
                 past its bound between runs on a shared 2-core machine; at
                 level 2 it converges in the same 14 iterations in about 2 s,
                 and a run reports the median of many.
  flow_energy    energy descent on the same mesh: no Jacobian and no solve,
                 its time goes to energy evaluations in backtracking and to
                 the per-step mesh validation.  Each flow bypasses the
                 other's hot path.
  mesh_sweep     one call per stage at icosphere levels 3-6 (V = 642 ..
                 40 962): how cost grows with V, with working sets that
                 outgrow the L2 cache, where the flows make thousands of
                 small calls at V = 642.  Its last stage is the oracle suite
                 (exact parametric surfaces, variation checks, branch
                 classification), the only caller of ``analytic`` and
                 ``classify``.  As a workload of its own the oracle suite's
                 pass time spread too much between runs on a shared 2-core
                 machine (quartile spread 0.27 and 0.30 of the median over
                 ten seeds), so it rides here, at about a tenth of the pass.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stdout

import numpy as np

from helfrich import analytic, classify, cli, curvature, energy, flow, mesh, variation
from helfrich.energy import EnergyParams

FOUR_PI = 4.0 * np.pi
SWEEP_LEVELS = (3, 4, 5, 6)
ENERGY_ITERATIONS = 200     # energy-descent cap; c7 uses 1500 (about 27 s)
RESIDUAL_LEVEL = 2          # residual-descent mesh; c7 uses 3 (about 20 s)


class Gates:
    """Correctness checks of one run; each check is one attempted operation.

    A check whose value is False (including comparisons against NaN) fails;
    a pass that raises counts one more attempted and failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def error(self, name, exc):
        self.attempted += 1
        self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def random_rotation(rng):
    """Haar-random rotation: QR of a Gaussian 3x3 matrix with sign fixes."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def fingerprint(inputs):
    """SHA-256 over the exact bits of every generated input."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(key.encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif isinstance(x, mesh.TriangleMesh):
            feed(x.vertices)
            feed(x.faces)
        elif isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, float):
            h.update(x.hex().encode())
        else:
            h.update(repr(x).encode())

    feed(inputs)
    return h.hexdigest()


def _finite(*values):
    return all(np.all(np.isfinite(v)) for v in values)


# -- flows ------------------------------------------------------------------

CRITICAL_PARAMS = EnergyParams(0.0, 1.0, -1.0)   # c7: critical radius 2


def _flow_inputs(seed, tr, level):
    """The c7 seed mesh, perturbed_sphere(2, 0.05, level), in a seeded rotation."""
    rng = np.random.default_rng(seed)
    rotation = random_rotation(rng)
    with tr.span(f"mesh.primitive.L{level}"):
        base = mesh.perturbed_sphere(2.0, 0.05, level)
    with tr.span(f"mesh.halfedge.L{level}"):
        rotated = mesh.TriangleMesh(base.vertices @ rotation.T, base.faces)
    return {"rotation": rotation, "mesh": rotated}


def residual_flow_inputs(seed, tr):
    return _flow_inputs(seed, tr, RESIDUAL_LEVEL)


def energy_flow_inputs(seed, tr):
    return _flow_inputs(seed, tr, 3)


def residual_flow_pass(inp, tr, gates, workdir):
    cfg = flow.FlowConfig(mode="residual_descent", initial_step=0.1,
                          max_iterations=40, grad_tol=1e-8, log_every=5)
    trace = flow.flow_run(inp["mesh"], CRITICAL_PARAMS, cfg)
    last = trace.rows[-1]
    radius = -2.0 * CRITICAL_PARAMS.lam1 / CRITICAL_PARAMS.lam2
    gates.check("residual descent: mesh stayed valid",
                trace.verdict != "degenerate_mesh")
    gates.check("residual descent: radius within 2%",
                abs(last.fit_radius - radius) <= 0.02 * radius)
    gates.check("residual descent: rms <= 1e-3 R", last.fit_rms <= 1e-3 * radius)
    return {"flow.iterations": trace.iterations}


def energy_flow_pass(inp, tr, gates, workdir):
    cfg = flow.FlowConfig(mode="energy_descent", initial_step=0.05,
                          max_iterations=ENERGY_ITERATIONS, grad_tol=1e-10,
                          log_every=10)
    trace = flow.flow_run(inp["mesh"], EnergyParams(), cfg)
    objective = np.array([row.objective for row in trace.rows])
    gates.check("energy descent: mesh stayed valid",
                trace.verdict != "degenerate_mesh")
    gates.check("energy descent: objective never increases",
                _finite(objective) and bool(np.all(np.diff(objective) <= 0.0)))
    gates.check("energy descent: W within 1% of 4 pi",
                abs(trace.rows[-1].energy - FOUR_PI) <= 0.01 * FOUR_PI)
    return {"flow.iterations": trace.iterations}


# -- mesh sweep -------------------------------------------------------------

def sweep_inputs(seed, tr):
    """Rotation, perturbation amplitude, weights lam1 > 0 > lam2, the
    gradient-check field seed, and the oracle stage's inputs."""
    rng, oracle_rng = (np.random.default_rng(s)
                       for s in np.random.SeedSequence(seed).spawn(2))
    return {"rotation": random_rotation(rng),
            "amplitude": float(rng.uniform(0.02, 0.1)),
            "lam1": float(rng.uniform(0.5, 2.0)),
            "lam2": float(-rng.uniform(0.5, 2.0)),
            "field_seed": int(rng.integers(2**31)),
            "oracle": oracle_inputs(oracle_rng)}


def sweep_pass(inp, tr, gates, workdir):
    params = EnergyParams(0.0, inp["lam1"], inp["lam2"])
    meshes, l2 = {}, {}
    for level in SWEEP_LEVELS:
        tag = f"L{level}"
        with tr.span(f"mesh.primitive.{tag}"):
            base = mesh.perturbed_sphere(2.0, inp["amplitude"], level)
        with tr.span(f"mesh.halfedge.{tag}"):
            m = mesh.TriangleMesh(base.vertices @ inp["rotation"].T, base.faces)
        with tr.span(f"mesh.validate.{tag}"):
            diag = mesh.validate(m)
        gates.check(f"{tag} validate: closed sphere",
                    diag.ok and diag.closed and diag.euler_characteristic == 2)
        with tr.span(f"curvature.bundle.{tag}"):
            bundle = curvature.curvature_bundle(m)
        gauss_total = float((bundle.gauss_curvature * bundle.vertex_area).sum())
        gates.check(f"{tag} Gauss-Bonnet to 1e-9",
                    abs(gauss_total - FOUR_PI) <= 1e-9)
        with tr.span(f"curvature.operator.{tag}"):
            op = curvature.cotan_operator(m)
        gates.check(f"{tag} cotan operator finite",
                    _finite(op.stiffness.data, op.mass))
        with tr.span(f"variation.residual.{tag}"):
            field = variation.el_residual(m, params)
        gates.check(f"{tag} residual finite", _finite(field.values, field.l2))
        with tr.span(f"energy.mesh.{tag}"):
            rep = energy.evaluate_energies(m, params)
        gates.check(f"{tag} energies finite",
                    _finite(rep.area, rep.volume, rep.willmore, rep.helfrich))
        with tr.span(f"variation.gradient.{tag}"):
            grad = variation.energy_gradient(m, params)
        gates.check(f"{tag} gradient finite", _finite(grad))
        meshes[level], l2[level] = m, field.l2

    m5 = meshes[5]
    with tr.span("mesh.refine.L5"):
        fine = mesh.refine(m5)
    gates.check("L5 refine: closed, 4x faces",
                fine.closed and fine.euler_characteristic == 2
                and fine.n_faces == 4 * m5.n_faces)

    path = os.path.join(workdir, "sweep_L5.obj")
    with tr.span("mesh.save.L5"):
        mesh.save_mesh(m5, path)
    with tr.span("mesh.load.L5"):
        loaded = mesh.load_mesh(path)
    gates.check("L5 OBJ round trip is bitwise",
                loaded.vertices.tobytes() == m5.vertices.tobytes()
                and np.array_equal(loaded.faces, m5.faces))

    out = os.path.join(workdir, "cli")
    shutil.rmtree(out, ignore_errors=True)
    argv = ["residual", "--mesh", path, "--l1", repr(params.lam1),
            "--l2", repr(params.lam2), "--out", out]
    with tr.span("cli.residual.L5"), redirect_stdout(io.StringIO()):
        code = cli.run_command(argv)
    with open(os.path.join(out, "residual_summary.json"), encoding="utf-8") as fh:
        cli_l2 = json.load(fh)["result"]["l2"]
    gates.check("L5 CLI residual l2 equals el_residual l2",
                code == 0 and cli_l2 == l2[5])

    with tr.span("variation.gradient_check.L4"):
        check = variation.gradient_check(meshes[4], params, n_fields=20,
                                         seed=inp["field_seed"])
    gates.check("L4 area/volume gradient checks <= 1e-8",
                check.area_max_rel <= 1e-8 and check.volume_max_rel <= 1e-8)

    oracle_stage(inp["oracle"], tr, gates)
    return {}


# -- oracle stage of the sweep --------------------------------------------

VARIATION_PARAMS = EnergyParams(c0=0.7, lam1=1.0, lam2=-1.0)   # c5


def oracle_inputs(rng):
    """AmbientField coefficients, weights per branch, torus ring radius and
    principal-curvature samples."""

    def weight():
        return float(rng.uniform(0.5, 2.0))

    polys = [(rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.5, 0.5, (3, 3)))
             for _ in range(2)]
    wave = (rng.uniform(-1.0, 1.0, 3), float(rng.uniform(0.0, 2.0 * np.pi)))
    branches = {
        "lam1>0,lam2<0": (weight(), -weight()),
        "lam1>0,lam2=0": (weight(), 0.0),
        "lam1>0,lam2>0": (weight(), weight()),
        "lam1=0,lam2=0": (0.0, 0.0),
        "lam1=0,lam2!=0": (0.0, float(rng.choice([-1.0, 1.0])) * weight()),
    }
    return {"polys": polys, "wave": wave, "branches": branches,
            "ring_radius": float(rng.uniform(1.5, 3.0)),
            "principal_pairs": rng.uniform(-3.0, 3.0, (1000, 2))}


def oracle_stage(inp, tr, gates):
    fields = [analytic.AmbientField.polynomial(linear=lin, quad=quad,
                                               name=f"poly{k}")
              for k, (lin, quad) in enumerate(inp["polys"])]
    fields.append(analytic.AmbientField.sinusoid(*inp["wave"], name="wave"))
    for surf in (analytic.sphere(1.0), analytic.torus(2.0, 1.0)):
        for fld in fields:
            rep = analytic.variation_check(surf, VARIATION_PARAMS, fld, h=5e-3)
            gates.check(f"variation_check {surf.name}/{fld.name} <= 1e-6",
                        rep.max_rel_error() <= 1e-6)

    lam1, lam2 = inp["branches"]["lam1>0,lam2<0"]
    params = EnergyParams(0.0, lam1, lam2)
    rho = -2.0 * lam1 / lam2
    ball = analytic.sphere(rho)
    ring, tube = inp["ring_radius"], 1.0
    ring_surface = analytic.torus(ring, tube)
    torus_willmore = np.pi**2 * ring**2 / (tube * np.sqrt(ring**2 - tube**2))

    with tr.span("energy.oracle"):
        rep = energy.evaluate_energies(ball, params)
    gates.check("sphere Willmore = 4 pi to 1e-10",
                abs(rep.willmore - FOUR_PI) <= 1e-10 * FOUR_PI)
    with tr.span("energy.oracle"):
        rep = energy.evaluate_energies(ring_surface, params)
    gates.check("torus Willmore closed form to 1e-10",
                abs(rep.willmore - torus_willmore) <= 1e-10 * torus_willmore)
    with tr.span("variation.oracle_residual"):
        field = variation.el_residual(ball, params)
    gates.check("critical sphere residual <= 1e-10", field.linf <= 1e-10)
    with tr.span("variation.oracle_residual"):
        field = variation.el_residual(ring_surface, params)
    gates.check("torus residual finite", _finite(field.values, field.l2))

    est = analytic.estimate_report(ball, params, cutoff=((0.0, 0.0, 0.0), 5.0 * rho))
    gates.check("estimate report: residual term <= 1e-10, all finite",
                abs(est.terms["residual_sq_gamma4"]) <= 1e-10
                and _finite(list(est.terms.values())))

    ident = analytic.identity_check(principal_pairs=inp["principal_pairs"])
    gates.check("curvature identities <= 1e-12",
                max(ident.max_cubic_identity_dev, ident.max_gauss_relation_dev,
                    ident.max_tracefree_relation_dev) <= 1e-12)

    for branch, (l1, l2) in inp["branches"].items():
        p = EnergyParams(0.0, l1, l2)
        table = classify.radius_scan(p, 0.1, 50.0, 400)
        verdict = classify.classify_case(p, scan=table)
        roots = table.roots()
        if branch == "lam1>0,lam2<0":
            critical = -2.0 * l1 / l2
            roots_ok = len(roots) == 1 and abs(roots[0] - critical) <= 1e-12
        else:
            roots_ok = not roots
        gates.check(f"branch {branch}: verdict and scan roots",
                    verdict.branch == branch and verdict.consistent and roots_ok)
    return {}


WORKLOADS = {
    "flow_residual": (residual_flow_inputs, residual_flow_pass),
    "flow_energy": (energy_flow_inputs, energy_flow_pass),
    "mesh_sweep": (sweep_inputs, sweep_pass),
}
