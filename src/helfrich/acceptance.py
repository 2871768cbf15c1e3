"""Acceptance suite: one function per shipped criterion, each returning a
pass/fail result at its pinned tolerance.  The CLI ``verify`` subcommand and
the test suite both run these."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .analytic import (
    AmbientField,
    QuadratureGrid,
    catenoid,
    estimate_report,
    identity_check,
    oracle_integrate,
    sphere,
    torus,
    variation_check,
)
from .classify import radius_scan
from .curvature import angle_defect_total
from .energy import EnergyParams, evaluate_energies
from .errors import ParameterError
from .flow import FlowConfig, flow_run
from .mesh import flat_patch, icosphere, perturbed_sphere
from .variation import el_residual, gradient_check

FOUR_PI = 4.0 * np.pi


@dataclass
class CriterionResult:
    id: str
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(cid, name, passed, detail, t0):
    return CriterionResult(cid, name, bool(passed), detail,
                           time.perf_counter() - t0)


def c1_willmore_normalization():
    """Willmore energy of round spheres: oracle to 1e-10 relative, meshed
    within 1 percent at level 4 with errors decreasing over levels 2..5."""
    t0 = time.perf_counter()
    grid = QuadratureGrid.for_surface(sphere(1.7), 64, 64)
    w_oracle = oracle_integrate(sphere(1.7),
                                lambda g: 0.25 * g.mean_curvature**2, grid)
    oracle_rel = abs(w_oracle - FOUR_PI) / FOUR_PI

    errs = {}
    for level in (2, 3, 4, 5):
        rep = evaluate_energies(icosphere(1.0, level), EnergyParams())
        errs[level] = abs(rep.willmore - FOUR_PI) / FOUR_PI
    decreasing = all(errs[b] < errs[a] for a, b in ((2, 3), (3, 4), (4, 5)))
    ok = oracle_rel <= 1e-10 and errs[4] <= 0.01 and decreasing
    return _result(
        "c1", "Willmore normalization", ok,
        f"oracle rel {oracle_rel:.2e}; mesh rel by level "
        + ", ".join(f"L{k}={v:.2e}" for k, v in errs.items()), t0)


def c2_catenoid_gap():
    """Gap quantity of truncated catenoids: 8 pi tanh(T/c) to 1e-8,
    monotone in T and bounded by 8 pi."""
    t0 = time.perf_counter()
    vals = []
    devs = []
    for ratio in (1.0, 2.0, 5.0):
        s = catenoid(1.0, ratio)
        grid = QuadratureGrid.for_surface(s, 64, 96)
        gap = oracle_integrate(s, lambda g: g.tracefree_sq, grid)
        vals.append(gap)
        devs.append(abs(gap - 8 * np.pi * np.tanh(ratio)))
    ok = (max(devs) <= 1e-8
          and all(b > a for a, b in zip(vals, vals[1:]))
          and all(v <= 8 * np.pi for v in vals))
    return _result("c2", "catenoid gap threshold", ok,
                   f"max closed-form deviation {max(devs):.2e}; "
                   f"values {[round(v, 6) for v in vals]} <= 8*pi", t0)


def c3_critical_sphere():
    """Sphere branch: closed-form scan root at -2*lam1/lam2 to 1e-12; meshed
    residual L2 <= 0.05 at level 4, strictly smaller at level 5."""
    t0 = time.perf_counter()
    params = EnergyParams(0.0, 1.0, -1.0)
    table = radius_scan(params, 0.5, 4.0, 200)
    roots = table.roots()
    root_dev = min(abs(r - 2.0) for r in roots) if roots else np.inf

    l2 = {}
    for level in (4, 5):
        l2[level] = el_residual(icosphere(2.0, level), params).l2
    ok = (len(roots) == 1 and root_dev <= 1e-12
          and l2[4] <= 0.05 and l2[5] < l2[4])
    return _result("c3", "critical sphere", ok,
                   f"root dev {root_dev:.2e}; mesh L2 residual "
                   f"L4={l2[4]:.4f}, L5={l2[5]:.4f}", t0)


def c4_nonexistence_branches():
    """No-critical-point branches: residuals bounded away from zero."""
    t0 = time.perf_counter()
    # lam1 > 0, lam2 > 0
    table = radius_scan(EnergyParams(0.0, 1.0, 0.5), 0.1, 50.0, 500)
    min_pos = table.min_abs_residual
    ok_pos = min_pos >= 0.98 * (2 * 0.5)

    # meshed flat patch carries the exact plane residual -2*lam2
    field = el_residual(flat_patch((12, 12)), EnergyParams(0.0, 1.0, 0.5))
    vals = field.values[field.interior]
    plane_dev = np.abs(vals - (-2 * 0.5)).max()
    ok_plane = plane_dev <= 1e-10

    # lam1 = 0, lam2 != 0: both families bounded away by 2|lam2|
    lam2 = 0.3
    t2 = radius_scan(EnergyParams(0.0, 0.0, lam2), 0.1, 50.0, 200)
    bound = 2 * abs(lam2) * (1 - 1e-12)
    ok_zero = t2.min_abs_residual >= bound and abs(-2 * lam2) >= bound
    ok = ok_pos and ok_plane and ok_zero
    return _result("c4", "non-existence branches", ok,
                   f"min|res|(1,0.5)={min_pos:.4f} >= 0.98; "
                   f"flat-patch dev {plane_dev:.2e}; "
                   f"min|res|(0,0.3)={t2.min_abs_residual:.4f}", t0)


VARIATION_FIELDS = [
    AmbientField.constant(1.0),
    AmbientField.polynomial(quad=np.diag([0.0, 0.0, 1.0]), name="z^2"),
    AmbientField.polynomial(linear=(1.0, 0.3, 0.0),
                            quad=[[0.2, 0.1, 0.0], [0.1, 0.0, 0.3],
                                  [0.0, 0.3, -0.2]], name="mixed_quad"),
    AmbientField.sinusoid((1.0, 0.5, 0.3), 0.3),
    AmbientField.polynomial(quad=np.diag([1.0, -0.5, 0.25]), const=0.5,
                            name="aniso_quad"),
]


def c5_first_variation_suite():
    """All five first-variation formulas vs Richardson finite differences to
    relative 1e-6 on sphere(1) and torus(2,1), five fields each, c0=0.7."""
    t0 = time.perf_counter()
    params = EnergyParams(c0=0.7, lam1=1.0, lam2=-1.0)
    worst = 0.0
    for surf in (sphere(1.0), torus(2.0, 1.0)):
        for fld in VARIATION_FIELDS:
            rep = variation_check(surf, params, fld, h=5e-3)
            worst = max(worst, rep.max_rel_error())
    return _result("c5", "first-variation suite", worst <= 1e-6,
                   f"worst relative error {worst:.2e} over 2 surfaces x "
                   f"{len(VARIATION_FIELDS)} fields x 5 functionals", t0)


def c6_gradient_checks():
    """Exact polyhedral area/volume gradients vs FD to 1e-8; assembled full
    gradient within 5e-2 at level 4, improving at level 5."""
    t0 = time.perf_counter()
    params = EnergyParams(0.0, 1.0, -1.0)
    full = {}
    worst_area = worst_vol = 0.0
    for level in (4, 5):
        rep = gradient_check(perturbed_sphere(1.0, 0.05, level), params,
                             n_fields=20, seed=1)
        full[level] = rep.full_max_rel
        worst_area = max(worst_area, rep.area_max_rel)
        worst_vol = max(worst_vol, rep.volume_max_rel)
    ok = (worst_area <= 1e-8 and worst_vol <= 1e-8
          and full[4] <= 5e-2 and full[5] < full[4])
    return _result("c6", "gradient checks", ok,
                   f"area {worst_area:.2e}, volume {worst_vol:.2e}, "
                   f"full L4={full[4]:.2e} L5={full[5]:.2e}", t0)


def c7_flow_reproduction():
    """Residual descent from the perturbed sphere reaches the critical sphere
    (radius within 2 percent, rms sphericity <= 1e-3 of the radius); energy
    descent with zero weights drives the Willmore energy to within 1 percent
    of 4 pi."""
    t0 = time.perf_counter()
    seed_mesh = perturbed_sphere(2.0, 0.05, 3)

    cfg = FlowConfig(mode="residual_descent", initial_step=0.1,
                     max_iterations=40, grad_tol=1e-8, log_every=5)
    tr = flow_run(seed_mesh, EnergyParams(0.0, 1.0, -1.0), cfg)
    last = tr.rows[-1]
    radius_err = abs(last.fit_radius - 2.0) / 2.0
    ok_res = radius_err <= 0.02 and last.fit_rms <= 1e-3 * 2.0

    cfg2 = FlowConfig(mode="energy_descent", initial_step=0.05,
                      max_iterations=1500, grad_tol=1e-10, log_every=100)
    tr2 = flow_run(seed_mesh, EnergyParams(), cfg2)
    w_rel = abs(tr2.rows[-1].energy - FOUR_PI) / FOUR_PI
    ok = ok_res and w_rel <= 0.01
    return _result(
        "c7", "flow reproduction of the sphere branch", ok,
        f"residual descent: {tr.verdict} in {tr.iterations} its, radius err "
        f"{radius_err:.3%}, rms {last.fit_rms:.2e}; energy descent: "
        f"W within {w_rel:.3%} of 4*pi", t0)


def c8_identity_suite():
    """Pointwise curvature identities to 1e-12 on random principal pairs and
    oracle surfaces; angle-defect Gauss-Bonnet to 1e-9 on closed meshes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    rep = identity_check(principal_pairs=rng.uniform(-3, 3, (1000, 2)))
    alg_ok = (rep.max_cubic_identity_dev <= 1e-12
              and rep.max_gauss_relation_dev <= 1e-12
              and rep.max_tracefree_relation_dev <= 1e-12)

    gb_dev = 0.0
    for mesh in (icosphere(1.0, 2), icosphere(2.0, 3), icosphere(0.5, 4),
                 perturbed_sphere(2.0, 0.05, 3), perturbed_sphere(1.0, 0.2, 4)):
        gb_dev = max(gb_dev, abs(angle_defect_total(mesh) - 2 * np.pi * 2))
    ok = alg_ok and gb_dev <= 1e-9
    return _result("c8", "identity suite", ok,
                   f"max identity dev {max(rep.max_cubic_identity_dev, rep.max_gauss_relation_dev, rep.max_tracefree_relation_dev):.2e}; "
                   f"Gauss-Bonnet dev {gb_dev:.2e}; "
                   f"Codazzi-gradient dev {rep.max_codazzi_gradient_dev:.2e}", t0)


def c9_estimate_report():
    """Localized-estimate table in place of the non-numeric absolute-constant
    bounds: the critical sphere's residual term vanishes to 1e-10."""
    t0 = time.perf_counter()
    rep = estimate_report(sphere(2.0), EnergyParams(0.0, 1.0, -1.0),
                          cutoff=((0.0, 0.0, 0.0), 10.0))
    resid = abs(rep.terms["residual_sq_gamma4"])
    finite = all(np.isfinite(val) for val in rep.terms.values())
    ok = resid <= 1e-10 and finite and "no inequality verdict" in rep.note
    return _result("c9", "localized estimate table", ok,
                   f"critical-sphere residual term {resid:.2e}; "
                   f"{len(rep.terms)} terms tabulated, no verdict emitted", t0)


CRITERIA = [c1_willmore_normalization, c2_catenoid_gap, c3_critical_sphere,
            c4_nonexistence_branches, c5_first_variation_suite,
            c6_gradient_checks, c7_flow_reproduction, c8_identity_suite,
            c9_estimate_report]


def run_all(only=None):
    """Run every criterion, or those whose ids ("c1" ...) ``only`` names;
    an ``only`` that names none is an error, not a request for all."""
    by_id = {fn.__name__.split("_")[0]: fn for fn in CRITERIA}
    known = ", ".join(by_id)
    if only is not None and not only:
        raise ParameterError("only", f"names no criterion id; known: {known}")
    unknown = sorted(set(only or ()) - set(by_id))
    if unknown:
        raise ParameterError("only", f"unknown criterion ids {unknown}; known: {known}")
    return [fn() for cid, fn in by_id.items() if only is None or cid in only]
