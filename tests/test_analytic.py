"""Oracle surfaces: exact geometry, quadrature, variations, identities,
and the localized estimate table."""

import numpy as np
import pytest

from helfrich import analytic
from helfrich.analytic import (
    AmbientField,
    QuadratureGrid,
    RAMP_SUP_DERIVATIVE,
    _normal_jet,
    catenoid,
    chart_codazzi_gradient_deviation,
    cutoff_profile,
    enclosed_volume,
    estimate_report,
    graph_surface,
    identity_check,
    oracle_geometry,
    oracle_integrate,
    plane_patch,
    sphere,
    torus,
    variation_check,
)
from helfrich.energy import EnergyParams, evaluate_energies
from helfrich.errors import DomainError, NumericalError, UnsupportedError


# -- point geometry ------------------------------------------------------------

def test_sphere_point_geometry():
    g = oracle_geometry(sphere(2.0), 0.9, 1.7)
    assert g.mean_curvature == pytest.approx(1.0, abs=1e-14)
    assert g.gauss_curvature == pytest.approx(0.25, abs=1e-14)
    assert abs(g.tracefree_sq) < 1e-14
    # inward normal points at the center
    assert np.allclose(g.normal, -g.position / 2.0, atol=1e-14)


def test_catenoid_point_geometry():
    g = oracle_geometry(catenoid(1.0, 2.0), 0.3, 0.0)
    assert abs(g.mean_curvature) < 1e-14
    assert g.gauss_curvature == pytest.approx(-1.0, abs=1e-13)
    assert g.tracefree_sq == pytest.approx(2.0, abs=1e-13)


def test_plane_point_geometry():
    g = oracle_geometry(plane_patch(), 0.4, 0.6)
    assert np.abs(g.second_fundamental).max() == 0.0
    assert g.mean_curvature == 0.0 and g.gauss_curvature == 0.0


def test_torus_chart_matches_stored_forms():
    t = torus(2.0, 1.0)
    uu, vv = np.meshgrid(np.linspace(0, 2 * np.pi, 9, endpoint=False),
                         np.linspace(0, 2 * np.pi, 11, endpoint=False),
                         indexing="ij")
    g = t.geometry(uu, vv)
    assert np.abs(g.mean_curvature - t.mean_curvature_fn(uu, vv)).max() < 1e-12


def test_torus_inward_normal_sign():
    # tube curvature positive against the inward normal, like the sphere
    g = oracle_geometry(torus(2.0, 1.0), 0.0, 0.0)
    k2 = g.second_fundamental[1, 1] / g.metric[1, 1]
    assert k2 == pytest.approx(1.0, abs=1e-14)


def test_graph_surface_geometry():
    # saddle z = x^2 - y^2 at the origin: H = 0, K = -4
    s = graph_surface(
        h=lambda x, y: x * x - y * y,
        hx=lambda x, y: 2 * x, hy=lambda x, y: -2 * y,
        hxx=lambda x, y: 2 * np.ones_like(x),
        hxy=lambda x, y: np.zeros_like(x),
        hyy=lambda x, y: -2 * np.ones_like(x),
        domain=((-1, 1), (-1, 1)))
    g = oracle_geometry(s, 0.0, 0.0)
    assert abs(g.mean_curvature) < 1e-14
    assert g.gauss_curvature == pytest.approx(-4.0, abs=1e-13)


def test_domain_error():
    with pytest.raises(DomainError):
        oracle_geometry(plane_patch(), 2.0, 0.5)
    # periodic axis wraps instead of erroring
    oracle_geometry(sphere(1.0), 9.0, 1.0)


def test_immersion_condition_on_grid():
    for s in (sphere(1.0), catenoid(1.0, 2.0), torus(2.0, 1.0)):
        grid = QuadratureGrid.for_surface(s, 16, 16)
        uu, vv, _ = grid.mesh()
        g = s.geometry(uu, vv)
        assert (g.sqrt_det_g > 0).all()


# -- chart jets from the two generators ----------------------------------------

# each chart-jet entry -> (the entry one order below, axis it is differenced on)
CHART_DERIVATIVES = {"fu": ("f", 0), "fv": ("f", 1),
                     "fuu": ("fu", 0), "fuv": ("fu", 1), "fvv": ("fv", 1),
                     "fuuu": ("fuu", 0), "fuuv": ("fuu", 1), "fuvv": ("fuv", 1),
                     "fvvv": ("fvv", 1)}


def _wavy_graph():
    e = lambda y: np.exp(0.5 * y)
    return graph_surface(
        h=lambda x, y: np.sin(2 * x) * e(y),
        hx=lambda x, y: 2 * np.cos(2 * x) * e(y),
        hy=lambda x, y: 0.5 * np.sin(2 * x) * e(y),
        hxx=lambda x, y: -4 * np.sin(2 * x) * e(y),
        hxy=lambda x, y: np.cos(2 * x) * e(y),
        hyy=lambda x, y: 0.25 * np.sin(2 * x) * e(y),
        domain=((-1.0, 1.0), (-1.0, 2.0)))


@pytest.mark.parametrize("surface, order", [
    (sphere(1.7), 3), (catenoid(1.3, 2.0), 3), (torus(2.0, 0.7), 3),
    (plane_patch((2.0, 0.5)), 2), (_wavy_graph(), 2),
], ids=["sphere", "catenoid", "torus", "plane", "graph"])
def test_chart_jet_entries_are_differences_of_the_order_below(surface, order):
    (u0, u1), (v0, v1) = surface.domain
    uu, vv = np.meshgrid(u0 + (u1 - u0) * np.linspace(0.1, 0.9, 5),
                         v0 + (v1 - v0) * np.linspace(0.1, 0.9, 4), indexing="ij")
    jet = surface.jet(uu, vv, order)
    names = [k for k in CHART_DERIVATIVES if len(k) - 1 <= order]
    assert set(jet) == {"f", *names}
    h = 1e-5
    for name in names:
        lower, axis = CHART_DERIVATIVES[name]
        du, dv = (h, 0.0) if axis == 0 else (0.0, h)
        fd = (surface.jet(uu + du, vv + dv, order)[lower]
              - surface.jet(uu - du, vv - dv, order)[lower]) / (2 * h)
        scale = 1.0 + np.abs(jet[name]).max()
        assert np.abs(jet[name] - fd).max() < 1e-8 * scale, name
    if order < 3:
        with pytest.raises(UnsupportedError):
            surface.jet(uu, vv, 3)


# -- quadrature -----------------------------------------------------------------

def test_quadrature_weights():
    for s in (sphere(1.0), catenoid(1.0, 2.0), torus(2.0, 1.0), plane_patch()):
        grid = QuadratureGrid.for_surface(s, 24, 18)
        (u0, u1), (v0, v1) = s.domain
        assert (grid.u_weights > 0).all() and (grid.v_weights > 0).all()
        assert grid.u_weights.sum() == pytest.approx(u1 - u0, rel=1e-13)
        assert grid.v_weights.sum() == pytest.approx(v1 - v0, rel=1e-13)


def test_willmore_sphere_quadrature():
    grid = QuadratureGrid.for_surface(sphere(3.3), 64, 64)
    w = oracle_integrate(sphere(3.3), lambda g: 0.25 * g.mean_curvature**2, grid)
    assert abs(w - 4 * np.pi) / (4 * np.pi) < 1e-10


@pytest.mark.parametrize("ratio", [1.0, 2.0, 5.0])
def test_catenoid_gap_closed_form(ratio):
    c = 1.0
    s = catenoid(c, ratio * c)
    grid = QuadratureGrid.for_surface(s, 64, 96)
    gap = oracle_integrate(s, lambda g: g.tracefree_sq, grid)
    assert gap == pytest.approx(8 * np.pi * np.tanh(ratio), abs=1e-8)
    assert gap <= 8 * np.pi


def test_torus_gauss_bonnet():
    grid = QuadratureGrid.for_surface(torus(2.0, 1.0), 64, 64)
    total = oracle_integrate(torus(2.0, 1.0), lambda g: g.gauss_curvature, grid)
    assert abs(total) < 1e-10


def test_sphere_volume():
    grid = QuadratureGrid.for_surface(sphere(2.0), 64, 64)
    assert enclosed_volume(sphere(2.0), grid) == pytest.approx(32 * np.pi / 3, rel=1e-12)


def test_quadrature_self_consistency():
    # doubling resolution moves the result by less than 10x the estimate
    for s, fn in ((sphere(1.5), lambda g: 0.25 * g.mean_curvature**2),
                  (torus(2.0, 1.0), lambda g: g.tracefree_sq),
                  (catenoid(1.0, 2.0), lambda g: g.tracefree_sq)):
        value = oracle_integrate(s, fn, QuadratureGrid.for_surface(s, 32, 32))
        half = oracle_integrate(s, fn, QuadratureGrid.for_surface(s, 16, 16))
        est = abs(value - half)
        fine = QuadratureGrid.for_surface(s, 64, 64)
        refined = oracle_integrate(s, fn, fine)
        assert abs(refined - value) <= 10 * est + 1e-13


def test_nonfinite_integrand_reports_point():
    s = plane_patch()
    grid = QuadratureGrid.for_surface(s, 8, 8)
    with np.errstate(divide="ignore"):
        with pytest.raises(NumericalError, match="chart point"):
            oracle_integrate(s, lambda g: 1.0 / (g.position[..., 2]), grid)


# -- torus Laplacian of H validated against chart differences -------------------

def test_torus_laplace_H_closed_form():
    t = torus(2.0, 1.0)
    R, r = 2.0, 1.0

    def H(v):
        return t.mean_curvature_fn(0.0, v)

    h = 1e-4
    vv = np.linspace(0.1, 6.1, 23)
    Hpp = (H(vv + h) - 2 * H(vv) + H(vv - h)) / h**2
    Hp = (H(vv + h) - H(vv - h)) / (2 * h)
    G = R + r * np.cos(vv)
    lap_fd = Hpp / r**2 - np.sin(vv) / (r * G) * Hp
    lap_stored = t.laplace_mean_curvature_fn(np.zeros_like(vv), vv)
    assert np.abs(lap_fd - lap_stored).max() < 1e-6


# -- unit normal jets ------------------------------------------------------------

@pytest.mark.parametrize("factory", [lambda: sphere(2.0),
                                     lambda: torus(2.0, 1.0),
                                     lambda: catenoid(1.0, 2.0)])
def test_normal_jet_against_differences(factory):
    s = factory()
    u0, v0, h = 1.1, 0.9, 1e-5

    def n_of(u, v):
        return _normal_jet(s.jet(u, v, 2), s.normal_sign, 0)["n"]

    nj = _normal_jet(s.jet(u0, v0, 3), s.normal_sign, 2)
    assert np.abs(nj["nu"] - (n_of(u0 + h, v0) - n_of(u0 - h, v0)) / (2 * h)).max() < 1e-9
    assert np.abs(nj["nv"] - (n_of(u0, v0 + h) - n_of(u0, v0 - h)) / (2 * h)).max() < 1e-9
    nuu = (n_of(u0 + h, v0) - 2 * n_of(u0, v0) + n_of(u0 - h, v0)) / h**2
    nvv = (n_of(u0, v0 + h) - 2 * n_of(u0, v0) + n_of(u0, v0 - h)) / h**2
    nuv = (n_of(u0 + h, v0 + h) - n_of(u0 + h, v0 - h)
           - n_of(u0 - h, v0 + h) + n_of(u0 - h, v0 - h)) / (4 * h * h)
    assert np.abs(nj["nuu"] - nuu).max() < 1e-4
    assert np.abs(nj["nuv"] - nuv).max() < 1e-4
    assert np.abs(nj["nvv"] - nvv).max() < 1e-4


# -- first variations -------------------------------------------------------------

def test_variation_sphere_constant_field():
    rep = variation_check(sphere(1.0), EnergyParams(0.0, 1.0, -1.0),
                          AmbientField.constant(1.0), h=1e-2)
    assert rep.rows["area"].formula == pytest.approx(-8 * np.pi, rel=1e-12)
    assert rep.rows["total_mean_curvature"].formula == pytest.approx(-8 * np.pi, rel=1e-12)
    assert rep.rows["volume"].formula == pytest.approx(-4 * np.pi, rel=1e-12)
    for row in rep.rows.values():
        assert row.rel_error < 1e-8


def test_variation_torus_trig_field():
    fld = AmbientField.sinusoid((1.0, 0.5, 0.3), 0.3)
    rep = variation_check(torus(2.0, 1.0), EnergyParams(0.7, 1.0, -1.0), fld, h=5e-3)
    assert rep.max_rel_error() <= 1e-6


def test_variation_orders():
    fld = AmbientField.polynomial(quad=np.diag([0.0, 0.0, 1.0]), name="z^2")
    rep = variation_check(torus(2.0, 1.0), EnergyParams(0.0, 1.0, -1.0), fld, h=0.05)
    row = rep.rows["area"]
    assert 1.7 < row.order_plain < 2.3           # h^2 before extrapolation
    assert 3.4 < row.order_richardson < 4.6      # h^4 after


def _perturbed_energies_per_step(surface, fld, ts, grid, params):
    """Reference: each step t takes the surface, normal and field jets anew."""
    out = {}
    for t in ts:
        uu, vv, ww = grid.mesh()
        j = surface.jet(uu, vv, order=3)
        nj = analytic._normal_jet(j, surface.normal_sign, order=2)
        pj = fld.chart_jet(j)
        out[t] = analytic._energies_from_jet(
            surface, analytic._perturbed_jet(j, nj, pj, t), ww, params)
    return out


@pytest.mark.parametrize("surface", [sphere(1.3), torus(2.0, 1.0)],
                         ids=["sphere", "torus"])
def test_variation_check_takes_jets_once_and_matches_per_step_bitwise(surface,
                                                                      monkeypatch):
    fields = [AmbientField.constant(0.8),
              AmbientField.sinusoid((1.0, 0.5, 0.3), 0.3),
              AmbientField.polynomial(linear=(0.2, -0.1, 0.4),
                                      quad=np.diag([0.3, -0.2, 1.0]), const=0.1)]
    params = EnergyParams(0.4, 1.0, -1.0)
    calls = []
    normal_jet = analytic._normal_jet

    def counted(*args, **kwargs):
        calls.append(1)
        return normal_jet(*args, **kwargs)

    monkeypatch.setattr(analytic, "_normal_jet", counted)
    reports = []
    for fld in fields:
        calls.clear()
        reports.append(variation_check(surface, params, fld, h=5e-3))
        assert len(calls) == 1
    monkeypatch.setattr(analytic, "perturbed_energies", _perturbed_energies_per_step)
    for fld, rep in zip(fields, reports):
        assert repr(rep) == repr(variation_check(surface, params, fld, h=5e-3))


def test_variation_open_surface_unsupported():
    with pytest.raises(UnsupportedError):
        variation_check(catenoid(1.0, 1.0), EnergyParams(), AmbientField.constant())


# -- identities -------------------------------------------------------------------

def test_identity_check_random_pairs():
    rng = np.random.default_rng(42)
    rep = identity_check(principal_pairs=rng.uniform(-3, 3, (1000, 2)))
    assert rep.max_cubic_identity_dev < 1e-12
    assert rep.max_gauss_relation_dev < 1e-12
    assert rep.max_tracefree_relation_dev < 1e-12
    assert rep.max_codazzi_gradient_dev < 1e-10


def test_identity_specific_pair():
    from helfrich.analytic import principal_identity_deviations
    cubic, gauss, tracefree = principal_identity_deviations(
        np.array([3.0]), np.array([1.0]))
    assert cubic.max() < 1e-12 and gauss.max() < 1e-12 and tracefree.max() < 1e-12


def test_identity_umbilic_pair():
    from helfrich.analytic import principal_identity_deviations
    cubic, gauss, tracefree = principal_identity_deviations(
        np.array([2.0]), np.array([2.0]))
    assert cubic.max() == 0.0


def test_codazzi_gradient_on_catenoid():
    s = catenoid(1.0, 2.0)
    uu, vv = np.meshgrid(np.linspace(0, 2 * np.pi, 8, endpoint=False),
                         np.linspace(-1.5, 1.5, 9), indexing="ij")
    assert chart_codazzi_gradient_deviation(s, uu, vv) < 1e-10


# -- cutoff and estimate report ----------------------------------------------------

def test_cutoff_profile_shape():
    s = np.linspace(-0.5, 1.5, 401)
    vals = cutoff_profile(s)
    assert (vals[s <= 0.5] == 1.0).all()
    assert (vals[s >= 1.0] == 0.0).all()
    assert ((vals >= 0) & (vals <= 1)).all()
    assert (np.diff(vals) <= 1e-15).all()          # monotone
    # the slope, by central differences, peaks at RAMP_SUP_DERIVATIVE at s = 3/4
    h = 1e-6
    slope = (cutoff_profile(s + h) - cutoff_profile(s - h)) / (2 * h)
    assert RAMP_SUP_DERIVATIVE == 15.0 / 4.0
    assert np.abs(slope).max() <= RAMP_SUP_DERIVATIVE + 1e-8
    peak = (cutoff_profile(0.75 + h) - cutoff_profile(0.75 - h)) / (2 * h)
    assert peak == pytest.approx(-RAMP_SUP_DERIVATIVE, abs=1e-8)


def test_estimate_report_critical_sphere():
    rep = estimate_report(sphere(2.0), EnergyParams(0.0, 1.0, -1.0),
                          cutoff=((0.0, 0.0, 0.0), 10.0))
    assert abs(rep.terms["residual_sq_gamma4"]) < 1e-10
    assert rep.c_gamma == pytest.approx(15.0 / 4.0 / 10.0)
    assert "no inequality verdict" in rep.note


def test_estimate_report_residual_keeps_spontaneous_curvature():
    # Sphere of radius 2: H = 1, K = 1/4, tracefree part and lap H vanish; the
    # cutoff is 1 on the whole sphere, so the term is residual^2 * area.
    c0, lam1, lam2 = 0.7, 1.0, -1.0
    rep = estimate_report(sphere(2.0), EnergyParams(c0, lam1, lam2),
                          cutoff=((0.0, 0.0, 0.0), 10.0))
    residual = 2 * c0 * 0.25 - (2 * lam1 + 0.5 * c0**2) - 2 * lam2
    assert rep.terms["residual_sq_gamma4"] == pytest.approx(
        residual**2 * 16 * np.pi, rel=1e-10)


def test_estimate_report_plane_lambda2():
    lam2 = 0.5
    rep = estimate_report(plane_patch(), EnergyParams(0.0, 0.0, lam2),
                          cutoff=((0.5, 0.5, 0.0), 0.4))
    grid = QuadratureGrid.for_surface(plane_patch(), 96, 96)

    def gamma4(g):
        r = np.linalg.norm(g.position - np.array([0.5, 0.5, 0.0]), axis=-1)
        return cutoff_profile(r / 0.4) ** 4

    int_g4 = oracle_integrate(plane_patch(), gamma4, grid)
    assert rep.terms["residual_sq_gamma4"] == pytest.approx(
        (2 * lam2) ** 2 * int_g4, rel=1e-10)
    assert rep.terms["residual_sq_gamma4"] > 0


def test_estimate_report_catenoid_gap_ceiling():
    rep = estimate_report(catenoid(1.0, 5.0), EnergyParams(0.0, 1.0, 0.0),
                          cutoff=((0.0, 0.0, 0.0), 10.0))
    gap = rep.terms["gap_on_support"]
    assert gap <= 8 * np.pi
    # sharp-indicator truncation: support is |f| < 10, i.e. cosh^2 v + v^2 < 100
    assert gap > 8 * np.pi * np.tanh(2.0)


def _estimate_integrands_per_term(params, center, radius):
    """The estimate report's six integrands, written out one by one."""
    center = np.asarray(center, float)

    def gamma(g):
        return cutoff_profile(np.linalg.norm(g.position - center, axis=-1) / radius)

    def residual(g):
        return analytic.residual_values(g.laplace_mean_curvature, g.mean_curvature,
                                        g.gauss_curvature, g.tracefree_sq, params)

    return {
        "residual_sq_gamma4": lambda g: residual(g) ** 2 * gamma(g) ** 4,
        "grad_H_sq_gamma2": lambda g: g.grad_mean_sq * gamma(g) ** 2,
        "grad_H_sq_gamma4": lambda g: g.grad_mean_sq * gamma(g) ** 4,
        "tracefree_cubed_gamma4": lambda g: g.tracefree_sq ** 3 * gamma(g) ** 4,
        "a4_tracefree_gamma4": lambda g: (
            (g.mean_curvature**2 - 2.0 * g.gauss_curvature) ** 2
            * g.tracefree_sq * gamma(g) ** 4),
        "gap_on_support": lambda g: g.tracefree_sq * (
            np.linalg.norm(g.position - center, axis=-1) < radius),
    }


@pytest.mark.parametrize("surface, cutoff", [
    (sphere(2.0), ((1.0, 0.5, 0.2), 2.5)),
    (torus(2.0, 1.0), ((2.0, 0.0, 0.5), 1.5)),
    (catenoid(1.0, 2.0), ((0.0, 0.0, 0.0), 3.0)),
    (plane_patch(), ((0.5, 0.5, 0.0), 0.4)),
], ids=["sphere", "torus", "catenoid", "plane"])
def test_oracle_reports_evaluate_each_grid_once_and_match_per_integrand(
        surface, cutoff, monkeypatch):
    params = EnergyParams(0.3, 1.0, -0.7)
    calls = []
    geometry = analytic._geometry

    def counted(*args, **kwargs):
        calls.append(1)
        return geometry(*args, **kwargs)

    monkeypatch.setattr(analytic, "_geometry", counted)
    energies = evaluate_energies(surface, params)
    assert len(calls) == 1
    calls.clear()
    est = estimate_report(surface, params, cutoff=cutoff)
    assert len(calls) == 2
    monkeypatch.undo()

    grid = QuadratureGrid.for_surface(surface, 64, 64)
    assert energies.area == oracle_integrate(surface, lambda g: 1.0, grid)
    assert energies.willmore == oracle_integrate(
        surface, lambda g: 0.25 * g.mean_curvature**2, grid)
    assert energies.breakdown["bending"] == oracle_integrate(
        surface, lambda g: 0.25 * (g.mean_curvature - params.c0) ** 2, grid)
    assert energies.gap == oracle_integrate(surface, lambda g: g.tracefree_sq, grid)
    if surface.closed:
        assert energies.volume == enclosed_volume(surface, grid)

    fine = QuadratureGrid.for_surface(surface, 96, 96)
    half = QuadratureGrid.for_surface(surface, 48, 48)
    integrands = _estimate_integrands_per_term(params, *cutoff)
    assert list(est.terms) == list(integrands) == list(est.error_estimates)
    for name, fn in integrands.items():
        value = oracle_integrate(surface, fn, fine)
        assert repr(est.terms[name]) == repr(value)
        assert repr(est.error_estimates[name]) == repr(
            abs(value - oracle_integrate(surface, fn, half)))
