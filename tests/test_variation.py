"""Euler-Lagrange residuals and gradient cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helfrich as hf
from helfrich.analytic import QuadratureGrid, plane_patch, sphere
from helfrich.curvature import cotan_operator, curvature_bundle
from helfrich.energy import EnergyParams, evaluate_energies
from helfrich.errors import UndefinedFunctionalError, UnsupportedError
from helfrich.mesh import signed_volume
from helfrich.variation import (
    FD_STEP_REL,
    area_gradient,
    directional_derivative_fd,
    el_residual,
    energy_gradient,
    gradient_check,
    mesh_energy,
    random_smooth_fields,
    volume_gradient,
)


def _fd_energy_gradient(mesh, params):
    """Reference: central differences of the energy per vertex coordinate,
    step FD_STEP_REL x bounding-box diagonal (6V energy evaluations)."""
    h = FD_STEP_REL * mesh.bbox_diagonal()
    grad = np.zeros((mesh.n_vertices, 3))
    base = mesh.vertices.copy()
    for i in range(mesh.n_vertices):
        for c in range(3):
            for sign in (1.0, -1.0):
                pos = base.copy()
                pos[i, c] += sign * h
                grad[i, c] += sign * mesh_energy(mesh.with_positions(pos), params)
    return grad / (2.0 * h)


def test_oracle_residual_critical_sphere():
    field = el_residual(sphere(2.0), EnergyParams(0.0, 1.0, -1.0))
    assert np.abs(field.values).max() < 1e-12
    assert field.l2 < 1e-12


def test_oracle_residual_unit_sphere():
    field = el_residual(sphere(1.0), EnergyParams(0.0, 1.0, -1.0))
    assert np.allclose(field.values, -2.0, atol=1e-12)


def test_plane_residual_is_minus_two_lambda2():
    for lam2 in (0.0, 0.5, -1.2):
        field = el_residual(plane_patch(), EnergyParams(0.0, 3.0, lam2))
        assert np.allclose(field.values, -2.0 * lam2, atol=1e-13)


def test_mesh_residual_decreases_under_refinement():
    params = EnergyParams(0.0, 1.0, -1.0)
    l2 = [el_residual(hf.icosphere(2.0, level), params).l2 for level in (3, 4, 5)]
    assert l2[1] <= 0.05
    assert l2[2] < l2[1] < l2[0]


def test_spontaneous_curvature_reduction_exact():
    """c0 = 0 goes through the same arithmetic as the plain operator."""
    m = hf.perturbed_sphere(1.0, 0.1, 3)
    with_c0 = el_residual(m, EnergyParams(0.0, 1.2, -0.4))
    lam = EnergyParams(0.0, 1.2, -0.4)
    bundle_based = el_residual(m, lam)
    assert np.array_equal(with_c0.values, bundle_based.values)

    # and against the explicit formula
    from helfrich.curvature import curvature_bundle
    b = curvature_bundle(m)
    lapH = b.laplace_mean_curvature
    manual = (lapH + b.mean_curvature * b.tracefree_sq
              - 2 * 1.2 * b.mean_curvature + 2 * 0.4)
    assert np.array_equal(with_c0.values, manual)


def test_spontaneous_curvature_term():
    g = el_residual(sphere(1.0), EnergyParams(0.7, 1.0, -1.0))
    # lapH=0, Ao2=0, K=1, H=2: 2*c0*K - (2 l1 + c0^2/2) H - 2 l2
    expected = 2 * 0.7 - (2 + 0.49 / 2) * 2 + 2
    assert np.allclose(g.values, expected, atol=1e-12)


def test_residual_rigid_motion_invariance():
    params = EnergyParams(0.0, 1.0, -1.0)
    m = hf.perturbed_sphere(1.0, 0.1, 3)
    base = el_residual(m, params)
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                    [np.sin(theta), np.cos(theta), 0],
                    [0, 0, 1.0]])
    moved = hf.TriangleMesh(m.vertices @ rot.T + [0.3, -0.2, 1.1], m.faces)
    shifted = el_residual(moved, params)
    assert np.abs(shifted.values - base.values).max() < 1e-9


def test_sphere_family_root_properties():
    from helfrich.classify import critical_sphere_radius, sphere_residual
    # lam1>0, lam2<0: single root at -2 lam1/lam2
    p = EnergyParams(0.0, 1.5, -0.6)
    rho_star = critical_sphere_radius(p)
    assert rho_star == pytest.approx(5.0, abs=1e-12)
    assert abs(sphere_residual(p, rho_star)) < 1e-12
    # lam1>0, lam2>0: residual magnitude bounded below by 2 lam2
    p2 = EnergyParams(0.0, 1.0, 0.5)
    rho = np.linspace(0.1, 1000, 10001)
    assert np.abs(sphere_residual(p2, rho)).min() >= 2 * 0.5
    # lam1=lam2=0: identically zero
    p3 = EnergyParams(0.0, 0.0, 0.0)
    assert np.abs(sphere_residual(p3, rho)).max() == 0.0


def test_open_mesh_residual_masks_boundary_stencil():
    m = hf.catenoid_mesh(1.0, 2.0, (32, 32))
    field = el_residual(m, EnergyParams(0.0, 0.5, -0.3))
    assert field.interior.sum() > 0
    assert np.isfinite(field.values[field.interior]).all()
    assert np.isfinite(field.l2) and np.isfinite(field.linf)
    # rows touching the boundary are excluded from the mask
    assert field.interior.sum() < (~m.boundary_vertex).sum()


@pytest.mark.parametrize("make", [lambda: hf.catenoid_mesh(1.0, 2.0, (32, 32)),
                                  lambda: hf.flat_patch((9, 7))],
                         ids=["catenoid", "flat_patch"])
def test_stencil_interior_matches_logical_or_at(make):
    from helfrich.curvature import curvature_bundle
    from helfrich.variation import _stencil_interior
    m = make()
    interior = curvature_bundle(m).interior
    nbr_bad = np.zeros(m.n_vertices, dtype=bool)
    np.logical_or.at(nbr_bad, m.he_origin, ~interior[m.he_dest])
    mask = _stencil_interior(m, interior)
    assert np.array_equal(mask, interior & ~nbr_bad)
    assert mask.any() and (mask != interior).any()


def test_oracle_residual_needs_stored_laplacian():
    from helfrich.analytic import graph_surface
    s = graph_surface(lambda x, y: x * y, lambda x, y: y, lambda x, y: x,
                      lambda x, y: np.zeros_like(x),
                      lambda x, y: np.ones_like(x),
                      lambda x, y: np.zeros_like(x))
    with pytest.raises(UnsupportedError):
        el_residual(s, EnergyParams())


def test_residual_csv_dump(tmp_path):
    field = el_residual(hf.icosphere(1.0, 2), EnergyParams(0.0, 1.0, -1.0))
    path = tmp_path / "res.csv"
    field.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex,residual,area,interior"
    assert len(lines) == 1 + 162


def test_exact_gradients_match_fd():
    m = hf.perturbed_sphere(1.0, 0.05, 3)
    rep = gradient_check(m, EnergyParams(0.0, 1.0, -1.0), n_fields=10, seed=3)
    assert rep.area_max_rel <= 1e-8
    assert rep.volume_max_rel <= 1e-8


def _sheared_sphere():
    m = hf.icosphere(1.0, 3)
    v = m.vertices * [1.0, 1.0, 0.15]
    v[:, 0] += 0.7 * v[:, 1]
    return hf.TriangleMesh(v, m.faces)


def _three_fd_rows(mesh, params, n_fields, seed):
    """Reference: gradient_check's rows from one finite difference per row,
    with the area row differencing face_areas().sum() on its own meshes."""
    diag = mesh.bbox_diagonal()
    g_area, g_vol = area_gradient(mesh), volume_gradient(mesh)
    g_full = energy_gradient(mesh, params)

    def rel(analytic, fd):
        return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)

    rows = []
    for k, d in enumerate(random_smooth_fields(mesh, n_fields, seed=seed)):
        fd_area = directional_derivative_fd(
            mesh, params, d, 1e-4 * diag, energy_fn=lambda m: m.face_areas().sum())
        fd_vol = directional_derivative_fd(mesh, params, d, 1e-2 * diag,
                                           energy_fn=signed_volume)
        fd_full = directional_derivative_fd(mesh, params, d, 1e-4 * diag)
        rows.append({"field": k,
                     "area_rel": rel(float((g_area * d).sum()), fd_area),
                     "volume_rel": rel(float((g_vol * d).sum()), fd_vol),
                     "full_rel": rel(float((g_full * d).sum()), fd_full)})
    return rows


@pytest.mark.parametrize("make", [
    lambda: hf.perturbed_sphere(1.0, 0.05, 3),
    lambda: hf.perturbed_sphere(2.0, 0.2, 4),
    _sheared_sphere,
], ids=["perturbed_L3", "perturbed_L4", "sheared"])
def test_gradient_check_area_row_from_energy_evaluations(make, monkeypatch):
    """The area row reads the full energy's displaced meshes and is bitwise
    the row of its own finite difference; no face_areas call is made."""
    m = make()
    params = EnergyParams(0.3, 1.0, -1.0)
    ref = _three_fd_rows(m, params, 6, seed=5)
    calls = []
    face_areas = hf.TriangleMesh.face_areas
    monkeypatch.setattr(hf.TriangleMesh, "face_areas",
                        lambda self: calls.append(1) or face_areas(self))
    rep = gradient_check(m, params, n_fields=6, seed=5)
    assert not calls
    assert rep.per_field == ref


def test_full_gradient_discretization_limited():
    m = hf.perturbed_sphere(1.0, 0.05, 4)
    rep = gradient_check(m, EnergyParams(0.0, 1.0, -1.0), n_fields=10, seed=3)
    assert rep.full_max_rel <= 5e-2


def test_translation_invariance():
    m = hf.icosphere(1.0, 2)
    params = EnergyParams(0.0, 0.7, -0.2)
    d = np.tile([0.3, -0.5, 0.8], (m.n_vertices, 1))
    fd = directional_derivative_fd(m, params, d)
    assert abs(fd) < 1e-8
    g = _fd_energy_gradient(m, params)
    assert np.abs(g.sum(axis=0)).max() < 1e-6


def test_fd_and_assembled_gradients_agree_directionally():
    # smooth directions at a state with O(1) gradients; rough fields probe
    # only discretization noise and are exercised via gradient_check instead
    m = hf.perturbed_sphere(1.0, 0.05, 2)
    params = EnergyParams(0.0, 1.0, -1.0)
    g_fd = _fd_energy_gradient(m, params)
    g_as = energy_gradient(m, params)
    for d in random_smooth_fields(m, 5, seed=0):
        a, b = float((g_fd * d).sum()), float((g_as * d).sum())
        assert abs(a - b) / max(abs(a), abs(b), 1e-12) < 0.1


def test_open_mesh_lambda_energy_undefined():
    patch = hf.flat_patch((6, 6))
    with pytest.raises(UndefinedFunctionalError):
        mesh_energy(patch, EnergyParams(0.0, 1.0, 0.0))
    with pytest.raises(UndefinedFunctionalError):
        energy_gradient(patch, EnergyParams(0.0, 1.0, 0.0))
    # pure bending is fine
    assert mesh_energy(patch, EnergyParams()) == pytest.approx(0.0, abs=1e-20)


def _add_at_corners(mesh, values):
    """Reference scatter: np.add.at of each corner's (F, 3) values in turn."""
    out = np.zeros((mesh.n_vertices, 3))
    for corner, v in enumerate(values):
        np.add.at(out, mesh.faces[:, corner], v)
    return out


@pytest.mark.parametrize("make", [
    *(lambda level=level: hf.perturbed_sphere(1.0, 0.1, level) for level in (3, 4, 5)),
    lambda: hf.flat_patch((12, 9), (1.0, 0.7)),
], ids=["L3", "L4", "L5", "open_patch"])
def test_area_volume_gradients_sum_like_add_at_bitwise(make):
    m = make()
    p0, p1, p2 = m.face_corner_positions()
    n = np.cross(p1 - p0, p2 - p0)
    n_hat = n / np.linalg.norm(n, axis=1, keepdims=True)
    area = _add_at_corners(m, [0.5 * np.cross(n_hat, p2 - p1),
                               0.5 * np.cross(n_hat, p0 - p2),
                               0.5 * np.cross(n_hat, p1 - p0)])
    volume = _add_at_corners(m, [np.cross(p1, p2) / 6.0, np.cross(p2, p0) / 6.0,
                                 np.cross(p0, p1) / 6.0])
    assert np.array_equal(area_gradient(m), area)
    assert np.array_equal(volume_gradient(m), volume)


def test_area_volume_gradient_shapes_and_sphere_direction():
    m = hf.icosphere(1.0, 3)
    ga, gv = area_gradient(m), volume_gradient(m)
    assert ga.shape == gv.shape == (m.n_vertices, 3)
    # on a sphere both point radially outward
    r_hat = m.vertices / np.linalg.norm(m.vertices, axis=1, keepdims=True)
    assert (np.einsum("ij,ij->i", ga, r_hat) > 0).all()
    assert (np.einsum("ij,ij->i", gv, r_hat) > 0).all()


def _scaled(params, s):
    """The weights that keep the Helfrich total under x -> s x."""
    return EnergyParams(params.c0 / s, params.lam1 / s**2, params.lam2 / s**3)


def _residual_terms(params, H, K, tracefree_sq):
    """|H A0^2| + |2 c0 K| + |(2 lam1 + c0^2/2) H| + |2 lam2| per point:
    the size of the residual's terms other than the Laplacian of H."""
    c0 = params.c0
    return (np.abs(H * tracefree_sq) + np.abs(2.0 * c0 * K)
            + np.abs((2.0 * params.lam1 + 0.5 * c0 * c0) * H) + abs(2.0 * params.lam2))


def _assert_scaling_law(report, scaled_report, r, scaled_r, s, r_scale):
    """W and the Helfrich total are invariant and s^3 times the scaled
    residual is the residual: bitwise when s is a power of two, whose
    products round exactly, and to roundoff otherwise."""
    eps = np.finfo(float).eps
    if s == 2.0 ** round(np.log2(s)):
        assert scaled_report.willmore == report.willmore
        assert scaled_report.helfrich == report.helfrich
        assert np.array_equal(s**3 * scaled_r, r)
        return
    terms = sum(abs(report.breakdown[k]) for k in ("bending", "area_term", "volume_term"))
    assert abs(scaled_report.willmore - report.willmore) <= 4 * eps * report.willmore
    assert abs(scaled_report.helfrich - report.helfrich) <= 16 * eps * terms
    assert np.abs(s**3 * scaled_r - r).max() <= 1e-13 * r_scale


_WEIGHT = st.integers(-128, 128).map(lambda k: k / 64)
_SCALE = st.one_of(st.integers(-4, 4).map(lambda k: 2.0**k), st.floats(0.25, 4.0))


@settings(max_examples=40, deadline=None)
@given(level=st.integers(1, 3), amplitude=st.floats(0.0, 0.2),
       radius=st.floats(0.5, 4.0), c0=_WEIGHT, lam1=_WEIGHT, lam2=_WEIGHT, s=_SCALE)
def test_mesh_scaling_law(level, amplitude, radius, c0, lam1, lam2, s):
    """x -> s x with (c0, lam1, lam2) -> (c0 / s, lam1 / s^2, lam2 / s^3)
    keeps W and the Helfrich total and divides the residual by s^3.  The
    residual's roundoff scale includes |K| |H| / M, the size of the terms
    the cotangent Laplacian of H cancels."""
    params = EnergyParams(c0, lam1, lam2)
    m = hf.perturbed_sphere(radius, amplitude, level)
    big = m.with_positions(s * m.vertices)
    b, op = curvature_bundle(m), cotan_operator(m)
    H = b.mean_curvature
    r_scale = (abs(op.stiffness) @ np.abs(H) / b.vertex_area
               + _residual_terms(params, H, b.gauss_curvature, b.tracefree_sq)).max()
    _assert_scaling_law(evaluate_energies(m, params),
                        evaluate_energies(big, _scaled(params, s)),
                        el_residual(m, params).values,
                        el_residual(big, _scaled(params, s)).values, s, r_scale)


@settings(max_examples=40, deadline=None)
@given(radius=st.floats(0.5, 4.0), c0=_WEIGHT, lam1=_WEIGHT, lam2=_WEIGHT, s=_SCALE)
def test_oracle_sphere_scaling_law(radius, c0, lam1, lam2, s):
    """The same law on the oracle sphere: sphere(s R) with the scaled
    weights against sphere(R), on the default quadrature grid."""
    params = EnergyParams(c0, lam1, lam2)
    surface = sphere(radius)
    uu, vv, _ = QuadratureGrid.for_surface(surface, 64, 64).mesh()
    g = surface.geometry(uu, vv)
    r_scale = _residual_terms(params, g.mean_curvature, g.gauss_curvature,
                              g.tracefree_sq).max()
    big = sphere(s * radius)
    _assert_scaling_law(evaluate_energies(surface, params),
                        evaluate_energies(big, _scaled(params, s)),
                        el_residual(surface, params).values,
                        el_residual(big, _scaled(params, s)).values, s, r_scale)
