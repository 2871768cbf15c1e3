"""Euler-Lagrange residuals and gradient cross-checks."""

import numpy as np
import pytest

import helfrich as hf
from helfrich.analytic import plane_patch, sphere
from helfrich.energy import EnergyParams
from helfrich.errors import UndefinedFunctionalError, UnsupportedError
from helfrich.variation import (
    area_gradient,
    directional_derivative_fd,
    el_residual,
    energy_gradient,
    gradient_check,
    mesh_energy,
    volume_gradient,
)


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
    g = energy_gradient(m, params, method="finite_difference")
    assert np.abs(g.sum(axis=0)).max() < 1e-6


def test_fd_and_assembled_gradients_agree_directionally():
    # smooth directions at a state with O(1) gradients; rough fields probe
    # only discretization noise and are exercised via gradient_check instead
    from helfrich.variation import random_smooth_fields
    m = hf.perturbed_sphere(1.0, 0.05, 2)
    params = EnergyParams(0.0, 1.0, -1.0)
    g_fd = energy_gradient(m, params, method="finite_difference")
    g_as = energy_gradient(m, params, method="assembled")
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


def test_area_volume_gradient_shapes_and_sphere_direction():
    m = hf.icosphere(1.0, 3)
    ga, gv = area_gradient(m), volume_gradient(m)
    assert ga.shape == gv.shape == (m.n_vertices, 3)
    # on a sphere both point radially outward
    r_hat = m.vertices / np.linalg.norm(m.vertices, axis=1, keepdims=True)
    assert (np.einsum("ij,ij->i", ga, r_hat) > 0).all()
    assert (np.einsum("ij,ij->i", gv, r_hat) > 0).all()
