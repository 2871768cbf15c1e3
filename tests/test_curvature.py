"""Discrete curvature operators against closed forms and exact invariants."""

import numpy as np
import pytest

import helfrich as hf
from helfrich.curvature import (
    angle_defect_total,
    cotan_operator,
    curvature_bundle,
    laplace_field,
)
from helfrich.errors import OperatorError


def test_sphere_curvatures_level4():
    m = hf.icosphere(2.0, 4)
    b = curvature_bundle(m)
    assert np.abs(b.mean_curvature - 1.0).max() < 0.01
    assert np.abs(b.gauss_curvature - 0.25).max() / 0.25 < 0.02
    assert b.tracefree_sq.max() <= 1e-2


def test_sphere_curvature_refinement():
    errs_H, errs_K = [], []
    for level in (2, 3, 4, 5):
        b = curvature_bundle(hf.icosphere(2.0, level))
        errs_H.append(np.abs(b.mean_curvature - 1.0).max())
        errs_K.append(np.abs(b.gauss_curvature - 0.25).max())
    assert all(b < a for a, b in zip(errs_H, errs_H[1:]))
    assert all(b < a for a, b in zip(errs_K, errs_K[1:]))


def test_flat_patch_zero_curvature():
    b = curvature_bundle(hf.flat_patch((12, 12)))
    i = b.interior
    assert i.sum() > 0
    assert np.abs(b.mean_curvature[i]).max() < 1e-10
    assert np.abs(b.gauss_curvature[i]).max() < 1e-10
    assert b.tracefree_sq[i].max() < 1e-10
    assert np.isnan(b.mean_curvature[~i]).all()


def test_catenoid_mid_band():
    m = hf.catenoid_mesh(1.0, 2.0, (64, 64))
    b = curvature_bundle(m)
    v = m.vertices[:, 2]
    band = b.interior & (np.abs(v) < 0.5)
    # minimal surface: H vanishes; principal curvature scale is 1 at the waist
    assert np.abs(b.mean_curvature[band]).max() <= 0.03
    expected = 2.0 / np.cosh(v[band]) ** 4
    assert (np.abs(b.tracefree_sq[band] - expected) / expected).max() <= 0.05
    assert b.clamp_fraction <= 0.01


def test_gauss_bonnet_any_closed_geometry():
    for m in (hf.icosphere(0.7, 3), hf.perturbed_sphere(2.0, 0.2, 3)):
        b = curvature_bundle(m)
        total = (b.gauss_curvature * b.vertex_area).sum()
        assert abs(total - 4 * np.pi) < 1e-9
        assert abs(angle_defect_total(m) - 4 * np.pi) < 1e-9


def test_tracefree_identity_after_clamp():
    b = curvature_bundle(hf.perturbed_sphere(1.0, 0.05, 4))
    i = b.interior
    raw = 0.5 * b.mean_curvature[i] ** 2 - 2.0 * b.gauss_curvature[i]
    assert np.allclose(b.tracefree_sq[i], np.maximum(raw, 0.0), atol=b.clamp_max + 1e-15)
    # clamp magnitude stays at discretization-noise scale relative to H^2/2
    assert b.clamp_max < 0.01 * np.nanmax(0.5 * b.mean_curvature**2)


def test_tracefree_sq_is_clamped_raw():
    for m in (hf.icosphere(2.0, 3), hf.catenoid_mesh(1.0, 2.0, (24, 16))):
        b = curvature_bundle(m)
        i = b.interior
        assert np.array_equal(b.tracefree_sq[i], np.maximum(b.tracefree_raw[i], 0.0))
        clamped = b.tracefree_raw[i] < 0.0
        assert b.clamp_count == int(clamped.sum())
        assert b.clamp_max == (np.abs(b.tracefree_raw[i][clamped]).max()
                               if clamped.any() else 0.0)


def test_clamp_statistics_reported():
    # near-umbilic benchmarks sit on the clamp boundary, so the frequency is
    # only meaningful away from them: the catenoid never clamps
    b = curvature_bundle(hf.catenoid_mesh(1.0, 2.0, (64, 64)))
    assert b.clamp_fraction <= 0.01
    # on the round sphere everything clamps benignly, magnitude ~ noise
    b2 = curvature_bundle(hf.icosphere(2.0, 4))
    assert b2.clamp_max < 0.01 * np.nanmax(0.5 * b2.mean_curvature**2)


def test_scale_covariance_exact():
    m = hf.perturbed_sphere(1.0, 0.1, 3)
    b = curvature_bundle(m)
    s = 3.7
    b2 = curvature_bundle(hf.TriangleMesh(s * m.vertices, m.faces))
    i = b.interior
    assert np.abs(b2.mean_curvature[i] - b.mean_curvature[i] / s).max() < 1e-9
    assert np.abs(b2.gauss_curvature[i] - b.gauss_curvature[i] / s**2).max() < 1e-9
    assert np.abs(b2.tracefree_sq[i] - b.tracefree_sq[i] / s**2).max() < 1e-9


def test_degenerate_face_raises():
    m = hf.icosphere(1.0, 2)
    verts = m.vertices.copy()
    verts[m.faces[5, 1]] = verts[m.faces[5, 0]]   # collapse one edge
    with pytest.raises(OperatorError, match="degenerate face"):
        curvature_bundle(hf.TriangleMesh(verts, m.faces))


def test_operator_row_sums_and_symmetry():
    op = cotan_operator(hf.perturbed_sphere(1.0, 0.1, 3))
    rows = np.asarray(op.stiffness.sum(axis=1)).ravel()
    scale = np.abs(op.stiffness).max()
    assert np.abs(rows).max() < 1e-10 * scale
    asym = (op.stiffness - op.stiffness.T)
    assert abs(asym).max() == 0.0


def test_laplace_constant_zero():
    for m in (hf.icosphere(1.0, 3), hf.catenoid_mesh(1.0, 1.0, (24, 24))):
        op = cotan_operator(m)
        out = laplace_field(op, np.ones(m.n_vertices))
        assert np.abs(out).max() < 1e-10


def test_laplace_eigenfield_z():
    m = hf.icosphere(1.0, 4)
    op = cotan_operator(m)
    z = m.vertices[:, 2]
    lap = laplace_field(op, z)
    # first spherical harmonic: eigenvalue -2 on the unit sphere
    assert np.linalg.norm(lap + 2.0 * z) / np.linalg.norm(2.0 * z) < 0.02


def test_laplace_of_constant_H_small():
    m = hf.icosphere(1.0, 4)
    op = cotan_operator(m)
    b = curvature_bundle(m)
    lap = laplace_field(op, b.mean_curvature)
    # H is constant on the sphere; the Laplacian sees only estimator noise
    assert np.abs(lap).max() < 0.05


def test_laplace_shape_mismatch():
    op = cotan_operator(hf.icosphere(1.0, 2))
    with pytest.raises(OperatorError):
        laplace_field(op, np.ones(7))


def test_fast_laplacian_matches_operator():
    m = hf.perturbed_sphere(1.0, 0.1, 3)
    bundle = curvature_bundle(m)
    lap_fast = bundle.laplace_mean_curvature
    op = cotan_operator(m)
    lap_op = laplace_field(op, bundle.mean_curvature)
    assert np.abs(lap_fast - lap_op).max() < 1e-10 * max(np.abs(lap_op).max(), 1.0)


def test_mixed_voronoi_tiles_surface():
    m = hf.perturbed_sphere(1.0, 0.15, 3)
    b = curvature_bundle(m)
    assert np.isclose(b.vertex_area.sum(), hf.mesh_integrals(m)["area"], rtol=1e-12)
