"""Discrete curvature operators against closed forms and exact invariants."""

import numpy as np
import pytest
import scipy.sparse as sp

import helfrich as hf
from helfrich.curvature import (
    _OneRing,
    angle_defect_total,
    cotan_operator,
    curvature_bundle,
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
        out = (op.stiffness @ np.ones(m.n_vertices)) / op.mass
        assert np.abs(out).max() < 1e-10


def test_laplace_eigenfield_z():
    m = hf.icosphere(1.0, 4)
    op = cotan_operator(m)
    z = m.vertices[:, 2]
    lap = (op.stiffness @ z) / op.mass
    # first spherical harmonic: eigenvalue -2 on the unit sphere
    assert np.linalg.norm(lap + 2.0 * z) / np.linalg.norm(2.0 * z) < 0.02


def test_laplace_of_constant_H_small():
    m = hf.icosphere(1.0, 4)
    op = cotan_operator(m)
    b = curvature_bundle(m)
    lap = (op.stiffness @ b.mean_curvature) / op.mass
    # H is constant on the sphere; the Laplacian sees only estimator noise
    assert np.abs(lap).max() < 0.05


def test_fast_laplacian_matches_operator():
    m = hf.perturbed_sphere(1.0, 0.1, 3)
    bundle = curvature_bundle(m)
    lap_fast = bundle.laplace_mean_curvature
    op = cotan_operator(m)
    lap_op = (op.stiffness @ bundle.mean_curvature) / op.mass
    assert np.abs(lap_fast - lap_op).max() < 1e-10 * max(np.abs(lap_op).max(), 1.0)


def test_mixed_voronoi_tiles_surface():
    m = hf.perturbed_sphere(1.0, 0.15, 3)
    b = curvature_bundle(m)
    assert np.isclose(b.vertex_area.sum(), hf.mesh_integrals(m)["area"], rtol=1e-12)


# -- the column-wise face pass against the (F, 3) formulation -------------------

def _reference_bundle(mesh):
    """The curvature pass written on (F, 3) blocks with np.cross, einsum and
    linalg.norm; the column-wise kernel must reproduce it bitwise."""
    V, f = mesh.n_vertices, mesh.faces
    p0, p1, p2 = (mesh.vertices[f[:, k]] for k in range(3))
    e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0
    cross = np.cross(e2, -e1)
    double_area = np.linalg.norm(cross, axis=1)
    area = 0.5 * double_area
    bad = area <= hf.mesh.DEGENERATE_AREA_REL * mesh.bbox_diagonal() ** 2
    if bad.any():
        raise OperatorError(f"degenerate face {int(np.nonzero(bad)[0][0])}")
    dots = np.stack([np.einsum("ij,ij->i", -e1, e2), np.einsum("ij,ij->i", -e2, e0),
                     np.einsum("ij,ij->i", -e0, e1)], axis=1)
    cots = dots / double_area[:, None]
    angles = np.arctan2(double_area[:, None], dots)
    l0, l1, l2 = (np.einsum("ij,ij->i", e, e) for e in (e0, e1, e2))
    voronoi = np.stack([l2 * cots[:, 2] + l1 * cots[:, 1], l0 * cots[:, 0] + l2 * cots[:, 2],
                        l1 * cots[:, 1] + l0 * cots[:, 0]], axis=1) / 8.0
    obtuse = cots < 0.0
    fallback = obtuse.any(axis=1)
    voronoi[fallback] = (np.where(obtuse, 0.5, 0.25) * area[:, None])[fallback]

    def scatter(idx, values):
        return np.stack([np.bincount(idx, weights=values[:, c], minlength=V)
                         for c in range(values.shape[1])], axis=1)

    areas = np.bincount(f.reshape(-1), weights=voronoi.reshape(-1), minlength=V)
    acc = np.zeros((V, 3))
    for c in range(3):
        acc += scatter(f[:, c], cross)
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    inward = -acc / norms
    i = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    j = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    w = 0.5 * np.concatenate([cots[:, 0], cots[:, 1], cots[:, 2]])
    flux = w[:, None] * (mesh.vertices[j] - mesh.vertices[i])
    H = np.einsum("ij,ij->i", scatter(i, flux) + scatter(j, -flux), inward) / areas
    K = (2.0 * np.pi - np.bincount(f.reshape(-1), weights=angles.reshape(-1),
                                   minlength=V)) / areas
    H[mesh.boundary_vertex] = np.nan
    K[mesh.boundary_vertex] = np.nan
    d = w * (H[j] - H[i])
    return {
        "vertex_area": areas, "normal": inward, "mean_curvature": H,
        "gauss_curvature": K, "tracefree_raw": 0.5 * H * H - 2.0 * K,
        "laplace_mean_curvature": (np.bincount(i, d, V) + np.bincount(j, -d, V)) / areas,
        "interior": ~mesh.boundary_vertex, "obtuse_faces": int(fallback.sum()),
        "stiffness": _coo_stiffness(mesh, w)}


def _coo_stiffness(mesh, w):
    """The cotangent stiffness from scipy's COO to CSR conversion: face edge
    (i, j) of weight w adds (i, j, w), (j, i, w), (i, i, -w) and (j, j, -w)."""
    f = mesh.faces
    i = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    j = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    V = mesh.n_vertices
    return sp.coo_matrix((np.concatenate([w, w, -w, -w]),
                          (np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j]))),
                         shape=(V, V)).tocsr()


def _assert_matches_coo(K, ref):
    """K against a COO to CSR reference: the same pattern, the off-diagonal
    entries bitwise and the diagonal ones to 1e-15 relative, since they add
    the same terms in another order."""
    assert np.array_equal(K.indptr, ref.indptr)
    assert np.array_equal(K.indices, ref.indices)
    diag = K.indices == np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    assert np.array_equal(K.data[~diag], ref.data[~diag])
    assert np.all(np.abs(K.data[diag] - ref.data[diag]) <= 1e-15 * np.abs(ref.data[diag]))


def _sheared_sphere():
    m = hf.icosphere(1.0, 3)
    v = m.vertices * [1.0, 1.0, 0.15]
    v[:, 0] += 0.7 * v[:, 1]
    return hf.TriangleMesh(v, m.faces)


@pytest.mark.parametrize("make", [
    *(lambda level=level: hf.perturbed_sphere(2.0, 0.2, level) for level in (1, 2, 3)),
    lambda: hf.catenoid_mesh(1.0, 2.0, (24, 16)),
    lambda: hf.flat_patch((12, 12)),
    _sheared_sphere,
], ids=["sphere_L1", "sphere_L2", "sphere_L3", "catenoid", "flat", "sheared"])
def test_face_pass_matches_reference_bitwise(make):
    m = make()
    ref = _reference_bundle(m)
    b = curvature_bundle(m)
    for name in ("vertex_area", "normal", "mean_curvature", "gauss_curvature",
                 "tracefree_raw", "laplace_mean_curvature", "interior"):
        assert np.array_equal(getattr(b, name), ref[name], equal_nan=True), name
    assert b.obtuse_faces == ref["obtuse_faces"]
    op = cotan_operator(m)
    assert np.array_equal(op.mass, ref["vertex_area"])
    _assert_matches_coo(op.stiffness, ref["stiffness"])


def _flipped_face():
    """A perturbed sphere with one face reversed, so that its edges repeat
    directed edges of its neighbours."""
    m = hf.perturbed_sphere(2.0, 0.2, 2)
    faces = m.faces.copy()
    faces[7] = faces[7, ::-1]
    return hf.TriangleMesh(m.vertices, faces)


def _unreferenced_vertex():
    """A perturbed sphere with an extra vertex 5 that no face uses."""
    m = hf.perturbed_sphere(2.0, 0.2, 2)
    vertices = np.insert(m.vertices, 5, [9.0, 9.0, 9.0], axis=0)
    return hf.TriangleMesh(vertices, m.faces + (m.faces >= 5))


@pytest.mark.parametrize("make", [
    *(lambda level=level: hf.icosphere(1.0, level) for level in (1, 2, 3, 4, 5)),
    *(lambda level=level: hf.perturbed_sphere(2.0, 0.2, level) for level in (2, 4)),
    lambda: hf.catenoid_mesh(1.0, 2.0, (24, 16)),
    _sheared_sphere,
    _flipped_face,
    _unreferenced_vertex,
], ids=["ico_L1", "ico_L2", "ico_L3", "ico_L4", "ico_L5", "sphere_L2", "sphere_L4",
        "catenoid", "sheared", "flipped_face", "unreferenced_vertex"])
def test_stiffness_fill_is_cotan_operator_bitwise(make):
    """K's data from a bundle's edge weights on the 1-ring, as energy descent
    fills it, is bitwise cotan_operator's stiffness, whose pattern is that of
    scipy's COO to CSR conversion: a vertex no face uses has no entry."""
    m = make()
    K = cotan_operator(m).stiffness
    with np.errstate(divide="ignore", invalid="ignore"):     # the unused vertex
        bundle = curvature_bundle(m)
    assert bundle.edge_weight.shape == (3, m.n_faces)
    ring = _OneRing(m)
    assert np.array_equal(ring.indptr, K.indptr)
    assert np.array_equal(ring.indices, K.indices)
    assert np.array_equal(ring.stiffness(bundle.edge_weight), K.data)
    _assert_matches_coo(K, _coo_stiffness(m, bundle.edge_weight.reshape(-1)))
    if make is _sheared_sphere:
        assert bundle.obtuse_faces > 0
    if make is _flipped_face:
        assert m._duplicate_directed.any()
    if make is _unreferenced_vertex:
        assert K.indptr[5] == K.indptr[6]


def test_degenerate_face_index_matches_reference():
    m = hf.icosphere(1.0, 2)
    verts = m.vertices.copy()
    verts[m.faces[37, 2]] = verts[m.faces[37, 0]]
    bad = hf.TriangleMesh(verts, m.faces)
    with pytest.raises(OperatorError) as ref:
        _reference_bundle(bad)
    for op in (curvature_bundle, cotan_operator, angle_defect_total):
        with pytest.raises(OperatorError) as got:
            op(bad)
        assert str(got.value) == str(ref.value)


# -- block meshes against one bundle per mesh -----------------------------------

BUNDLE_ARRAYS = ("vertex_area", "normal", "mean_curvature", "gauss_curvature",
                 "tracefree_raw", "laplace_mean_curvature")


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _position_stack(mesh, rows, seed):
    """rows position sets: the mesh's own, then seeded 1e-3 jitters of it."""
    rng = np.random.default_rng(seed)
    scale = 1e-3 * mesh.bbox_diagonal()
    jitter = scale * rng.standard_normal((rows - 1, *mesh.vertices.shape))
    return np.concatenate([mesh.vertices[None], mesh.vertices + jitter])


@pytest.mark.parametrize("make", [
    *(lambda level=level: hf.perturbed_sphere(2.0, 0.2, level) for level in (1, 2, 3)),
    lambda: hf.catenoid_mesh(1.0, 2.0, (24, 16)),
    _sheared_sphere,
], ids=["sphere_L1", "sphere_L2", "sphere_L3", "catenoid", "sheared"])
def test_block_mesh_rows_match_per_mesh_bitwise(make):
    """Copy k of a block mesh, read at vertices k V ... (k + 1) V - 1, is
    bitwise the bundle of copy k's positions on the mesh itself."""
    from helfrich.flow import _block_mesh

    m = make()
    V = m.n_vertices
    stack = _position_stack(m, 5, seed=V)
    block = _block_mesh(m, len(stack)).with_positions(stack.reshape(-1, 3))
    both = curvature_bundle(block)
    assert np.array_equal(both.interior, np.tile(~m.boundary_vertex, len(stack)))
    obtuse = []
    for k, positions in enumerate(stack):
        single = curvature_bundle(m.with_positions(positions))
        row = slice(k * V, (k + 1) * V)
        for name in BUNDLE_ARRAYS:
            assert _bits(getattr(both, name)[row]) == _bits(getattr(single, name)), name
        assert _bits(both.edge_weight[:, k * m.n_faces:(k + 1) * m.n_faces]) \
            == _bits(single.edge_weight)
        obtuse.append(single.obtuse_faces)
    assert both.obtuse_faces == sum(obtuse)
    if make is _sheared_sphere:
        assert min(obtuse) > 0          # the obtuse-triangle fallback ran
    if not m.closed:
        assert np.isnan(both.mean_curvature.reshape(len(stack), V)
                        [:, m.boundary_vertex]).all()
