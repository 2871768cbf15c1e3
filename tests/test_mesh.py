"""Mesh construction, invariants, refinement, and file round trips."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helfrich as hf
from helfrich.curvature import angle_defect_total
from helfrich.errors import MeshInputError, ParameterError, TopologyError, UnsupportedError
from helfrich.mesh import PrimitiveSpec, radial_profile


def test_icosphere_counts_and_topology():
    m = hf.icosphere(1.0, 3)
    assert m.n_vertices == 10 * 4**3 + 2 == 642
    assert m.closed
    assert m.euler_characteristic == 2
    d = hf.validate(m)
    assert d.ok and d.boundary_loops == 0


def test_catenoid_topology():
    m = hf.catenoid_mesh(1.0, 2.0, (64, 64))
    assert m.n_vertices == 64 * 64
    assert not m.closed
    assert m.euler_characteristic == 0
    d = hf.validate(m)
    assert d.ok
    assert d.boundary_loops == 2


def test_perturbed_sphere_amplitude_bound():
    m = hf.perturbed_sphere(2.0, 0.05, 4)
    assert m.closed and m.euler_characteristic == 2
    r = np.linalg.norm(m.vertices, axis=1)
    assert np.abs(r - 2.0).max() <= 0.1 * 2.0


def test_radial_profile_zero_mean():
    # all monomials odd => exact zero mean over the unit sphere; check by
    # quadrature on a fine spherical grid
    from helfrich.analytic import QuadratureGrid, oracle_integrate, sphere
    s = sphere(1.0)
    grid = QuadratureGrid.for_surface(s, 128, 128)
    mean = oracle_integrate(s, lambda g: radial_profile(g.position), grid)
    assert abs(mean) < 1e-12
    # sup bound keeps the amplitude inequality valid by construction
    rng = np.random.default_rng(0)
    n = rng.normal(size=(20000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    assert np.abs(radial_profile(n)).max() <= 1.0


def test_invalid_specs_name_field():
    with pytest.raises(ParameterError) as e:
        hf.make_primitive(PrimitiveSpec(kind="icosphere", radius=-1.0))
    assert e.value.field == "radius"
    with pytest.raises(ParameterError) as e:
        hf.make_primitive(PrimitiveSpec(kind="perturbed_sphere", amplitude=0.5))
    assert e.value.field == "amplitude"
    with pytest.raises(ParameterError) as e:
        hf.make_primitive(PrimitiveSpec(kind="catenoid", neck_scale=0.0))
    assert e.value.field == "neck_scale"


def test_sphere_integrals_converge():
    m = hf.icosphere(1.0, 5)
    ints = hf.mesh_integrals(m)
    assert abs(ints["area"] - 4 * np.pi) / (4 * np.pi) < 1e-3
    assert abs(ints["signed_volume"] - 4 * np.pi / 3) / (4 * np.pi / 3) < 2e-3


def test_flat_patch_exact_area():
    m = hf.flat_patch((16, 16))
    ints = hf.mesh_integrals(m)
    assert abs(ints["area"] - 1.0) <= 1e-12
    assert ints["euler_characteristic"] == 1
    assert ints["signed_volume"] is None


def test_orientation_reversal_flips_volume():
    m = hf.icosphere(1.0, 2)
    flipped = hf.TriangleMesh(m.vertices, m.faces[:, ::-1])
    a = hf.mesh_integrals(m)
    b = hf.mesh_integrals(flipped)
    assert a["signed_volume"] > 0
    assert np.isclose(b["signed_volume"], -a["signed_volume"])
    assert np.isclose(b["area"], a["area"])


def test_signed_volume_requires_closed():
    from helfrich.mesh import signed_volume
    with pytest.raises(TopologyError):
        signed_volume(hf.flat_patch((4, 4)))


def test_validate_flags_bowtie_vertex():
    # consistent orientation but a non-manifold fan at the shared vertex
    open_bowtie = hf.TriangleMesh(     # two triangles sharing one vertex
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float),
        np.array([[0, 1, 2], [0, 3, 4]]))
    tet_verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    tet_faces = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    closed_bowtie = hf.TriangleMesh(   # a tetrahedron and its point reflection
        np.vstack([tet_verts, -tet_verts[1:]]),
        np.vstack([tet_faces, np.where(tet_faces == 0, 0, tet_faces + 3)[:, ::-1]]))
    for m in (open_bowtie, closed_bowtie):
        assert not _fans_manifold_walk(m)
        d = hf.validate(m)
        assert d.oriented         # no duplicated directed edges
        assert not d.manifold     # but the shared vertex is a bowtie
        assert not d.ok


def test_validate_flags_unreferenced_vertex():
    m = hf.icosphere(1.0, 1)
    extra = hf.TriangleMesh(np.vstack([m.vertices, [[5.0, 5.0, 5.0]]]), m.faces)
    d = hf.validate(extra)
    assert d.manifold and d.oriented
    assert d.n_unreferenced_vertices == 1
    assert not d.ok
    assert f"unreferenced vertices: [{m.n_vertices}]" in d.messages
    assert hf.validate(m).n_unreferenced_vertices == 0


def test_validate_flags_flipped_face():
    m = hf.icosphere(1.0, 2)
    faces = m.faces.copy()
    faces[0] = faces[0, ::-1]
    broken = hf.TriangleMesh(m.vertices, faces)
    d = hf.validate(broken)
    assert not d.ok
    assert not d.oriented
    assert any("orientation" in msg for msg in d.messages)


def test_refine_counts_and_projection():
    m = hf.icosphere(1.0, 3)
    r = hf.refine(m)
    assert r.n_vertices == 2562
    assert r.n_faces == 4 * m.n_faces
    assert r.euler_characteristic == 2
    # icosphere source reprojects onto the sphere
    assert np.abs(np.linalg.norm(r.vertices, axis=1) - 1.0).max() < 1e-12


def test_refine_splits_each_face_into_four_in_place():
    m = hf.perturbed_sphere(1.0, 0.1, 1)
    r = hf.refine(m)
    corners = r.faces.reshape(m.n_faces, 4, 3)[:, :3, 0]
    assert np.array_equal(corners, m.faces)       # children follow their parent
    assert hf.validate(r).ok


# sha256(vertices.tobytes() + faces.tobytes()), recorded before the
# primitives were vectorized; the array code must reproduce them bitwise.
PINNED_PRIMITIVES = [
    (lambda: hf.icosphere(1.0, 3),
     "008fc68fdb0f879652fb73c0d6d1afd09a3c0f740eb00208bdafa47c97f0d434"),
    (lambda: hf.perturbed_sphere(2.0, 0.05, 5),
     "5bbb61652d08df699b7fca75cf8af29b4ae31e190462c5ee070d8c5b54c1942c"),
    (lambda: hf.catenoid_mesh(1.0, 2.0, (64, 64)),
     "90d34cba579c13e2c7bf20239bbe735d5faab254c051538d886a7d876a8cd013"),
    (lambda: hf.flat_patch((16, 16)),
     "7ec5ab06492cc6efdb3ab7c18674efd4ef1dec1c70328b0ebeff134a083251e5"),
]


@pytest.mark.parametrize("make, digest", PINNED_PRIMITIVES,
                         ids=["icosphere", "perturbed_sphere", "catenoid", "flat_patch"])
def test_primitive_bytes_pinned(make, digest):
    m = make()
    assert hashlib.sha256(m.vertices.tobytes() + m.faces.tobytes()).hexdigest() == digest


def _fans_manifold_walk(m):
    """Reference fan check: walk each vertex's fan one half-edge at a time."""
    he_prev = m.he_face * 3 + (np.arange(3 * m.n_faces) + 2) % 3
    out_of = [[] for _ in range(m.n_vertices)]
    for h, v in enumerate(m.he_origin):
        out_of[v].append(h)
    for outs in out_of:
        if not outs:
            continue
        seen = {outs[0]}
        # one way round the vertex via next[twin[h]], then back via twin[prev[h]]
        for step in (lambda h: m.he_next[m.he_twin[h]] if m.he_twin[h] >= 0 else -1,
                     lambda h: m.he_twin[he_prev[h]]):
            h = step(outs[0])
            while h >= 0 and h not in seen:
                seen.add(int(h))
                h = step(h)
        if len(seen) != len(outs):
            return False
    return True


@settings(max_examples=25, deadline=None)
@given(level=st.integers(0, 2), refinements=st.integers(0, 1),
       amplitude=st.floats(0.0, 0.29), seed=st.integers(0, 2**32 - 1))
def test_halfedge_invariants_closed_meshes(level, refinements, amplitude, seed):
    m = hf.perturbed_sphere(1.0, amplitude, level)
    for _ in range(refinements):
        m = hf.refine(m)
    # relabel vertices, shuffle faces and rotate each face's corners
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m.n_vertices)
    faces = perm[m.faces][rng.permutation(m.n_faces)]
    shift = rng.integers(0, 3, size=m.n_faces)
    faces = np.take_along_axis(faces, (np.arange(3) + shift[:, None]) % 3, axis=1)
    verts = np.empty_like(m.vertices)
    verts[perm] = m.vertices
    m = hf.TriangleMesh(verts, faces)

    h = np.arange(3 * m.n_faces)
    assert m.closed
    assert np.array_equal(m.he_twin[m.he_twin], h)
    assert np.all(m.he_twin != h)
    nxt = m.he_next
    assert np.all(nxt != h) and np.all(nxt[nxt] != h)
    assert np.array_equal(nxt[nxt[nxt]], h)
    assert np.array_equal(m.he_face[nxt], m.he_face)
    assert np.array_equal(m.he_origin[nxt[m.he_twin]], m.he_origin)
    assert m.vertex_fans_manifold() and _fans_manifold_walk(m)

    # glue a shifted copy on at one vertex: two closed fans there
    v0 = int(rng.integers(m.n_vertices))
    ids = np.arange(m.n_vertices) + m.n_vertices
    ids[v0] = v0
    pinched = hf.TriangleMesh(np.vstack([m.vertices, m.vertices + 10.0]),
                              np.vstack([m.faces, ids[m.faces]]))
    assert not pinched.vertex_fans_manifold()
    assert not _fans_manifold_walk(pinched)


def test_refine_area_error_decreases():
    errs = []
    m = hf.icosphere(1.0, 2)
    for _ in range(3):
        errs.append(abs(hf.mesh_integrals(m)["area"] - 4 * np.pi))
        m = hf.refine(m)
    errs.append(abs(hf.mesh_integrals(m)["area"] - 4 * np.pi))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))


def test_refine_preserves_euler_characteristic():
    m = hf.perturbed_sphere(1.0, 0.1, 2)
    r = hf.refine(m)
    assert r.euler_characteristic == m.euler_characteristic == 2


def test_refine_open_mesh_unsupported():
    with pytest.raises(UnsupportedError):
        hf.refine(hf.flat_patch((4, 4)))


@pytest.mark.parametrize("level", [2, 3, 4])
def test_angle_defect_gauss_bonnet(level):
    m = hf.icosphere(1.3, level)
    assert abs(angle_defect_total(m) - 2 * np.pi * 2) < 1e-9
    p = hf.perturbed_sphere(1.0, 0.08, level)
    assert abs(angle_defect_total(p) - 2 * np.pi * 2) < 1e-9


def test_angle_defect_open_meshes():
    # polyhedral Gauss-Bonnet with boundary turning collapsed onto vertices
    assert abs(angle_defect_total(hf.flat_patch((8, 8))) - 2 * np.pi) < 1e-9
    assert abs(angle_defect_total(hf.catenoid_mesh(1.0, 2.0, (32, 32)))) < 1e-9


@pytest.mark.parametrize("ext", ["obj", "off"])
def test_roundtrip_bitwise(tmp_path, ext):
    m = hf.perturbed_sphere(1.7, 0.05, 2)
    path = tmp_path / f"mesh.{ext}"
    hf.save_mesh(m, path)
    back = hf.load_mesh(path)
    assert np.array_equal(back.faces, m.faces)
    assert np.array_equal(back.vertices, m.vertices)   # 17 sig digits round-trip
    # second round trip is bitwise stable
    path2 = tmp_path / f"mesh2.{ext}"
    hf.save_mesh(back, path2)
    assert path.read_bytes().splitlines()[-m.n_faces:] == \
        path2.read_bytes().splitlines()[-m.n_faces:]


def test_off_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(MeshInputError) as e:
        hf.load_mesh(path)
    assert "non-triangular face" in str(e.value)
    assert e.value.line == 7


def test_off_short_vertex_line_rejected(tmp_path):
    path = tmp_path / "short.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0.5 0.5\n3 0 1 2\n")
    with pytest.raises(MeshInputError) as e:
        hf.load_mesh(path)
    assert "vertex needs 3 coordinates" in str(e.value)
    assert e.value.line == 5


def test_obj_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshInputError) as e:
        hf.load_mesh(path)
    assert "non-triangular" in str(e.value) and e.value.line == 5


@pytest.mark.parametrize("face", ["f -1 -2 -3", "f 0 1 2", "f 1/1 2/2 -1/3"])
def test_obj_relative_or_zero_face_index_rejected(tmp_path, face):
    path = tmp_path / "rel.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\n")
    with pytest.raises(MeshInputError) as e:
        hf.load_mesh(path)
    assert "relative (negative) or zero face indices" in str(e.value)
    assert e.value.line == 4


def test_empty_file_parse_error(tmp_path):
    path = tmp_path / "empty.off"
    path.write_text("")
    with pytest.raises(MeshInputError):
        hf.load_mesh(path)
    path2 = tmp_path / "empty.obj"
    path2.write_text("")
    with pytest.raises(MeshInputError):
        hf.load_mesh(path2)


def test_load_rejects_nonmanifold(tmp_path):
    # two triangles sharing an edge with identical winding: duplicated
    # directed edge
    path = tmp_path / "bad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n")
    with pytest.raises(MeshInputError):
        hf.load_mesh(path)


def test_with_positions_shares_connectivity():
    m = hf.icosphere(1.0, 2)
    shifted = m.with_positions(m.vertices + [1.0, 0.0, 0.0])
    assert shifted.faces is m.faces
    assert shifted.closed
    assert np.allclose(
        hf.mesh_integrals(shifted)["signed_volume"],
        hf.mesh_integrals(m)["signed_volume"])


def test_vertices_immutable():
    m = hf.icosphere(1.0, 2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 99.0
