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


@pytest.mark.parametrize("level", [2, 4])
def test_refine_even_vertices_sum_neighbours_like_add_at_bitwise(level):
    m = hf.perturbed_sphere(1.0, 0.1, level)        # not reprojected
    V = m.n_vertices
    nbr_sum = np.zeros((V, 3))
    np.add.at(nbr_sum, m.he_origin, m.vertices[m.he_dest])
    valence = np.bincount(m.he_origin, minlength=V).astype(np.float64)
    beta = (5.0 / 8.0 - (3.0 / 8.0 + 0.25 * np.cos(2 * np.pi / valence)) ** 2) / valence
    even = (1.0 - valence * beta)[:, None] * m.vertices + beta[:, None] * nbr_sum
    assert np.array_equal(hf.refine(m).vertices[:V], even)


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


def _save_line_by_line(m, ext):
    """The file text built one formatted line at a time."""
    verts, faces = m.vertices.tolist(), m.faces.tolist()
    if ext == "obj":
        lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
        lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in faces]
    else:
        lines = ["OFF", f"{m.n_vertices} {m.n_faces} {m.n_edges}"]
        lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
        lines += [f"3 {i} {j} {k}" for i, j, k in faces]
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("ext", ["obj", "off"])
@pytest.mark.parametrize("make", [lambda: hf.icosphere(1.0, 2),
                                  lambda: hf.flat_patch((5, 3), (0.3, 1.7)),
                                  lambda: hf.TriangleMesh(np.zeros((0, 3)),
                                                          np.zeros((0, 3), dtype=int))],
                         ids=["icosphere", "flat_patch", "empty"])
def test_save_bytes_match_line_by_line_formatting(tmp_path, make, ext):
    m = make()
    path = tmp_path / f"mesh.{ext}"
    hf.save_mesh(m, path)
    assert path.read_bytes() == _save_line_by_line(m, ext)


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


@pytest.mark.parametrize("name", ["obj", "off", "mesh.obj.txt"])
def test_load_and_save_take_the_format_from_the_suffix(tmp_path, monkeypatch, name):
    """A file name without a dot, or with another suffix after its last dot,
    has no format, so load and save both reject it; ``obj`` and ``off`` as
    bare relative names too."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshInputError, match="unsupported mesh extension"):
        hf.load_mesh(name)
    with pytest.raises(MeshInputError, match="unsupported mesh extension"):
        hf.save_mesh(hf.icosphere(1.0, 0), name)


def test_load_rejects_nonmanifold(tmp_path):
    # two triangles sharing an edge with identical winding: duplicated
    # directed edge
    path = tmp_path / "bad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf 1 2 4\n")
    with pytest.raises(MeshInputError):
        hf.load_mesh(path)


def _reference_halfedges(faces, V):
    """Twin lookup with unsorted queries: (twin, duplicate, n_edges, closed)."""
    F = len(faces)
    origin = faces.reshape(-1)
    k = np.tile(np.arange(3, dtype=np.int64), F)
    dest = origin[np.repeat(np.arange(F, dtype=np.int64), 3) * 3 + (k + 1) % 3]
    code = origin * np.int64(V) + dest
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    dup = np.zeros(3 * F, dtype=bool)
    rep = sorted_code[1:] == sorted_code[:-1]
    dup[order[1:][rep]] = True
    dup[order[:-1][rep]] = True
    twin_code = dest * np.int64(V) + origin
    pos = np.minimum(np.searchsorted(sorted_code, twin_code), max(3 * F - 1, 0))
    found = sorted_code[pos] == twin_code
    twin = np.full(3 * F, -1, dtype=np.int64)
    twin[found] = order[pos[found]]
    twin[dup] = -1
    twin[(twin >= 0) & dup[twin]] = -1
    n_bdry = int((twin < 0).sum())
    n_edges = (3 * F + n_bdry) // 2 if not dup.any() else int(
        len(np.unique(np.minimum(code, twin_code))))
    return twin, dup, n_edges, n_bdry == 0 and not dup.any()


def _soup_with_duplicated_edge():
    base = hf.icosphere(1.0, 1)
    faces = np.vstack([base.faces, base.faces[:1], base.faces[1:2, ::-1],
                       [[0, 1, 2], [0, 1, 3]]])
    return hf.TriangleMesh(base.vertices, faces)


def _self_loop_faces():
    # [0, 0, 1] has a self-loop 0 -> 0 (its own twin) and a twin pair inside
    # the face; [2, 2, 2] has three duplicated self-loops.
    base = hf.icosphere(1.0, 0)
    return hf.TriangleMesh(base.vertices, np.vstack([base.faces, [[0, 0, 1], [2, 2, 2]]]))


def _random_soups(n=200, seed=2024):
    """Seeded face soups on 3-12 vertices: faces with repeated corners,
    duplicated and opposed directed edges, open and closed parts."""
    rng = np.random.default_rng(seed)
    soups = []
    for _ in range(n):
        V, F = int(rng.integers(3, 13)), int(rng.integers(1, 14))
        faces = [rng.choice(V, 3, replace=False) if rng.random() < 0.7
                 else rng.integers(0, V, 3) for _ in range(F)]
        soups.append(hf.TriangleMesh(rng.normal(size=(V, 3)), faces))
    return soups


@pytest.mark.parametrize("make", [lambda: [hf.icosphere(1.0, 3)],
                                  lambda: [hf.catenoid_mesh(1.0, 1.0, (12, 16))],
                                  lambda: [_soup_with_duplicated_edge()],
                                  lambda: [_self_loop_faces()],
                                  lambda: [hf.flat_patch((6, 5))],
                                  _random_soups],
                         ids=["icosphere", "catenoid", "soup", "self_loop", "flat_patch",
                              "random_soups"])
def test_twin_lookup_matches_unsorted_queries(make):
    for m in make():
        twin, dup, n_edges, closed = _reference_halfedges(m.faces, len(m.vertices))
        assert np.array_equal(m.he_twin, twin)
        assert np.array_equal(m._duplicate_directed, dup)
        assert m.n_edges == n_edges
        assert m.closed == closed


def _stored_bytes(m):
    """Bytes of the distinct buffers behind a mesh's array attributes."""
    buffers = {}
    for a in vars(m).values():
        if isinstance(a, np.ndarray):
            while isinstance(a.base, np.ndarray):   # a view counts as its base
                a = a.base
            buffers[id(a)] = a.nbytes
    return sum(buffers.values())


def test_mesh_stores_no_arithmetic_halfedge_arrays():
    m = hf.icosphere(1.0, 4)
    V, H = m.n_vertices, 3 * m.n_faces
    # positions; faces (origin is a view of them) and twin, int64 per
    # half-edge; the duplicate flag per half-edge and the boundary flag per
    # vertex.  Face, next, dest and the boundary flag per half-edge are
    # computed from faces and twin.
    assert _stored_bytes(m) <= 24 * V + 2 * 8 * H + H + V
    h = np.arange(H)
    assert np.array_equal(m.he_face, h // 3)
    assert np.array_equal(m.he_next, h // 3 * 3 + (h + 1) % 3)


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


def test_mesh_leaves_caller_arrays_writeable():
    from helfrich import mesh
    hf.icosphere(1.0, 0)
    hf.icosphere(1.0, 1)
    assert mesh._ICO_FACES.flags.writeable
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    f = np.array([[0, 1, 2]])
    m = hf.TriangleMesh(v, f)
    v[0, 0] = 2.0
    f[0, 0] = 1
    assert m.vertices[0, 0] == 0.0 and m.faces[0, 0] == 0
    for frozen in (m.vertices, m.faces):
        with pytest.raises(ValueError):
            frozen[0, 0] = 1


def test_obj_overflowing_face_index_rejected(tmp_path):
    path = tmp_path / "big.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999999\n")
    with pytest.raises(MeshInputError) as e:
        hf.load_mesh(path)
    assert "face index 99999999999999999999999 out of range (3 vertices)" in str(e.value)
    assert e.value.line == 4


_OBJ_TRI = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
_OFF_TRI = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"
# (extension, file text, message, line): one fault per file
_REJECTED = [
    ("obj", "v 0 0 0\nv 1 x 0\nv 0 1 0\nf 1 2 3\n", "bad vertex line", 2),
    ("obj", _OBJ_TRI + "f 1 a 3\n", "bad face index", 4),
    ("obj", _OBJ_TRI + "f 1 /2 3\n", "bad face index", 4),
    ("obj", "v 0 0 0\nv 1 nan 0\nv 0 1 0\nf 1 2 3\n", "non-finite vertex coordinate", 2),
    ("obj", "v 0 0 0\nv 1 0 1e999\nv 0 1 0\nf 1 2 3\n",
     "non-finite vertex coordinate", 2),
    ("obj", "v 0 0 0\nv 1 0\nv 0 1 0\nf 1 2 3\n", "vertex needs 3 coordinates", 2),
    ("obj", "v 0 0 0\nv\nv 0 1 0\nf 1 2 3\n", "vertex needs 3 coordinates", 2),
    ("obj", _OBJ_TRI + "f 1 2\n", "non-triangular face", 4),
    ("obj", _OBJ_TRI + "f\n", "non-triangular face", 4),
    ("obj", _OBJ_TRI + "f 1 2 3 # note\n", "non-triangular face", 4),
    ("obj", _OBJ_TRI + "f 0 1 2\n",
     "relative (negative) or zero face indices are not supported", 4),
    ("obj", _OBJ_TRI + "f 1 2 -99999999999999999999999\n",
     "relative (negative) or zero face indices are not supported", 4),
    ("obj", _OBJ_TRI + "f 1 2 4\n", "face index 4 out of range (3 vertices)", 4),
    ("obj", _OBJ_TRI + "f 1 2 3\nf 3/1 4/2 1/3\n",
     "face index 4 out of range (3 vertices)", 5),
    ("obj", _OBJ_TRI + "f 1 2 9223372036854775808\n",
     "face index 9223372036854775808 out of range (3 vertices)", 4),
    ("obj", "# nothing\n\n", "no vertices parsed (empty or invalid file)", 1),
    ("obj", _OBJ_TRI, "no faces parsed", None),
    ("off", "OFF\n3 1 0\n0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n", "bad vertex line", 4),
    ("off", _OFF_TRI + "3 0 a 2\n", "bad face index", 6),
    ("off", _OFF_TRI + "3 0 1.0 2\n", "bad face index", 6),
    ("off", "OFF\n3 1 0\n0 0 0\n1 -inf 0\n0 1 0\n3 0 1 2\n",
     "non-finite vertex coordinate", 4),
    ("off", "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", "vertex needs 3 coordinates", 4),
    ("off", _OFF_TRI + "3 0 1\n", "face needs 3 indices", 6),
    ("off", _OFF_TRI + "3\n", "face needs 3 indices", 6),
    ("off", _OFF_TRI + "2 0 1\n", "non-triangular face", 6),
    ("off", _OFF_TRI + "3 0 1 3\n", "face index 3 out of range (3 vertices)", 6),
    ("off", _OFF_TRI + "3 0 -1 2\n", "face index -1 out of range (3 vertices)", 6),
    ("off", _OFF_TRI + "3 0 1 99999999999999999999999\n",
     "face index 99999999999999999999999 out of range (3 vertices)", 6),
    ("off", _OFF_TRI + "3 -99999999999999999999999 1 2\n",
     "face index -99999999999999999999999 out of range (3 vertices)", 6),
    ("off", "# only a comment\n", "empty OFF file", 1),
    ("off", "OFX\n3 1 0\n", "missing OFF header", 1),
    ("off", "OFF\n", "missing OFF counts line", 1),
    ("off", "OFF\n3 x 0\n", "bad OFF counts line", 2),
    ("off", "OFF\n-3 1 0\n", "negative OFF counts", 2),
    ("off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
     "expected 3 vertices and 2 faces", 2),
    ("off", "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "no faces parsed", None),
]
_TRI_VERTS = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
# (extension, file text, vertices, faces)
_ACCEPTED = [
    ("obj", "f 1 2 3\n" + _OBJ_TRI, _TRI_VERTS, [[0, 1, 2]]),
    ("obj", _OBJ_TRI + "f 1/1 2/2 3/3\n", _TRI_VERTS, [[0, 1, 2]]),
    ("obj", _OBJ_TRI + "f 1//1 2//2 3//3\n", _TRI_VERTS, [[0, 1, 2]]),
    ("obj", _OBJ_TRI + "f 1/1/1 2/2/2 +3/3/3\n", _TRI_VERTS, [[0, 1, 2]]),
    ("obj", "v 0 0 0 1\nv 1 0 0 1 junk\nv 0 1 0\nf 1 2 3\n", _TRI_VERTS, [[0, 1, 2]]),
    ("obj", "v\t0 0\t0\n  v 1 0 0\nv 0  1 0\t\nf\t1 2\t3\n", _TRI_VERTS, [[0, 1, 2]]),
    ("obj", _OBJ_TRI.replace("\n", "\r\n") + "f 1 2 3\r\n", _TRI_VERTS, [[0, 1, 2]]),
    ("obj", "# header\nv 0 0 0\n#v 9 9 9\nv 1 0 0 # note\nv 0 1 0\n"
            "vn 0 0 1\nvt 0.5 0.5\no tri\ns off\nusemtl red\nf 1 2 3\n",
     _TRI_VERTS, [[0, 1, 2]]),
    ("obj", "v 1.5e-3 -2 +.5\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
     [[1.5e-3, -2.0, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0, 1, 2]]),
    ("off", _OFF_TRI + "3 0 1 2\n", _TRI_VERTS, [[0, 1, 2]]),
    ("off", "# header\nOFF # kind\n\n3 1 0\n0 0 0 # origin\n1\t0 0 255 0 0\n0 1 0\n"
            "3 0 1 2 255 0 0\n", _TRI_VERTS, [[0, 1, 2]]),
    ("off", _OFF_TRI.replace("\n", "\r\n") + "3\t0 1 2\r\n", _TRI_VERTS, [[0, 1, 2]]),
    ("off", _OFF_TRI.replace("3 1 0", "+3 +1 0") + "3 0 1 2\n", _TRI_VERTS, [[0, 1, 2]]),
]


def _assert_rejected(tmp_path, ext, text, message, line):
    path = tmp_path / f"mesh.{ext}"
    path.write_bytes(text.encode("ascii"))
    with pytest.raises(MeshInputError) as e:
        hf.load_mesh(path)
    assert e.value.line == line
    assert str(e.value) == (message if line is None else f"{message} at line {line}")


@pytest.mark.parametrize("ext, text, message, line", _REJECTED)
def test_reader_rejections_name_message_and_line(tmp_path, ext, text, message, line):
    _assert_rejected(tmp_path, ext, text, message, line)


@pytest.mark.parametrize("ext, text, message, line", [
    ("obj", "v 0 0 0\nv 1_0 0 0\nv 0 1 0\nf 1 2 3\n", "bad vertex line", 2),
    ("obj", _OBJ_TRI + "f 1 2 0_3\n", "bad face index", 4),
    ("off", _OFF_TRI + "3 0 1 0_2\n", "bad face index", 6),
    ("off", _OFF_TRI.replace("3 1 0", "3_0 1 0") + "3 0 1 2\n",
     "bad OFF counts line", 2),
    ("off", _OFF_TRI.replace("3 1 0", "3 0_1 0") + "3 0 1 2\n",
     "bad OFF counts line", 2)])
def test_reader_rejects_digit_separators(tmp_path, ext, text, message, line):
    # Python's float() and int() accept "1_0"; the reader's numpy parse, and
    # the OFF counts line, which takes the same integer tokens, do not.
    _assert_rejected(tmp_path, ext, text, message, line)


@pytest.mark.parametrize("ext, text, line", [
    ("obj", "v 0 0 1\nv 0 0 0\nv 1 0 0\nv 2 0 0\n"
            "f 1 3 2\nf 1 2 4\nf 2 3 4\nf 1 4 3\n", 7),
    ("off", "OFF\n4 4 6\n0 0 1\n0 0 0\n1 0 0\n2 0 0\n"
            "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n", 9)])
def test_reader_rejects_zero_area_face(tmp_path, ext, text, line):
    # Vertices 1, 2 and 3 (0-based) are collinear: face 2 has zero area.
    _assert_rejected(tmp_path, ext, text, "face 2 (0-based) has zero area", line)


def test_reader_rejects_coordinates_whose_areas_overflow(tmp_path):
    # |x| = 1e100 is finite, but squared face areas would overflow float64.
    _assert_rejected(tmp_path, "off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1e100 0\n3 0 1 2\n",
                     "vertex coordinate beyond 2.9e+76", 5)


@pytest.mark.parametrize("ext, text, vertices, faces", _ACCEPTED)
def test_reader_accepted_forms(tmp_path, ext, text, vertices, faces):
    path = tmp_path / f"mesh.{ext}"
    path.write_bytes(text.encode("ascii"))
    m = hf.load_mesh(path)
    assert m.vertices.tolist() == vertices
    assert m.faces.tolist() == faces


_TETRA = {"obj": ["v 0 0 0", "v 1 0 0", "v 0 1 0", "v 0 0 1",
                  "f 1 3 2", "f 1 2 4", "f 2 3 4", "f 1 4 3"],
          "off": ["OFF", "4 4 6", "0 0 0", "1 0 0", "0 1 0", "0 0 1",
                  "3 0 2 1", "3 0 1 3", "3 1 2 3", "3 0 3 2"]}
_INDEX = st.one_of(st.integers(-3, 6), st.integers(-10**25, 10**25))
_TOKEN = st.one_of(
    _INDEX.map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["v", "f", "3", "OFF", "#", "1/1", "/2", "-", "1e999", "",
                     "nan", "0x1f", "1_0", "vn", "\t"]),
    st.text(alphabet="0123456789 .-+eE/#vfOFnai\x00\xe9", max_size=8))
_LINE = st.one_of(
    st.lists(_INDEX, min_size=0, max_size=4).map(
        lambda ix: " ".join(["f", *map(str, ix)])),
    st.lists(_INDEX, min_size=0, max_size=4).map(
        lambda ix: " ".join(["3", *map(str, ix)])),
    st.lists(_INDEX, min_size=0, max_size=4).map(lambda ix: " ".join(map(str, ix))),
    st.lists(_TOKEN, min_size=0, max_size=5).map(" ".join))


@settings(max_examples=200, deadline=None)
@given(ext=st.sampled_from(["obj", "off"]), data=st.data())
def test_parser_fuzz_raises_only_mesh_input_error(tmp_path_factory, ext, data):
    """Valid records mixed with garbage tokens, huge, zero and negative
    indices and short lines: load_mesh either returns a mesh or raises
    MeshInputError, never anything else."""
    lines = list(_TETRA[ext])
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        pos = data.draw(st.integers(0, len(lines)), label="position")
        action = data.draw(st.sampled_from(["insert", "replace", "delete"]),
                           label="action")
        if action == "insert" or pos == len(lines):
            lines.insert(pos, data.draw(_LINE, label="line"))
        elif action == "replace":
            lines[pos] = data.draw(_LINE, label="line")
        else:
            del lines[pos]
    path = tmp_path_factory.mktemp("fuzz") / f"mesh.{ext}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        m = hf.load_mesh(path)
    except MeshInputError:
        return
    assert m.n_faces > 0 and m.faces.max() < m.n_vertices


def test_face_corner_positions_and_bbox_exact():
    m = hf.perturbed_sphere(2.0, 0.2, 3)
    for k, p in enumerate(m.face_corner_positions()):
        assert p.flags.c_contiguous
        assert np.array_equal(p, m.vertices[m.faces[:, k]])
    span = m.vertices.max(axis=0) - m.vertices.min(axis=0)
    assert m.bbox_diagonal() == float(np.linalg.norm(span))
