"""Oriented manifold triangle meshes: benchmark primitives, connectivity,
global integrals, Loop refinement, and OBJ/OFF file I/O.

Meshes are immutable after construction.  Faces wind counter-clockwise when
viewed from outside, so cross products of face edges point outward; curvature
signs downstream are taken against the inward normal.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import MeshInputError, ParameterError, UnsupportedError

DEGENERATE_AREA_REL = 1e-12  # of (bbox diagonal)^2


# Zero-mean cubic radial profile for the perturbed sphere, in the unit-position
# components.  Every monomial has odd total degree, so the mean over the unit
# sphere vanishes exactly; the 1.2 divisor keeps sup |p| <= 1.
def radial_profile(n):
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    return (4.0 * x * y * z + z**3 - 0.6 * z) / 1.2


@dataclass
class MeshDiagnostics:
    """Validation report; ``ok`` aggregates the pass/fail checks."""

    n_vertices: int
    n_faces: int
    n_edges: int
    euler_characteristic: int
    closed: bool
    boundary_loops: int
    manifold: bool
    oriented: bool
    n_degenerate_faces: int
    n_unreferenced_vertices: int
    messages: list

    @property
    def ok(self):
        return (self.manifold and self.oriented and self.n_degenerate_faces == 0
                and self.n_unreferenced_vertices == 0)


class TriangleMesh:
    """Half-edge triangle mesh over numpy arrays.

    Half-edge ``h`` belongs to face ``h // 3``; ``origin[h]`` is its source
    vertex, ``next[h]`` the following half-edge in the same face, ``twin[h]``
    the opposite half-edge or -1 on the boundary.  ``origin`` and ``twin``
    are stored; the face, ``next[h]``, the destination and the boundary flag
    are computed when read (``he_face``, ``he_next``, ``he_dest``,
    ``is_boundary_halfedge``).
    """

    def __init__(self, vertices, faces):
        # Frozen copies, so the caller's own arrays stay writeable.
        vertices = np.array(vertices, dtype=np.float64)
        faces = np.array(faces, dtype=np.int64)
        vertices.flags.writeable = faces.flags.writeable = False
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise ValueError("face indices out of range")
        self.vertices = vertices
        self.faces = faces
        self._build_halfedges()

    # -- connectivity -------------------------------------------------------

    def _build_halfedges(self):
        V = len(self.vertices)
        H = 3 * len(self.faces)
        self.he_origin = self.faces.reshape(-1)                      # (3F,)
        he_dest = self.he_dest

        # One sort of the half-edges by undirected edge (lo, hi), with the
        # direction (origin > dest) in the low bit.  Equal keys are duplicated
        # directed edges; an edge whose two keys each occur once is a twin
        # pair, adjacent in the order.  Tied keys are all duplicates, so the
        # result does not depend on how the sort orders them.
        key = np.minimum(self.he_origin, he_dest)
        key *= V
        key += np.maximum(self.he_origin, he_dest)
        key <<= 1
        key += self.he_origin > he_dest
        order = np.argsort(key)
        sorted_key = key[order]
        del key                  # the twin array below can take its memory
        rep = sorted_key[1:] == sorted_key[:-1]
        dup_sorted = np.zeros(H, dtype=bool)
        dup_sorted[1:] = rep
        dup_sorted[:-1] |= rep
        dup = np.zeros(H, dtype=bool)
        dup[order[dup_sorted]] = True
        self._duplicate_directed = dup

        pair = (sorted_key[:-1] ^ 1) == sorted_key[1:]   # (2e, 2e + 1) side by side
        pair &= ~dup_sorted[:-1]
        pair &= ~dup_sorted[1:]
        first = np.flatnonzero(pair)
        twin = np.full(H, -1, dtype=np.int64)
        twin[order[first]] = order[first + 1]
        twin[order[first + 1]] = order[first]
        # A self-loop (a face with a repeated vertex) is its own twin unless
        # it is duplicated.
        loop = np.flatnonzero((self.he_origin == he_dest) & ~dup)
        twin[loop] = loop
        self.he_twin = twin

        boundary = twin < 0
        self.boundary_vertex = np.zeros(V, dtype=bool)
        self.boundary_vertex[self.he_origin[boundary]] = True
        self.boundary_vertex[he_dest[boundary]] = True

        n_bdry = int(boundary.sum())
        any_dup = bool(rep.any())
        # With duplicates, count the groups of equal undirected keys.
        self.n_edges = (H + n_bdry) // 2 if not any_dup else int(
            np.count_nonzero((sorted_key[1:] >> 1) != (sorted_key[:-1] >> 1)) + 1)
        self.closed = n_bdry == 0 and not any_dup

    @property
    def he_face(self):
        """Face of each half-edge, ``h // 3``; computed, not stored."""
        return np.repeat(np.arange(self.n_faces, dtype=np.int64), 3)

    @property
    def he_next(self):
        """Next half-edge in the same face; computed, not stored."""
        h = np.arange(3 * self.n_faces, dtype=np.int64).reshape(-1, 3)
        return h[:, [1, 2, 0]].reshape(-1)

    @property
    def he_dest(self):
        """Destination vertex of each half-edge, ``origin[next[h]]``;
        computed, not stored."""
        return self.faces[:, [1, 2, 0]].reshape(-1)

    @property
    def is_boundary_halfedge(self):
        """True for a half-edge without a twin; computed, not stored."""
        return self.he_twin < 0

    def with_positions(self, vertices):
        """New mesh sharing this connectivity with replaced positions."""
        vertices = np.array(vertices, dtype=np.float64)
        vertices.flags.writeable = False
        if vertices.shape != self.vertices.shape:
            raise ValueError("positions shape mismatch")
        # Shallow copy: every attribute but the positions is connectivity and
        # is shared, so nothing derived from positions may be stored on the
        # instance.
        new = object.__new__(TriangleMesh)
        new.__dict__.update(self.__dict__)
        new.vertices = vertices
        return new

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces

    def bbox_diagonal(self):
        if self.n_vertices == 0:
            return 0.0
        columns = np.ascontiguousarray(self.vertices.T)   # row-wise min/max is faster
        span = columns.max(axis=1) - columns.min(axis=1)
        return float(np.linalg.norm(span))

    def face_corner_positions(self):
        """(F, 3) position triples (p0, p1, p2) in face order."""
        return tuple(self.vertices.take(self.faces.T, axis=0))

    def face_areas(self):
        p0, p1, p2 = self.face_corner_positions()
        n = np.cross(p1 - p0, p2 - p0)
        return 0.5 * np.linalg.norm(n, axis=1)

    def boundary_loops(self):
        """Number of boundary loops (cycles of boundary half-edges)."""
        bdry = np.nonzero(self.is_boundary_halfedge)[0]
        dest = self.he_dest
        # Unique for manifold meshes; first-wins otherwise.
        start_of = dict(zip(self.he_origin[bdry][::-1].tolist(), bdry[::-1].tolist()))
        seen = set()
        loops = 0
        for h0 in bdry.tolist():
            if h0 in seen:
                continue
            loops += 1
            h = h0
            while True:
                seen.add(h)
                nxt = start_of.get(int(dest[h]))
                if nxt is None or nxt in seen:
                    break
                h = nxt
        return loops

    def unreferenced_vertices(self):
        """Indices of vertices that no face uses."""
        return np.nonzero(np.bincount(self.he_origin, minlength=self.n_vertices) == 0)[0]

    def vertex_fans_manifold(self):
        """True when every vertex's incident faces form a single fan.

        ``h -> next[twin[h]]`` rotates an outgoing half-edge about its origin
        and is injective (twin is an involution), so each connected component
        of that graph, a cycle or a chain, is one fan of one vertex.  Its
        inverse is ``h -> twin[prev[h]]``, each face's twins rotated, so
        neither map needs a ``next`` array.  Components are labelled by their
        smallest half-edge, spreading the minimum over windows that double
        each round; a round that changes no label means every window already
        spans its component.
        """
        h = np.arange(3 * self.n_faces)
        back = self.he_twin.reshape(-1, 3)[:, [2, 0, 1]].reshape(-1)
        paired = back >= 0
        pred = np.where(paired, back, h)
        succ = h.copy()
        succ[back[paired]] = h[paired]
        label = h
        while True:
            new = np.minimum(label, np.minimum(label[succ], label[pred]))
            if np.array_equal(new, label):
                break
            label, succ, pred = new, succ[succ], pred[pred]
        n_fans = np.count_nonzero(label == h)
        return n_fans == self.n_vertices - len(self.unreferenced_vertices())


def validate(mesh: TriangleMesh) -> MeshDiagnostics:
    """Connectivity and geometry diagnostics; never raises."""
    messages = []
    dup = bool(mesh._duplicate_directed.any())
    oriented = not dup
    if dup:
        messages.append(
            "orientation inconsistency or non-manifold edge: "
            f"{int(mesh._duplicate_directed.sum())} duplicated directed edge(s)")
    manifold = (not dup) and mesh.vertex_fans_manifold()
    if not manifold and not dup:
        messages.append("non-manifold vertex fan")
    unreferenced = mesh.unreferenced_vertices()
    if len(unreferenced):
        messages.append(f"unreferenced vertices: {unreferenced[:10].tolist()}")

    degenerate = _degenerate_faces(mesh, mesh.face_areas())
    if len(degenerate):
        messages.append(f"degenerate faces: {degenerate[:10].tolist()}")

    return MeshDiagnostics(
        n_vertices=mesh.n_vertices,
        n_faces=mesh.n_faces,
        n_edges=mesh.n_edges,
        euler_characteristic=mesh.euler_characteristic,
        closed=mesh.closed,
        boundary_loops=mesh.boundary_loops(),
        manifold=manifold,
        oriented=oriented,
        n_degenerate_faces=len(degenerate),
        n_unreferenced_vertices=len(unreferenced),
        messages=messages,
    )


def _degenerate_faces(mesh, areas):
    """Indices of faces whose area is zero relative to the mesh's size."""
    return np.nonzero(areas <= DEGENERATE_AREA_REL * mesh.bbox_diagonal() ** 2)[0]


def mesh_integrals(mesh: TriangleMesh) -> dict:
    """Total area, signed enclosed volume (closed meshes), Euler characteristic.

    The signed volume is the divergence-theorem determinant sum, positive for
    outward-oriented convex bodies; it is exact for polyhedra.
    """
    return {"area": float(mesh.face_areas().sum()),
            "euler_characteristic": mesh.euler_characteristic,
            "signed_volume": signed_volume(mesh) if mesh.closed else None}


def signed_volume(mesh: TriangleMesh) -> float:
    if not mesh.closed:
        raise UnsupportedError("signed volume requires a closed mesh")
    p0, p1, p2 = mesh.face_corner_positions()
    return float(np.einsum("ij,ij->", p0, np.cross(p1, p2)) / 6.0)


# -- primitives ---------------------------------------------------------------

_ICO_T = (1.0 + np.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
    (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
    (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
], dtype=np.float64)
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def _unit_icosphere(level):
    v, f = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0]), _ICO_FACES
    for _ in range(level):
        mesh = TriangleMesh(v, f)
        edge_he, f = _split_faces(mesh)
        mid = 0.5 * (v[mesh.he_origin[edge_he]] + v[mesh.he_dest[edge_he]])
        v = np.vstack([v, mid])
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v, f


def _grid_faces(rows, cols, wrap):
    """Two triangles per quad of a row-major ``rows x cols`` vertex grid.

    Quad (i, j) is split along its (i, j)-(i+1, j+1) diagonal; with ``wrap``
    the last row is also joined to the first.
    """
    i = np.arange(rows if wrap else rows - 1)[:, None]
    j = np.arange(cols - 1)[None, :]
    a = i * cols + j
    b = (i + 1) % rows * cols + j
    return np.stack(np.broadcast_arrays(a, b, b + 1, a, b + 1, a + 1),
                    axis=-1).reshape(-1, 3)


def _check(ok, field, message):
    if not ok:
        raise ParameterError(field, message)


def _is_integer(x):
    """An int or numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_sphere(radius, level):
    _check(radius > 0, "radius", f"must be > 0, got {radius}")
    _check(_is_integer(level) and level >= 0,
           "level", f"must be an integer >= 0, got {level}")


def icosphere(radius=1.0, level=3):
    """Sphere of ``radius``: the icosahedron split ``level`` times, each new
    vertex pushed out onto the unit sphere, then scaled."""
    _check_sphere(radius, level)
    v, f = _unit_icosphere(level)
    return TriangleMesh(radius * v, f)


def perturbed_sphere(radius=1.0, amplitude=0.05, level=3):
    """The icosphere's directions n at radius ``radius * (1 + amplitude *
    radial_profile(n))``."""
    _check_sphere(radius, level)
    _check(0 <= amplitude < 0.3, "amplitude",
           f"must satisfy 0 <= eps < 0.3, got {amplitude}")
    n, f = _unit_icosphere(level)
    r = radius * (1.0 + amplitude * radial_profile(n))
    return TriangleMesh(r[:, None] * n, f)


def catenoid_mesh(neck_scale=1.0, half_height=2.0, grid=(64, 64)):
    """Catenoid of waist radius c = ``neck_scale`` for |z| <= ``half_height``,
    sampled on ``grid`` = (around, along) points; open at both ends."""
    _check(neck_scale > 0, "neck_scale", f"must be > 0, got {neck_scale}")
    _check(half_height > 0, "half_height", f"must be > 0, got {half_height}")
    _check(all(map(_is_integer, grid)), "grid", f"must hold integers, got {grid}")
    nu, nv = grid
    _check(nu >= 3 and nv >= 2, "grid", f"need at least 3x2 samples, got {grid}")
    u = np.linspace(0.0, 2 * np.pi, nu, endpoint=False)
    v = np.linspace(-half_height, half_height, nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    rad = neck_scale * np.cosh(vv / neck_scale)
    pts = np.stack([rad * np.cos(uu), rad * np.sin(uu), vv], axis=-1)
    return TriangleMesh(pts.reshape(-1, 3), _grid_faces(nu, nv, wrap=True))


def flat_patch(grid=(16, 16), extent=(1.0, 1.0)):
    """The rectangle [0, Lx] x [0, Ly] in the plane z = 0, ``extent`` = (Lx,
    Ly), cut into ``grid`` = (nx, ny) cells of two triangles."""
    _check(all(map(_is_integer, grid)), "grid", f"must hold integers, got {grid}")
    nx, ny = grid
    _check(nx >= 1 and ny >= 1, "grid", f"need at least 1x1 cells, got {grid}")
    _check(extent[0] > 0 and extent[1] > 0, "extent",
           f"side lengths must be > 0, got {extent}")
    x = np.linspace(0.0, extent[0], nx + 1)
    y = np.linspace(0.0, extent[1], ny + 1)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    verts = np.stack([xx, yy, np.zeros_like(xx)], axis=-1).reshape(-1, 3)
    return TriangleMesh(verts, _grid_faces(nx + 1, ny + 1, wrap=False))


# -- refinement ---------------------------------------------------------------

def _split_faces(mesh: TriangleMesh):
    """Midpoint 1->4 split of a closed mesh's faces.

    Returns ``(edge_he, faces)``: one half-edge per edge, ordered by the
    first half-edge ``3f + c`` that meets the edge, and the split faces, four
    children per parent face in parent order.  Edge ``e``'s midpoint is
    vertex ``V + e``.  An edge's canonical half-edge is the smaller of the
    pair (``h <= twin[h]``), so a running count over the canonical
    half-edges numbers the edges in that order without a sort.
    """
    h_idx = np.arange(3 * mesh.n_faces)
    canonical = h_idx <= mesh.he_twin
    edge_he = np.flatnonzero(canonical)
    edge_id = np.cumsum(canonical) - 1
    m = mesh.n_vertices + edge_id[np.minimum(h_idx, mesh.he_twin)].reshape(-1, 3)
    i, j, k = mesh.faces.T
    mij, mjk, mki = m.T
    faces = np.stack([i, mij, mki, j, mjk, mij, k, mki, mjk, mij, mjk, mki], axis=1)
    return edge_he, faces.reshape(-1, 3)


def refine(mesh: TriangleMesh) -> TriangleMesh:
    """One Loop-subdivision step (closed meshes only); F quadruples.

    Positions are Loop's averages for every mesh, projected onto no surface:
    a refined icosphere lies inside its sphere.
    """
    if not mesh.closed:
        raise UnsupportedError("refine supports closed meshes only")

    V = mesh.n_vertices
    edge_he, new_faces = _split_faces(mesh)
    dest = mesh.he_dest
    a = mesh.he_origin[edge_he]
    b = dest[edge_he]
    he_prev = (edge_he // 3) * 3 + (edge_he % 3 + 2) % 3
    c = mesh.he_origin[he_prev]                       # apex of own face
    tw = mesh.he_twin[edge_he]
    tw_prev = (tw // 3) * 3 + (tw % 3 + 2) % 3
    d = mesh.he_origin[tw_prev]                       # apex of twin face
    edge_pts = (3.0 * (mesh.vertices[a] + mesh.vertices[b])
                + mesh.vertices[c] + mesh.vertices[d]) / 8.0

    # Even (original) vertices: Loop valence weights.
    valence = np.bincount(mesh.he_origin, minlength=V).astype(np.float64)
    beta = (5.0 / 8.0 - (3.0 / 8.0 + 0.25 * np.cos(2 * np.pi / valence)) ** 2) / valence
    # Each vertex's neighbours summed in half-edge order, as np.add.at does.
    nbr_sum = np.stack([np.bincount(mesh.he_origin, c.take(dest), V)
                        for c in np.ascontiguousarray(mesh.vertices.T)], axis=1)
    even_pts = (1.0 - valence * beta)[:, None] * mesh.vertices + beta[:, None] * nbr_sum

    return TriangleMesh(np.vstack([even_pts, edge_pts]), new_faces)


# -- file I/O -----------------------------------------------------------------

def save_mesh(mesh: TriangleMesh, path):
    """Write OBJ or OFF (by extension) with 17-significant-digit positions."""
    path = str(path)
    fmt = _format(path)
    V, F = mesh.n_vertices, mesh.n_faces
    coords = tuple(mesh.vertices.ravel().tolist())
    if fmt == "obj":
        text = (("v %.17g %.17g %.17g\n" * V) % coords
                + ("f %d %d %d\n" * F) % tuple((mesh.faces + 1).ravel().tolist()))
        text = text or "\n"       # an empty mesh is one empty line
    else:
        text = (f"OFF\n{V} {F} {mesh.n_edges}\n"
                + ("%.17g %.17g %.17g\n" * V) % coords
                + ("3 %d %d %d\n" * F) % tuple(mesh.faces.ravel().tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_mesh(path) -> TriangleMesh:
    """Read an ASCII OBJ or OFF triangle mesh; rejects non-manifold input and
    faces of zero area."""
    path = str(path)
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        select, base, count_ok, count_message = _FORMATS[_format(path)]
        # Neither the text nor its line list outlives the record selection,
        # so neither is held through the conversion.
        vert_rows, face_rows = select(fh.read().splitlines())
    verts = _convert(vert_rows, np.float64, np.greater_equal, "vertex needs 3 coordinates",
                     "bad vertex line", _check_vertices)
    faces = _convert(face_rows, np.int64, count_ok, count_message, "bad face index",
                     lambda idx, lns: _check_indices(idx, lns, base, len(verts))) - base
    if not len(verts):
        raise MeshInputError("no vertices parsed (empty or invalid file)", line=1)
    if not len(faces):
        raise MeshInputError("no faces parsed")
    mesh = TriangleMesh(verts, faces)
    diag = validate(mesh)
    if not (diag.manifold and diag.oriented):
        raise MeshInputError(f"non-manifold or inconsistently oriented input: "
                             f"{'; '.join(diag.messages)}")
    if diag.n_unreferenced_vertices:
        raise MeshInputError(f"vertex {int(mesh.unreferenced_vertices()[0])} (0-based) "
                             f"is used by no face")
    if diag.n_degenerate_faces:
        f = int(_degenerate_faces(mesh, mesh.face_areas())[0])
        raise MeshInputError(f"face {f} (0-based) has zero area", line=face_rows[0][f])
    return mesh


def _format(path):
    """The key in _FORMATS of the file name's suffix after its last dot,
    case-insensitive; a name without a dot has no format."""
    _, dot, ext = os.path.basename(path).lower().rpartition(".")
    if not dot or ext not in _FORMATS:
        raise MeshInputError(f"unsupported mesh extension for {path!r}")
    return ext


def _obj_records(lines):
    """``v`` and ``f`` records, tag and /vt/vn references dropped; others ignored."""
    verts, faces = ([], []), ([], [])
    rows_of = {"v": verts, "f": faces}.get
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split(None, 1) + [""]
        rows = rows_of(parts[0])
        if rows is not None:
            rows[0].append(ln)
            rows[1].append(parts[1])
    return verts, (faces[0], [_REFERENCE.sub("", t) if "/" in t else t
                              for t in faces[1]])


def _off_records(lines):
    """nv vertex and nf face records after the header and counts line."""
    texts = [raw.partition("#")[0].strip() for raw in lines]
    lns = [ln for ln, s in enumerate(texts, start=1) if s]
    texts = [s for s in texts if s]
    if not texts:
        raise MeshInputError("empty OFF file", line=1)
    if texts[0] != "OFF":
        raise MeshInputError("missing OFF header", line=lns[0])
    if len(texts) < 2:
        raise MeshInputError("missing OFF counts line", line=lns[0])
    counts = texts[1].split()[:2]
    if len(counts) < 2 or not all(map(_INTEGER.fullmatch, counts)):
        raise MeshInputError("bad OFF counts line", line=lns[1])
    nv, nf = map(int, counts)
    if nv < 0 or nf < 0:
        raise MeshInputError("negative OFF counts", line=lns[1])
    if len(texts) < 2 + nv + nf:
        raise MeshInputError(f"expected {nv} vertices and {nf} faces", line=lns[1])
    face_lines = lns[2 + nv:2 + nv + nf]
    faces = [s.split(None, 1) + [""] for s in texts[2 + nv:2 + nv + nf]]
    _raise_first(np.array([f[0] for f in faces]) != "3", face_lines, "non-triangular face")
    return (lns[2:2 + nv], texts[2:2 + nv]), (face_lines, [f[1] for f in faces])


# extension -> (record selector, face index base, face token-count rule, message)
_FORMATS = {"obj": (_obj_records, 1, np.equal, "non-triangular face"),
            "off": (_off_records, 0, np.greater_equal, "face needs 3 indices")}
_REFERENCE = re.compile(r"(?<=[^\s/])/\S*")   # "/vt/vn" after an OBJ face index
_INTEGER = re.compile(r"[+-]?[0-9]+")   # an integer token, as np.loadtxt reads it
_COORD_LIMIT = np.finfo(np.float64).max ** 0.25 / 4   # squared face areas stay finite


def _convert(rows, dtype, count_ok, count_message, token_message, check):
    """(line numbers, texts) -> (n, 3) array of each text's first three tokens
    from one ``np.loadtxt`` call; a text it rejects is then found row by row."""
    lines, texts = rows
    if not texts:
        return np.empty((0, 3), dtype)
    n_tokens = np.array([len(text.split()) for text in texts])
    _raise_first(~count_ok(n_tokens, 3), lines, count_message)
    values = _loadtxt(texts, dtype)
    if values is not None:
        check(values, lines)
        return values
    r = next(r for r, text in enumerate(texts) if _loadtxt([text], dtype) is None)
    tokens = texts[r].split()[:3]
    if dtype == np.int64 and all(map(_INTEGER.fullmatch, tokens)):
        # An index past int64: the range check names it as a Python int.
        check(np.array([[int(t) for t in tokens]], dtype=object), lines[r:r + 1])
    raise MeshInputError(token_message, line=lines[r])


def _loadtxt(texts, dtype):
    try:
        return np.loadtxt(texts, dtype=dtype, comments=None, usecols=(0, 1, 2), ndmin=2)
    except ValueError:
        return None


def _raise_first(bad, lines, message):
    if bad.any():
        raise MeshInputError(message, line=lines[np.argmax(bad)])


def _check_vertices(verts, lines):
    _raise_first(~np.isfinite(verts).all(axis=1), lines, "non-finite vertex coordinate")
    _raise_first((np.abs(verts) > _COORD_LIMIT).any(axis=1), lines,
                 f"vertex coordinate beyond {_COORD_LIMIT:.2g}")


def _check_indices(idx, lines, base, n_vertices):
    """``base``-based face indices in range; OBJ (base 1) takes no relative ones."""
    if base:
        _raise_first((idx <= 0).any(axis=1), lines,
                     "relative (negative) or zero face indices are not supported")
    bad = (idx < base) | (idx >= n_vertices + base)
    if bad.any():
        r = np.argmax(bad.any(axis=1))
        raise MeshInputError(f"face index {idx[r][bad[r]][0]} out of range "
                             f"({n_vertices} vertices)", line=lines[r])
