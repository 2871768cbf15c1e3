"""Oriented manifold triangle meshes: benchmark primitives, connectivity,
global integrals, Loop refinement, and OBJ/OFF file I/O.

Meshes are immutable after construction.  Faces wind counter-clockwise when
viewed from outside, so cross products of face edges point outward; curvature
signs downstream are taken against the inward normal.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshInputError, ParameterError, TopologyError, UnsupportedError

DEGENERATE_AREA_REL = 1e-12  # of (bbox diagonal)^2


@dataclass(frozen=True)
class PrimitiveSpec:
    """Parameters for one benchmark primitive.

    kind: one of ``icosphere``, ``catenoid``, ``flat_patch``,
    ``perturbed_sphere``.  Fields not used by a kind are ignored.
    """

    kind: str
    radius: float = 1.0          # icosphere / perturbed_sphere
    neck_scale: float = 1.0      # catenoid waist radius c
    half_height: float = 2.0     # catenoid truncation T
    level: int = 3               # icosphere subdivision level
    amplitude: float = 0.0       # perturbed_sphere epsilon
    grid: tuple = (64, 64)       # (around, along) for catenoid, (nx, ny) for patch
    extent: tuple = (1.0, 1.0)   # flat_patch side lengths

    def validate(self):
        kinds = ("icosphere", "catenoid", "flat_patch", "perturbed_sphere")
        if self.kind not in kinds:
            raise ParameterError("kind", f"must be one of {kinds}, got {self.kind!r}")
        if self.kind in ("icosphere", "perturbed_sphere"):
            if not self.radius > 0:
                raise ParameterError("radius", f"must be > 0, got {self.radius}")
            if not (isinstance(self.level, (int, np.integer)) and self.level >= 0):
                raise ParameterError("level", f"must be an integer >= 0, got {self.level}")
        if self.kind == "perturbed_sphere":
            if not 0 <= self.amplitude < 0.3:
                raise ParameterError(
                    "amplitude", f"must satisfy 0 <= eps < 0.3, got {self.amplitude}")
        if self.kind == "catenoid":
            if not self.neck_scale > 0:
                raise ParameterError("neck_scale", f"must be > 0, got {self.neck_scale}")
            if not self.half_height > 0:
                raise ParameterError("half_height", f"must be > 0, got {self.half_height}")
            nu, nv = self.grid
            if nu < 3 or nv < 2:
                raise ParameterError("grid", f"need at least 3x2 samples, got {self.grid}")
        if self.kind == "flat_patch":
            nx, ny = self.grid
            if nx < 1 or ny < 1:
                raise ParameterError("grid", f"need at least 1x1 cells, got {self.grid}")
            if not (self.extent[0] > 0 and self.extent[1] > 0):
                raise ParameterError("extent", f"side lengths must be > 0, got {self.extent}")


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
    min_face_area: float
    messages: list

    @property
    def ok(self):
        return (self.manifold and self.oriented and self.n_degenerate_faces == 0
                and self.n_unreferenced_vertices == 0)


class TriangleMesh:
    """Half-edge triangle mesh over numpy arrays.

    Half-edge ``h`` belongs to face ``h // 3``; ``origin[h]`` is its source
    vertex, ``next[h]`` the following half-edge in the same face, ``twin[h]``
    the opposite half-edge or -1 on the boundary.
    """

    def __init__(self, vertices, faces, source: PrimitiveSpec | None = None):
        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise ValueError(f"vertices must be (V, 3), got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise ValueError("face indices out of range")
        vertices.flags.writeable = False
        faces.flags.writeable = False
        self.vertices = vertices
        self.faces = faces
        self.source = source
        self._build_halfedges()

    # -- connectivity -------------------------------------------------------

    def _build_halfedges(self):
        V = len(self.vertices)
        F = len(self.faces)
        self.he_origin = self.faces.reshape(-1)                      # (3F,)
        self.he_face = np.repeat(np.arange(F, dtype=np.int64), 3)
        k = np.tile(np.arange(3, dtype=np.int64), F)
        self.he_next = self.he_face * 3 + (k + 1) % 3
        he_dest = self.he_origin[self.he_next]

        code = self.he_origin * np.int64(V) + he_dest
        order = np.argsort(code, kind="stable")
        sorted_code = code[order]
        dup = np.zeros(3 * F, dtype=bool)
        if len(sorted_code) > 1:
            rep = sorted_code[1:] == sorted_code[:-1]
            dup[order[1:][rep]] = True
            dup[order[:-1][rep]] = True
        self._duplicate_directed = dup

        twin_code = he_dest * np.int64(V) + self.he_origin
        pos = np.searchsorted(sorted_code, twin_code)
        pos_clip = np.minimum(pos, len(sorted_code) - 1) if len(sorted_code) else pos
        found = np.zeros(3 * F, dtype=bool)
        if len(sorted_code):
            found = sorted_code[pos_clip] == twin_code
        twin = np.full(3 * F, -1, dtype=np.int64)
        twin[found] = order[pos_clip[found]]
        # A duplicated directed edge makes twin assignment ambiguous; leave -1.
        twin[dup] = -1
        twin[twin >= 0] = np.where(
            dup[twin[twin >= 0]], -1, twin[twin >= 0])
        self.he_twin = twin

        self.is_boundary_halfedge = self.he_twin < 0
        self.boundary_vertex = np.zeros(V, dtype=bool)
        self.boundary_vertex[self.he_origin[self.is_boundary_halfedge]] = True
        self.boundary_vertex[he_dest[self.is_boundary_halfedge]] = True
        self._he_dest = he_dest

        n_bdry = int(self.is_boundary_halfedge.sum())
        self.n_edges = (3 * F + n_bdry) // 2 if not dup.any() else int(
            len(np.unique(np.minimum(code, twin_code))))
        self.closed = n_bdry == 0 and not dup.any()

    def with_positions(self, vertices):
        """New mesh sharing this connectivity with replaced positions."""
        vertices = np.asarray(vertices, dtype=np.float64)
        if vertices.shape != self.vertices.shape:
            raise ValueError("positions shape mismatch")
        vertices = vertices.copy()
        vertices.flags.writeable = False
        # Shallow copy: every attribute but the positions is connectivity (or
        # the source spec) and is shared, so nothing derived from positions
        # may be stored on the instance.
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
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    def face_corner_positions(self):
        """(F, 3) position triples (p0, p1, p2) in face order."""
        return (self.vertices[self.faces[:, 0]],
                self.vertices[self.faces[:, 1]],
                self.vertices[self.faces[:, 2]])

    def face_areas(self):
        p0, p1, p2 = self.face_corner_positions()
        n = np.cross(p1 - p0, p2 - p0)
        return 0.5 * np.linalg.norm(n, axis=1)

    def boundary_loops(self):
        """Number of boundary loops (cycles of boundary half-edges)."""
        bdry = np.nonzero(self.is_boundary_halfedge)[0]
        if len(bdry) == 0:
            return 0
        # Unique for manifold meshes; first-wins otherwise.
        start_of = {}
        for h in bdry:
            start_of.setdefault(int(self.he_origin[h]), int(h))
        seen = set()
        loops = 0
        for h0 in bdry:
            h0 = int(h0)
            if h0 in seen:
                continue
            loops += 1
            h = h0
            while True:
                seen.add(h)
                nxt = start_of.get(int(self._he_dest[h]))
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
        of that graph, a cycle or a chain, is one fan of one vertex.
        Components are labelled by their smallest half-edge, spreading the
        minimum over windows that double each round; a round that changes no
        label means every window already spans its component.
        """
        h = np.arange(3 * self.n_faces)
        paired = self.he_twin >= 0
        succ = h.copy()
        succ[paired] = self.he_next[self.he_twin[paired]]
        pred = h.copy()
        pred[succ[paired]] = h[paired]
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

    areas = mesh.face_areas()
    diag2 = mesh.bbox_diagonal() ** 2
    degenerate = int((areas <= DEGENERATE_AREA_REL * diag2).sum()) if len(areas) else 0
    if degenerate:
        idx = np.nonzero(areas <= DEGENERATE_AREA_REL * diag2)[0]
        messages.append(f"degenerate faces: {idx[:10].tolist()}")

    return MeshDiagnostics(
        n_vertices=mesh.n_vertices,
        n_faces=mesh.n_faces,
        n_edges=mesh.n_edges,
        euler_characteristic=mesh.euler_characteristic,
        closed=mesh.closed,
        boundary_loops=mesh.boundary_loops(),
        manifold=manifold,
        oriented=oriented,
        n_degenerate_faces=degenerate,
        n_unreferenced_vertices=len(unreferenced),
        min_face_area=float(areas.min()) if len(areas) else 0.0,
        messages=messages,
    )


def mesh_integrals(mesh: TriangleMesh) -> dict:
    """Total area, signed enclosed volume (closed meshes), Euler characteristic.

    The signed volume is the divergence-theorem determinant sum, positive for
    outward-oriented convex bodies; it is exact for polyhedra.
    """
    area = float(mesh.face_areas().sum())
    out = {"area": area, "euler_characteristic": mesh.euler_characteristic}
    if mesh.closed:
        p0, p1, p2 = mesh.face_corner_positions()
        out["signed_volume"] = float(np.einsum("ij,ij->", p0, np.cross(p1, p2)) / 6.0)
    else:
        out["signed_volume"] = None
    return out


def signed_volume(mesh: TriangleMesh) -> float:
    if not mesh.closed:
        raise TopologyError("signed volume requires a closed mesh")
    return mesh_integrals(mesh)["signed_volume"]


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
        mid = 0.5 * (v[mesh.he_origin[edge_he]] + v[mesh._he_dest[edge_he]])
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


def make_primitive(spec: PrimitiveSpec) -> TriangleMesh:
    """Construct one of the benchmark meshes; see PrimitiveSpec."""
    spec.validate()
    if spec.kind == "icosphere":
        v, f = _unit_icosphere(spec.level)
        return TriangleMesh(spec.radius * v, f, source=spec)

    if spec.kind == "perturbed_sphere":
        n, f = _unit_icosphere(spec.level)
        r = spec.radius * (1.0 + spec.amplitude * radial_profile(n))
        return TriangleMesh(r[:, None] * n, f, source=spec)

    if spec.kind == "catenoid":
        nu, nv = spec.grid
        c, T = spec.neck_scale, spec.half_height
        u = np.linspace(0.0, 2 * np.pi, nu, endpoint=False)
        v = np.linspace(-T, T, nv)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        rad = c * np.cosh(vv / c)
        pts = np.stack([rad * np.cos(uu), rad * np.sin(uu), vv], axis=-1)
        return TriangleMesh(pts.reshape(-1, 3), _grid_faces(nu, nv, wrap=True),
                            source=spec)

    if spec.kind == "flat_patch":
        nx, ny = spec.grid
        Lx, Ly = spec.extent
        x = np.linspace(0.0, Lx, nx + 1)
        y = np.linspace(0.0, Ly, ny + 1)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        verts = np.stack([xx, yy, np.zeros_like(xx)], axis=-1).reshape(-1, 3)
        return TriangleMesh(verts, _grid_faces(nx + 1, ny + 1, wrap=False), source=spec)

    raise ParameterError("kind", f"unhandled kind {spec.kind!r}")


def icosphere(radius=1.0, level=3):
    return make_primitive(PrimitiveSpec(kind="icosphere", radius=radius, level=level))


def perturbed_sphere(radius=1.0, amplitude=0.05, level=3):
    return make_primitive(PrimitiveSpec(
        kind="perturbed_sphere", radius=radius, amplitude=amplitude, level=level))


def catenoid_mesh(neck_scale=1.0, half_height=2.0, grid=(64, 64)):
    return make_primitive(PrimitiveSpec(
        kind="catenoid", neck_scale=neck_scale, half_height=half_height, grid=grid))


def flat_patch(grid=(16, 16), extent=(1.0, 1.0)):
    return make_primitive(PrimitiveSpec(kind="flat_patch", grid=grid, extent=extent))


# -- refinement ---------------------------------------------------------------

def _split_faces(mesh: TriangleMesh):
    """Midpoint 1->4 split of a closed mesh's faces.

    Returns ``(edge_he, faces)``: one half-edge per edge, ordered by the
    first half-edge ``3f + c`` that meets the edge, and the split faces, four
    children per parent face in parent order.  Edge ``e``'s midpoint is
    vertex ``V + e``.
    """
    h_idx = np.arange(3 * mesh.n_faces)
    canon = np.minimum(h_idx, mesh.he_twin)           # canonical half-edge per edge
    edge_he, edge_id = np.unique(canon, return_inverse=True)
    m = mesh.n_vertices + edge_id.reshape(-1, 3)      # midpoint ids per face corner
    i, j, k = mesh.faces.T
    mij, mjk, mki = m.T
    faces = np.stack([i, mij, mki, j, mjk, mij, k, mki, mjk, mij, mjk, mki], axis=1)
    return edge_he, faces.reshape(-1, 3)


def refine(mesh: TriangleMesh) -> TriangleMesh:
    """One Loop-subdivision step (closed meshes only); F quadruples.

    Icosphere sources are reprojected onto their sphere after subdivision.
    """
    if not mesh.closed:
        raise UnsupportedError("refine supports closed meshes only")

    V = mesh.n_vertices
    edge_he, new_faces = _split_faces(mesh)
    a = mesh.he_origin[edge_he]
    b = mesh._he_dest[edge_he]
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
    nbr_sum = np.zeros((V, 3))
    np.add.at(nbr_sum, mesh.he_origin, mesh.vertices[mesh._he_dest])
    even_pts = (1.0 - valence * beta)[:, None] * mesh.vertices + beta[:, None] * nbr_sum

    new_verts = np.vstack([even_pts, edge_pts])

    source = mesh.source
    if source is not None and source.kind == "icosphere":
        norms = np.linalg.norm(new_verts, axis=1, keepdims=True)
        new_verts = source.radius * new_verts / norms
        source = dataclasses.replace(source, level=source.level + 1)
    else:
        source = None      # the refined mesh no longer matches its spec
    return TriangleMesh(new_verts, new_faces, source=source)


# -- file I/O -----------------------------------------------------------------

def save_mesh(mesh: TriangleMesh, path):
    """Write OBJ or OFF (by extension) with 17-significant-digit positions."""
    path = str(path)
    if path.lower().endswith(".obj"):
        lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
        lines += [f"f {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.faces]
        text = "\n".join(lines) + "\n"
    elif path.lower().endswith(".off"):
        lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} {mesh.n_edges}"]
        lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
        lines += [f"3 {i} {j} {k}" for i, j, k in mesh.faces]
        text = "\n".join(lines) + "\n"
    else:
        raise MeshInputError(f"unsupported mesh extension for {path!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_mesh(path) -> TriangleMesh:
    """Read an ASCII OBJ or OFF triangle mesh; rejects non-manifold input."""
    path = str(path)
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.read().splitlines()
    if path.lower().endswith(".obj"):
        verts, faces = _parse_obj(lines)
    elif path.lower().endswith(".off"):
        verts, faces = _parse_off(lines)
    else:
        raise MeshInputError(f"unsupported mesh extension for {path!r}")
    if not verts:
        raise MeshInputError("no vertices parsed (empty or invalid file)", line=1)
    mesh = TriangleMesh(np.array(verts), np.array(faces, dtype=np.int64))
    diag = validate(mesh)
    if not (diag.manifold and diag.oriented):
        raise MeshInputError(f"non-manifold or inconsistently oriented input: "
                             f"{'; '.join(diag.messages)}")
    if diag.n_unreferenced_vertices:
        raise MeshInputError(f"vertex {int(mesh.unreferenced_vertices()[0])} (0-based) "
                             f"is used by no face")
    return mesh


def _parse_vertex(tokens, ln):
    try:
        point = tuple(float(t) for t in tokens)
    except ValueError:
        raise MeshInputError("bad vertex line", line=ln) from None
    if not all(math.isfinite(x) for x in point):
        raise MeshInputError("non-finite vertex coordinate", line=ln)
    return point


def _parse_obj(lines):
    verts, faces = [], []
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshInputError("vertex needs 3 coordinates", line=ln)
            verts.append(_parse_vertex(parts[1:4], ln))
        elif parts[0] == "f":
            idx = parts[1:]
            if len(idx) != 3:
                raise MeshInputError("non-triangular face", line=ln)
            try:
                tri = tuple(int(t.split("/")[0]) for t in idx)
            except ValueError:
                raise MeshInputError("bad face index", line=ln) from None
            if min(tri) <= 0:
                raise MeshInputError(
                    "relative (negative) or zero face indices are not supported", line=ln)
            faces.append(tuple(t - 1 for t in tri))
        # other OBJ record types (vn, vt, o, s, usemtl, ...) are ignored
    return verts, faces


def _parse_off(lines):
    content = [(ln, raw.split("#")[0].strip()) for ln, raw in enumerate(lines, start=1)]
    content = [(ln, s) for ln, s in content if s]
    if not content:
        raise MeshInputError("empty OFF file", line=1)
    ln0, header = content[0]
    if header != "OFF":
        raise MeshInputError("missing OFF header", line=ln0)
    if len(content) < 2:
        raise MeshInputError("missing OFF counts line", line=ln0)
    ln1, counts = content[1]
    try:
        nv, nf = int(counts.split()[0]), int(counts.split()[1])
    except (ValueError, IndexError):
        raise MeshInputError("bad OFF counts line", line=ln1) from None
    body = content[2:]
    if len(body) < nv + nf:
        raise MeshInputError(f"expected {nv} vertices and {nf} faces", line=ln1)
    verts, faces = [], []
    for ln, s in body[:nv]:
        toks = s.split()
        if len(toks) < 3:
            raise MeshInputError("vertex needs 3 coordinates", line=ln)
        verts.append(_parse_vertex(toks[:3], ln))
    for ln, s in body[nv:nv + nf]:
        toks = s.split()
        if not toks or toks[0] != "3":
            raise MeshInputError("non-triangular face", line=ln)
        try:
            faces.append(tuple(int(t) for t in toks[1:4]))
        except ValueError:
            raise MeshInputError("bad face index", line=ln) from None
    return verts, faces
