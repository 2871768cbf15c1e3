"""Discrete curvature operators: cotangent Laplace-Beltrami, mean and Gauss
curvature, and the tracefree second-fundamental-form norm.

Conventions: H = k1 + k2 measured against the inward unit normal, so the
round sphere of radius rho has H = +2/rho; K is the angle defect over the
mixed Voronoi vertex area; |A degree|^2 is recovered algebraically as
max(0, H^2/2 - 2K).  Boundary vertices carry NaN curvatures and are flagged
out of the interior mask.

Every operator here runs one face-geometry pass, ``_face_data``: the
Meyer-Desbrun-Schroeder-Barr cotangents, corner angles and mixed Voronoi
areas, computed on contiguous coordinate columns of length F and scattered
onto the vertices with 1-D ``bincount`` calls, each of which sums every
vertex's bin in face order.  So a mesh made of disjoint copies of one
connectivity gives each copy bitwise the values of that copy on its own;
the residual-descent Jacobian runs its perturbed meshes through the pass
that way (``flow._block_mesh``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import OperatorError
from .mesh import DEGENERATE_AREA_REL, TriangleMesh


@dataclass
class CurvatureBundle:
    """Per-vertex curvature data; NaN outside the interior mask."""

    vertex_area: np.ndarray        # mixed Voronoi area
    normal: np.ndarray             # inward unit normal, (V, 3)
    mean_curvature: np.ndarray     # H = k1 + k2
    gauss_curvature: np.ndarray    # K = k1 k2
    tracefree_raw: np.ndarray      # H^2/2 - 2K, unclamped
    laplace_mean_curvature: np.ndarray  # cotangent Laplacian of H
    # w = cot(corner k) / 2 of the edge opposite corner k of every face,
    # (3, F): the weights of ``_edges`` and of the stiffness's terms.
    edge_weight: np.ndarray
    interior: np.ndarray           # bool mask, False on boundary vertices
    obtuse_faces: int              # faces on the obtuse-triangle area fallback
    surface_area: float            # sum of the face areas

    # The clamped value and its statistics are worked out when read: the
    # residual-descent objective evaluates thousands of bundles and reads
    # only the unclamped value.
    @cached_property
    def tracefree_sq(self):
        """|A deg|^2 = max(0, H^2/2 - 2K)."""
        raw = self.tracefree_raw
        return np.where(raw < 0.0, 0.0, raw)

    @property
    def _clamped(self):
        return (self.tracefree_raw < 0.0) & self.interior

    @property
    def clamp_count(self):
        """Vertices where H^2/2 - 2K < 0 was clamped."""
        return int(self._clamped.sum())

    @property
    def clamp_max(self):
        """Largest clamped magnitude."""
        clamped = self._clamped
        return float(np.abs(self.tracefree_raw[clamped]).max()) if clamped.any() else 0.0

    @property
    def clamp_fraction(self):
        n = int(self.interior.sum())
        return self.clamp_count / n if n else 0.0

    def counters(self):
        """Tracefree-clamp statistics and the obtuse-fallback face count."""
        return {"clamp_count": self.clamp_count, "clamp_fraction": self.clamp_fraction,
                "clamp_max": self.clamp_max, "obtuse_faces": self.obtuse_faces}


@dataclass
class SparseOperator:
    """Symmetric cotangent stiffness matrix with diagonal vertex-area mass."""

    stiffness: sp.csr_matrix
    mass: np.ndarray


class FacePass(NamedTuple):
    """Per-face columns of one face-geometry pass; each triple holds the
    columns of corners 0, 1 and 2."""

    corners: np.ndarray     # (3, F): row k holds the vertex of each corner k
    cots: list              # cotangent of the corner angle
    angles: list            # corner angle
    voronoi: list           # the corner's mixed Voronoi area
    normal: tuple           # (p1 - p0) x (p2 - p0): outward, length 2 * area
    surface_area: float     # sum of the face areas
    obtuse_faces: int       # faces on the obtuse-triangle area fallback


def _face_data(mesh: TriangleMesh) -> FacePass:
    """The face-geometry pass on coordinate columns of length F.

    The arithmetic repeats the operation order of ``np.cross``, ``np.einsum``
    and ``np.linalg.norm`` on (F, 3) blocks, so every value is bitwise what
    those give.
    """
    corners = np.ascontiguousarray(mesh.faces.T)
    # ex[k], ey[k], ez[k]: the edge opposite corner k, p[k + 2] - p[k + 1]
    ex, ey, ez = ([p[2] - p[1], p[0] - p[2], p[1] - p[0]]
                  for p in ([c.take(f) for f in corners]
                            for c in np.ascontiguousarray(mesh.vertices.T)))
    nx = ez[2] * ey[1] - ey[2] * ez[1]     # e2 x -e1
    ny = ex[2] * ez[1] - ez[2] * ex[1]
    nz = ey[2] * ex[1] - ex[2] * ey[1]
    double_area = np.sqrt((nx * nx + ny * ny) + nz * nz)
    area = 0.5 * double_area

    bad = area <= DEGENERATE_AREA_REL * mesh.bbox_diagonal() ** 2
    if bad.any():
        raise OperatorError(f"degenerate face {int(bad.argmax())}")

    # numpy's einsum sums a 3-vector dot product as (x + z) + y; keep its order.
    def dot(a, b):
        return (ex[a] * ex[b] + ez[a] * ez[b]) + ey[a] * ey[b]

    # The edges leaving corner k are e[k + 2] and -e[k + 1].
    dots = [-dot((k + 1) % 3, (k + 2) % 3) for k in range(3)]
    cots = [d / double_area for d in dots]
    angles = [np.arctan2(double_area, d) for d in dots]

    # Meyer mixed Voronoi area per corner, from the squared edge lengths.
    weighted = [dot(k, k) * cots[k] for k in range(3)]
    voronoi = [(weighted[(k + 2) % 3] + weighted[(k + 1) % 3]) / 8.0 for k in range(3)]
    obtuse = [c < 0.0 for c in cots]
    fallback = obtuse[0] | obtuse[1] | obtuse[2]
    if fallback.any():
        for v, o in zip(voronoi, obtuse):
            v[fallback] = np.where(o[fallback], 0.5, 0.25) * area[fallback]

    return FacePass(corners, cots, angles, voronoi, (nx, ny, nz),
                    float(area.sum()), int(fallback.sum()))


def _corner_sum(faces, columns, size):
    """Sum three per-corner columns into the bins of (n, 3) faces, in face
    order."""
    return np.bincount(faces.reshape(-1),
                       weights=np.stack(columns, axis=1).reshape(-1), minlength=size)


def _edge_ends(f):
    """(i, j) of every face edge from (3, n) corner rows: edge k of a face
    joins corners k + 1 and k + 2, opposite corner k; the edges of corner 0
    come first."""
    return np.concatenate([f[1], f[2], f[0]]), np.concatenate([f[2], f[0], f[1]])


def _edges(fp):
    """Per-face-edge (i, j, w) with w = cot(opposite corner) / 2."""
    return (*_edge_ends(fp.corners), 0.5 * np.concatenate(fp.cots))


def curvature_bundle(mesh: TriangleMesh) -> CurvatureBundle:
    """Vectorized cotangent/angle-defect curvature estimate at every vertex,
    with the Laplacian of H from the same face-geometry pass."""
    fp = _face_data(mesh)
    V = mesh.n_vertices
    areas = _corner_sum(mesh.faces, fp.voronoi, V)
    K = (2.0 * np.pi - _corner_sum(mesh.faces, fp.angles, V)) / areas
    # Area-weighted outward normals, summed one corner at a time.
    f0, f1, f2 = fp.corners
    ax, ay, az = ((np.bincount(f0, n, V) + np.bincount(f1, n, V))
                  + np.bincount(f2, n, V) for n in fp.normal)
    norms = np.sqrt((ax * ax + ay * ay) + az * az)
    norms[norms == 0] = 1.0
    nx, ny, nz = -ax / norms, -ay / norms, -az / norms

    i, j, w = _edges(fp)
    obtuse_faces, surface_area = fp.obtuse_faces, fp.surface_area
    # Free the face columns before the Laplacians' temporaries.  Holding them
    # raised each Jacobian block's peak so far that the heap was trimmed and
    # grown again on most blocks: 1 300 to 3 700 minor faults per level-2
    # residual flow instead of about 500.
    del fp
    # Fresh coordinate columns, not ones kept from the face pass: holding
    # those (and the per-face areas) through the whole call cost about 40%
    # more page faults and 10% more time per L6 bundle.
    lx, ly, lz = (np.bincount(i, weights=flux, minlength=V)
                  + np.bincount(j, weights=-flux, minlength=V)
                  for flux in (w * (c[j] - c[i])
                               for c in np.ascontiguousarray(mesh.vertices.T)))
    H = ((lx * nx + lz * nz) + ly * ny) / areas

    interior = ~mesh.boundary_vertex
    H[mesh.boundary_vertex] = np.nan
    K[mesh.boundary_vertex] = np.nan

    raw = 0.5 * H * H - 2.0 * K
    d = w * (H[j] - H[i])
    lap_H = (np.bincount(i, d, V) + np.bincount(j, -d, V)) / areas
    return CurvatureBundle(
        vertex_area=areas, normal=np.stack([nx, ny, nz], axis=1),
        mean_curvature=H, gauss_curvature=K, tracefree_raw=raw,
        laplace_mean_curvature=lap_H, edge_weight=w.reshape(3, -1),
        interior=interior,
        obtuse_faces=obtuse_faces, surface_area=surface_area)


def cotan_operator(mesh: TriangleMesh) -> SparseOperator:
    """Cotangent stiffness (row sums 0, exactly symmetric) with mixed-Voronoi
    mass; the stiffness is ``_OneRing``'s, from the face pass's edge weights."""
    fp = _face_data(mesh)
    mass = _corner_sum(mesh.faces, fp.voronoi, mesh.n_vertices)
    w = 0.5 * np.concatenate(fp.cots)
    del fp      # free the face columns before the assembly's peak
    ring = _OneRing(mesh)
    return SparseOperator(stiffness=ring.matrix(ring.stiffness(w)), mass=mass)


class _OneRing:
    """The closed vertex 1-ring of one connectivity: a CSR pattern with
    sorted indices, which is the cotangent stiffness K's, and where K's terms
    go in it.

    Face edge (i, j) of weight w adds w to K's entries (i, j) and (j, i) and
    -w to (i, i) and (j, j).  ``edge`` gives each face edge, in
    ``_edge_ends`` order, its undirected edge lo < hi; rows 0 to 3 of
    ``slot`` hold each edge's entries (lo, hi), (hi, lo), (lo, lo) and
    (hi, hi).  K's data sums each edge's face terms (two on a manifold,
    whose sum does not depend on their order), so K is exactly symmetric,
    and each diagonal entry adds its vertex's edge sums in slot order.  The
    index arrays are int32, as flows hold them for their whole run.
    """

    def __init__(self, mesh: TriangleMesh):
        V = mesh.n_vertices
        i, j = _edge_ends(mesh.faces.T)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        del i, j
        code = lo * V + hi
        order = code.argsort()
        code = code[order]
        first = np.empty(len(code), dtype=bool)
        first[:1] = True
        np.not_equal(code[1:], code[:-1], out=first[1:])
        self.edge = np.empty(len(code), dtype=np.int32)
        self.edge[order] = np.cumsum(first, dtype=np.int32) - 1
        keep = order[first]
        lo, hi = lo[keep], hi[keep]                     # the edges by (lo, hi)
        del code, order, first, keep
        # Row v: its lower neighbours, v itself if a face uses it, then its
        # upper neighbours, each part ascending.
        lower, upper = np.bincount(hi, minlength=V), np.bincount(lo, minlength=V)
        size = lower + upper
        size += size > 0
        start = np.zeros(V + 1, dtype=np.int64)
        np.cumsum(size, out=start[1:])
        diag = start[:-1] + lower
        # The upper part of row v takes the edges (v, hi) in edge order, the
        # lower part the edges (lo, v) in (hi, lo) order.
        k = np.arange(len(lo))
        self.slot = np.empty((4, len(lo)), dtype=np.int32)
        self.slot[0] = (diag + 1 - (np.cumsum(upper) - upper))[lo] + k
        by_hi = hi.argsort(kind="stable")
        self.slot[1, by_hi] = (start[:-1] - (np.cumsum(lower) - lower))[hi[by_hi]] + k
        self.slot[2], self.slot[3] = diag[lo], diag[hi]
        self.indices = np.empty(start[-1], dtype=np.int32)
        for slot, col in zip(self.slot, (hi, lo, lo, hi)):
            self.indices[slot] = col
        self.indptr = start.astype(np.int32)

    def stiffness(self, edge_weight):
        """K's data on the pattern from the weights of the face edges, in
        ``_edge_ends`` order: a bundle's (3, F) ``edge_weight``."""
        w = np.bincount(self.edge, edge_weight.reshape(-1), self.slot.shape[1])
        return np.bincount(self.slot.reshape(-1), np.concatenate([w, w, -w, -w]),
                           len(self.indices))

    def matrix(self, data):
        """The (V, V) CSR matrix of ``data`` on the pattern."""
        V = len(self.indptr) - 1
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(V, V))


def laplace_field(op: SparseOperator, field) -> np.ndarray:
    """Pointwise Laplace-Beltrami estimate: mass-inverse stiffness product."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (len(op.mass),):
        raise OperatorError(
            f"field length {field.shape} does not match vertex count {len(op.mass)}")
    return (op.stiffness @ field) / op.mass


def angle_defect_total(mesh: TriangleMesh) -> float:
    """Sum of vertex angle defects; equals 2 pi chi on closed meshes."""
    angles = _face_data(mesh).angles
    defect = 2.0 * np.pi * mesh.n_vertices - np.stack(angles, axis=1).sum()
    if not mesh.closed:
        # boundary vertices have defect pi - angle sum under the usual
        # Gauss-Bonnet bookkeeping; callers on open meshes handle this
        defect -= np.pi * int(mesh.boundary_vertex.sum())
    return float(defect)
