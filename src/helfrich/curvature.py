"""Discrete curvature operators: cotangent Laplace-Beltrami, mean and Gauss
curvature, and the tracefree second-fundamental-form norm.

Conventions: H = k1 + k2 measured against the inward unit normal, so the
round sphere of radius rho has H = +2/rho; K is the angle defect over the
mixed Voronoi vertex area; |A degree|^2 is recovered algebraically as
max(0, H^2/2 - 2K).  Boundary vertices carry NaN curvatures and are flagged
out of the interior mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    interior: np.ndarray           # bool mask, False on boundary vertices

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


@dataclass
class SparseOperator:
    """Symmetric cotangent stiffness matrix with diagonal vertex-area mass."""

    stiffness: sp.csr_matrix
    mass: np.ndarray


def _scatter_add(n, idx, values):
    """Sum `values` into an array of length n at `idx` (vector-valued ok)."""
    if values.ndim == 1:
        return np.bincount(idx, weights=values, minlength=n)
    out = np.empty((n, values.shape[1]))
    for c in range(values.shape[1]):
        out[:, c] = np.bincount(idx, weights=values[:, c], minlength=n)
    return out


def _face_data(mesh: TriangleMesh):
    """Cotangents, areas, corner angles and mixed-Voronoi contributions."""
    p0, p1, p2 = mesh.face_corner_positions()
    e0 = p2 - p1   # opposite corner 0
    e1 = p0 - p2
    e2 = p1 - p0
    cross = np.cross(e2, -e1)          # (p1-p0) x (p2-p0), outward
    double_area = np.linalg.norm(cross, axis=1)
    area = 0.5 * double_area

    bad = area <= DEGENERATE_AREA_REL * mesh.bbox_diagonal() ** 2
    if bad.any():
        raise OperatorError(f"degenerate face {int(np.nonzero(bad)[0][0])}")

    # cot of the angle at each corner
    d0 = np.einsum("ij,ij->i", -e1, e2)    # (p0->p2).(p0->p1) ... at corner 0
    d1 = np.einsum("ij,ij->i", -e2, e0)
    d2 = np.einsum("ij,ij->i", -e0, e1)
    cots = np.stack([d0, d1, d2], axis=1) / double_area[:, None]

    angles = np.arctan2(double_area[:, None],
                        np.stack([d0, d1, d2], axis=1))

    # Meyer mixed Voronoi area per corner.
    l0 = np.einsum("ij,ij->i", e0, e0)      # squared edge lengths
    l1 = np.einsum("ij,ij->i", e1, e1)
    l2 = np.einsum("ij,ij->i", e2, e2)
    voronoi = np.empty((len(area), 3))
    voronoi[:, 0] = (l2 * cots[:, 2] + l1 * cots[:, 1]) / 8.0
    voronoi[:, 1] = (l0 * cots[:, 0] + l2 * cots[:, 2]) / 8.0
    voronoi[:, 2] = (l1 * cots[:, 1] + l0 * cots[:, 0]) / 8.0
    obtuse = cots < 0.0
    any_obtuse = obtuse.any(axis=1)
    half = np.where(obtuse, 0.5, 0.25) * area[:, None]
    voronoi[any_obtuse] = half[any_obtuse]

    return cots, area, cross, angles, voronoi


def _mixed_area_and_normals(mesh, cross, voronoi):
    V = mesh.n_vertices
    areas = _scatter_add(V, mesh.faces.reshape(-1), voronoi.reshape(-1))
    # area-weighted outward face normals (cross already carries the weight)
    acc = np.zeros((V, 3))
    for c in range(3):
        acc += _scatter_add(V, mesh.faces[:, c], cross)
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    inward = -acc / norms
    return areas, inward


def _edge_arrays(mesh, cots):
    """Per-face-edge (i, j, w) with w = cot(opposite corner) / 2."""
    f = mesh.faces
    i = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    j = np.concatenate([f[:, 2], f[:, 0], f[:, 1]])
    w = 0.5 * np.concatenate([cots[:, 0], cots[:, 1], cots[:, 2]])
    return i, j, w


def curvature_bundle(mesh: TriangleMesh) -> CurvatureBundle:
    """Vectorized cotangent/angle-defect curvature estimate at every vertex,
    with the Laplacian of H from the same face-geometry pass."""
    cots, area, cross, angles, voronoi = _face_data(mesh)
    V = mesh.n_vertices
    areas, inward = _mixed_area_and_normals(mesh, cross, voronoi)

    i, j, w = _edge_arrays(mesh, cots)
    pos = mesh.vertices
    flux = w[:, None] * (pos[j] - pos[i])
    lap_pos = _scatter_add(V, i, flux) + _scatter_add(V, j, -flux)

    H = np.einsum("ij,ij->i", lap_pos, inward) / areas

    defect = 2.0 * np.pi - _scatter_add(V, mesh.faces.reshape(-1), angles.reshape(-1))
    K = defect / areas

    interior = ~mesh.boundary_vertex
    H[mesh.boundary_vertex] = np.nan
    K[mesh.boundary_vertex] = np.nan

    raw = 0.5 * H * H - 2.0 * K
    d = w * (H[j] - H[i])
    lap_H = (_scatter_add(V, i, d) + _scatter_add(V, j, -d)) / areas
    return CurvatureBundle(
        vertex_area=areas, normal=inward, mean_curvature=H, gauss_curvature=K,
        tracefree_raw=raw, laplace_mean_curvature=lap_H, interior=interior)


def cotan_operator(mesh: TriangleMesh) -> SparseOperator:
    """Cotangent stiffness (row sums 0, symmetric) with mixed-Voronoi mass."""
    cots, area, cross, angles, voronoi = _face_data(mesh)
    V = mesh.n_vertices
    areas, _ = _mixed_area_and_normals(mesh, cross, voronoi)
    i, j, w = _edge_arrays(mesh, cots)
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    vals = np.concatenate([w, w, -w, -w])
    stiffness = sp.coo_matrix((vals, (rows, cols)), shape=(V, V)).tocsr()
    return SparseOperator(stiffness=stiffness, mass=areas)


def laplace_field(op: SparseOperator, field) -> np.ndarray:
    """Pointwise Laplace-Beltrami estimate: mass-inverse stiffness product."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (len(op.mass),):
        raise OperatorError(
            f"field length {field.shape} does not match vertex count {len(op.mass)}")
    return (op.stiffness @ field) / op.mass


def angle_defect_total(mesh: TriangleMesh) -> float:
    """Sum of vertex angle defects; equals 2 pi chi on closed meshes."""
    _, _, _, angles, _ = _face_data(mesh)
    defect = 2.0 * np.pi * mesh.n_vertices - angles.sum()
    if not mesh.closed:
        # boundary vertices have defect pi - angle sum under the usual
        # Gauss-Bonnet bookkeeping; callers on open meshes handle this
        defect -= np.pi * int(mesh.boundary_vertex.sum())
    return float(defect)
