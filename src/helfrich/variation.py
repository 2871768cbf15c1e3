"""Euler-Lagrange residual fields and energy gradients.

The residual of the locally constrained Willmore functional is
lap H + H |A deg|^2 - 2 lam1 H - 2 lam2; nonzero spontaneous curvature adds
2 c0 K and shifts the H weight to 2 lam1 + c0^2/2 (first-variation operator,
stored without its overall minus sign).

The assembled gradient is the normal L^2 gradient 0.5 * residual * area * nu
with nu the inward vertex normal; finite differences provide the independent
cross-check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .analytic import ParametricSurface, QuadratureGrid
from .curvature import curvature_bundle
from .energy import EnergyParams, evaluate_energies
from .errors import UndefinedFunctionalError, UnsupportedError
from .mesh import TriangleMesh

FD_STEP_REL = 1e-5      # of the bounding-box diagonal


@dataclass
class ResidualField:
    """Pointwise Euler-Lagrange residual with area weights and interior mask."""

    values: np.ndarray
    areas: np.ndarray
    interior: np.ndarray
    source_kind: str        # "mesh" or "oracle"

    @property
    def l2(self):
        """Area-weighted L^2 norm over the interior mask."""
        m = self.interior
        return float(np.sqrt((self.values[m] ** 2 * self.areas[m]).sum()))

    @property
    def linf(self):
        return float(np.abs(self.values[self.interior]).max())

    @property
    def rms(self):
        m = self.interior
        total = self.areas[m].sum()
        return float(np.sqrt((self.values[m] ** 2 * self.areas[m]).sum() / total))

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["vertex", "residual", "area", "interior"])
            for i, (val, a, flag) in enumerate(
                    zip(self.values, self.areas, self.interior)):
                w.writerow([i, repr(float(val)) if np.isfinite(val) else "nan",
                            repr(float(a)), int(flag)])


def residual_values(lap_H, H, K, tracefree_sq, params: EnergyParams):
    """Pointwise residual; for c0 = 0 this is exactly the locally constrained
    Willmore operator (identical arithmetic, no separate code path)."""
    c0 = params.c0
    return (lap_H + H * tracefree_sq + 2.0 * c0 * K
            - (2.0 * params.lam1 + 0.5 * c0 * c0) * H - 2.0 * params.lam2)


def _stencil_interior(mesh, interior):
    """Vertices whose Laplacian stencil touches only interior vertices."""
    if mesh.closed:
        return interior.copy()
    bad = ~interior
    nbr_bad = np.zeros(mesh.n_vertices, dtype=bool)
    np.logical_or.at(nbr_bad, mesh.he_origin, bad[mesh._he_dest])
    return interior & ~nbr_bad


def _mesh_residual(mesh, bundle, params) -> ResidualField:
    vals = residual_values(bundle.laplace_mean_curvature, bundle.mean_curvature,
                           bundle.gauss_curvature, bundle.tracefree_sq, params)
    mask = _stencil_interior(mesh, bundle.interior)
    return ResidualField(values=vals, areas=bundle.vertex_area,
                         interior=mask, source_kind="mesh")


def el_residual(source, params: EnergyParams, grid=None) -> ResidualField:
    """Euler-Lagrange residual field on a mesh or an oracle surface."""
    if isinstance(source, TriangleMesh):
        return _mesh_residual(source, curvature_bundle(source), params)
    if isinstance(source, ParametricSurface):
        if source.laplace_mean_curvature_fn is None:
            raise UnsupportedError(
                f"surface {source.name!r} has no stored Laplacian of H")
        if grid is None:
            grid = QuadratureGrid.for_surface(source, 64, 64)
        uu, vv, ww = grid.mesh()
        g = source.geometry(uu, vv)
        vals = residual_values(g.laplace_mean_curvature, g.mean_curvature,
                               g.gauss_curvature, g.tracefree_sq, params)
        return ResidualField(values=vals.ravel(),
                             areas=(g.sqrt_det_g * ww).ravel(),
                             interior=np.ones(vals.size, dtype=bool),
                             source_kind="oracle")
    raise TypeError(f"unsupported source type {type(source).__name__}")


# -- mesh energies and exact polyhedral gradients -------------------------------

def mesh_energy(mesh: TriangleMesh, params: EnergyParams) -> float:
    """Helfrich total for closed meshes; pure bending energy when all weights
    vanish (the only case permitted on open meshes)."""
    report = evaluate_energies(mesh, params)
    if report.closed:
        return report.helfrich
    if params.lam1 == 0.0 and params.lam2 == 0.0:
        return report.breakdown["bending"]
    raise UndefinedFunctionalError(
        "area/volume-weighted energy on an open mesh")


def area_gradient(mesh: TriangleMesh) -> np.ndarray:
    """Exact polyhedral gradient of total face area, per vertex."""
    p0, p1, p2 = mesh.face_corner_positions()
    n = np.cross(p1 - p0, p2 - p0)
    n_hat = n / np.linalg.norm(n, axis=1, keepdims=True)
    grads = (np.cross(n_hat, p2 - p1),
             np.cross(n_hat, p0 - p2),
             np.cross(n_hat, p1 - p0))
    out = np.zeros((mesh.n_vertices, 3))
    for corner, gval in enumerate(grads):
        np.add.at(out, mesh.faces[:, corner], 0.5 * gval)
    return out


def volume_gradient(mesh: TriangleMesh) -> np.ndarray:
    """Exact polyhedral gradient of the signed enclosed volume."""
    p0, p1, p2 = mesh.face_corner_positions()
    contribs = (np.cross(p1, p2), np.cross(p2, p0), np.cross(p0, p1))
    out = np.zeros((mesh.n_vertices, 3))
    for corner, cval in enumerate(contribs):
        np.add.at(out, mesh.faces[:, corner], cval / 6.0)
    return out


def energy_gradient(mesh: TriangleMesh, params: EnergyParams,
                    method="assembled") -> np.ndarray:
    """Per-vertex 3-vector gradient of the Helfrich total.

    assembled: normal L^2 gradient 0.5 * residual * vertex area * inward
    normal (tangential motion is reparametrization and omitted).
    finite_difference: central differences per coordinate with step
    1e-5 x bounding-box diagonal.
    """
    if not mesh.closed and not (params.lam1 == 0.0 and params.lam2 == 0.0):
        raise UndefinedFunctionalError(
            "area/volume-weighted gradient on an open mesh")
    if method == "assembled":
        bundle = curvature_bundle(mesh)
        field = _mesh_residual(mesh, bundle, params)
        vals = np.where(field.interior, field.values, 0.0)
        return 0.5 * (vals * field.areas)[:, None] * bundle.normal
    if method == "finite_difference":
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
    raise ValueError(f"unknown method {method!r}")


def directional_derivative_fd(mesh, params, direction, h=None,
                              energy_fn=None, richardson=True) -> float:
    """Central finite difference of the energy along a vertex displacement.

    Richardson extrapolation removes the h^2 term, which in particular makes
    the derivative exact (to roundoff) for the polynomial area^2/volume-type
    functionals.
    """
    if h is None:
        h = FD_STEP_REL * mesh.bbox_diagonal()
    fn = energy_fn or (lambda m: mesh_energy(m, params))

    def central(step):
        plus = fn(mesh.with_positions(mesh.vertices + step * direction))
        minus = fn(mesh.with_positions(mesh.vertices - step * direction))
        return (plus - minus) / (2.0 * step)

    if not richardson:
        return central(h)
    return (4.0 * central(h / 2) - central(h)) / 3.0


def random_smooth_fields(mesh, n, seed=0):
    """Random low-order polynomial vertex displacement fields, sup-normalized."""
    rng = np.random.default_rng(seed)
    x = mesh.vertices / max(mesh.bbox_diagonal(), 1e-30)
    fields = []
    for _ in range(n):
        a = rng.uniform(-1, 1, size=3)
        B = rng.uniform(-1, 1, size=(3, 3))
        Q = rng.uniform(-1, 1, size=(3, 3, 3))
        d = a + x @ B.T + np.einsum("cij,ni,nj->nc", Q, x, x)
        fields.append(d / np.abs(d).max())
    return fields


@dataclass
class GradientCheckReport:
    area_max_rel: float
    volume_max_rel: float
    full_max_rel: float
    n_fields: int
    per_field: list

    def to_json_dict(self):
        return {"area_max_rel": self.area_max_rel,
                "volume_max_rel": self.volume_max_rel,
                "full_max_rel": self.full_max_rel,
                "n_fields": self.n_fields}


def gradient_check(mesh: TriangleMesh, params: EnergyParams, n_fields=20,
                   seed=0) -> GradientCheckReport:
    """Directional-derivative agreement between assembled/exact gradients and
    central finite differences, over random smooth displacement fields.

    The polyhedral area and volume gradients are exact, so their rows are
    held to FD truncation error; the full curvature-based gradient is
    discretization-limited.
    """
    if not mesh.closed:
        raise UnsupportedError("gradient_check needs a closed mesh")
    fields = random_smooth_fields(mesh, n_fields, seed=seed)
    g_area = area_gradient(mesh)
    g_vol = volume_gradient(mesh)
    g_full = energy_gradient(mesh, params, method="assembled")
    diag = mesh.bbox_diagonal()
    # Richardson cancels the h^2 term exactly, so the polynomial volume can
    # take a large step (pure roundoff control); area and the full energy
    # keep smaller steps against the residual h^4 truncation.
    h_area = 1e-4 * diag
    h_vol = 1e-2 * diag
    h_full = 1e-4 * diag

    def rel(analytic, fd):
        return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)

    rows = []
    for k, d in enumerate(fields):
        fd_area = directional_derivative_fd(
            mesh, params, d, h_area,
            energy_fn=lambda m: m.face_areas().sum())
        fd_vol = directional_derivative_fd(
            mesh, params, d, h_vol,
            energy_fn=lambda m: _poly_volume(m))
        fd_full = directional_derivative_fd(mesh, params, d, h_full)
        rows.append({
            "field": k,
            "area_rel": rel(float((g_area * d).sum()), fd_area),
            "volume_rel": rel(float((g_vol * d).sum()), fd_vol),
            "full_rel": rel(float((g_full * d).sum()), fd_full),
        })
    return GradientCheckReport(
        area_max_rel=max(r["area_rel"] for r in rows),
        volume_max_rel=max(r["volume_rel"] for r in rows),
        full_max_rel=max(r["full_rel"] for r in rows),
        n_fields=n_fields, per_field=rows)


def _poly_volume(mesh):
    p0, p1, p2 = mesh.face_corner_positions()
    return float(np.einsum("ij,ij->", p0, np.cross(p1, p2)) / 6.0)
