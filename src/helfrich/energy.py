"""Functional evaluation on meshes (vertex sums) and oracle surfaces
(quadrature): area, signed volume, Willmore, Helfrich, the locally constrained
Willmore total, and the tracefree curvature gap quantity."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import (ParametricSurface, QuadratureGrid, _integrate_on_grid,
                       _volume_density, oracle_integrate)
from .curvature import curvature_bundle
from .mesh import TriangleMesh, signed_volume


@dataclass(frozen=True)
class EnergyParams:
    """Weights of the Helfrich energy: spontaneous curvature c0 (1/length),
    area weight lam1 (1/length^2), volume weight lam2 (1/length^3)."""

    c0: float = 0.0
    lam1: float = 0.0
    lam2: float = 0.0

    def __post_init__(self):
        for name in ("c0", "lam1", "lam2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass
class EnergyReport:
    """Energy table for one surface.  Volume-weighted entries are None on
    open surfaces, where the penalized functionals are not well-defined."""

    area: float
    volume: float | None
    willmore: float
    helfrich: float | None
    lcw: float | None             # Willmore + lam1*area + lam2*volume
    gap: float                    # integral of |A deg|^2
    breakdown: dict
    closed: bool
    counters: dict = field(default_factory=dict)   # a mesh's curvature counts

    def to_json_dict(self):
        return {"area": self.area, "volume": self.volume,
                "willmore": self.willmore, "helfrich": self.helfrich,
                "lcw": self.lcw, "gap": self.gap}


def evaluate_energies(source, params: EnergyParams, grid=None) -> EnergyReport:
    """Energy report for a mesh or an oracle surface.

    Open sources get a partial report (area, Willmore, gap); the penalized
    totals stay None there rather than raising.
    """
    if isinstance(source, TriangleMesh):
        return _mesh_energies(source, params)
    if isinstance(source, ParametricSurface):
        return _oracle_energies(source, params, grid)
    raise TypeError(f"unsupported source type {type(source).__name__}")


def _assemble_report(area, volume, willmore, bending, gap, params, closed):
    breakdown = {"willmore": willmore, "bending": bending,
                 "area_term": params.lam1 * area}
    helfrich = lcw = None
    if closed:
        breakdown["volume_term"] = params.lam2 * volume
        helfrich = bending + breakdown["area_term"] + breakdown["volume_term"]
        lcw = willmore + params.lam1 * area + params.lam2 * volume
    return EnergyReport(area=area, volume=volume, willmore=willmore,
                        helfrich=helfrich, lcw=lcw, gap=gap,
                        breakdown=breakdown, closed=closed)


def _mesh_energies(mesh: TriangleMesh, params: EnergyParams,
                   bundle=None) -> EnergyReport:
    """Energy report from ``bundle``, the mesh's curvature bundle if given."""
    if bundle is None:
        bundle = curvature_bundle(mesh)
    area = bundle.surface_area
    volume = signed_volume(mesh) if mesh.closed else None
    m = bundle.interior
    a = bundle.vertex_area[m]
    H = bundle.mean_curvature[m]
    willmore = 0.25 * float((H * H * a).sum())
    bending = 0.25 * float(((H - params.c0) ** 2 * a).sum())
    gap = float((bundle.tracefree_sq[m] * a).sum())
    report = _assemble_report(area, volume, willmore, bending, gap, params,
                              mesh.closed)
    report.counters = bundle.counters()
    return report


def _oracle_energies(surface: ParametricSurface, params: EnergyParams,
                     grid=None) -> EnergyReport:
    if grid is None:
        grid = QuadratureGrid.for_surface(surface, 64, 64)
    integrands = {"area": lambda g: 1.0,
                  "willmore": lambda g: 0.25 * g.mean_curvature**2,
                  "bending": lambda g: 0.25 * (g.mean_curvature - params.c0) ** 2,
                  "gap": lambda g: g.tracefree_sq}
    if surface.closed:
        integrands["volume"] = _volume_density
    r = _integrate_on_grid(surface, integrands, grid)
    return _assemble_report(r["area"], r.get("volume"), r["willmore"], r["bending"],
                            r["gap"], params, surface.closed)


def localized_gap(source, center, radius, grid=None) -> float:
    """Gap quantity restricted to the preimage of the ball B_radius(center),
    with a sharp indicator; monotone non-decreasing in the radius."""
    center = np.asarray(center, dtype=np.float64)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if isinstance(source, TriangleMesh):
        bundle = curvature_bundle(source)
        m = bundle.interior
        inside = np.linalg.norm(source.vertices[m] - center, axis=1) < radius
        vals = bundle.tracefree_sq[m]
        return float((vals[inside] * bundle.vertex_area[m][inside]).sum())
    if isinstance(source, ParametricSurface):
        if grid is None:
            grid = QuadratureGrid.for_surface(source, 96, 96)
        return oracle_integrate(
            source,
            lambda g: g.tracefree_sq
            * (np.linalg.norm(g.position - center, axis=-1) < radius),
            grid)
    raise TypeError(f"unsupported source type {type(source).__name__}")
