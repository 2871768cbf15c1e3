"""Exact parametric oracle surfaces.

Charts carry closed-form partial derivatives (through third order for the
named closed-form surfaces), so fundamental forms, normals, and the
functionals built from them are exact to floating point.  This module also
hosts the quadrature rules, the first-variation finite-difference cross
checks, the pointwise curvature-identity checks, and the localized integral
report built on a quintic cutoff.

Normal convention: ``normal_sign`` orients the chart normal so the stored
normal points inward where that makes sense (sphere, torus); the round
sphere then has H = +2/rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, UnsupportedError

TWO_PI = 2.0 * np.pi
FULL_CATENOID_GAP = 8.0 * np.pi     # limiting value of the gap quantity


# -- surfaces -----------------------------------------------------------------

@dataclass
class ParametricSurface:
    name: str
    domain: tuple                    # ((u0, u1), (v0, v1))
    periodic: tuple                  # (bool, bool)
    closed: bool
    normal_sign: float
    jet_fn: callable                 # (uu, vv, order) -> dict of arrays
    params: dict = field(default_factory=dict)
    mean_curvature_fn: callable = None            # closed-form H(u, v)
    mean_curvature_grad_fn: callable = None       # chart partials (H_u, H_v)
    laplace_mean_curvature_fn: callable = None    # closed-form Laplacian of H
    has_third_order: bool = False

    def jet(self, uu, vv, order=2):
        if order >= 3 and not self.has_third_order:
            raise UnsupportedError(
                f"surface {self.name!r} has no third-order chart derivatives")
        return self.jet_fn(np.asarray(uu, float), np.asarray(vv, float), order)

    def contains(self, u, v):
        (u0, u1), (v0, v1) = self.domain
        ok_u = self.periodic[0] or (u0 <= u <= u1)
        ok_v = self.periodic[1] or (v0 <= v <= v1)
        return ok_u and ok_v

    def geometry(self, uu, vv):
        return _geometry(self, np.asarray(uu, float), np.asarray(vv, float))


@dataclass
class PointGeometry:
    """First and second fundamental data at chart points (scalar or array)."""

    position: np.ndarray
    metric: np.ndarray                 # (..., 2, 2)
    second_fundamental: np.ndarray     # (..., 2, 2), inward-normal sign
    normal: np.ndarray                 # (..., 3)
    mean_curvature: np.ndarray
    gauss_curvature: np.ndarray
    tracefree_sq: np.ndarray
    sqrt_det_g: np.ndarray
    grad_mean_sq: np.ndarray | None              # |grad H|^2
    laplace_mean_curvature: np.ndarray | None


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _fundamental_forms(surface, jet):
    """E, F, G, det g, sqrt(det g), oriented unit normal, L, M, N, H of a 2-jet."""
    fu, fv = jet["fu"], jet["fv"]
    E = _dot(fu, fu)
    F = _dot(fu, fv)
    G = _dot(fv, fv)
    det_g = E * G - F * F
    w = np.sqrt(det_g)
    nu = surface.normal_sign * np.cross(fu, fv) / w[..., None]
    L = _dot(jet["fuu"], nu)
    M = _dot(jet["fuv"], nu)
    N = _dot(jet["fvv"], nu)
    H = (G * L - 2.0 * F * M + E * N) / det_g
    return E, F, G, det_g, w, nu, L, M, N, H


def _inverse_metric(g):
    """Inverse of a (..., 2, 2) metric by the adjugate over the determinant."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    ginv = np.empty_like(g)
    ginv[..., 0, 0] = g[..., 1, 1] / det
    ginv[..., 1, 1] = g[..., 0, 0] / det
    ginv[..., 0, 1] = ginv[..., 1, 0] = -g[..., 0, 1] / det
    return ginv


def _geometry(surface, uu, vv):
    j = surface.jet(uu, vv, order=2)
    E, F, G, det_g, w, nu, L, M, N, H = _fundamental_forms(surface, j)
    K = (L * N - M * M) / det_g
    tracefree = 0.5 * H * H - 2.0 * K

    grad_sq = lap = None
    if surface.mean_curvature_grad_fn is not None:
        Hu, Hv = surface.mean_curvature_grad_fn(uu, vv)
        grad_sq = (G * Hu * Hu - 2.0 * F * Hu * Hv + E * Hv * Hv) / det_g
    if surface.laplace_mean_curvature_fn is not None:
        lap = np.broadcast_to(surface.laplace_mean_curvature_fn(uu, vv), det_g.shape)

    metric = np.stack([np.stack([E, F], axis=-1),
                       np.stack([F, G], axis=-1)], axis=-2)
    sff = np.stack([np.stack([L, M], axis=-1),
                    np.stack([M, N], axis=-1)], axis=-2)
    return PointGeometry(
        position=j["f"], metric=metric, second_fundamental=sff, normal=nu,
        mean_curvature=H, gauss_curvature=K, tracefree_sq=tracefree,
        sqrt_det_g=w, grad_mean_sq=grad_sq,
        laplace_mean_curvature=lap)


def oracle_geometry(surface: ParametricSurface, u, v) -> PointGeometry:
    """Exact fundamental forms at a single chart point."""
    if not surface.contains(u, v):
        raise DomainError(f"({u}, {v}) outside domain of {surface.name}")
    return surface.geometry(u, v)


def _stack3(*comps):
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def sphere(radius=1.0) -> ParametricSurface:
    """Round sphere; u azimuthal (periodic), v polar in (0, pi)."""
    rho = float(radius)

    def jet_fn(uu, vv, order):
        su, cu = np.sin(uu), np.cos(uu)
        sv, cv = np.sin(vv), np.cos(vv)
        z = np.zeros(np.broadcast(uu, vv).shape)
        j = {
            "f": _stack3(rho * sv * cu, rho * sv * su, rho * cv),
            "fu": _stack3(-rho * sv * su, rho * sv * cu, z),
            "fv": _stack3(rho * cv * cu, rho * cv * su, -rho * sv),
            "fuu": _stack3(-rho * sv * cu, -rho * sv * su, z),
            "fuv": _stack3(-rho * cv * su, rho * cv * cu, z),
            "fvv": _stack3(-rho * sv * cu, -rho * sv * su, -rho * cv),
        }
        if order >= 3:
            j["fuuu"] = -j["fu"]
            j["fuuv"] = _stack3(-rho * cv * cu, -rho * cv * su, z)
            j["fuvv"] = _stack3(rho * sv * su, -rho * sv * cu, z)
            j["fvvv"] = -j["fv"]
        return j

    two_over_rho = 2.0 / rho
    return ParametricSurface(
        name="sphere", domain=((0.0, TWO_PI), (0.0, np.pi)),
        periodic=(True, False), closed=True, normal_sign=+1.0,
        jet_fn=jet_fn, params={"radius": rho},
        mean_curvature_fn=lambda uu, vv: np.full(np.broadcast(uu, vv).shape, two_over_rho),
        mean_curvature_grad_fn=lambda uu, vv: (
            np.zeros(np.broadcast(uu, vv).shape), np.zeros(np.broadcast(uu, vv).shape)),
        laplace_mean_curvature_fn=lambda uu, vv: np.zeros(np.broadcast(uu, vv).shape),
        has_third_order=True)


def plane_patch(extent=(1.0, 1.0)) -> ParametricSurface:
    Lx, Ly = float(extent[0]), float(extent[1])

    def jet_fn(uu, vv, order):
        z = np.zeros(np.broadcast(uu, vv).shape)
        zero3 = _stack3(z, z, z)
        one_u = _stack3(z + 1.0, z, z)
        one_v = _stack3(z, z + 1.0, z)
        j = {"f": _stack3(uu + z, vv + z, z), "fu": one_u, "fv": one_v,
             "fuu": zero3, "fuv": zero3, "fvv": zero3}
        if order >= 3:
            j.update(fuuu=zero3, fuuv=zero3, fuvv=zero3, fvvv=zero3)
        return j

    zero_fn = lambda uu, vv: np.zeros(np.broadcast(uu, vv).shape)
    return ParametricSurface(
        name="plane_patch", domain=((0.0, Lx), (0.0, Ly)),
        periodic=(False, False), closed=False, normal_sign=+1.0,
        jet_fn=jet_fn, params={"extent": (Lx, Ly)},
        mean_curvature_fn=zero_fn,
        mean_curvature_grad_fn=lambda uu, vv: (zero_fn(uu, vv), zero_fn(uu, vv)),
        laplace_mean_curvature_fn=zero_fn,
        has_third_order=True)


def catenoid(neck_scale=1.0, half_height=2.0) -> ParametricSurface:
    """Minimal catenoid, chart (c cosh(v/c) cos u, c cosh(v/c) sin u, v)."""
    c = float(neck_scale)
    T = float(half_height)

    def jet_fn(uu, vv, order):
        su, cu = np.sin(uu), np.cos(uu)
        ch, sh = np.cosh(vv / c), np.sinh(vv / c)
        z = np.zeros(np.broadcast(uu, vv).shape)
        j = {
            "f": _stack3(c * ch * cu, c * ch * su, vv + z),
            "fu": _stack3(-c * ch * su, c * ch * cu, z),
            "fv": _stack3(sh * cu, sh * su, z + 1.0),
            "fuu": _stack3(-c * ch * cu, -c * ch * su, z),
            "fuv": _stack3(-sh * su, sh * cu, z),
            "fvv": _stack3(ch / c * cu, ch / c * su, z),
        }
        if order >= 3:
            j["fuuu"] = -j["fu"]
            j["fuuv"] = _stack3(-sh * cu, -sh * su, z)
            j["fuvv"] = _stack3(-ch / c * su, ch / c * cu, z)
            j["fvvv"] = _stack3(sh / c**2 * cu, sh / c**2 * su, z)
        return j

    zero_fn = lambda uu, vv: np.zeros(np.broadcast(uu, vv).shape)
    return ParametricSurface(
        name="catenoid", domain=((0.0, TWO_PI), (-T, T)),
        periodic=(True, False), closed=False, normal_sign=+1.0,
        jet_fn=jet_fn, params={"neck_scale": c, "half_height": T},
        mean_curvature_fn=zero_fn,
        mean_curvature_grad_fn=lambda uu, vv: (zero_fn(uu, vv), zero_fn(uu, vv)),
        laplace_mean_curvature_fn=zero_fn,
        has_third_order=True)


def torus(ring_radius=2.0, tube_radius=1.0) -> ParametricSurface:
    """Torus of revolution; both chart axes periodic."""
    R, r = float(ring_radius), float(tube_radius)
    if not R > r > 0:
        raise ValueError("need ring_radius > tube_radius > 0")

    def jet_fn(uu, vv, order):
        su, cu = np.sin(uu), np.cos(uu)
        sv, cv = np.sin(vv), np.cos(vv)
        G = R + r * cv
        z = np.zeros(np.broadcast(uu, vv).shape)
        j = {
            "f": _stack3(G * cu, G * su, r * sv),
            "fu": _stack3(-G * su, G * cu, z),
            "fv": _stack3(-r * sv * cu, -r * sv * su, r * cv),
            "fuu": _stack3(-G * cu, -G * su, z),
            "fuv": _stack3(r * sv * su, -r * sv * cu, z),
            "fvv": _stack3(-r * cv * cu, -r * cv * su, -r * sv),
        }
        if order >= 3:
            j["fuuu"] = -j["fu"]
            j["fuuv"] = _stack3(r * sv * cu, r * sv * su, z)
            j["fuvv"] = _stack3(r * cv * su, -r * cv * cu, z)
            j["fvvv"] = _stack3(r * sv * cu, r * sv * su, -r * cv)
        return j

    def H_fn(uu, vv):
        G = R + r * np.cos(vv)
        return np.broadcast_to((R + 2.0 * r * np.cos(vv)) / (r * G),
                               np.broadcast(uu, vv).shape)

    def H_grad_fn(uu, vv):
        G = R + r * np.cos(vv)
        shape = np.broadcast(uu, vv).shape
        Hv = -R * np.sin(vv) / G**2
        return np.zeros(shape), np.broadcast_to(Hv, shape)

    def lapH_fn(uu, vv):
        # Laplace-Beltrami of H on the revolution chart, derived from
        # H(v) = (R + 2 r cos v) / (r (R + r cos v)) and validated against
        # chart second differences in the tests.
        sv, cv = np.sin(vv), np.cos(vv)
        G = R + r * cv
        val = -R * (cv * G + r * sv * sv) / (r**2 * G**3)
        return np.broadcast_to(val, np.broadcast(uu, vv).shape)

    return ParametricSurface(
        name="torus", domain=((0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(True, True), closed=True, normal_sign=-1.0,
        jet_fn=jet_fn, params={"ring_radius": R, "tube_radius": r},
        mean_curvature_fn=H_fn, mean_curvature_grad_fn=H_grad_fn,
        laplace_mean_curvature_fn=lapH_fn, has_third_order=True)


def graph_surface(h, hx, hy, hxx, hxy, hyy, domain=((0.0, 1.0), (0.0, 1.0)),
                  name="graph") -> ParametricSurface:
    """Graph z = h(x, y) with user-supplied derivatives through second order."""

    def jet_fn(uu, vv, order):
        z = np.zeros(np.broadcast(uu, vv).shape)
        return {
            "f": _stack3(uu + z, vv + z, h(uu, vv) + z),
            "fu": _stack3(z + 1.0, z, hx(uu, vv) + z),
            "fv": _stack3(z, z + 1.0, hy(uu, vv) + z),
            "fuu": _stack3(z, z, hxx(uu, vv) + z),
            "fuv": _stack3(z, z, hxy(uu, vv) + z),
            "fvv": _stack3(z, z, hyy(uu, vv) + z),
        }

    return ParametricSurface(
        name=name, domain=domain, periodic=(False, False), closed=False,
        normal_sign=+1.0, jet_fn=jet_fn, params={})


# -- quadrature ---------------------------------------------------------------

@dataclass
class QuadratureGrid:
    """Tensor-product rule: Gauss-Legendre per non-periodic axis, uniform
    (trapezoidal) per periodic axis.  Weights are positive and sum to the
    domain measure."""

    u_nodes: np.ndarray
    u_weights: np.ndarray
    v_nodes: np.ndarray
    v_weights: np.ndarray

    @classmethod
    def for_surface(cls, surface, nu=64, nv=64):
        return cls(*_axis_rule(surface.domain[0], surface.periodic[0], nu),
                   *_axis_rule(surface.domain[1], surface.periodic[1], nv))

    def mesh(self):
        uu, vv = np.meshgrid(self.u_nodes, self.v_nodes, indexing="ij")
        ww = np.outer(self.u_weights, self.v_weights)
        return uu, vv, ww

    @property
    def resolution(self):
        return (len(self.u_nodes), len(self.v_nodes))


def _axis_rule(interval, periodic, n):
    a, b = interval
    if periodic:
        step = (b - a) / n
        return a + step * np.arange(n), np.full(n, step)
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


def _integrate_on_grid(surface, integrands, grid: QuadratureGrid) -> dict:
    """Integrate each integrand(PointGeometry) of ``integrands`` (name ->
    callable) against the induced area element of one evaluation on ``grid``."""
    uu, vv, ww = grid.mesh()
    geom = surface.geometry(uu, vv)
    out = {}
    for name, integrand in integrands.items():
        vals = np.broadcast_to(np.asarray(integrand(geom), dtype=np.float64), ww.shape)
        if not np.all(np.isfinite(vals)):
            i = np.argwhere(~np.isfinite(vals))[0]
            raise NumericalError(
                f"non-finite integrand at chart point ({uu[tuple(i)]}, {vv[tuple(i)]})")
        out[name] = float(np.sum(vals * geom.sqrt_det_g * ww))
    return out


def oracle_integrate(surface, integrand, grid: QuadratureGrid) -> float:
    """Integrate integrand(PointGeometry) against the induced area element."""
    return _integrate_on_grid(surface, {"value": integrand}, grid)["value"]


def _volume_density(g):
    """Divergence-theorem density; the outward normal is minus the stored one."""
    return -_dot(g.position, g.normal) / 3.0


def enclosed_volume(surface, grid):
    """Signed volume of a closed oracle surface (divergence theorem)."""
    if not surface.closed:
        raise UnsupportedError("enclosed volume needs a closed surface")
    return oracle_integrate(surface, _volume_density, grid)


# -- unit-normal jets and perturbed immersions --------------------------------

def _normal_jet(j, sign, order=2):
    """Unit normal and its chart derivatives from a chart jet.

    First order needs the 2-jet of f; second order needs the 3-jet.
    """
    fu, fv = j["fu"], j["fv"]
    N = np.cross(fu, fv)
    w = np.linalg.norm(N, axis=-1)
    n = N / w[..., None]
    out = {"n": sign * n}
    if order < 1:
        return out

    Nu = np.cross(j["fuu"], fv) + np.cross(fu, j["fuv"])
    Nv = np.cross(j["fuv"], fv) + np.cross(fu, j["fvv"])
    wu = _dot(n, Nu)
    wv = _dot(n, Nv)
    nu_ = (Nu - n * wu[..., None]) / w[..., None]
    nv_ = (Nv - n * wv[..., None]) / w[..., None]
    out["nu"] = sign * nu_
    out["nv"] = sign * nv_
    if order < 2:
        return out

    Nuu = np.cross(j["fuuu"], fv) + 2.0 * np.cross(j["fuu"], j["fuv"]) \
        + np.cross(fu, j["fuuv"])
    Nuv = np.cross(j["fuuv"], fv) + np.cross(j["fuu"], j["fvv"]) \
        + np.cross(fu, j["fuvv"])
    Nvv = np.cross(j["fuvv"], fv) + 2.0 * np.cross(j["fuv"], j["fvv"]) \
        + np.cross(fu, j["fvvv"])

    def second(Na, Nb, wa, wb, Nab):
        wab = ((_dot(Nb, Na) + _dot(N, Nab)) * w - _dot(N, Na) * wb) / (w * w)
        return (Nab / w[..., None]
                - Na * (wb / (w * w))[..., None]
                - Nb * (wa / (w * w))[..., None]
                - N * (wab / (w * w))[..., None]
                + 2.0 * N * (wa * wb / w**3)[..., None])

    out["nuu"] = sign * second(Nu, Nu, wu, wu, Nuu)
    out["nuv"] = sign * second(Nu, Nv, wu, wv, Nuv)
    out["nvv"] = sign * second(Nv, Nv, wv, wv, Nvv)
    return out


@dataclass
class AmbientField:
    """Smooth scalar field on R^3 with gradient and Hessian closures."""

    name: str
    value: callable        # (..., 3) -> (...)
    gradient: callable     # (..., 3) -> (..., 3)
    hessian: callable      # (..., 3) -> (..., 3, 3)

    @classmethod
    def constant(cls, c=1.0):
        return cls(
            name=f"const({c})",
            value=lambda x: np.full(x.shape[:-1], float(c)),
            gradient=lambda x: np.zeros(x.shape),
            hessian=lambda x: np.zeros(x.shape + (3,)))

    @classmethod
    def polynomial(cls, linear=(0.0, 0.0, 0.0), quad=None, const=0.0, name=None):
        """const + <linear, x> + x^T quad x with a symmetric 3x3 quad."""
        lin = np.asarray(linear, float)
        Q = np.zeros((3, 3)) if quad is None else 0.5 * (
            np.asarray(quad, float) + np.asarray(quad, float).T)

        return cls(
            name=name or "poly",
            value=lambda x: const + x @ lin + np.einsum("...i,ij,...j->...", x, Q, x),
            gradient=lambda x: lin + 2.0 * np.einsum("ij,...j->...i", Q, x),
            hessian=lambda x: np.broadcast_to(2.0 * Q, x.shape + (3,)))

    @classmethod
    def sinusoid(cls, wavevector=(1.0, 0.0, 0.0), phase=0.0, name=None):
        k = np.asarray(wavevector, float)
        kk = np.outer(k, k)
        return cls(
            name=name or f"sin(k.x), k={tuple(k)}",
            value=lambda x: np.sin(x @ k + phase),
            gradient=lambda x: np.cos(x @ k + phase)[..., None] * k,
            hessian=lambda x: -np.sin(x @ k + phase)[..., None, None] * kk)

    def chart_jet(self, surface_jet):
        """(phi, phi_u, phi_v, phi_uu, phi_uv, phi_vv) on the chart."""
        f = surface_jet["f"]
        g = self.gradient(f)
        Hs = self.hessian(f)
        fu, fv = surface_jet["fu"], surface_jet["fv"]

        def hess_pair(a, b):
            return np.einsum("...i,...ij,...j->...", a, Hs, b)

        return {
            "phi": self.value(f),
            "phi_u": _dot(g, fu),
            "phi_v": _dot(g, fv),
            "phi_uu": hess_pair(fu, fu) + _dot(g, surface_jet["fuu"]),
            "phi_uv": hess_pair(fu, fv) + _dot(g, surface_jet["fuv"]),
            "phi_vv": hess_pair(fv, fv) + _dot(g, surface_jet["fvv"]),
        }


def _perturbed_jet(j, nj, pj, t):
    """2-jet of f + t * phi * nu from the base 3-jet and the field jet."""
    phi = pj["phi"][..., None]
    pu, pv = pj["phi_u"][..., None], pj["phi_v"][..., None]
    puu, puv, pvv = (pj["phi_uu"][..., None], pj["phi_uv"][..., None],
                     pj["phi_vv"][..., None])
    n, nu_, nv_ = nj["n"], nj["nu"], nj["nv"]
    return {
        "f": j["f"] + t * phi * n,
        "fu": j["fu"] + t * (pu * n + phi * nu_),
        "fv": j["fv"] + t * (pv * n + phi * nv_),
        "fuu": j["fuu"] + t * (puu * n + 2.0 * pu * nu_ + phi * nj["nuu"]),
        "fuv": j["fuv"] + t * (puv * n + pu * nv_ + pv * nu_ + phi * nj["nuv"]),
        "fvv": j["fvv"] + t * (pvv * n + 2.0 * pv * nv_ + phi * nj["nvv"]),
    }


def _energies_from_jet(surface, jet2, ww, params):
    """Area, total mean curvature, Willmore, volume, Helfrich from a 2-jet."""
    *_, w, nu, _, _, _, H = _fundamental_forms(surface, jet2)

    dmu = w * ww
    area = float(dmu.sum())
    total_mean = float((H * dmu).sum())
    willmore = 0.25 * float((H * H * dmu).sum())
    volume = float((-_dot(jet2["f"], nu) / 3.0 * dmu).sum()) if surface.closed else None
    helfrich = None
    if surface.closed:
        helfrich = (0.25 * float(((H - params.c0) ** 2 * dmu).sum())
                    + params.lam1 * area + params.lam2 * volume)
    return {"area": area, "total_mean_curvature": total_mean,
            "willmore": willmore, "volume": volume, "helfrich": helfrich}


def perturbed_energies(surface, fld: AmbientField, ts, grid, params):
    """Exact functionals of the immersions f + t*phi*nu at quadrature nodes,
    as {t: energies} for each step t in ``ts``.  The chart jets of the
    surface, its normal and the field do not depend on t and are taken once."""
    uu, vv, ww = grid.mesh()
    j = surface.jet(uu, vv, order=3)
    nj = _normal_jet(j, surface.normal_sign, order=2)
    pj = fld.chart_jet(j)
    return {t: _energies_from_jet(surface, _perturbed_jet(j, nj, pj, t), ww, params)
            for t in ts}


# -- first-variation cross-check ----------------------------------------------

def residual_values(lap_H, H, K, tracefree_sq, params):
    """Pointwise Euler-Lagrange residual for ``EnergyParams`` weights; for
    c0 = 0 this is exactly the locally constrained Willmore operator
    (identical arithmetic, no separate code path)."""
    c0 = params.c0
    return (lap_H + H * tracefree_sq + 2.0 * c0 * K
            - (2.0 * params.lam1 + 0.5 * c0 * c0) * H - 2.0 * params.lam2)


@dataclass
class VariationRow:
    functional: str
    formula: float
    fd_plain: float          # central difference at step h
    fd_richardson: float     # Richardson-extrapolated from steps h, h/2
    rel_error: float         # |fd_richardson - formula| / max(|.|, floor)
    order_plain: float       # observed convergence order of the plain FD
    order_richardson: float


@dataclass
class VariationReport:
    surface: str
    field: str
    step: float
    rows: dict               # functional name -> VariationRow

    def max_rel_error(self):
        return max(r.rel_error for r in self.rows.values())


# Relative errors fall back to this absolute floor when a variation vanishes
# (e.g. the Willmore variation on a round sphere).
VARIATION_REL_FLOOR = 1.0


def variation_check(surface, params, fld: AmbientField, h=1e-2,
                    grid=None) -> VariationReport:
    """Compare closed-form first variations against Richardson finite
    differences of the exactly evaluated perturbed functionals.

    Covers area, total mean curvature, Willmore energy, enclosed volume and
    the Helfrich energy for normal perturbations phi*nu.  Closed surfaces
    only; the derivation drops the boundary terms.
    """
    if not surface.closed:
        raise UnsupportedError("variation_check needs a closed surface")
    if surface.laplace_mean_curvature_fn is None:
        raise UnsupportedError(
            f"surface {surface.name!r} has no stored Laplacian of H")
    if grid is None:
        grid = QuadratureGrid.for_surface(surface, 64, 64)

    uu, vv, ww = grid.mesh()
    geom = surface.geometry(uu, vv)
    phi = fld.value(geom.position)
    dmu = geom.sqrt_det_g * ww
    H, K = geom.mean_curvature, geom.gauss_curvature
    lapH = geom.laplace_mean_curvature

    formulas = {
        "area": -float((phi * H * dmu).sum()),
        "total_mean_curvature": -2.0 * float((phi * K * dmu).sum()),
        "willmore": 0.5 * float((phi * (lapH + H * geom.tracefree_sq) * dmu).sum()),
        "volume": -float((phi * dmu).sum()),
        "helfrich": 0.5 * float((phi * residual_values(
            lapH, H, K, geom.tracefree_sq, params) * dmu).sum()),
    }

    evals = perturbed_energies(surface, fld, (h, -h, h / 2, -h / 2, h / 4, -h / 4),
                               grid, params)

    rows = {}
    for name, exact in formulas.items():
        def central(step):
            return (evals[step][name] - evals[-step][name]) / (2.0 * step)

        d1, d2, d3 = central(h), central(h / 2), central(h / 4)
        r1 = (4.0 * d2 - d1) / 3.0
        r2 = (4.0 * d3 - d2) / 3.0

        def order(e_big, e_small):
            if e_small == 0.0 or e_big == 0.0:
                return float("inf")
            return math.log2(abs(e_big) / abs(e_small))

        floor = max(abs(exact), abs(r2), VARIATION_REL_FLOOR)
        rows[name] = VariationRow(
            functional=name, formula=exact, fd_plain=d1, fd_richardson=r2,
            rel_error=abs(r2 - exact) / floor,
            order_plain=order(d1 - exact, d2 - exact),
            order_richardson=order(r1 - exact, r2 - exact))
    return VariationReport(surface=surface.name, field=fld.name, step=h, rows=rows)


# -- pointwise identity checks --------------------------------------------------

@dataclass
class IdentityReport:
    n_principal_samples: int
    max_cubic_identity_dev: float        # H A^2 - |A|^2 A = 2 K A-tracefree
    max_gauss_relation_dev: float        # K = H^2/4 - |A deg|^2 / 2
    max_tracefree_relation_dev: float    # |A deg|^2 = H^2/2 - 2K
    max_codazzi_gradient_dev: float      # grad H = 2 div(A-tracefree)
    surfaces_checked: list

    @property
    def max_deviation(self):
        return max(self.max_cubic_identity_dev, self.max_gauss_relation_dev,
                   self.max_tracefree_relation_dev, self.max_codazzi_gradient_dev)


def principal_identity_deviations(k1, k2):
    """Deviations of the three algebraic curvature identities on diagonal
    shape operators built from principal-curvature pairs."""
    k1 = np.asarray(k1, float)
    k2 = np.asarray(k2, float)
    H = k1 + k2
    K = k1 * k2
    A_sq = k1 * k1 + k2 * k2
    ao_diag = 0.5 * (k1 - k2)             # tracefree part, diagonal entries +/-
    # cubic identity, diagonal entries (off-diagonals vanish identically)
    lhs1 = H * k1 * k1 - A_sq * k1
    lhs2 = H * k2 * k2 - A_sq * k2
    cubic = np.maximum(np.abs(lhs1 - 2.0 * K * ao_diag),
                       np.abs(lhs2 + 2.0 * K * ao_diag))
    gauss = np.abs(K - (0.25 * H * H - 0.5 * (0.5 * (k1 - k2) ** 2)))
    tracefree = np.abs(0.5 * (k1 - k2) ** 2 - (0.5 * H * H - 2.0 * K))
    return cubic, gauss, tracefree


def chart_cubic_identity_deviation(geom: PointGeometry):
    """Componentwise deviation of H A_i^k A_kj - |A|^2 A_ij = 2 K (A - gH/2)
    on full (possibly non-diagonal) chart fundamental forms."""
    g = geom.metric
    A = geom.second_fundamental
    ginv = _inverse_metric(g)
    a_raised = np.einsum("...ik,...kj->...ij", ginv, A)
    a_sq = np.einsum("...ij,...ji->...", a_raised, a_raised)
    lhs = (geom.mean_curvature[..., None, None]
           * np.einsum("...ik,...kl,...lj->...ij", A, ginv, A)
           - a_sq[..., None, None] * A)
    tracefree = A - 0.5 * g * geom.mean_curvature[..., None, None]
    rhs = 2.0 * geom.gauss_curvature[..., None, None] * tracefree
    return np.abs(lhs - rhs).max(axis=(-2, -1))


def chart_codazzi_gradient_deviation(surface, uu, vv):
    """Deviation of grad H = 2 * (covariant divergence of A-tracefree),
    evaluated exactly on a chart with third-order derivatives."""
    j = surface.jet(uu, vv, order=3)
    nj = _normal_jet(j, surface.normal_sign, order=1)
    n = nj["n"]
    D = {(0, 0): j["fuu"], (0, 1): j["fuv"], (1, 0): j["fuv"], (1, 1): j["fvv"]}
    D3 = {(0, 0, 0): j["fuuu"], (0, 0, 1): j["fuuv"], (0, 1, 1): j["fuvv"],
          (1, 1, 1): j["fvvv"]}

    def third(a, b, c):
        return D3[tuple(sorted((a, b, c)))]

    f1 = {0: j["fu"], 1: j["fv"]}
    shape = np.broadcast(uu, vv).shape
    g = np.empty(shape + (2, 2))
    for a in range(2):
        for b in range(2):
            g[..., a, b] = _dot(f1[a], f1[b])
    ginv = _inverse_metric(g)

    Dg = np.empty(shape + (2, 2, 2))          # Dg[k,a,b] = d_k g_ab
    for k in range(2):
        for a in range(2):
            for b in range(2):
                Dg[..., k, a, b] = _dot(D[(k, a)], f1[b]) + _dot(f1[a], D[(k, b)])
    Gamma = 0.5 * (np.einsum("...ml,...kal->...mka", ginv, Dg)
                   + np.einsum("...ml,...akl->...mka", ginv, Dg)
                   - np.einsum("...ml,...lka->...mka", ginv, Dg))
    # Gamma[m, k, a] = Gamma^m_{ka}

    A = np.empty(shape + (2, 2))
    for a in range(2):
        for b in range(2):
            A[..., a, b] = _dot(D[(a, b)], n)

    # d nu = -A_k^m f_m  (inward-sign Weingarten)
    Amix = np.einsum("...km,...ma->...ka", ginv, A)     # A_k^a ... first idx up
    dn = {k: -np.einsum("...m,...mi->...i",
                        Amix[..., :, k], np.stack([f1[0], f1[1]], axis=-2))
          for k in range(2)}
    # note: Amix[..., :, k] gives A^m_k components against basis f_m

    DA = np.empty(shape + (2, 2, 2))          # DA[k,a,b] = d_k A_ab
    for k in range(2):
        for a in range(2):
            for b in range(2):
                DA[..., k, a, b] = _dot(third(k, a, b), n) + _dot(D[(a, b)], dn[k])

    nablaA = DA - np.einsum("...mka,...mb->...kab", Gamma, A) \
        - np.einsum("...mkb,...am->...kab", Gamma, A)

    H = np.einsum("...ab,...ab->...", ginv, A)
    dH = np.einsum("...ab,...kab->...k", ginv, DA) \
        - np.einsum("...ac,...kcd,...db,...ab->...k", ginv, Dg, ginv, A)

    nablaAo = nablaA - 0.5 * np.einsum("...ab,...k->...kab", g, dH)
    div_Ao = np.einsum("...ka,...kab->...b", ginv, nablaAo)
    return np.abs(dH - 2.0 * div_Ao).max()


def identity_check(principal_pairs) -> IdentityReport:
    """Pointwise curvature-identity suite on principal-curvature samples and
    on a 12 x 12 chart grid of a sphere, a catenoid and a torus."""
    pairs = np.asarray(principal_pairs, float)
    cubic, gauss, tracefree = principal_identity_deviations(pairs[:, 0], pairs[:, 1])

    max_grad = 0.0
    names = []
    for s in (sphere(1.7), catenoid(1.0, 2.0), torus(2.0, 1.0)):
        (u0, u1), (v0, v1) = s.domain
        eps_u = 0.0 if s.periodic[0] else 0.05 * (u1 - u0)
        eps_v = 0.0 if s.periodic[1] else 0.05 * (v1 - v0)
        uu, vv = np.meshgrid(np.linspace(u0 + eps_u, u1 - eps_u, 12),
                             np.linspace(v0 + eps_v, v1 - eps_v, 12),
                             indexing="ij")
        max_grad = max(max_grad, float(chart_codazzi_gradient_deviation(s, uu, vv)))
        g = s.geometry(uu, vv)
        cubic = np.concatenate([cubic, chart_cubic_identity_deviation(g).ravel()])
        det_a = (g.second_fundamental[..., 0, 0] * g.second_fundamental[..., 1, 1]
                 - g.second_fundamental[..., 0, 1] ** 2)
        det_g = g.metric[..., 0, 0] * g.metric[..., 1, 1] - g.metric[..., 0, 1] ** 2
        k_det = det_a / det_g      # K recomputed independently of stored K
        gauss = np.concatenate([
            gauss,
            np.abs(k_det - (0.25 * g.mean_curvature**2
                            - 0.5 * g.tracefree_sq)).ravel()])
        tracefree = np.concatenate([
            tracefree,
            np.abs(g.tracefree_sq
                   - (0.5 * g.mean_curvature**2 - 2.0 * k_det)).ravel()])
        names.append(s.name)

    return IdentityReport(
        n_principal_samples=len(pairs),
        max_cubic_identity_dev=float(cubic.max()),
        max_gauss_relation_dev=float(gauss.max()),
        max_tracefree_relation_dev=float(tracefree.max()),
        max_codazzi_gradient_dev=max_grad,
        surfaces_checked=names)


# -- cutoff and localized estimate report --------------------------------------

RAMP_SUP_DERIVATIVE = 15.0 / 4.0    # sup |d/ds| of the quintic ramp below


def cutoff_profile(s):
    """C^2 quintic ramp: 1 on s <= 1/2, 0 on s >= 1, monotone between."""
    s = np.asarray(s, float)
    tau = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    smooth = tau**3 * (6.0 * tau * tau - 15.0 * tau + 10.0)
    return 1.0 - smooth


def cutoff_profile_derivative(s):
    s = np.asarray(s, float)
    tau = 2.0 * s - 1.0
    inside = (tau > 0.0) & (tau < 1.0)
    tau = np.clip(tau, 0.0, 1.0)
    d = -2.0 * 30.0 * tau * tau * (tau - 1.0) ** 2
    return np.where(inside, d, 0.0)


@dataclass
class EstimateReport:
    surface: str
    center: tuple
    radius: float
    c_gamma: float
    terms: dict            # name -> value
    error_estimates: dict  # name -> refinement-based error estimate
    note: str


def estimate_report(surface, params, cutoff, grid=None) -> EstimateReport:
    """Tabulate the computable localized integrals behind the curvature-gap
    estimate: residual, gradient, and tracefree-power terms weighted by powers
    of the cutoff, plus the gap quantity over the cutoff support.

    No inequality verdict is emitted: the estimate's absolute constants are
    not numeric, so only the integrand table is reportable.  Each error
    estimate is the difference from the same integral at half resolution,
    taken from one geometry evaluation per grid.
    """
    center, radius = np.asarray(cutoff[0], float), float(cutoff[1])
    if radius <= 0:
        raise ValueError("cutoff radius must be positive")
    if surface.laplace_mean_curvature_fn is None or \
            surface.mean_curvature_grad_fn is None:
        raise UnsupportedError(
            f"surface {surface.name!r} lacks stored H derivatives")
    if grid is None:
        grid = QuadratureGrid.for_surface(surface, 96, 96)

    c_gamma = RAMP_SUP_DERIVATIVE / radius

    def gamma_of(g):
        return cutoff_profile(np.linalg.norm(g.position - center, axis=-1) / radius)

    def residual_of(g):
        return residual_values(g.laplace_mean_curvature, g.mean_curvature,
                               g.gauss_curvature, g.tracefree_sq, params)

    def a_sq_of(g):
        return g.mean_curvature**2 - 2.0 * g.gauss_curvature

    integrands = {
        "residual_sq_gamma4": lambda g: residual_of(g) ** 2 * gamma_of(g) ** 4,
        "grad_H_sq_gamma2": lambda g: g.grad_mean_sq * gamma_of(g) ** 2,
        "grad_H_sq_gamma4": lambda g: g.grad_mean_sq * gamma_of(g) ** 4,
        "tracefree_cubed_gamma4": lambda g: g.tracefree_sq ** 3 * gamma_of(g) ** 4,
        "a4_tracefree_gamma4":
            lambda g: a_sq_of(g) ** 2 * g.tracefree_sq * gamma_of(g) ** 4,
        "gap_on_support": lambda g: g.tracefree_sq * (
            np.linalg.norm(g.position - center, axis=-1) < radius),
    }
    terms = _integrate_on_grid(surface, integrands, grid)
    nu, nv = grid.resolution
    coarse = _integrate_on_grid(surface, integrands, QuadratureGrid.for_surface(
        surface, max(nu // 2, 2), max(nv // 2, 2)))
    errs = {name: abs(value - coarse[name]) for name, value in terms.items()}

    return EstimateReport(
        surface=surface.name, center=tuple(center), radius=radius,
        c_gamma=c_gamma, terms=terms, error_estimates=errs,
        note=("quintic ramp, 1 on |f-x0| <= rho/2 and 0 beyond rho; "
              "absolute constants of the underlying estimate are not numeric, "
              "so no inequality verdict is emitted"))
