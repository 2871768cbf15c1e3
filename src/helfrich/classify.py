"""Numerical branch classification of critical points of the locally
constrained Willmore functional over the sphere and plane families.

On a round sphere of radius rho the residual is the closed form
-4*lam1/rho - 2*lam2 (the Laplacian of H and the tracefree form vanish, and
H = 2/rho); on a plane it is -2*lam2.  The five branches over
{lam1 >= 0} x R follow from the signs of (lam1, lam2) alone; scans and flow
endpoints supply numerical evidence that is checked for consistency rather
than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyParams
from .errors import ParameterError
from .output import write_csv, write_json

BRANCHES = {
    ("+", "-"): "lam1>0,lam2<0",
    ("+", "0"): "lam1>0,lam2=0",
    ("+", "+"): "lam1>0,lam2>0",
    ("0", "0"): "lam1=0,lam2=0",
    ("0", "-"): "lam1=0,lam2!=0",
    ("0", "+"): "lam1=0,lam2!=0",
}

SCAN_RADIUS_TOL = 0.01   # relative radius error of a scan root, and of a
FLOW_RADIUS_TOL = 0.02   # flow endpoint, before it counts as a discrepancy


def sphere_residual(params: EnergyParams, rho):
    """Closed-form residual of the sphere of radius rho."""
    rho = np.asarray(rho, dtype=np.float64)
    return -4.0 * params.lam1 / rho - 2.0 * params.lam2


def plane_residual(params: EnergyParams):
    return -2.0 * params.lam2


def sphere_family_energy(params: EnergyParams, rho):
    """Penalized energy along the sphere family:
    4*pi + 4*pi*lam1*rho^2 + (4/3)*pi*lam2*rho^3."""
    rho = np.asarray(rho, dtype=np.float64)
    return (4.0 * np.pi + 4.0 * np.pi * params.lam1 * rho**2
            + (4.0 / 3.0) * np.pi * params.lam2 * rho**3)


def critical_sphere_radius(params: EnergyParams):
    """Radius of the critical sphere: -2*lam1/lam2 for lam1>0, lam2<0;
    'any' when lam1 = lam2 = 0; None otherwise."""
    if params.lam1 == 0.0 and params.lam2 == 0.0:
        return "any"
    if params.lam1 > 0.0 and params.lam2 < 0.0:
        return -2.0 * params.lam1 / params.lam2
    return None


@dataclass
class ScanTable:
    params: EnergyParams
    rho: np.ndarray
    residual: np.ndarray
    energy: np.ndarray

    @property
    def min_abs_residual(self):
        return float(np.abs(self.residual).min())

    def roots(self):
        """Sign-change roots of the closed-form residual, refined by brentq.

        scipy.optimize is imported here, on the first call, not with the
        module: it is about 170 of the 800 modules an eager import would
        load, and only scans and classification refine a root.  A process
        that only builds meshes, evaluates energies or runs flows never
        loads it.
        """
        from scipy.optimize import brentq

        out = []
        r = self.residual
        for i in np.nonzero(np.sign(r[:-1]) * np.sign(r[1:]) < 0)[0]:
            out.append(float(brentq(
                lambda x: sphere_residual(self.params, x),
                self.rho[i], self.rho[i + 1], xtol=1e-14, rtol=8.9e-16)))
        return out

    def write_csv(self, path):
        write_csv(path, ["rho", "residual", "abs_residual", "sphere_energy"],
                  [self.rho, self.residual, np.abs(self.residual), self.energy])


def radius_scan(params: EnergyParams, rho_min, rho_max, n) -> ScanTable:
    """Closed-form residual and energy along the sphere family (no mesh)."""
    if params.lam1 < 0:
        raise ParameterError("lam1", "outside classification hypotheses (lam1 >= 0)")
    if not (0 < rho_min < rho_max):
        raise ParameterError("rho_min", "need 0 < rho_min < rho_max")
    if n < 2:
        raise ParameterError("n", "need at least 2 samples")
    rho = np.linspace(rho_min, rho_max, int(n))
    return ScanTable(params=params, rho=rho,
                     residual=sphere_residual(params, rho),
                     energy=sphere_family_energy(params, rho))


@dataclass
class BranchVerdict:
    branch: str
    predicted: str                       # description of the critical set
    critical_radius: object              # float, "any", or None
    evidence: dict
    discrepancies: list
    consistent: bool

    def to_json_dict(self):
        cr = self.critical_radius
        return {
            "branch": self.branch,
            "predicted": self.predicted,
            "critical_radius": cr if isinstance(cr, str) or cr is None else float(cr),
            "evidence": self.evidence,
            "discrepancies": self.discrepancies,
            "consistent": self.consistent,
            "note": "small-gap regime assumed (the smallness threshold is "
                    "not numeric); benchmark inputs keep the gap quantity "
                    "at or below the full-catenoid value 8*pi",
        }


def _branch_key(params: EnergyParams):
    s1 = "+" if params.lam1 > 0 else "0"
    s2 = "+" if params.lam2 > 0 else ("-" if params.lam2 < 0 else "0")
    return BRANCHES[(s1, s2)]


_PREDICTIONS = {
    "lam1>0,lam2<0": "single round sphere of radius -2*lam1/lam2 (any center)",
    "lam1>0,lam2=0": "planes only",
    "lam1>0,lam2>0": "no critical point",
    "lam1=0,lam2=0": "planes and spheres of every radius",
    "lam1=0,lam2!=0": "no critical point",
}


def classify_case(params: EnergyParams, scan: ScanTable | None = None,
                  flow_endpoint_radius=None,
                  flat_patch_residual=None) -> BranchVerdict:
    """Branch verdict from the signs of (lam1, lam2), with consistency checks
    of whatever numerical evidence is supplied.  Inconsistent evidence lands
    in ``discrepancies`` (discretization error is expected), never raises."""
    if params.lam1 < 0:
        raise ParameterError("lam1", "outside classification hypotheses (lam1 >= 0)")
    branch = _branch_key(params)
    predicted_radius = critical_sphere_radius(params)
    evidence = {}
    discrepancies = []

    if scan is not None:
        roots = scan.roots()
        evidence["scan_roots"] = roots
        evidence["scan_min_abs_residual"] = scan.min_abs_residual
        if isinstance(predicted_radius, float):
            if not roots:
                if scan.rho[0] <= predicted_radius <= scan.rho[-1]:
                    discrepancies.append(
                        "scan covers the predicted radius but found no root")
            else:
                err = min(abs(r - predicted_radius) for r in roots)
                evidence["scan_root_error"] = err
                if err > SCAN_RADIUS_TOL * abs(predicted_radius):
                    discrepancies.append(
                        f"scan root off by {err:.3g} (> {SCAN_RADIUS_TOL:.0%})")
        elif predicted_radius is None and roots:
            discrepancies.append(f"unexpected scan root(s) {roots}")
        if predicted_radius == "any" and scan.min_abs_residual > 0:
            discrepancies.append("nonzero residual on an all-critical family")

    if flow_endpoint_radius is not None:
        evidence["flow_endpoint_radius"] = float(flow_endpoint_radius)
        if isinstance(predicted_radius, float):
            err = abs(flow_endpoint_radius - predicted_radius)
            if err > FLOW_RADIUS_TOL * abs(predicted_radius):
                discrepancies.append(
                    f"flow endpoint radius off by {err:.3g} (> {FLOW_RADIUS_TOL:.0%})")
        else:
            discrepancies.append(
                "flow endpoint supplied but no sphere is predicted")

    expected_plane = plane_residual(params)
    evidence["plane_residual"] = expected_plane
    if flat_patch_residual is not None:
        evidence["flat_patch_residual"] = float(flat_patch_residual)
        if abs(flat_patch_residual - expected_plane) > 1e-6 + 1e-3 * abs(expected_plane):
            discrepancies.append("meshed flat-patch residual disagrees with -2*lam2")

    return BranchVerdict(
        branch=branch, predicted=_PREDICTIONS[branch],
        critical_radius=predicted_radius, evidence=evidence,
        discrepancies=discrepancies, consistent=not discrepancies)


def write_verdict_json(verdict: BranchVerdict, path):
    write_json(path, verdict.to_json_dict())
