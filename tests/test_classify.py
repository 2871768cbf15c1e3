"""Branch classification over the sphere and plane families."""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from helfrich.classify import (
    classify_case,
    critical_sphere_radius,
    plane_residual,
    radius_scan,
    sphere_family_energy,
)
from helfrich.energy import EnergyParams
from helfrich.errors import ParameterError


def test_scan_bracket_root():
    table = radius_scan(EnergyParams(0.0, 1.0, -1.0), 0.5, 4.0, 100)
    signs = np.sign(table.residual)
    assert (np.diff(signs) != 0).sum() == 1       # exactly one sign change
    roots = table.roots()
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2.0, abs=1e-12)


_IMPORT_PROBE = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import helfrich, helfrich.cli
    from helfrich import EnergyParams, FlowConfig, flow_run, icosphere, radius_scan
    from helfrich.acceptance import run_all
    from helfrich.classify import classify_case
    seen = {"import": "scipy.optimize" in sys.modules}
    for mode in ("energy_descent", "residual_descent"):
        flow_run(icosphere(1.0, 1), EnergyParams(0.0, 1.0, -1.0),
                 FlowConfig(mode=mode, max_iterations=3))
        seen[mode] = "scipy.optimize" in sys.modules
    params = EnergyParams(0.0, 1.0, -1.0)
    seen["roots"] = radius_scan(params, 0.5, 4.0, 200).roots()
    seen["consistent"] = classify_case(
        params, scan=radius_scan(params, 0.5, 4.0, 200)).consistent
    seen["c3"] = run_all(only=["c3"])[0].passed
    seen["after_roots"] = "scipy.optimize" in sys.modules
    print(json.dumps(seen))
""")


def test_import_leaves_scipy_optimize_unloaded():
    """No path of the package loads scipy.optimize: not the import, the
    flows, a scan's roots, a classification or c3.  pytest's own process
    has it loaded by other tests, so a fresh interpreter checks."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not seen["import"]
    assert not seen["energy_descent"]
    assert not seen["residual_descent"]
    assert len(seen["roots"]) == 1
    assert abs(seen["roots"][0] - 2.0) <= 1e-12
    assert seen["consistent"]
    assert seen["c3"]
    assert not seen["after_roots"]


def test_package_imports_only_the_scipy_modules_it_needs():
    """Every scipy import in the package, at any depth of any module, is one
    of scipy.sparse, scipy.linalg and scipy.sparse.csgraph."""
    allowed = {"scipy.sparse", "scipy.linalg", "scipy.sparse.csgraph"}
    pkg = Path(__file__).resolve().parents[1] / "src" / "helfrich"
    found = set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = [f"scipy.{a.name}" for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(n for n in names if n.split(".")[0] == "scipy")
    assert found
    assert found <= allowed, sorted(found - allowed)


def test_scan_roots_match_closed_form_to_two_ulps():
    """Bisection on the residual's signs lands within 2 spacings of
    -2*lam1/lam2 over seeded scans whose brackets and sizes vary."""
    rng = np.random.default_rng(20240)
    for _ in range(1000):
        lam1, lam2 = 10.0 ** rng.uniform(-3, 2), -10.0 ** rng.uniform(-3, 2)
        radius = -2.0 * lam1 / lam2
        table = radius_scan(EnergyParams(0.0, lam1, lam2),
                            radius * rng.uniform(0.05, 0.95),
                            radius * rng.uniform(1.05, 20.0),
                            int(rng.integers(2, 300)))
        roots = table.roots()
        assert len(roots) == 1
        assert abs(roots[0] - radius) <= 2 * np.spacing(radius)


@pytest.mark.parametrize("rho_min, rho_max, n", [(1.0, 3.0, 3), (0.5, 2.0, 4)],
                         ids=["middle_sample", "end_sample"])
def test_scan_root_on_a_sample(rho_min, rho_max, n):
    """A sample whose residual is exactly 0 is a root, also at the scan's
    end, and classification counts it."""
    p = EnergyParams(0.0, 1.0, -1.0)
    table = radius_scan(p, rho_min, rho_max, n)
    assert table.min_abs_residual == 0.0
    assert table.roots() == [2.0]
    v = classify_case(p, scan=table)
    assert v.consistent, v.discrepancies
    assert v.evidence["scan_roots"] == [2.0]


def test_scan_positive_lambda2_no_root():
    table = radius_scan(EnergyParams(0.0, 1.0, 0.5), 0.1, 50.0, 300)
    assert not table.roots()
    assert table.min_abs_residual >= 0.98 * 2 * 0.5


def test_scan_degenerate_all_critical():
    table = radius_scan(EnergyParams(0.0, 0.0, 0.0), 0.5, 5.0, 50)
    assert np.abs(table.residual).max() == 0.0


def test_scan_rejects_negative_lambda1():
    with pytest.raises(ParameterError):
        radius_scan(EnergyParams(0.0, -1.0, 0.0), 0.5, 2.0, 10)
    with pytest.raises(ParameterError):
        radius_scan(EnergyParams(0.0, 1.0, 0.0), 2.0, 0.5, 10)


def test_sphere_family_energy_closed_form():
    p = EnergyParams(0.0, 1.0, -1.0)
    rho = 2.0
    assert sphere_family_energy(p, rho) == pytest.approx(
        4 * np.pi + 4 * np.pi * rho**2 - (4 / 3) * np.pi * rho**3, rel=1e-14)
    # critical sphere is a strict local maximum along the family
    e = sphere_family_energy(p, np.array([1.9, 2.0, 2.1]))
    assert e[1] > e[0] and e[1] > e[2]


def test_critical_radius_closed_form_and_scaling():
    assert critical_sphere_radius(EnergyParams(0.0, 1.0, -1.0)) == \
        pytest.approx(2.0, abs=1e-15)
    assert critical_sphere_radius(EnergyParams(0.0, 0.0, 0.0)) == "any"
    assert critical_sphere_radius(EnergyParams(0.0, 1.0, 1.0)) is None
    assert critical_sphere_radius(EnergyParams(0.0, 1.0, 0.0)) is None
    # scaling (lam1, lam2) -> (s^2 lam1, s^3 lam2) shrinks the radius by 1/s
    s = 3.1
    r1 = critical_sphere_radius(EnergyParams(0.0, 1.0, -1.0))
    r2 = critical_sphere_radius(EnergyParams(0.0, s**2 * 1.0, -s**3 * 1.0))
    assert r2 == pytest.approx(r1 / s, rel=1e-14)


def test_verdict_map_total_and_branches():
    cases = {
        (1.0, -1.0): "lam1>0,lam2<0",
        (1.0, 0.0): "lam1>0,lam2=0",
        (1.0, 0.5): "lam1>0,lam2>0",
        (0.0, 0.0): "lam1=0,lam2=0",
        (0.0, 0.3): "lam1=0,lam2!=0",
        (0.0, -0.3): "lam1=0,lam2!=0",
    }
    for (l1, l2), branch in cases.items():
        v = classify_case(EnergyParams(0.0, l1, l2))
        assert v.branch == branch
        assert v.predicted


def test_classify_sphere_branch_with_evidence():
    p = EnergyParams(0.0, 1.0, -1.0)
    table = radius_scan(p, 0.5, 4.0, 200)
    v = classify_case(p, scan=table, flow_endpoint_radius=2.01)
    assert v.consistent
    assert v.critical_radius == pytest.approx(2.0)
    assert v.evidence["scan_roots"][0] == pytest.approx(2.0, abs=1e-12)


def test_classify_plane_branch():
    p = EnergyParams(0.0, 1.0, 0.0)
    table = radius_scan(p, 0.5, 10.0, 100)
    v = classify_case(p, scan=table)
    assert v.branch == "lam1>0,lam2=0"
    assert v.consistent
    assert not table.roots()           # no sphere is critical on this branch
    assert plane_residual(p) == 0.0


def test_classify_no_critical_point_branch():
    p = EnergyParams(0.0, 0.0, 0.3)
    table = radius_scan(p, 0.5, 10.0, 100)
    v = classify_case(p, scan=table)
    assert v.branch == "lam1=0,lam2!=0"
    assert v.critical_radius is None
    assert plane_residual(p) == pytest.approx(-0.6)
    assert np.abs(table.residual).min() >= 2 * 0.3 * (1 - 1e-12)
    assert v.consistent


def test_classify_reports_discrepancy_without_raising():
    p = EnergyParams(0.0, 1.0, -1.0)
    table = radius_scan(p, 0.5, 4.0, 200)
    v = classify_case(p, scan=table, flow_endpoint_radius=2.5)
    assert not v.consistent
    assert any("flow endpoint" in d for d in v.discrepancies)


def test_verdict_json(tmp_path):
    import json
    from helfrich.output import write_json
    v = classify_case(EnergyParams(0.0, 1.0, -1.0))
    path = tmp_path / "verdict.json"
    write_json(path, v.to_json_dict())
    payload = json.loads(path.read_text())
    assert payload["result"]["branch"] == "lam1>0,lam2<0"
    assert "small-gap regime" in payload["result"]["note"]
