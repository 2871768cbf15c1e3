"""Energy reports on meshes and oracle surfaces."""

import json

import numpy as np
import pytest

import helfrich as hf
from helfrich.analytic import catenoid, sphere
from helfrich.energy import EnergyParams, evaluate_energies, localized_gap


def test_sphere_oracle_closed_forms():
    rep = evaluate_energies(sphere(2.0), EnergyParams(0.0, 1.0, -1.0))
    assert rep.willmore == pytest.approx(4 * np.pi, rel=1e-12)
    assert rep.area == pytest.approx(16 * np.pi, rel=1e-12)
    assert rep.volume == pytest.approx(32 * np.pi / 3, rel=1e-12)
    assert rep.lcw == pytest.approx(28 * np.pi / 3, rel=1e-12)
    assert rep.lcw == pytest.approx(29.3215, abs=1e-4)


def test_zero_weights_helfrich_equals_willmore():
    for source in (sphere(1.3), hf.icosphere(1.0, 3)):
        rep = evaluate_energies(source, EnergyParams(0.0, 0.0, 0.0))
        assert rep.helfrich == rep.willmore


def test_catenoid_oracle_partial_report():
    rep = evaluate_energies(catenoid(1.0, 2.0), EnergyParams(0.0, 1.0, -1.0))
    assert abs(rep.willmore) < 1e-20
    assert rep.gap == pytest.approx(8 * np.pi * np.tanh(2.0), rel=1e-10)
    assert rep.volume is None and rep.lcw is None and rep.helfrich is None


def test_breakdown_reproduces_total():
    rep = evaluate_energies(hf.icosphere(1.5, 3), EnergyParams(0.3, 2.0, -0.7))
    total = (rep.breakdown["bending"] + rep.breakdown["area_term"]
             + rep.breakdown["volume_term"])
    assert rep.helfrich == pytest.approx(total, rel=1e-12)
    assert rep.lcw == pytest.approx(
        rep.willmore + 2.0 * rep.area - 0.7 * rep.volume, rel=1e-12)


def test_mesh_oracle_agreement_level5():
    mesh_rep = evaluate_energies(hf.icosphere(2.0, 5), EnergyParams(0.0, 1.0, -1.0))
    oracle_rep = evaluate_energies(sphere(2.0), EnergyParams(0.0, 1.0, -1.0))
    for key in ("area", "volume", "willmore", "helfrich", "lcw"):
        m, o = getattr(mesh_rep, key), getattr(oracle_rep, key)
        assert abs(m - o) / abs(o) < 0.01, key
    assert abs(mesh_rep.gap - oracle_rep.gap) < 0.01  # both near zero


def test_scale_law():
    params = EnergyParams(0.0, 1.0, -1.0)
    m = hf.perturbed_sphere(1.0, 0.1, 3)
    s = 2.3
    scaled = hf.TriangleMesh(s * m.vertices, m.faces)
    a, b = evaluate_energies(m, params), evaluate_energies(scaled, params)
    assert abs(b.willmore - a.willmore) / a.willmore < 1e-9
    assert abs(b.gap - a.gap) / max(a.gap, 1e-30) < 1e-9
    assert abs(b.area - s**2 * a.area) / (s**2 * a.area) < 1e-9
    assert abs(b.volume - s**3 * a.volume) / (s**3 * a.volume) < 1e-9
    # composite law for the penalized total
    expected = a.willmore + 1.0 * s**2 * a.area - 1.0 * s**3 * a.volume
    assert abs(b.lcw - expected) / abs(expected) < 1e-9


def test_localized_gap_monotone():
    src = catenoid(1.0, 3.0)
    radii = [1.5, 2.5, 4.0, 8.0, 30.0]
    vals = [localized_gap(src, (0, 0, 0), r) for r in radii]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 8 * np.pi
    assert vals[-1] == pytest.approx(8 * np.pi * np.tanh(3.0), rel=1e-8)


def test_localized_gap_sphere_zero():
    assert localized_gap(sphere(2.0), (0, 0, 0), 5.0) < 1e-12
    mesh_gap = localized_gap(hf.icosphere(1.0, 4), (0, 0, 0), 3.0)
    assert mesh_gap < 1e-2  # clamped discrete noise only


def test_localized_gap_mesh_monotone():
    m = hf.catenoid_mesh(1.0, 2.0, (48, 48))
    vals = [localized_gap(m, (0, 0, 0), r) for r in (1.2, 2.0, 4.0, 10.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_report_json_stable_keys():
    rep = evaluate_energies(sphere(1.0), EnergyParams())
    d = rep.to_json_dict()
    assert set(d) == {"area", "volume", "willmore", "helfrich", "lcw", "gap"}
    json.dumps(d)  # serializable


def test_invalid_params():
    with pytest.raises(ValueError):
        EnergyParams(c0=np.inf)


@pytest.mark.parametrize("level", [1, 3, 5])
def test_mesh_area_from_face_pass_equals_face_areas(level):
    m = hf.perturbed_sphere(2.0, 0.1, level)
    rep = evaluate_energies(m, EnergyParams(0.0, 1.0, -1.0))
    assert rep.area == float(m.face_areas().sum())
    assert rep.volume == hf.mesh_integrals(m)["signed_volume"]
