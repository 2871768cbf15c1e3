"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

from helfrich.cli import EXIT_BADINPUT, EXIT_OK, run_command


def run(argv):
    return run_command(argv)


def test_mesh_make_and_energy_eval(tmp_path):
    out = str(tmp_path)
    assert run(["mesh-make", "--kind", "icosphere", "--level", "3",
                "--out", out, "--mesh-out", "ball.obj"]) == EXIT_OK
    summary = json.loads((tmp_path / "mesh_make_summary.json").read_text())
    assert summary["result"]["n_vertices"] == 642
    assert summary["result"]["valid"] is True

    assert run(["energy-eval", "--mesh", str(tmp_path / "ball.obj"),
                "--l1", "1", "--l2", "-1", "--out", out]) == EXIT_OK
    energy = json.loads((tmp_path / "energy_summary.json").read_text())
    assert energy["result"]["willmore"] == pytest.approx(12.5067, abs=1e-3)


def test_energy_eval_missing_mesh(tmp_path, capsys):
    code = run(["energy-eval", "--mesh", str(tmp_path / "missing.obj"),
                "--out", str(tmp_path)])
    assert code == EXIT_BADINPUT
    assert "missing.obj" in capsys.readouterr().err


@pytest.mark.parametrize("name, vertex_line", [("ball.obj", "v nan 0 1"),
                                               ("ball.off", "0 -inf 1")])
def test_non_finite_vertex_rejected(tmp_path, capsys, name, vertex_line):
    out = str(tmp_path)
    assert run(["mesh-make", "--kind", "icosphere", "--level", "2",
                "--out", out, "--mesh-out", name]) == EXIT_OK
    path = tmp_path / name
    lines = path.read_text().splitlines()
    lines[4] = vertex_line
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["energy-eval", "--mesh", str(path), "--out", out]) == EXIT_BADINPUT
    assert "non-finite vertex coordinate at line 5" in capsys.readouterr().err


def test_unreferenced_vertex_rejected(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["mesh-make", "--kind", "icosphere", "--level", "1",
                "--out", out, "--mesh-out", "ball.obj"]) == EXIT_OK
    path = tmp_path / "ball.obj"
    path.write_text(path.read_text() + "v 5 5 5\n")
    capsys.readouterr()
    assert run(["energy-eval", "--mesh", str(path), "--out", out]) == EXIT_BADINPUT
    assert "vertex 42 (0-based) is used by no face" in capsys.readouterr().err


def test_scan_finds_root(tmp_path):
    out = str(tmp_path)
    assert run(["scan", "--l1", "1", "--l2", "-1", "--rmin", "0.5",
                "--rmax", "4", "--n", "100", "--out", out]) == EXIT_OK
    summary = json.loads((tmp_path / "scan_summary.json").read_text())
    assert summary["result"]["roots"][0] == pytest.approx(2.0, abs=1e-12)
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0] == "rho,residual,abs_residual,sphere_energy"
    assert len(lines) == 101


def test_scan_rejects_bad_lambda1(tmp_path, capsys):
    assert run(["scan", "--l1", "-1", "--l2", "0",
                "--out", str(tmp_path)]) == EXIT_BADINPUT


def test_classify_writes_verdict(tmp_path):
    assert run(["classify", "--l1", "0", "--l2", "0.3",
                "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "classify_summary.json").read_text())
    assert payload["result"]["branch"] == "lam1=0,lam2!=0"
    assert payload["result"]["consistent"] is True


def test_residual_oracle(tmp_path):
    assert run(["residual", "--surface", "plane", "--l1", "1", "--l2", "0.5",
                "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "residual_summary.json").read_text())
    assert payload["result"]["linf"] == pytest.approx(1.0, abs=1e-12)


def test_residual_mesh_writes_bundle(tmp_path):
    assert run(["residual", "--kind", "icosphere", "--level", "2",
                "--l1", "1", "--l2", "-1", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "curvature_bundle.csv").read_text().splitlines()
    assert lines[0] == ("vertex,area,mean_curvature,gauss_curvature,"
                       "tracefree_sq,interior,nx,ny,nz")
    assert len(lines) == 1 + 162


def test_identity_check_cli(tmp_path):
    assert run(["identity-check", "--samples", "200", "--seed", "7",
                "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "identity_check_summary.json").read_text())
    assert payload["result"]["max_cubic_identity_dev"] < 1e-12


def test_estimate_report_cli(tmp_path):
    assert run(["estimate-report", "--surface", "sphere", "--radius", "2",
                "--l1", "1", "--l2", "-1", "--cutoff-radius", "10",
                "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "estimate_report_summary.json").read_text())
    assert abs(payload["result"]["terms"]["residual_sq_gamma4"]) < 1e-10


def test_variation_check_cli(tmp_path):
    assert run(["variation-check", "--surface", "torus", "--c0", "0.7",
                "--l1", "1", "--l2", "-1", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "variation_check_summary.json").read_text())
    assert payload["result"]["max_rel_error"] <= 1e-6


def test_flow_cli_smoke(tmp_path):
    assert run(["flow", "--kind", "perturbed_sphere", "--radius", "1",
                "--amplitude", "0.05", "--level", "2",
                "--mode", "energy_descent", "--initial-step", "0.05",
                "--max-iterations", "5", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "flow_summary.json").read_text())
    assert payload["result"]["verdict"] in ("converged", "max_iters")
    assert (tmp_path / "flow_trace.csv").exists()


def test_gradient_check_cli(tmp_path):
    assert run(["gradient-check", "--kind", "perturbed_sphere", "--radius", "1",
                "--amplitude", "0.05", "--level", "2", "--l1", "1", "--l2", "-1",
                "--n-fields", "5", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "gradient_check_summary.json").read_text())
    assert payload["result"]["area_max_rel"] <= 1e-8


def test_config_file_merging_and_unknown_keys(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"l1": 1.0, "l2": -1.0, "rmin": 0.5,
                               "rmax": 4.0, "n": 50}))
    out = str(tmp_path / "a")
    assert run(["scan", "--config", str(cfg), "--out", out]) == EXIT_OK
    # flags override config
    out2 = str(tmp_path / "b")
    assert run(["scan", "--config", str(cfg), "--n", "70", "--out", out2]) == EXIT_OK
    lines = (tmp_path / "b" / "scan.csv").read_text().splitlines()
    assert len(lines) == 71

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"l1": 1.0, "bogus_key": 3}))
    assert run(["scan", "--config", str(bad), "--out", out]) == EXIT_BADINPUT


def test_determinism_byte_identical(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    args = ["gradient-check", "--kind", "perturbed_sphere", "--level", "2",
            "--l1", "1", "--l2", "-1", "--n-fields", "4", "--seed", "11"]
    assert run(args + ["--out", out1]) == EXIT_OK
    assert run(args + ["--out", out2]) == EXIT_OK
    csv1 = (tmp_path / "r1" / "gradient_check.csv").read_bytes()
    csv2 = (tmp_path / "r2" / "gradient_check.csv").read_bytes()
    assert csv1 == csv2
    j1 = json.loads((tmp_path / "r1" / "gradient_check_summary.json").read_text())
    j2 = json.loads((tmp_path / "r2" / "gradient_check_summary.json").read_text())
    assert j1["result"] == j2["result"]


def test_verify_subset(tmp_path):
    assert run(["verify", "--only", "c2,c4", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "verify_summary.json").read_text())
    assert payload["result"]["all_pass"] is True
    assert [c["id"] for c in payload["result"]["criteria"]] == ["c2", "c4"]
