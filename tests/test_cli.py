"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json

import pytest

import helfrich as hf
from helfrich.cli import EXIT_BADINPUT, EXIT_FAIL, EXIT_OK, SUBCOMMANDS, run_command


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


def test_classify_counts_a_root_on_a_scan_sample(tmp_path):
    assert run(["classify", "--l1", "1", "--l2", "-1", "--rmin", "1", "--rmax", "3",
                "--n", "3", "--out", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "classify_summary.json").read_text())
    assert payload["result"]["evidence"]["scan_roots"] == [2.0]
    assert payload["result"]["discrepancies"] == []
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
    assert payload["result"]["verdict"] in ("converged", "stalled", "max_iters")
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


@pytest.mark.parametrize("key, value", [
    ("level", 1.9), ("level", True), ("level", "3"), ("radius", True),
    ("radius", "2"), ("radius", None), ("radius", 10**400), ("radius", float("inf")),
    ("kind", 3), ("mesh_out", ["a.obj"])])
def test_config_value_of_wrong_json_type_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "mesh.json"
    cfg.write_text(json.dumps({key: value}))
    code = run(["mesh-make", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_BADINPUT
    assert f"{key}: must be a JSON" in capsys.readouterr().err


def test_config_accepts_integer_for_number_key(tmp_path):
    cfg = tmp_path / "mesh.json"
    cfg.write_text(json.dumps({"radius": 2, "level": 1, "kind": "icosphere"}))
    assert run(["mesh-make", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "mesh_make_summary.json").read_text())
    assert summary["result"]["n_vertices"] == 42


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


@pytest.mark.parametrize("only", ["c10", "c1,c10"])
def test_verify_unknown_criterion_id_exits_2(tmp_path, capsys, only):
    assert run(["verify", "--only", only, "--out", str(tmp_path)]) == EXIT_BADINPUT
    out, err = capsys.readouterr()
    assert "ok" not in out
    assert err.startswith("error: only: unknown criterion ids ['c10']")
    assert not (tmp_path / "verify_summary.json").exists()


@pytest.mark.parametrize("only", [",", "", " , ,"], ids=["comma", "empty", "blanks"])
def test_verify_only_naming_no_id_exits_2(tmp_path, capsys, only):
    assert run(["verify", "--only", only, "--out", str(tmp_path)]) == EXIT_BADINPUT
    out, err = capsys.readouterr()
    assert "ok" not in out and "PASS" not in out
    assert err.splitlines() == ["error: only: names no criterion id; known: "
                                "c1, c2, c3, c4, c5, c6, c7, c8, c9"]
    assert not (tmp_path / "verify_summary.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["variation-check", "--step", "0"], "step must be positive and finite, got 0.0"),
    (["variation-check", "--step", "-0.01"], "step must be positive and finite"),
    (["variation-check", "--step", "nan"], "argument --step: must be finite, got 'nan'"),
    (["variation-check", "--step", "inf"], "argument --step: must be finite, got 'inf'"),
    (["scan", "--l1=-inf"], "argument --l1: must be finite, got '-inf'"),
    (["flow", "--initial-step", "nan"], "argument --initial-step: must be finite"),
    (["gradient-check", "--level", "1", "--n-fields", "0"],
     "n_fields must be at least 1, got 0"),
    (["gradient-check", "--level", "1", "--n-fields", "-2"],
     "n_fields must be at least 1, got -2"),
    (["energy-eval", "--surface", "torus", "--quad-u", "0"],
     "quadrature needs at least 1 node per axis, got 0"),
    (["residual", "--surface", "catenoid", "--quad-v", "-3"],
     "quadrature needs at least 1 node per axis, got -3"),
    (["identity-check", "--samples", "0"], "samples: must be at least 1, got 0"),
    (["identity-check", "--samples", "-1"], "samples: must be at least 1, got -1"),
], ids=["step-0", "step-negative", "step-nan", "step-inf", "l1-inf",
        "initial-step-nan", "n-fields-0", "n-fields-negative", "quad-u-0",
        "quad-v-negative", "samples-0", "samples-negative"])
def test_bad_numeric_input_exits_2_with_one_error_line(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_BADINPUT
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


def test_seed_only_where_it_is_read(tmp_path, capsys):
    seeded = {name for name, keys in SUBCOMMANDS.items() if "seed" in keys}
    assert seeded == {"gradient-check", "variation-check", "identity-check"}
    assert run(["flow", "--kind", "icosphere", "--level", "1", "--seed", "1",
                "--out", str(tmp_path)]) == EXIT_BADINPUT
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "unrecognized arguments: --seed 1" in errors[0]
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": 3}))
    assert run(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_BADINPUT
    assert "unknown keys ['seed']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["variation-check", "estimate-report"])
def test_quadrature_flags_only_where_they_act(tmp_path, capsys, command):
    for flag in ("--quad-u", "--quad-v"):
        assert run([command, flag, "16", "--out", str(tmp_path)]) == EXIT_BADINPUT
        assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "quad.json"
    cfg.write_text(json.dumps({"quad_u": 16}))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_BADINPUT
    assert "unknown keys ['quad_u']" in capsys.readouterr().err
    assert run(["energy-eval", "--surface", "torus", "--quad-u", "16", "--quad-v", "8",
                "--out", str(tmp_path)]) == EXIT_OK


SMALL_RUNS = {
    "mesh-make": ["--kind", "icosphere", "--level", "1"],
    "energy-eval": ["--kind", "icosphere", "--level", "1", "--l1", "1", "--l2", "-1"],
    "residual": ["--kind", "icosphere", "--level", "1"],
    "gradient-check": ["--kind", "icosphere", "--level", "1", "--n-fields", "2"],
    "variation-check": ["--surface", "torus"],
    "identity-check": ["--samples", "10"],
    "estimate-report": ["--radius", "2", "--l1", "1", "--l2", "-1"],
    "scan": ["--l1", "1", "--l2", "-1", "--n", "10"],
    "classify": ["--l1", "1", "--l2", "-1", "--n", "50"],
    "flow": ["--kind", "icosphere", "--level", "1", "--max-iterations", "2"],
    "verify": ["--only", "c4"],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_every_summary_is_meta_and_result(tmp_path, command):
    assert set(SMALL_RUNS) == set(SUBCOMMANDS)
    assert run([command, *SMALL_RUNS[command], "--out", str(tmp_path)]) == EXIT_OK
    summaries = list(tmp_path.glob("*_summary.json"))
    assert len(summaries) == 1
    assert set(json.loads(summaries[0].read_text())) == {"meta", "result"}
    if command == "flow":
        rows = (tmp_path / "flow_trace.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            [float(cell) for cell in row.split(",")]


def test_non_finite_result_exits_1(tmp_path, monkeypatch, capsys):
    import helfrich.cli as cli
    from helfrich.energy import evaluate_energies

    def nan_energy(source, params, grid=None):
        report = evaluate_energies(source, params, grid=grid)
        report.willmore = float("nan")
        return report

    monkeypatch.setattr(cli, "evaluate_energies", nan_energy)
    code = run(["energy-eval", "--kind", "icosphere", "--level", "1",
                "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == EXIT_FAIL
    assert "ok" not in out
    assert "result.willmore is nan" in err
    assert not (tmp_path / "energy_summary.json").exists()


def test_flow_plane_candidate_fit_writes_null(tmp_path, monkeypatch, capsys):
    import helfrich.flow as flow
    from helfrich.errors import FitError

    def no_fit(source):
        raise FitError("points are coplanar (plane candidate)")

    monkeypatch.setattr(flow, "best_fit_sphere", no_fit)
    assert run(["flow", "--kind", "icosphere", "--level", "1",
                "--max-iterations", "2", "--out", str(tmp_path)]) == EXIT_OK
    assert "ok" in capsys.readouterr().out
    result = json.loads((tmp_path / "flow_summary.json").read_text())["result"]
    assert result["fit_center"] is result["fit_radius"] is result["fit_rms"] is None
    header, *rows = (tmp_path / "flow_trace.csv").read_text().splitlines()
    fit = [header.split(",").index(key) for key in
           ("fit_cx", "fit_cy", "fit_cz", "fit_radius", "fit_rms")]
    assert rows and all([row.split(",")[k] for k in fit] == ["nan"] * 5
                        for row in rows)


def test_scan_csv_bytes_pinned(tmp_path):
    assert run(["scan", "--l1", "1", "--l2", "-1", "--out", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest()
    assert digest == "17d12ebb48e9824d78a151450c17684e842c8a8cc5a9d1f65c78e7fd696776ba"


def test_residual_without_interior_vertex(tmp_path, capsys):
    code = run(["residual", "--kind", "flat_patch", "--grid-u", "1", "--grid-v", "1",
                "--out", str(tmp_path)])
    assert code == EXIT_BADINPUT
    assert "no interior vertex" in capsys.readouterr().err


def test_extensionless_mesh_exits_2(tmp_path, monkeypatch, capsys):
    """An OBJ file named ``obj`` has no extension, so no format."""
    monkeypatch.chdir(tmp_path)
    assert run(["mesh-make", "--kind", "icosphere", "--level", "1",
                "--mesh-out", "ball.obj"]) == EXIT_OK
    (tmp_path / "ball.obj").rename(tmp_path / "obj")
    capsys.readouterr()
    assert run(["residual", "--mesh", "obj"]) == EXIT_BADINPUT
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: unsupported mesh extension for 'obj'"]


def test_overflowing_face_index_exits_2(tmp_path, capsys):
    path = tmp_path / "big.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                    "f 1 3 2\nf 1 2 4\nf 2 3 4\nf 1 4 99999999999999999999999\n")
    code = run(["energy-eval", "--mesh", str(path), "--out", str(tmp_path)])
    assert code == EXIT_BADINPUT
    assert "face index 99999999999999999999999 out of range (4 vertices)" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command", ["energy-eval", "residual"])
def test_zero_area_face_exits_2(tmp_path, capsys, command):
    # Vertices 2, 3 and 4 are collinear, so face "f 2 3 4" has zero area.
    path = tmp_path / "flat.obj"
    path.write_text("v 0 0 1\nv 0 0 0\nv 1 0 0\nv 2 0 0\n"
                    "f 1 3 2\nf 1 2 4\nf 2 3 4\nf 1 4 3\n")
    code = run([command, "--mesh", str(path), "--out", str(tmp_path)])
    assert code == EXIT_BADINPUT
    assert "face 2 (0-based) has zero area at line 7" in capsys.readouterr().err


def test_residual_mesh_runs_one_curvature_pass(tmp_path, monkeypatch):
    import helfrich.curvature as curvature

    calls = []
    real = curvature._face_data
    monkeypatch.setattr(curvature, "_face_data", lambda m: calls.append(m) or real(m))
    assert run(["residual", "--kind", "icosphere", "--level", "2",
                "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1
    assert (tmp_path / "curvature_bundle.csv").exists()


@pytest.mark.parametrize("command, summary", [("residual", "residual_summary.json"),
                                              ("energy-eval", "energy_summary.json")])
def test_mesh_summary_meta_counts_clamps_and_obtuse_faces(tmp_path, monkeypatch,
                                                          command, summary):
    import helfrich.curvature as curvature
    from helfrich.mesh import load_mesh

    assert run(["mesh-make", "--kind", "catenoid", "--grid-u", "24", "--grid-v", "16",
                "--out", str(tmp_path), "--mesh-out", "cat.off"]) == EXIT_OK
    path = str(tmp_path / "cat.off")
    bundle = curvature.curvature_bundle(load_mesh(path))
    calls = []
    real = curvature._face_data
    monkeypatch.setattr(curvature, "_face_data", lambda m: calls.append(m) or real(m))
    assert run([command, "--mesh", path, "--out", str(tmp_path)]) == EXIT_OK
    assert len(calls) == 1
    meta = json.loads((tmp_path / summary).read_text())["meta"]
    assert meta == {"clamp_count": bundle.clamp_count,
                    "clamp_fraction": bundle.clamp_fraction,
                    "clamp_max": bundle.clamp_max, "obtuse_faces": bundle.obtuse_faces}
    assert meta["obtuse_faces"] > 0


@pytest.mark.parametrize("kind, flags, build", [
    ("icosphere", ["--radius", "1.5", "--level", "2"], lambda: hf.icosphere(1.5, 2)),
    ("perturbed_sphere", ["--radius", "2", "--amplitude", "0.1", "--level", "2"],
     lambda: hf.perturbed_sphere(2.0, 0.1, 2)),
    ("catenoid", ["--neck-scale", "0.5", "--half-height", "1.5", "--grid-u", "12",
                  "--grid-v", "7"], lambda: hf.catenoid_mesh(0.5, 1.5, (12, 7))),
    ("flat_patch", ["--grid-u", "5", "--grid-v", "3", "--extent-x", "2",
                    "--extent-y", "0.5"], lambda: hf.flat_patch((5, 3), (2.0, 0.5))),
])
def test_mesh_make_writes_its_builders_mesh(tmp_path, kind, flags, build):
    assert run(["mesh-make", "--kind", kind, *flags, "--out", str(tmp_path),
                "--mesh-out", "cli.obj"]) == EXIT_OK
    hf.save_mesh(build(), tmp_path / "direct.obj")
    assert (tmp_path / "cli.obj").read_bytes() == (tmp_path / "direct.obj").read_bytes()


def test_unknown_kind_exits_2_naming_kind(tmp_path, capsys):
    assert run(["mesh-make", "--kind", "cube", "--out", str(tmp_path)]) == EXIT_BADINPUT
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["error: kind: must be one of ('icosphere', 'catenoid', 'flat_patch', "
                      "'perturbed_sphere'), got 'cube'"]
    assert not (tmp_path / "mesh.obj").exists()


@pytest.mark.parametrize("argv, message", [
    (["gradient-check", "--kind", "catenoid", "--grid-u", "8", "--grid-v", "4"],
     "gradient_check needs a closed mesh"),
    (["flow", "--kind", "flat_patch", "--grid-u", "4", "--grid-v", "4"],
     "flow_run needs a closed mesh"),
    (["variation-check", "--surface", "catenoid"], "variation_check needs a closed surface"),
    (["variation-check", "--surface", "plane"], "variation_check needs a closed surface"),
], ids=["gradient-check-catenoid", "flow-flat_patch", "variation-check-catenoid",
        "variation-check-plane"])
def test_open_input_to_closed_only_command_exits_2(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_BADINPUT
    out, err = capsys.readouterr()
    assert "ok" not in out and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]
