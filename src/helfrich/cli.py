"""Command-line surface: experiment orchestration and report emission.

Every subcommand writes a machine-readable JSON summary (stable key order,
wall time quarantined in a separate "meta" block) alongside any CSV table,
both through ``output``, so identical configs and seeds produce
byte-identical result payloads.
Config files are JSON objects whose keys mirror the long flag names with
underscores; explicit flags override file values, unknown keys are rejected.

Exit codes: 0 success / all-pass, 1 numerical or acceptance failure
(including a non-finite summary value), 2 invalid input or config.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import acceptance
from .analytic import (
    AmbientField,
    QuadratureGrid,
    catenoid,
    estimate_report,
    identity_check,
    plane_patch,
    sphere,
    torus,
    variation_check,
)
from .classify import classify_case, radius_scan, write_verdict_json
from .curvature import curvature_bundle
from .energy import EnergyParams, evaluate_energies
from .errors import HelfrichError, MeshInputError, NumericalError, ParameterError
from .flow import FlowConfig, flow_run
from .mesh import (PrimitiveSpec, load_mesh, make_primitive, mesh_integrals, save_mesh,
                   validate)
from .output import write_csv, write_json
from .variation import _mesh_residual, el_residual, gradient_check

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BADINPUT = 2


# -- argument plumbing ----------------------------------------------------------

def _add(parser, name, type_, default, help_):
    parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type_,
                        default=None, help=f"{help_} (default {default})")


COMMON = {"out": (str, ".", "output directory"),
          "config": (str, None, "JSON config file; flags override"),
          "seed": (int, 0, "random seed for stochastic checks")}

MESH_KEYS = {
    "kind": (str, "icosphere", "icosphere|catenoid|flat_patch|perturbed_sphere"),
    "radius": (float, 1.0, "sphere radius"),
    "level": (int, 3, "icosphere subdivision level"),
    "amplitude": (float, 0.05, "perturbed-sphere amplitude"),
    "neck_scale": (float, 1.0, "catenoid waist radius"),
    "half_height": (float, 2.0, "catenoid truncation half-height"),
    "grid_u": (int, 64, "samples around / cells in x"),
    "grid_v": (int, 64, "samples along / cells in y"),
    "extent_x": (float, 1.0, "patch width"),
    "extent_y": (float, 1.0, "patch height"),
}
PARAM_KEYS = {
    "c0": (float, 0.0, "spontaneous curvature"),
    "l1": (float, 0.0, "area weight lambda1"),
    "l2": (float, 0.0, "volume weight lambda2"),
}
SURFACE_KEYS = {
    "surface": (str, None, "oracle surface: sphere|plane|catenoid|torus"),
    "ring_radius": (float, 2.0, "torus ring radius"),
    "tube_radius": (float, 1.0, "torus tube radius"),
    "quad_u": (int, 64, "quadrature nodes, first axis"),
    "quad_v": (int, 64, "quadrature nodes, second axis"),
}

SUBCOMMANDS = {
    "mesh-make": {**COMMON, **MESH_KEYS,
                  "mesh_out": (str, "mesh.obj", "mesh file name (obj/off)")},
    "energy-eval": {**COMMON, **MESH_KEYS, **PARAM_KEYS, **SURFACE_KEYS,
                    "mesh": (str, None, "mesh file to load instead of a primitive")},
    "residual": {**COMMON, **MESH_KEYS, **PARAM_KEYS, **SURFACE_KEYS,
                 "mesh": (str, None, "mesh file to load instead of a primitive")},
    "gradient-check": {**COMMON, **MESH_KEYS, **PARAM_KEYS,
                       "n_fields": (int, 20, "number of random test fields")},
    "variation-check": {**COMMON, **PARAM_KEYS, **SURFACE_KEYS,
                        "step": (float, 5e-3, "finite-difference step")},
    "identity-check": {**COMMON,
                       "samples": (int, 1000, "random principal-curvature pairs")},
    "estimate-report": {**COMMON, **PARAM_KEYS, **SURFACE_KEYS,
                        "center_x": (float, 0.0, "cutoff center x"),
                        "center_y": (float, 0.0, "cutoff center y"),
                        "center_z": (float, 0.0, "cutoff center z"),
                        "cutoff_radius": (float, 10.0, "cutoff ball radius"),
                        "neck_scale": (float, 1.0, "catenoid waist radius"),
                        "half_height": (float, 2.0, "catenoid truncation"),
                        "radius": (float, 1.0, "sphere radius")},
    "scan": {**COMMON, **PARAM_KEYS,
             "rmin": (float, 0.5, "smallest radius"),
             "rmax": (float, 4.0, "largest radius"),
             "n": (int, 100, "number of radii")},
    "classify": {**COMMON, **PARAM_KEYS,
                 "rmin": (float, 0.1, "scan start"),
                 "rmax": (float, 50.0, "scan end"),
                 "n": (int, 400, "scan samples"),
                 "flow_endpoint_radius": (float, None, "optional flow evidence")},
    "flow": {**COMMON, **MESH_KEYS, **PARAM_KEYS,
             "mode": (str, "energy_descent", "energy_descent|residual_descent"),
             "initial_step": (float, 0.02, "largest first-trial displacement; "
                              "later first trials stay within 4x the last step"),
             "max_iterations": (int, 200, "iteration cap"),
             "grad_tol": (float, 1e-10, "gradient-norm stop"),
             "log_every": (int, 1, "trace cadence")},
    "verify": {**COMMON,
               "only": (str, None, "comma-separated criterion ids, e.g. c1,c3")},
}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="helfrich",
        description="Helfrich / locally constrained Willmore energies, "
                    "residuals, flows, and the acceptance suite.")
    subs = p.add_subparsers(dest="command", required=True)
    for name, keys in SUBCOMMANDS.items():
        sp = subs.add_parser(name)
        for key, (type_, default, help_) in keys.items():
            _add(sp, key, type_, default, help_)
    return p


def _resolve(args, command):
    """defaults < config file < explicit flags; unknown config keys rejected."""
    spec = SUBCOMMANDS[command]
    values = {k: v[1] for k, v in spec.items()}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            with open(cfg_path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ParameterError("config", f"file not found: {cfg_path}")
        except json.JSONDecodeError as e:
            raise ParameterError("config", f"invalid JSON in {cfg_path}: {e}")
        if not isinstance(cfg, dict):
            raise ParameterError("config", "config must be a JSON object")
        unknown = set(cfg) - set(spec)
        if unknown:
            raise ParameterError("config", f"unknown keys {sorted(unknown)}")
        for k, v in cfg.items():
            values[k] = _config_value(k, v, *spec[k][:2])
    for k in spec:
        flag = getattr(args, k, None)
        if flag is not None:
            values[k] = flag
    return values


# flag type -> (JSON type name, Python types a config value may have)
JSON_TYPES = {int: ("integer", (int,)), float: ("number", (int, float)),
              str: ("string", (str,))}


def _config_value(key, value, typ, default):
    """The value if it has its key's JSON type, never coerced (1.9 or true is
    no integer); null only where the default is unset, numbers finite."""
    name, accepted = JSON_TYPES[typ]
    if value is None and default is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, accepted)
            or typ is float and not abs(value) <= sys.float_info.max):
        raise ParameterError(key, f"must be a JSON {name}, got {json.dumps(value)}")
    return typ(value)


def _primitive_spec(v):
    return PrimitiveSpec(
        kind=v["kind"], radius=v["radius"], level=v["level"],
        amplitude=v["amplitude"], neck_scale=v["neck_scale"],
        half_height=v["half_height"], grid=(v["grid_u"], v["grid_v"]),
        extent=(v["extent_x"], v["extent_y"]))


def _params(v):
    return EnergyParams(c0=v["c0"], lam1=v["l1"], lam2=v["l2"])


def _surface(v):
    name = v.get("surface")
    if name in (None, "sphere"):
        return sphere(v.get("radius", 1.0))
    if name == "plane":
        return plane_patch()
    if name == "catenoid":
        return catenoid(v.get("neck_scale", 1.0), v.get("half_height", 2.0))
    if name == "torus":
        return torus(v.get("ring_radius", 2.0), v.get("tube_radius", 1.0))
    raise ParameterError("surface", f"unknown surface {name!r}")


def _source(v):
    """Mesh file, named oracle surface, or primitive mesh, in that priority."""
    if v.get("mesh"):
        path = v["mesh"]
        if not os.path.exists(path):
            raise MeshInputError(f"mesh file not found: {path}")
        return load_mesh(path)
    if v.get("surface"):
        return _surface(v)
    return make_primitive(_primitive_spec(v))


def _out(v, name):
    os.makedirs(v["out"], exist_ok=True)
    return os.path.join(v["out"], name)


# -- subcommand bodies ------------------------------------------------------------

def _cmd_mesh_make(v):
    mesh = make_primitive(_primitive_spec(v))
    path = _out(v, v["mesh_out"])
    save_mesh(mesh, path)
    d = validate(mesh)
    write_json(_out(v, "mesh_make_summary.json"), {
        "file": v["mesh_out"], "n_vertices": mesh.n_vertices,
        "n_faces": mesh.n_faces, "euler_characteristic": d.euler_characteristic,
        "closed": d.closed, "boundary_loops": d.boundary_loops,
        "valid": d.ok, "integrals": mesh_integrals(mesh)})
    return EXIT_OK


def _cmd_energy_eval(v):
    source = _source(v)
    grid = None
    if not hasattr(source, "vertices"):
        grid = QuadratureGrid.for_surface(source, v["quad_u"], v["quad_v"])
    report = evaluate_energies(source, _params(v), grid=grid)
    write_json(_out(v, "energy_summary.json"), report.to_json_dict(), report.counters)
    return EXIT_OK


def _cmd_residual(v):
    source = _source(v)
    meta = {}
    if hasattr(source, "vertices"):
        bundle = curvature_bundle(source)       # one pass for both tables
        field = _mesh_residual(source, bundle, _params(v))
        _write_bundle_csv(source, bundle, _out(v, "curvature_bundle.csv"))
        meta = bundle.counters()
    else:
        grid = QuadratureGrid.for_surface(source, v["quad_u"], v["quad_v"])
        field = el_residual(source, _params(v), grid=grid)
    field.to_csv(_out(v, "residual.csv"))
    write_json(_out(v, "residual_summary.json"), {
        "l2": field.l2, "linf": field.linf, "rms": field.rms,
        "source": field.source_kind,
        "interior_points": int(field.interior.sum())}, meta)
    return EXIT_OK


def _write_bundle_csv(mesh, b, path):
    write_csv(path, ["vertex", "area", "mean_curvature", "gauss_curvature",
                     "tracefree_sq", "interior", "nx", "ny", "nz"],
              [np.arange(mesh.n_vertices), b.vertex_area, b.mean_curvature,
               b.gauss_curvature, b.tracefree_sq, b.interior, *b.normal.T])


def _cmd_gradient_check(v):
    mesh = make_primitive(_primitive_spec(v))
    rep = gradient_check(mesh, _params(v), n_fields=v["n_fields"], seed=v["seed"])
    header = ["field", "area_rel", "volume_rel", "full_rel"]
    write_csv(_out(v, "gradient_check.csv"), header,
              [[r[k] for r in rep.per_field] for k in header])
    write_json(_out(v, "gradient_check_summary.json"), rep.to_json_dict())
    return EXIT_OK


def _variation_fields(seed):
    rng = np.random.default_rng(seed)
    fields = [AmbientField.constant(1.0),
              AmbientField.polynomial(quad=np.diag([0.0, 0.0, 1.0]), name="z^2")]
    for k in range(3):
        fields.append(AmbientField.polynomial(
            linear=rng.uniform(-1, 1, 3), quad=rng.uniform(-0.5, 0.5, (3, 3)),
            name=f"random_poly_{k}"))
    return fields


def _cmd_variation_check(v):
    surf = _surface(v)
    params = _params(v)
    fields = _variation_fields(v["seed"])
    rows = []
    worst = 0.0
    for fld in fields:
        rep = variation_check(surf, params, fld, h=v["step"])
        worst = max(worst, rep.max_rel_error())
        rows += [(fld.name, name, row.formula, row.fd_richardson, row.rel_error)
                 for name, row in rep.rows.items()]
    write_csv(_out(v, "variation_check.csv"),
              ["field", "functional", "formula", "fd_richardson", "rel_error"],
              zip(*rows))
    write_json(_out(v, "variation_check_summary.json"), {
        "surface": surf.name, "max_rel_error": worst,
        "n_fields": len(fields), "step": v["step"]})
    return EXIT_OK if worst <= 1e-6 else EXIT_FAIL


def _cmd_identity_check(v):
    rng = np.random.default_rng(v["seed"])
    rep = identity_check(principal_pairs=rng.uniform(-3, 3, (v["samples"], 2)))
    write_json(_out(v, "identity_check_summary.json"), {
        "n_principal_samples": rep.n_principal_samples,
        "max_cubic_identity_dev": rep.max_cubic_identity_dev,
        "max_gauss_relation_dev": rep.max_gauss_relation_dev,
        "max_tracefree_relation_dev": rep.max_tracefree_relation_dev,
        "max_codazzi_gradient_dev": rep.max_codazzi_gradient_dev,
        "surfaces": rep.surfaces_checked})
    return EXIT_OK if rep.max_deviation <= 1e-10 else EXIT_FAIL


def _cmd_estimate_report(v):
    surf = _surface(v)
    center = (v["center_x"], v["center_y"], v["center_z"])
    rep = estimate_report(surf, _params(v), cutoff=(center, v["cutoff_radius"]))
    write_csv(_out(v, "estimate_report.csv"), ["term", "value", "error_estimate"],
              zip(*((k, val, rep.error_estimates[k]) for k, val in rep.terms.items())))
    write_json(_out(v, "estimate_report_summary.json"), {
        "surface": rep.surface, "center": rep.center,
        "radius": rep.radius, "c_gamma": rep.c_gamma,
        "terms": rep.terms, "note": rep.note})
    return EXIT_OK


def _cmd_scan(v):
    table = radius_scan(_params(v), v["rmin"], v["rmax"], v["n"])
    table.write_csv(_out(v, "scan.csv"))
    write_json(_out(v, "scan_summary.json"), {
        "lam1": v["l1"], "lam2": v["l2"],
        "rho_range": [v["rmin"], v["rmax"]], "n": v["n"],
        "roots": table.roots(), "min_abs_residual": table.min_abs_residual})
    return EXIT_OK


def _cmd_classify(v):
    params = _params(v)
    table = radius_scan(params, v["rmin"], v["rmax"], v["n"])
    verdict = classify_case(params, scan=table,
                            flow_endpoint_radius=v.get("flow_endpoint_radius"))
    table.write_csv(_out(v, "classify_scan.csv"))
    write_verdict_json(verdict, _out(v, "classify_summary.json"))
    return EXIT_OK


def _cmd_flow(v):
    mesh = make_primitive(_primitive_spec(v))
    cfg = FlowConfig(mode=v["mode"], initial_step=v["initial_step"],
                     max_iterations=v["max_iterations"], grad_tol=v["grad_tol"],
                     log_every=v["log_every"])
    trace = flow_run(mesh, _params(v), cfg)
    trace.write_csv(_out(v, "flow_trace.csv"))
    trace.write_json(_out(v, "flow_summary.json"))
    return EXIT_OK


def _cmd_verify(v):
    only = None
    if v.get("only"):
        only = [s.strip() for s in v["only"].split(",") if s.strip()]
    results = acceptance.run_all(only=only)
    all_pass = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_pass &= r.passed
        print(f"[{mark}] {r.id} {r.name}: {r.detail} ({r.elapsed:.1f}s)")
    write_json(_out(v, "verify_summary.json"), {
        "all_pass": all_pass,
        "criteria": [{"id": r.id, "name": r.name, "passed": r.passed,
                      "detail": r.detail} for r in results]},
        meta={"elapsed_s": {r.id: r.elapsed for r in results}})
    return EXIT_OK if all_pass else EXIT_FAIL


HANDLERS = {
    "mesh-make": _cmd_mesh_make,
    "energy-eval": _cmd_energy_eval,
    "residual": _cmd_residual,
    "gradient-check": _cmd_gradient_check,
    "variation-check": _cmd_variation_check,
    "identity-check": _cmd_identity_check,
    "estimate-report": _cmd_estimate_report,
    "scan": _cmd_scan,
    "classify": _cmd_classify,
    "flow": _cmd_flow,
    "verify": _cmd_verify,
}


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_BADINPUT if e.code not in (0, None) else EXIT_OK
    try:
        values = _resolve(args, args.command)
        t0 = time.perf_counter()
        code = HANDLERS[args.command](values)
        if code == EXIT_OK:
            print(f"{args.command}: ok ({time.perf_counter() - t0:.1f}s)")
        return code
    except (ParameterError, MeshInputError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BADINPUT
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_FAIL
    except HelfrichError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
