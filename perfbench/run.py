#!/usr/bin/env python3
"""Seeded benchmark of the helfrich toolkit.

Run from the repository root; the package is imported from ``src/`` and
nothing is built:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 38 --trace 1 \\
        --out perfbench/baseline.json

NAME is one of the workloads in BENCHMARK.json (``all`` runs each in turn in
this process).  The load is a closed loop: one pass of the workload after
another, each starting when the previous one returns, for S seconds (at
least one pass, and none expected to end past S).  No threads are added;
BLAS runs on one thread and HELFRICH_THREADS is left at its default.

With ``--trace 0`` the last line of output reports the end-to-end metrics:
``setup_s`` (median over several fresh processes of import plus input
generation), ``wall_s`` (median seconds per pass) and ``peak_rss_mb`` (peak
resident memory of this process; with ``all``, the peak so far).  With
``--trace 1`` half the time runs untraced as above and half runs with the
package's functions wrapped (see tracing.py and layers.py); the last line then
reports the per-layer metrics, including the tracing overhead.  Every pass
checks its outputs (workloads.py); failures are counted in ``failed``.
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here: imports, then inputs

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

# workloads and layers import helfrich, so they are imported after import_package().

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_threads():
    """Run BLAS on one thread and leave HELFRICH_THREADS at its default.

    One thread is within the nproc cap; on a 2-core machine it made pass
    times steadier than two threads, whose idle workers spin.  Runs before
    numpy is imported; setup probes inherit the environment.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("HELFRICH_THREADS", None)


def import_package():
    src = ROOT / "src"
    if not (src / "helfrich" / "__init__.py").is_file():
        sys.exit(f"error: helfrich sources not found under {src}")
    sys.path.insert(0, str(src))
    import helfrich
    if Path(helfrich.__file__).resolve().parent != (src / "helfrich").resolve():
        sys.exit(f"error: imported helfrich from {helfrich.__file__}, not {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write every result and the run metadata here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- run metadata ------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    """Cache sizes of CPU 0 as the kernel reports them, e.g. {'L2': '2048K'}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def _commit():
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata():
    import numpy
    import scipy
    from helfrich import flow

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "helfrich_threads": (flow.thread_count() if hasattr(flow, "thread_count")
                             else "n/a"),
        "commit": _commit(),
    }


# -- measurement -------------------------------------------------------------

def setup_probe(name, seed):
    """Import plus input generation in a fresh process: (seconds, digest)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"error: setup probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["inputs"]


def measure(pass_fn, inputs, seconds, tracer, gates, workdir):
    """Closed loop of passes for `seconds`: at least one, and no pass that
    would, at the median pace so far, end after the deadline.

    Returns the wall time of each pass and, when traced, each pass's
    (stats, counters).
    """
    tr = tracer or tracing.NullTracer()
    walls, passes = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() + statistics.median(walls) <= deadline:
        gc.collect()
        counters = {}
        t0 = time.perf_counter()
        try:
            counters = pass_fn(inputs, tr, gates, workdir)
        except Exception as exc:  # a failing pass is counted; the run goes on
            gates.error(pass_fn.__name__, exc)
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            passes.append((tracer.take(), counters))
    return walls, passes


def _merge(a, b):
    out = {key: list(v) for key, v in a.items()}
    for key, v in b.items():
        acc = out.setdefault(key, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += v[i]
    return out


def run_workload(name, args, workdir, count_metrics):
    import layers
    import workloads

    setup_fn, pass_fn = workloads.WORKLOADS[name]
    gates = workloads.Gates()
    probes = [setup_probe(name, args.seed) for _ in range(SETUP_PROBES)]
    inputs = setup_fn(args.seed, tracing.NullTracer())
    digest = workloads.fingerprint(inputs)
    gates.check("one seed gives bitwise-identical inputs",
                all(d == digest for _, d in probes)
                and workloads.fingerprint(setup_fn(args.seed, tracing.NullTracer()))
                == digest)

    budget = args.seconds / 2 if args.trace else args.seconds
    walls, _ = measure(pass_fn, inputs, budget, None, gates, workdir)
    result = {
        "passes": len(walls),
        "wall_s_per_pass": walls,
        "setup_s_per_probe": [s for s, _ in probes],
        "end_to_end": {
            "setup_s": statistics.median(s for s, _ in probes),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(layers.TARGETS)
        try:
            traced_inputs = setup_fn(args.seed, tracer)
            setup_stats = tracer.take()
            traced_walls, passes = measure(pass_fn, traced_inputs, budget, tracer,
                                           gates, workdir)
        finally:
            tracer.uninstall()
        per_pass = [layers.layer_metrics(_merge(setup_stats, stats), counters)
                    for stats, counters in passes]
        per_layer = {m: (per_pass[0][m] if m in count_metrics  # checked below
                         else statistics.median(p[m] for p in per_pass))
                     for m in per_pass[0]}
        per_layer["bench.trace_overhead_s"] = (statistics.median(traced_walls)
                                               - statistics.median(walls))
        gates.check("traced counts repeat exactly across passes",
                    all(p[m] == per_pass[0][m] for p in per_pass
                        for m in count_metrics))
        result.update(traced_passes=len(passes), traced_wall_s_per_pass=traced_walls,
                      per_layer=per_layer, absent=tracer.absent,
                      not_exercised=sorted(m for m, v in per_layer.items() if v == 0))
    result.update(attempted=gates.attempted, failed=len(gates.failures),
                  failures=gates.failures)
    return result


# -- reporting ---------------------------------------------------------------

def print_summary(name, res, units):
    walls = res["wall_s_per_pass"]
    print(f"# {name}: {res['passes']} untraced pass(es) of min {min(walls):.4g} / "
          f"median {statistics.median(walls):.4g} / max {max(walls):.4g} s; "
          f"setup_s is the median over {len(res['setup_s_per_probe'])} fresh "
          f"processes")
    for kind in ("end_to_end", "per_layer"):
        for metric, value in res.get(kind, {}).items():
            print(f"#   {metric} = {value:.6g} {units[metric]}")
    if res.get("absent"):
        print(f"#   absent (reported as 0): {', '.join(res['absent'])}")
    print(f"#   gates: {res['attempted']} attempted, {res['failed']} failed")
    for failure in res["failures"]:
        print(f"#   FAILED {failure}")


def final_line(results, bench, trace):
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    metrics = {}
    for name, res in results.items():
        if set(res[kind]) != set(units):
            raise RuntimeError(f"{name}: metrics {sorted(set(res[kind]) ^ set(units))} "
                               f"do not match BENCHMARK.json")
        prefix = f"{name}." if len(results) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": res[kind][metric], "unit": unit}
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    limit_threads()
    import_package()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)} or 'all'")
    if args.setup_probe:
        inputs = workloads.WORKLOADS[args.workload][0](args.seed, tracing.NullTracer())
        print(json.dumps({"setup_s": time.perf_counter() - _T0,
                          "inputs": workloads.fingerprint(inputs)}))
        return
    if args.seconds is None or not args.seconds > 0:
        sys.exit("error: --seconds must be given and positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    count_metrics = [m for m, unit in units.items() if unit == "count"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    meta = run_metadata()
    print("# meta " + json.dumps(meta, sort_keys=True))

    results = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as workdir:
        for name in names:
            results[name] = run_workload(name, args, workdir, count_metrics)
            print_summary(name, results[name], units)

    if args.out:
        record = {"meta": meta, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "results": results}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(final_line(results, bench, args.trace)))


if __name__ == "__main__":
    main()
