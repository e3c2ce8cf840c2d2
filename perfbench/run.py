"""eddr benchmark: Monte Carlo throughput and CLI latency on both sides of p = N.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-m1-p1024 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` is a separate run that records spans around the calls into
each eddr module and reports the per-layer metrics.  The workloads, the
metrics and their bounds are listed in ``BENCHMARK.json``; which layer
metric should move which end-to-end metric is in ``perfbench/layers.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give the environment, the correctness notes and every end-to-end
figure with its unit and sample count.  The full record, including the
spans of a traced run, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import multiprocessing
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim-m1-p1024", "sim-m2-p64", "cli-p4096")
#: Figures printed for a person reading the run; the gated subset is in BENCHMARK.json.
REPORT_ORDER = ("setup_s", "best_job_s", "trials_per_s", "trials_per_s_par", "estimate_s",
                "calibrate_s", "classify_s", "peak_rss_mb", "failed_frac")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "EDDR_WORKERS")


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_metrics(spec: dict, trace: bool, metrics: dict) -> dict:
    """``metrics`` as ``{name: {value, unit}}`` in BENCHMARK.json order.

    A traced run reports 0 for a layer the workload never calls.  Any
    name that BENCHMARK.json does not list, or a missing end-to-end
    metric, is an error.
    """
    section = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in section]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {unknown}")
    missing = [n for n in names if n not in metrics]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    return {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in section}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, read from the library itself."""
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _prepare_import(root: str) -> str:
    """Put the checkout's ``src`` first on sys.path; refuse to run without it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "eddr", "__init__.py")):
        raise SystemExit(f"perfbench: no eddr sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import eddr

    if not os.path.abspath(eddr.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported eddr from {eddr.__file__}, not from {src}")
    return src


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str, src: str) -> dict:
    workdir = os.path.join(root, ".perfbench_out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if name.startswith("sim-"):
            import sims

            return sims.run(name, seed, seconds, trace, src, workdir)
        import cli_workload

        return cli_workload.run(seed, seconds, trace, src, workdir)
    finally:
        shutil.rmtree(workdir)


def _print_report(name: str, result: dict) -> None:
    if "inputs_sha256" in result:
        print(f"{name}: inputs sha256 {result['inputs_sha256']}")
    for note in result["notes"]:
        print(f"{name}: check: {note}")
    for key in REPORT_ORDER:
        if key in result["report"]:
            value, unit, count = result["report"][key]
            print(f"{name}: {key} = {value:.6g} {unit} (n={count})")


def _write_record(root: str, name: str, seed: int, trace: bool, record: dict) -> str:
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    spans = record.pop("spans", [])
    record["spans"] = [s._asdict() for s in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    spec = load_spec(root)
    if tuple(w["name"] for w in spec["workloads"]) != WORKLOADS:
        raise SystemExit("perfbench: BENCHMARK.json workloads differ from perfbench/run.py")
    src = _prepare_import(root)
    trace = bool(args.trace)

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        t0 = time.perf_counter()
        result = run_workload(name, args.seed, args.seconds, trace, root, src)
        metrics = check_metrics(spec, trace, result.pop("metrics"))
        _print_report(name, result)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": trace,
                  "environment": env, "wall_s": time.perf_counter() - t0, **result,
                  "metrics": metrics}
        print(f"{name}: record written to {_write_record(root, name, args.seed, trace, record)}")
        summary["correct"] = summary["correct"] and bool(result["correct"])
        summary["attempted"] += int(result["attempted"])
        summary["failed"] += int(result["failed"])
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update({f"{name}/{k}": v for k, v in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
