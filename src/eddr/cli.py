"""Command-line front end.

Subcommands
-----------
estimate        print the eight spectral/signal estimates for two training CSVs
calibrate       compute a cut-off from two training CSVs
classify        score and label query points
simulate        Monte Carlo study over an (N, p) grid, CSV + JSON sidecar
verify-moments  self-check of the closed-form Wishart moments

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical
infeasibility (including failed verification).

estimate, calibrate and classify pin OpenBLAS to one thread (see
eddr.threads), so their output bits do not depend on its thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .calibration import (
    DEFAULT_LOGIT_VARIANCE,
    DEFAULT_M2_ANCHOR,
    LOGIT_VARIANCE_CONVENTIONS,
    M2_ANCHORS,
    CutoffRequest,
    CutoffVariant,
    calibrate,
)
# classify is not called here: perfbench's traced run wraps eddr.cli.classify by name
from .core import PI1, PI2, classify, discriminant_score, pooled_summary  # noqa: F401
from .dataio import format_table_value, read_matrix_csv, write_text_atomic
from .error_model import limit_values
from .estimators import a1_from_traces, estimate_all
from .exceptions import (
    CalibrationInfeasibleError,
    DataFormatError,
    DimensionError,
    EddrError,
    NotPositiveDefiniteError,
    SimulationError,
)
from .simulate import (
    SimConfig,
    attained_confidence_level,
    attained_error_rate,
    make_population,
    pool_size,
    run_simulation,
)
from .threads import cores, one_blas_thread, openblas
from .verify import mc_moment_suite, scalar_reduction_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

#: Allowed values of the flags and ``simulate`` config keys that take a choice.
_CHOICES = {
    "method": tuple(v.value for v in CutoffVariant),
    "logit_variance": LOGIT_VARIANCE_CONVENTIONS,
    "anchor": M2_ANCHORS,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_training(args) -> tuple:
    x1 = read_matrix_csv(args.train1, skip_header=args.skip_header)
    x2 = read_matrix_csv(args.train2, skip_header=args.skip_header)
    return pooled_summary(x1, x2)


def _require_out_dir(out: str, path: str) -> None:
    """Outputs are written after all the work: a missing directory for ``path`` must fail first."""
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        raise FileNotFoundError(f"--out {out!r}: directory {out_dir!r} does not exist")


def _request_from_args(settings: dict) -> CutoffRequest:
    """The request of the ``method`` flags or config keys; M1 ignores the M2 knobs."""
    method, alpha, eu, beta = (settings.get(k) for k in ("method", "alpha", "eu", "beta"))
    if method == "m1":
        if alpha is None:
            raise UsageError("--alpha is required for method m1")
        return CutoffRequest.m1(alpha)
    if eu is None or beta is None:
        raise UsageError(f"--eu and --beta are required for method {method}")
    make = CutoffRequest.m2_normal if method == "m2-normal" else CutoffRequest.m2_logit
    return make(eu, beta, anchor=settings.get("anchor"),
                logit_variance=settings.get("logit_variance"))


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

@one_blas_thread(helper=False)
def cmd_estimate(args) -> int:
    summary = _load_training(args)
    est = estimate_all(summary)
    u0, v0 = limit_values(est.d0, est.d1, est.a2, summary)
    values = {
        "a1": est.a1,
        "a2": est.a2,
        "a3": est.a3,
        "a4": est.a4,
        "delta0": est.d0,
        "delta1": est.d1,
        "delta2": est.d2,
        "delta3": est.d3,
        "u0": u0,
        "v0": v0,
        "n1": summary.n1,
        "n2": summary.n2,
        "p": summary.p,
        "n": summary.n,
    }
    if args.format == "csv":
        keys = list(values)
        print(",".join(keys))
        print(",".join(str(values[k]) for k in keys))
    else:
        print(json.dumps(values, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

@one_blas_thread(helper=False)
def cmd_calibrate(args) -> int:
    request = _request_from_args(vars(args))
    summary = _load_training(args)
    res = calibrate(summary, request)
    if res.fell_back:
        print("note: normal-scale percentile left (0,1); used the logit variant", file=sys.stderr)
    payload = {
        "c": res.c,
        "variant_used": res.variant_used.value,
        "gamma": res.gamma,
        "fell_back": res.fell_back,
        "e0": request.alpha if res.law is None else res.law.e0,
        "tau2": None if res.law is None else res.law.tau2,
        "a1": a1_from_traces(float(summary.t1), summary.p),
        "u0": res.limit.u0,
        "v0": res.limit.v0,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

@one_blas_thread(helper=False)
def cmd_classify(args) -> int:
    if args.cutoff is None:
        if args.method is None:
            raise UsageError("classify needs either --cutoff or --method with its parameters")
        request = _request_from_args(vars(args))
    elif not math.isfinite(args.cutoff):
        raise UsageError(f"--cutoff must be finite, got {args.cutoff}")
    if args.out:
        _require_out_dir(args.out, args.out)
    summary = _load_training(args)
    query = read_matrix_csv(args.query, skip_header=args.skip_header)
    if args.cutoff is not None:
        c = args.cutoff
    else:
        c = calibrate(summary, request).c
    lines = []
    if query.size:
        if query.shape[1] != summary.p:
            raise DimensionError(
                f"query has {query.shape[1]} columns, training has {summary.p}"
            )
        threshold = 2.0 * c  # core.classify's rule: group 1 iff the score exceeds 2c
        for row in query:
            score = discriminant_score(row, summary)
            lines.append(f"{PI1 if score > threshold else PI2},{score!r}")
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for i, raw in enumerate(fh):
            try:
                raw.encode("utf-8")  # undecodable bytes came in as lone surrogates
            except UnicodeEncodeError:
                raise DataFormatError(f"{path}: line {i + 1}: not UTF-8 text") from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}: line {i + 1}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = value
    return out


#: Each ``simulate`` setting, one per flag and config key: its type and its
#: default, None where it has none.  The manifest records the M2 knobs'
#: values, also for m1.
_SIM_KEYS = {
    "n_grid": (str, None), "p_grid": (str, None), "n1": (int, None),
    "n2": (int, None), "rho": (float, 0.0), "bandwidth": (int, SimConfig.bandwidth),
    "reps": (int, 20000), "seed": (int, None), "method": (str, None),
    "alpha": (float, None), "eu": (float, None), "beta": (float, None),
    "workers": (int, None), "logit_variance": (str, DEFAULT_LOGIT_VARIANCE),
    "anchor": (str, DEFAULT_M2_ANCHOR), "out": (str, "simulation"),
}


def _resolve_sim_settings(args) -> dict:
    """The defaults, overridden by the config file, overridden by the flags."""
    settings = {key: default for key, (_, default) in _SIM_KEYS.items() if default is not None}
    if args.config:
        raw = _parse_config_file(args.config)
        for key, value in raw.items():
            if key not in _SIM_KEYS:
                raise DataFormatError(f"{args.config}: unknown key {key!r}")
            kind = _SIM_KEYS[key][0]
            try:
                settings[key] = kind(value)
            except ValueError:
                raise UsageError(f"{args.config}: {key} must be of type "
                                 f"{kind.__name__}, got {value!r}") from None
            if key in _CHOICES and settings[key] not in _CHOICES[key]:
                raise UsageError(
                    f"{args.config}: {key} must be one of {', '.join(_CHOICES[key])}, "
                    f"got {value!r}"
                )
    for key in _SIM_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    return settings


def _int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise UsageError(f"{flag} is empty, got {text!r}")
    return values


def _env_workers() -> int:
    """Worker count from the ``EDDR_WORKERS`` environment variable, 1 when unset."""
    text = os.environ.get("EDDR_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"EDDR_WORKERS must be a positive integer, got {text!r}")
    return workers


def cmd_simulate(args) -> int:
    settings = _resolve_sim_settings(args)
    for required in ("seed", "method"):
        if required not in settings:
            raise UsageError(f"simulate needs --{required.replace('_', '-')}")
    request = _request_from_args(settings)

    if "n1" in settings or "n2" in settings:
        if not ("n1" in settings and "n2" in settings):
            raise UsageError("give both n1 and n2, or use --n-grid")
        cells_n = [(settings["n1"], settings["n2"])]
    else:
        if "n_grid" not in settings:
            raise UsageError("simulate needs --n-grid (total sizes) or n1/n2")
        cells_n = []
        for n_total in _int_list(settings["n_grid"], "--n-grid"):
            if n_total % 2 or n_total < 4:
                raise UsageError(f"total N must be even and >= 4, got {n_total}")
            cells_n.append((n_total // 2, n_total // 2))
    if "p_grid" not in settings:
        raise UsageError("simulate needs --p-grid")
    p_values = _int_list(settings["p_grid"], "--p-grid")

    workers = settings["workers"] if "workers" in settings else _env_workers()
    out_prefix = settings["out"]
    # every cell is validated before the first one runs
    configs = [
        SimConfig(
            p=p, n1=n1, n2=n2, rho=settings["rho"], bandwidth=settings["bandwidth"],
            reps=settings["reps"], seed=settings["seed"], request=request,
            workers=workers,
        )
        for n1, n2 in cells_n
        for p in p_values
    ]
    _require_out_dir(out_prefix, f"{out_prefix}.csv")
    started = datetime.now(timezone.utc).isoformat()

    cells = []
    populations = {}  # the design depends on p alone within one grid
    for cfg in configs:
        if cfg.p not in populations:
            populations[cfg.p] = make_population(cfg)
        result = run_simulation(cfg, populations[cfg.p])
        ae = attained_error_rate(result.records)
        cell = {
            "n_total": cfg.n1 + cfg.n2, "n1": cfg.n1, "n2": cfg.n2, "p": cfg.p,
            # one trial leaves the standard error undefined: null, not NaN
            "ae": ae.value, "ae_se": ae.se if math.isfinite(ae.se) else None,
            "excluded": result.n_excluded,
            "fell_back": result.n_fell_back,
        }
        if request.variant != CutoffVariant.M1:
            acl = attained_confidence_level(result.records, request.eu)
            cell["acl"] = acl.value
            cell["acl_se"] = acl.se
        cells.append(cell)

    value_key = "ae" if request.variant == CutoffVariant.M1 else "acl"
    csv_lines = ["N," + ",".join(f"p={p}" for p in p_values)]
    # configs, hence cells, run N-major: each CSV row is one run of len(p_values) cells
    for i in range(0, len(cells), len(p_values)):
        row = cells[i:i + len(p_values)]
        csv_lines.append(",".join([str(row[0]["n_total"])]
                                  + [format_table_value(c[value_key]) for c in row]))
    csv_text = "\n".join(csv_lines) + "\n"

    csv_path = f"{out_prefix}.csv"
    sidecar_path = f"{out_prefix}.json"
    manifest_path = f"{out_prefix}.manifest.json"
    write_text_atomic(csv_path, csv_text)
    sidecar = json.dumps({"value": value_key, "cells": cells}, indent=2, allow_nan=False)
    write_text_atomic(sidecar_path, sidecar + "\n")
    # everything needed to reproduce the outputs exactly
    blas = openblas()
    manifest = {
        "command": "simulate",
        "config": {**{k: settings[k] for k in sorted(settings)}, "resolved_workers": workers},
        "seed": settings["seed"],
        "outputs": [csv_path, sidecar_path],
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "versions": {"eddr": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        # unpinned, the bytes of large designs may depend on the BLAS thread count
        "blas": {"library": blas and os.path.basename(blas.path), "pinned": blas is not None},
        # simulate runs unpinned here, so blas_threads is the count outside the
        # pin; the default start method is read without fixing it for the process
        "environment": {"nproc": cores(), "pool_size": pool_size(workers),
                        "start_method": (multiprocessing.get_start_method(allow_none=True)
                                         or multiprocessing.get_all_start_methods()[0]),
                        "blas_threads": blas and blas.get_threads()},
    }
    write_text_atomic(manifest_path, json.dumps(manifest, indent=2) + "\n")
    sys.stdout.write(csv_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-moments
# ---------------------------------------------------------------------------

def cmd_verify_moments(args) -> int:
    if args.suite == "exact":
        if args.n_max < 1:
            raise UsageError(f"--n-max must be at least 1, got {args.n_max}")
        rows = scalar_reduction_suite(n_max=args.n_max)
    else:
        if args.p < 1:
            raise UsageError(f"--p must be at least 1, got {args.p}")
        if args.n < 1:
            raise UsageError(f"--n must be at least 1, got {args.n}")
        if args.draws < 2:
            raise UsageError(f"--draws must be at least 2, got {args.draws}")
        rows = mc_moment_suite(p=args.p, n=args.n, draws=args.draws, seed=args.seed)
    width = max(len(r.name) for r in rows)
    all_ok = True
    for r in rows:
        all_ok &= r.passed
        print(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}")
    if not all_ok:
        raise CalibrationInfeasibleError("moment verification failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_io_flags(sub):
    # absent, the reader decides: a first row that is not all numbers is a header
    sub.add_argument("--skip-header", action="store_const", const=True,
                     help="treat the first row of every CSV as a header")


def _add_method_flags(sub, required=False):
    sub.add_argument("--method", choices=_CHOICES["method"], required=required)
    sub.add_argument("--alpha", type=float, help="target expected error (m1)")
    sub.add_argument("--eu", type=float, help="upper bound on the conditional error (m2)")
    sub.add_argument("--beta", type=float, help="1 - confidence level (m2)")
    sub.add_argument("--logit-variance", choices=_CHOICES["logit_variance"])
    sub.add_argument("--anchor", choices=_CHOICES["anchor"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eddr", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"eddr {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    est = subs.add_parser("estimate", help="spectral and signal-strength estimates")
    est.add_argument("train1")
    est.add_argument("train2")
    est.add_argument("--format", choices=["json", "csv"], default="json")
    _add_io_flags(est)
    est.set_defaults(func=cmd_estimate)

    cal = subs.add_parser("calibrate", help="compute a cut-off")
    cal.add_argument("train1")
    cal.add_argument("train2")
    _add_method_flags(cal, required=True)
    _add_io_flags(cal)
    cal.set_defaults(func=cmd_calibrate)

    cls = subs.add_parser("classify", help="label query points")
    cls.add_argument("train1")
    cls.add_argument("train2")
    cls.add_argument("query")
    cls.add_argument("--cutoff", type=float, help="half-scale cut-off; bypasses calibration")
    cls.add_argument("--out", help="write CSV here instead of stdout")
    _add_method_flags(cls)
    _add_io_flags(cls)
    cls.set_defaults(func=cmd_classify)

    sim = subs.add_parser("simulate", help="Monte Carlo study over an (N, p) grid")
    sim.add_argument("--config", help="flat key = value settings file; flags override")
    sim.add_argument("--n-grid", dest="n_grid", help="comma list of total sample sizes (split evenly)")
    sim.add_argument("--p-grid", dest="p_grid", help="comma list of dimensions")
    sim.add_argument("--n1", type=int)
    sim.add_argument("--n2", type=int)
    sim.add_argument("--rho", type=float)
    sim.add_argument("--bandwidth", type=int)
    sim.add_argument("--reps", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--workers", type=int,
                     help="process count (default: EDDR_WORKERS env var or 1)")
    sim.add_argument("--out", help="output path prefix (default 'simulation')")
    _add_method_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    ver = subs.add_parser("verify-moments", help="check the Wishart moment formulas")
    ver.add_argument("--suite", choices=["exact", "mc"], default="exact")
    ver.add_argument("--n-max", dest="n_max", type=int, default=20,
                     help="exact suite: check degrees of freedom 1..n_max")
    ver.add_argument("--p", type=int, default=3)
    ver.add_argument("--n", type=int, default=10)
    ver.add_argument("--draws", type=int, default=1_000_000)
    ver.add_argument("--seed", type=int, default=20240901)
    ver.set_defaults(func=cmd_verify_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"eddr: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, DimensionError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"eddr: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CalibrationInfeasibleError, NotPositiveDefiniteError, SimulationError) as exc:
        print(f"eddr: infeasible: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EddrError as exc:
        print(f"eddr: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"eddr: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
