"""CLI workload: ``estimate``, ``calibrate`` and ``classify`` at p = 4096, N = 200.

Each command runs as a fresh ``python -m eddr.cli`` process on CSV files
made here from the seed with plain numpy (a banded Gaussian, no eddr
code), so a change to eddr's sampler never changes these inputs.  One job
is a session of the three commands, one after another.  Every output is
checked against a numpy reference built from the same arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

from eddr.estimators import (
    a1_from_traces,
    a2_from_traces,
    a3_from_traces,
    a4_from_traces,
    delta0_from_stats,
    delta1_from_stats,
    delta2_from_stats,
    delta3_from_stats,
)
from scipy.special import ndtri

from procs import child_env, run_process, setup_times
from tracing import read_spans, self_times

P, N1, N2, QUERY_ROWS = 4096, 120, 80, 2000
BAND = 10  # the covariance is banded: entries vanish beyond this lag
SHIFT = 0.06  # per-coordinate mean of group 1; group 2 has mean 0
ALPHA = 0.1
COMMANDS = {
    "estimate": ["estimate", "{g1}", "{g2}"],
    # M1, not M2: the M2 law's plug-in variance comes out negative on about one
    # seed in five (wrong cross-covariance in wishart.cov_delta01, ROADMAP item 1)
    "calibrate": ["calibrate", "{g1}", "{g2}", "--method", "m1", "--alpha", str(ALPHA)],
    "classify": ["classify", "{g1}", "{g2}", "{query}", "--method", "m1", "--alpha", str(ALPHA),
                 "--out", "{labels}"],
}
#: Relative tolerance of every reference comparison.  The reference uses
#: the dual Gram matrix and a vectorised score, so it rounds differently
#: from the program; observed gaps are below 1e-12 of the compared scale.
REL_TOL = 1e-8
TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracing.py")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def banded_gaussian(rng: np.random.Generator, rows: int, p: int, mean: float) -> np.ndarray:
    """Rows x_j = sum_k 2^-k z_{j+k}: a moving average with bandwidth BAND."""
    z = rng.standard_normal((rows, p + BAND))
    x = np.zeros((rows, p))
    for k in range(BAND + 1):
        x += 0.5**k * z[:, k:k + p]
    return x + mean


def make_data(seed: int, p: int = P, n1: int = N1, n2: int = N2, rows: int = QUERY_ROWS):
    rng = np.random.default_rng(np.random.SeedSequence([seed, p, n1, n2, rows]))
    x1 = banded_gaussian(rng, n1, p, SHIFT)
    x2 = banded_gaussian(rng, n2, p, 0.0)
    query = np.vstack([banded_gaussian(rng, rows // 2, p, SHIFT),
                       banded_gaussian(rng, rows - rows // 2, p, 0.0)])
    return x1, x2, query


def csv_text(a: np.ndarray) -> str:
    """Shortest round-trip decimal text, so the program reads back ``a`` exactly."""
    return "\n".join(",".join(map(repr, row)) for row in a.tolist()) + "\n"


def write_inputs(workdir: str, arrays: dict) -> tuple[dict, str, dict]:
    """Write one CSV per array; returns paths, a SHA-256 of all bytes, and sizes."""
    digest = hashlib.sha256()
    paths, sizes = {}, {}
    for name, a in arrays.items():
        data = csv_text(a).encode("ascii")
        digest.update(data)
        paths[name] = os.path.join(workdir, f"{name}.csv")
        sizes[paths[name]] = len(data)
        with open(paths[name], "wb") as fh:
            fh.write(data)
    return paths, digest.hexdigest(), sizes


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def reference(x1: np.ndarray, x2: np.ndarray) -> dict:
    """The eight estimates, u0, v0 and the M1 cut-off, via the dual Gram matrix.

    With C the stacked centred rows and G = C C', tr S^k = tr G^k / n^k and,
    for w = C d, d'S d = |w|^2/n, d'S^2 d = w'G w/n^2, d'S^3 d = |G w|^2/n^3.
    """
    n1, n2, p = x1.shape[0], x2.shape[0], x1.shape[1]
    n = n1 + n2 - 2
    xbar1, xbar2 = x1.mean(axis=0), x2.mean(axis=0)
    c = np.vstack([x1 - xbar1, x2 - xbar2])
    g = c @ c.T
    g2 = g @ g
    t1 = np.trace(g) / n
    t2 = np.vdot(g, g) / n**2
    t3 = np.vdot(g2, g) / n**3
    t4 = np.vdot(g2, g2) / n**4
    d = xbar1 - xbar2
    w = c @ d
    gw = g @ w
    q0, q1, q2, q3 = d @ d, w @ w / n, w @ gw / n**2, gw @ gw / n**3
    a1 = a1_from_traces(t1, p)
    a2 = a2_from_traces(t1, t2, n, p)
    a3 = a3_from_traces(t1, t2, t3, n, p)
    a4 = a4_from_traces(t1, t2, t3, t4, n, p)
    d0 = delta0_from_stats(q0, a1, n1, n2, p)
    d1 = delta1_from_stats(q1, a2, n1, n2, p)
    d2 = delta2_from_stats(q2, d1, a1, a2, a3, n, n1, n2, p)
    d3 = delta3_from_stats(q3, d1, d2, a1, a2, a3, a4, n, n1, n2, p)
    u0 = -d0 / 2.0
    v0 = d1 + (n1 + n2) * p * a2 / (n1 * n2)
    ref = {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "delta0": d0, "delta1": d1,
           "delta2": d2, "delta3": d3, "u0": u0, "v0": v0}
    ref = {k: float(v) for k, v in ref.items()}
    # each estimate is its raw statistic minus bias corrections, so rounding
    # errors scale with the raw statistic, not with the (possibly tiny) result
    raw = {"a1": t1 / p, "a2": t2 / p, "a3": t3 / p, "a4": t4 / p, "delta0": q0, "delta1": q1,
           "delta2": q2, "delta3": q3, "u0": q0, "v0": q1 + (n1 + n2) * t2 / (n1 * n2)}
    ref["scale"] = {k: max(abs(ref[k]), float(raw[k])) for k in raw}
    ref.update(n1=n1, n2=n2, p=p, n=n, xbar1=xbar1, xbar2=xbar2,
               bias=(n1 - n2) / (n1 * n2) * float(t1),
               cutoff=float(np.sqrt(v0) * ndtri(ALPHA) - u0))
    return ref


def reference_scores(query: np.ndarray, ref: dict) -> tuple[np.ndarray, np.ndarray]:
    """Bias-corrected scores and a per-row rounding scale, vectorised."""
    xbar1, xbar2 = ref["xbar1"], ref["xbar2"]
    scores = 2.0 * query @ (xbar1 - xbar2) + xbar2 @ xbar2 - xbar1 @ xbar1 - ref["bias"]
    scale = (np.einsum("ij,ij->i", query, query) + xbar1 @ xbar1 + xbar2 @ xbar2
             + abs(ref["bias"]))
    return scores, scale


def _mismatches(out: dict, ref: dict, keys) -> list[str]:
    scale = ref["scale"]
    return [f"{k}: {out.get(k)!r} != reference {ref[k]!r}" for k in keys
            if not (isinstance(out.get(k), float) and abs(out[k] - ref[k]) <= REL_TOL * scale[k])]


def check_estimate(text: str, ref: dict) -> list[str]:
    """Problems with an ``estimate`` JSON output; empty when it matches."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"estimate output is not JSON: {exc}"]
    problems = [f"{k}: {out.get(k)!r} != {ref[k]}" for k in ("n1", "n2", "p", "n")
                if out.get(k) != ref[k]]
    return problems + _mismatches(out, ref, ref["scale"])


def check_calibrate(text: str, ref: dict) -> list[str]:
    """Problems with an M1 ``calibrate`` output; the cut-off is sqrt(v0) z_alpha - u0."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"calibrate output is not JSON: {exc}"]
    problems = _mismatches(out, ref, ("a1", "u0", "v0"))
    if out.get("variant_used") != "m1":
        problems.append(f"variant {out.get('variant_used')!r} != 'm1'")
    scale = ref["scale"]
    tol = REL_TOL * (np.sqrt(scale["v0"]) * abs(ndtri(ALPHA)) + scale["u0"])
    if not (isinstance(out.get("c"), float) and abs(out["c"] - ref["cutoff"]) <= tol):
        problems.append(f"c: {out.get('c')!r} != reference {ref['cutoff']!r}")
    return problems


def check_classify(text: str, query: np.ndarray, ref: dict) -> list[str]:
    """Labels and scores against the reference with cut-off sqrt(v0) z_alpha - u0."""
    want, scale = reference_scores(query, ref)
    lines = text.splitlines()
    if len(lines) != len(want):
        return [f"{len(lines)} output rows for {len(want)} queries"]
    problems = []
    threshold = 2.0 * ref["cutoff"]
    for i, line in enumerate(lines):
        try:
            label_text, score_text = line.split(",")
            label, score = int(label_text), float(score_text)
        except ValueError:
            problems.append(f"row {i + 1}: cannot parse {line!r}")
            continue
        tol = REL_TOL * scale[i]
        if abs(score - want[i]) > tol:
            problems.append(f"row {i + 1}: score {score!r} != reference {want[i]!r}")
        if abs(want[i] - threshold) > tol + REL_TOL * abs(threshold):
            expected = 1 if want[i] > threshold else 2
            if label != expected:
                problems.append(f"row {i + 1}: label {label} != reference {expected}")
    return problems


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

class _Session:
    """Runs the three commands and checks their outputs."""

    def __init__(self, workdir: str, paths: dict, env: dict, query: np.ndarray, ref: dict):
        self.workdir, self.paths, self.env = workdir, paths, env
        self.query, self.ref = query, ref
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0

    def command(self, name: str, traced: bool) -> tuple[float, str | None]:
        fields = dict(self.paths, labels=os.path.join(self.workdir, "labels.csv"))
        args = [a.format(**fields) for a in COMMANDS[name]]
        out_path = os.path.join(self.workdir, f"{name}.out")
        spans_path = os.path.join(self.workdir, f"{name}.spans.json")
        if traced:
            argv = [sys.executable, TRACER, spans_path, *args]
        else:
            argv = [sys.executable, "-m", "eddr.cli", *args]
        if os.path.exists(fields["labels"]):
            os.unlink(fields["labels"])
        wall, code, rss = run_process(argv, self.env, out_path)
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if code != 0:
            self.failed += 1
            with open(out_path + ".err", "r", encoding="utf-8", errors="replace") as fh:
                message = fh.read().strip().splitlines()[-1:] or [""]
            self.problems.append(f"{name} exited {code}: {message[0]}")
            return wall, None
        if name == "classify":
            with open(fields["labels"], "r", encoding="ascii") as fh:
                found = check_classify(fh.read(), self.query, self.ref)
        else:
            with open(out_path, "r", encoding="utf-8") as fh:
                text = fh.read()
            found = (check_estimate if name == "estimate" else check_calibrate)(text, self.ref)
        self.problems.extend(f"{name}: {p}" for p in found[:5])
        return wall, spans_path if traced else None

    def run(self, traced: bool) -> tuple[dict, dict]:
        walls, spans = {}, {}
        for name in COMMANDS:
            walls[name], spans[name] = self.command(name, traced)
        return walls, spans


def run(seed: int, seconds: float, trace: bool, src: str, workdir: str) -> dict:
    x1, x2, query = make_data(seed)
    paths, digest, sizes = write_inputs(workdir, {"g1": x1, "g2": x2, "query": query})
    ref = reference(x1, x2)
    env = child_env(src)
    setup, setup_rss = setup_times([sys.executable, "-c", "import eddr.cli"], env, workdir)
    session = _Session(workdir, paths, env, query, ref)

    sessions, traced_sessions = [], []
    start = time.perf_counter()
    while True:
        sessions.append(session.run(traced=False)[0])
        if trace:
            traced_sessions.append(session.run(traced=True))
        elapsed = time.perf_counter() - start
        # start another session only if it is expected to end within the budget
        if elapsed * (len(sessions) + 1) / len(sessions) > seconds:
            break

    ok = not session.problems
    notes = session.problems[:20] or [
        f"{len(sessions) + len(traced_sessions)} sessions: exit codes, estimate, calibrate and "
        f"classify outputs match the reference (rel tol {REL_TOL:g})"]
    per_command = {c: [s[c] for s in sessions] for c in COMMANDS}
    report = {f"{c}_s": (statistics.median(v), "s", len(v)) for c, v in per_command.items()}
    report.update({
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "best_job_s": (min(sum(s.values()) for s in sessions), "s", len(sessions)),
        "peak_rss_mb": (max(session.peak_rss_mb, setup_rss), "MB", session.attempted),
        "failed_frac": (session.failed / session.attempted, "ratio", session.attempted),
    })
    out = {"correct": ok, "attempted": session.attempted, "failed": session.failed,
           "notes": notes, "report": report, "inputs_sha256": digest}
    if not trace:
        out["metrics"] = {k: report[k][0] for k in ("setup_s", "best_job_s", "peak_rss_mb")}
        return out

    spans, metrics = _layer_metrics(sessions, traced_sessions, paths, sizes)
    out["spans"] = spans
    out["metrics"] = metrics
    return out


def _layer_metrics(sessions, traced_sessions, paths, sizes) -> tuple[list, dict]:
    """Layer totals over the first traced session, which follows untraced session 0."""
    walls, span_files = traced_sessions[0]
    totals: dict[str, float] = {}
    read_bytes = 0
    cli_self = 0.0
    all_spans = []
    for name, path in span_files.items():
        if path is None:
            continue
        spans = read_spans(path)
        all_spans.extend(s._replace(tag=f"{name}:{s.tag}") for s in spans)
        own = self_times(spans)
        cli_self += walls[name] - sum(own)
        for s in spans:
            key = s.name
            if s.name == "dataio.read_matrix_csv":
                key = "read_query" if s.tag == paths["query"] else "read_train"
                read_bytes += sizes[s.tag]
            totals[key] = totals.get(key, 0.0) + s.duration
    untraced, traced = sum(sessions[0].values()), sum(walls.values())
    read_s = totals.get("read_train", 0.0) + totals.get("read_query", 0.0)
    metrics = {
        "dataio.read_train_ms": 1e3 * totals.get("read_train", 0.0),
        "dataio.read_query_ms": 1e3 * totals.get("read_query", 0.0),
        "dataio.parse_mb_per_s": read_bytes / 1e6 / read_s if read_s > 0 else 0.0,
        "core.pooled_summary_ms": 1e3 * totals.get("core.pooled_summary", 0.0),
        "estimators.estimate_all_ms": 1e3 * totals.get("estimators.estimate_all", 0.0),
        "calibration.calibrate_ms": 1e3 * totals.get("calibration.calibrate", 0.0),
        "error_model.asymptotic_law_ms": 1e3 * totals.get("error_model.asymptotic_law", 0.0),
        "core.classify_rows_ms": 1e3 * (totals.get("core.classify", 0.0)
                                        + totals.get("core.discriminant_score", 0.0)),
        "cli.self_ms": 1e3 * cli_self,
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    for name in COMMANDS:
        metrics[f"cli.{name}_s"] = statistics.median(s[name] for s in sessions)
    return all_spans, metrics
