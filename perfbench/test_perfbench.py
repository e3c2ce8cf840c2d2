"""Self-tests of the benchmark: its correctness gates and its output contract.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import eddr.cli  # noqa: E402

import cli_workload  # noqa: E402
import run  # noqa: E402
import sims  # noqa: E402
from eddr.calibration import CutoffRequest  # noqa: E402
from tracing import Span, check_closure  # noqa: E402

SMALL = dict(p=48, n1=14, n2=11, rows=40)


def _scratch() -> tempfile.TemporaryDirectory:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = eddr.cli.main(argv)
    assert code == 0, code
    return buf.getvalue()


class CliGateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = _scratch()
        x1, x2, cls.query = cli_workload.make_data(7, **SMALL)
        cls.paths, _, _ = cli_workload.write_inputs(
            cls.tmp.name, {"g1": x1, "g2": x2, "query": cls.query})
        cls.ref = cli_workload.reference(x1, x2)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _args(self, name: str) -> list[str]:
        fields = dict(self.paths, labels=os.path.join(self.tmp.name, "labels.csv"))
        return [a.format(**fields) for a in cli_workload.COMMANDS[name]]

    def test_estimate_matches_and_perturbed_a4_is_rejected(self):
        text = _cli(self._args("estimate"))
        self.assertEqual(cli_workload.check_estimate(text, self.ref), [])
        out = json.loads(text)
        out["a4"] *= 1.0 + 1e-6
        problems = cli_workload.check_estimate(json.dumps(out), self.ref)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith("a4:"))

    def test_calibrate_matches_and_perturbed_v0_or_cutoff_is_rejected(self):
        text = _cli(self._args("calibrate"))
        self.assertEqual(cli_workload.check_calibrate(text, self.ref), [])
        out = json.loads(text)
        for key, value in (("v0", out["v0"] * (1.0 + 1e-6)), ("c", out["c"] * (1.0 + 1e-6)),
                           ("c", None), ("variant_used", "m2-logit")):
            bad = dict(out, **{key: value})
            self.assertNotEqual(cli_workload.check_calibrate(json.dumps(bad), self.ref), [])

    def test_classify_matches_and_flipped_label_is_rejected(self):
        args = self._args("classify")
        _cli(args)
        with open(args[args.index("--out") + 1], encoding="ascii") as fh:
            text = fh.read()
        self.assertEqual(cli_workload.check_classify(text, self.query, self.ref), [])
        lines = text.splitlines()
        label, score = lines[3].split(",")
        lines[3] = f"{3 - int(label)},{score}"
        problems = cli_workload.check_classify("\n".join(lines), self.query, self.ref)
        self.assertEqual(problems, [f"row 4: label {3 - int(label)} != reference {label}"])
        lines = text.splitlines()
        label, score = lines[5].split(",")
        lines[5] = f"{label},{float(score) * (1 + 1e-6)!r}"
        self.assertNotEqual(cli_workload.check_classify("\n".join(lines), self.query, self.ref), [])


class SimGateTest(unittest.TestCase):
    CELL = sims.Cell(design=dict(p=8, n1=10, n2=10, rho=0.3, bandwidth=2,
                                 request=CutoffRequest.m1(0.3)),
                     job=8, pair=64, target=0.3, tol=0.2, eu=None)

    def _runs(self, cell) -> sims._Runs:
        pop = sims.eddr.simulate.make_population(sims.SimConfig(reps=1, seed=0, **cell.design))
        return sims._Runs(cell, 5, pop)

    def test_identical_records_pass_and_a_changed_record_fails(self):
        runs = self._runs(self.CELL)
        _, serial = runs.run(sims.PAIR, 0, keep=True)
        _, parallel = runs.run(sims.PAIR, 0, workers=2)
        runs.check(serial, parallel)
        ok, notes = runs.gate()
        self.assertTrue(ok, notes)
        first = parallel.records[0]
        changed = dataclasses.replace(first, cond_error=first.cond_error * (1 + 1e-15))
        runs.check(serial, dataclasses.replace(parallel,
                                               records=(changed, *parallel.records[1:])))
        ok, notes = runs.gate()
        self.assertFalse(ok)
        self.assertIn("FAIL (1 batches differ)", notes[1])

    def test_attained_value_outside_tolerance_fails(self):
        runs = self._runs(self.CELL._replace(target=0.9, tol=0.01))
        runs.run(sims.JOB, 0, keep=True)
        ok, notes = runs.gate()
        self.assertFalse(ok)
        self.assertIn("FAIL", notes[0])


class ClosureTest(unittest.TestCase):
    def test_nested_spans_close_and_escaping_child_fails(self):
        spans = [Span("simulate.run_trial", 0.0, 10.0, -1, ""),
                 Span("simulate.sample_group", 1.0, 4.0, 0, ""),
                 Span("calibration.calibrate", 5.0, 9.0, 0, ""),
                 Span("error_model.asymptotic_law", 6.0, 7.0, 2, "")]
        self.assertTrue(check_closure(spans, "simulate.run_trial")[0])
        spans[3] = spans[3]._replace(end=9.5)
        self.assertFalse(check_closure(spans, "simulate.run_trial")[0])


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec(ROOT)

    def test_workload_names_match_spec(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)
        self.assertEqual(set(run.WORKLOADS), {*sims.CELLS, "cli-p4096"})

    def test_check_metrics_rejects_missing_and_unknown_names(self):
        full = {m["name"]: 1.0 for m in self.spec["end_to_end"]}
        self.assertEqual(list(run.check_metrics(self.spec, False, full)), list(full))
        with self.assertRaises(ValueError):
            run.check_metrics(self.spec, False, dict(list(full.items())[1:]))
        with self.assertRaises(ValueError):
            run.check_metrics(self.spec, True, {"no.such_ms": 1.0})

    def test_printed_names_match_spec(self):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sim-m2-p64", "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            section = self.spec["per_layer" if trace else "end_to_end"]
            self.assertEqual(list(last["metrics"]), [m["name"] for m in section])
            printed = {line.split(": ")[1].split(" = ")[0]
                       for line in proc.stdout.splitlines() if " = " in line}
            self.assertLessEqual(printed, set(run.REPORT_ORDER))


if __name__ == "__main__":
    unittest.main()
