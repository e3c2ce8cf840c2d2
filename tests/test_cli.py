"""Command-line interface: parsing, outputs, exit codes, reproducibility."""

import contextlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eddr
import eddr.simulate
from eddr import dataio
from eddr.calibration import CutoffRequest, calibrate
from eddr.cli import _SIM_KEYS, build_parser, main
from eddr.core import discriminant_score, pooled_summary
from eddr.dataio import format_table_value, read_matrix_csv
from eddr.threads import cores, openblas


@pytest.fixture
def training_files(tmp_path, rng):
    p, m = 6, 12
    mu = np.sqrt(5.0 / p) * np.ones(p)
    x1 = rng.standard_normal((m, p)) + mu
    x2 = rng.standard_normal((m, p))
    f1 = tmp_path / "train1.csv"
    f2 = tmp_path / "train2.csv"
    np.savetxt(f1, x1, delimiter=",")
    np.savetxt(f2, x2, delimiter=",")
    return str(f1), str(f2), x1, x2


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CALIBRATE_KEYS = ["c", "variant_used", "gamma", "fell_back", "e0", "tau2", "a1", "u0", "v0"]
ESTIMATE_KEYS = ["a1", "a2", "a3", "a4", "delta0", "delta1", "delta2", "delta3",
                 "u0", "v0", "n1", "n2", "p", "n"]


@pytest.mark.parametrize("argv, keys", [
    (["estimate"], ESTIMATE_KEYS),
    (["calibrate", "--method", "m1", "--alpha", "0.2"], CALIBRATE_KEYS),
    (["calibrate", "--method", "m2-logit", "--eu", "0.3", "--beta", "0.1"], CALIBRATE_KEYS),
])
def test_json_keys_are_the_contract(capsys, training_files, argv, keys):
    f1, f2, *_ = training_files
    code, out, err = run_cli(capsys, argv[0], f1, f2, *argv[1:])
    assert code == 0, err
    assert list(json.loads(out)) == keys


class TestEstimate:
    def test_json_output(self, capsys, training_files):
        f1, f2, x1, x2 = training_files
        code, out, _ = run_cli(capsys, "estimate", f1, f2)
        assert code == 0
        payload = json.loads(out)
        for key in ("a1", "a2", "a3", "a4", "delta0", "delta1", "delta2", "delta3", "u0", "v0"):
            assert key in payload
        assert payload["u0"] == pytest.approx(-payload["delta0"] / 2)
        assert payload["p"] == 6

    def test_identical_rows_zero_scatter(self, capsys, tmp_path):
        row = "1.0,2.0,3.0\n"
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        f1.write_text(row * 5)
        f2.write_text("4.0,5.0,6.0\n" * 5)
        code, out, _ = run_cli(capsys, "estimate", str(f1), str(f2))
        assert code == 0
        payload = json.loads(out)
        assert payload["a1"] == 0.0
        assert payload["a2"] == 0.0
        assert payload["v0"] == 0.0  # printed as is; only calibration needs v0 > 0

    def test_csv_format(self, capsys, training_files):
        f1, f2, *_ = training_files
        code, out, _ = run_cli(capsys, "estimate", f1, f2, "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[0] == "a1"
        assert len(header.split(",")) == len(row.split(","))

    def test_malformed_csv_diagnostics(self, capsys, tmp_path, training_files):
        f1, f2, *_ = training_files
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\n3.0,oops\n")
        code, _, err = run_cli(capsys, "estimate", str(bad), f2)
        assert code == 2
        assert "row 2" in err and "column 2" in err

    def test_non_utf8_csv_is_a_data_error(self, capsys, tmp_path, training_files):
        _, f2, *_ = training_files
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1,2\n3,4\xe9\n")
        code, out, err = run_cli(capsys, "estimate", str(bad), f2)
        assert code == 2
        assert out == ""
        assert err == f"eddr: data error: {bad}: row 2, column 2 is not UTF-8 text\n"

    def test_missing_file(self, capsys, training_files):
        f1, *_ = training_files
        code, _, err = run_cli(capsys, "estimate", f1, "/nonexistent.csv")
        assert code == 2

    def test_header_detection(self, capsys, tmp_path, training_files):
        _, f2, x1, _ = training_files
        with_header = tmp_path / "hdr.csv"
        with_header.write_text("c1,c2,c3,c4,c5,c6\n" + "\n".join(
            ",".join(repr(float(v)) for v in row) for row in x1) + "\n")
        code, out, _ = run_cli(capsys, "estimate", str(with_header), f2)
        assert code == 0

    @pytest.mark.parametrize("first", ["1.0,,3.0,4.0,5.0,6.0", "1.0,2.O,3.0,4.0,5.0,6.0"])
    def test_bad_first_row_is_data_not_header(self, capsys, tmp_path, training_files, first):
        # a first line with any numeric cell is data, so its bad cell is
        # reported instead of the line being dropped as a header
        _, f2, x1, _ = training_files
        bad = tmp_path / "bad_first.csv"
        bad.write_text(first + "\n" + "\n".join(
            ",".join(repr(float(v)) for v in row) for row in x1) + "\n")
        code, _, err = run_cli(capsys, "estimate", str(bad), f2)
        assert code == 2
        assert "row 1, column 2" in err


class TestCalibrate:
    def test_m1_median_is_minus_u0(self, capsys, training_files):
        f1, f2, *_ = training_files
        code, out, _ = run_cli(capsys, "calibrate", f1, f2, "--method", "m1", "--alpha", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == pytest.approx(-payload["u0"], rel=1e-12)
        assert payload["variant_used"] == "m1"
        assert payload["gamma"] is None
        assert payload["e0"] == 0.5

    def test_m2_logit_payload(self, capsys, training_files):
        f1, f2, *_ = training_files
        code, out, _ = run_cli(
            capsys, "calibrate", f1, f2, "--method", "m2-logit", "--eu", "0.3", "--beta", "0.1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variant_used"] == "m2-logit"
        assert 0.0 < payload["gamma"] < 0.3
        assert payload["tau2"] > 0
        assert payload["a1"] > 0

    def test_m2_normal_fallback_reported(self, capsys, training_files):
        f1, f2, *_ = training_files
        # an absurd confidence level forces the normal percentile below zero
        code, out, err = run_cli(
            capsys, "calibrate", f1, f2, "--method", "m2-normal",
            "--eu", "0.05", "--beta", "0.0000001",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fell_back"] is True
        assert payload["variant_used"] == "m2-logit"
        assert "logit" in err

    def test_missing_eu_usage_error(self, capsys, training_files):
        f1, f2, *_ = training_files
        code, _, err = run_cli(capsys, "calibrate", f1, f2, "--method", "m2-normal", "--beta", "0.1")
        assert code == 1
        assert "--eu" in err

    def test_bad_alpha_usage_error(self, capsys, training_files):
        f1, f2, *_ = training_files
        code, _, _ = run_cli(capsys, "calibrate", f1, f2, "--method", "m1", "--alpha", "1.5")
        assert code == 1

    def test_anchor_and_logit_variance_flags_match_library(self, capsys, training_files):
        f1, f2, *_ = training_files
        code, out, err = run_cli(
            capsys, "calibrate", f1, f2, "--method", "m2-normal", "--eu", "0.3", "--beta", "0.1",
            "--anchor", "fixed-point", "--logit-variance", "plain",
        )
        assert code == 0, err
        payload = json.loads(out)
        summary = pooled_summary(read_matrix_csv(f1), read_matrix_csv(f2))
        request = CutoffRequest.m2_normal(0.3, 0.1, anchor="fixed-point", logit_variance="plain")
        lib = calibrate(summary, request)
        assert payload["c"] == lib.c
        assert payload["gamma"] == lib.gamma
        assert payload["tau2"] == lib.law.tau2
        assert lib.c != calibrate(summary, CutoffRequest.m2_normal(0.3, 0.1)).c

    def test_m1_works_below_the_m2_sample_size(self, capsys, tmp_path, rng):
        # n1 = n2 = 3 (n = 4): M1 needs only a2, delta0 and delta1; M2 needs n >= 7
        x1, x2 = rng.standard_normal((3, 10)) + 1.0, rng.standard_normal((3, 10))
        paths = []
        for name, x in (("small1.csv", x1), ("small2.csv", x2)):
            np.savetxt(tmp_path / name, x, delimiter=",")
            paths.append(str(tmp_path / name))
        code, out, err = run_cli(capsys, "calibrate", *paths, "--method", "m1", "--alpha", "0.2")
        assert code == 0, err
        summary = pooled_summary(read_matrix_csv(paths[0]), read_matrix_csv(paths[1]))
        assert json.loads(out)["c"] == calibrate(summary, CutoffRequest.m1(0.2)).c
        code, out, err = run_cli(capsys, "classify", *paths, paths[0],
                                 "--method", "m1", "--alpha", "0.2")
        assert code == 0, err
        assert len(out.splitlines()) == 3
        code, _, err = run_cli(capsys, "calibrate", *paths, "--method", "m2-logit",
                               "--eu", "0.2", "--beta", "0.1")
        assert code == 2
        assert "n >= 7" in err


class TestClassify:
    def test_scores_match_library(self, capsys, tmp_path, training_files):
        f1, f2, x1, x2 = training_files
        query = tmp_path / "query.csv"
        rows = np.vstack([x1[:2], x2[:2]])
        np.savetxt(query, rows, delimiter=",")
        code, out, _ = run_cli(
            capsys, "classify", f1, f2, str(query), "--cutoff", "0.0"
        )
        assert code == 0
        summary = pooled_summary(x1, x2)
        lines = out.strip().splitlines()
        assert len(lines) == 4
        for line, row in zip(lines, rows):
            label, score = line.split(",")
            assert float(score) == discriminant_score(row, summary)
            assert label in {"1", "2"}

    def test_mean_point_goes_to_group_one(self, capsys, tmp_path, training_files):
        f1, f2, x1, x2 = training_files
        query = tmp_path / "query.csv"
        np.savetxt(query, x1.mean(0)[None, :], delimiter=",")
        code, out, _ = run_cli(capsys, "classify", f1, f2, str(query), "--cutoff", "0.0")
        assert code == 0
        assert out.strip().splitlines()[0].startswith("1,")

    def test_empty_query_empty_output(self, capsys, tmp_path, training_files):
        f1, f2, *_ = training_files
        query = tmp_path / "empty.csv"
        query.write_text("")
        code, out, _ = run_cli(capsys, "classify", f1, f2, str(query), "--cutoff", "0.0")
        assert code == 0
        assert out == ""

    def test_query_dimension_mismatch(self, capsys, tmp_path, training_files):
        f1, f2, *_ = training_files
        query = tmp_path / "narrow.csv"
        query.write_text("1.0,2.0\n")
        code, _, err = run_cli(capsys, "classify", f1, f2, str(query), "--cutoff", "0.0")
        assert code == 2

    def test_output_file(self, capsys, tmp_path, training_files):
        f1, f2, x1, _ = training_files
        query = tmp_path / "query.csv"
        np.savetxt(query, x1[:3], delimiter=",")
        out_path = tmp_path / "labels.csv"
        code, out, _ = run_cli(
            capsys, "classify", f1, f2, str(query), "--cutoff", "0.0", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert len(out_path.read_text().strip().splitlines()) == 3

    def test_missing_out_directory_fails_before_any_csv_is_read(self, capsys, tmp_path,
                                                               training_files, monkeypatch):
        f1, f2, *_ = training_files
        reads = []
        monkeypatch.setattr("eddr.cli.read_matrix_csv", lambda *a, **k: reads.append(a))
        out_path = str(tmp_path / "missing" / "labels.csv")
        code, _, err = run_cli(
            capsys, "classify", f1, f2, f1, "--cutoff", "0.0", "--out", out_path
        )
        assert code == 2, err
        assert reads == []
        assert "--out" in err and ".tmp-" not in err

    def test_calibrated_classification(self, capsys, tmp_path, training_files):
        f1, f2, x1, _ = training_files
        query = tmp_path / "query.csv"
        np.savetxt(query, x1[:1], delimiter=",")
        code, out, _ = run_cli(
            capsys, "classify", f1, f2, str(query), "--method", "m1", "--alpha", "0.2"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1


class TestByteRanges:
    """Outputs do not depend on how many byte ranges each CSV body is cut into."""

    def test_outputs_identical_across_range_counts(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(11)
        p = 40
        arrays = {"g1": rng.standard_normal((30, p)) + 0.3, "g2": rng.standard_normal((20, p)),
                  "query": rng.standard_normal((200, p))}
        paths = {}
        for name, a in arrays.items():
            paths[name] = str(tmp_path / f"{name}.csv")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(_csv(a))
        g1, g2, query = paths["g1"], paths["g2"], paths["query"]
        commands = [
            ["estimate", g1, g2],
            ["calibrate", g1, g2, "--method", "m1", "--alpha", "0.1"],
            ["classify", g1, g2, query, "--method", "m1", "--alpha", "0.1"],
            ["classify", g1, g2, query, "--method", "m1", "--alpha", "0.1",
             "--out", str(tmp_path / "labels.csv")],
        ]

        def run_all(cores):
            monkeypatch.setattr(dataio, "_cores", lambda: cores)
            outputs = []
            for argv in commands:
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0
                outputs.append(out)
            outputs.append((tmp_path / "labels.csv").read_bytes())
            return outputs

        monkeypatch.setattr(dataio, "_SEGMENT_MIN_BYTES", 1)
        one = run_all(1)
        assert all(len(dataio._body_ranges(path, None)) == 1 for path in paths.values())
        several = run_all(4)
        assert all(len(dataio._body_ranges(path, None)) == 4 for path in paths.values())
        assert several == one
        assert [len(out.splitlines()) for out in one] == [16, 11, 200, 0, 200]


@pytest.mark.skipif(openblas() is None, reason="no OpenBLAS thread setter found")
class TestThreads:
    """estimate, calibrate and classify run on one BLAS thread and restore the count after."""

    @staticmethod
    def above_n_files(tmp_path):
        # p = 1024 > N = 124: unpinned, a3, a4, delta2 and delta3 move in their last bits
        rng = np.random.default_rng(1)
        arrays = {"g1": rng.standard_normal((60, 1024)) + 0.2, "g2": rng.standard_normal((64, 1024)),
                  "query": rng.standard_normal((4, 1024))}
        for name, a in arrays.items():
            (tmp_path / f"{name}.csv").write_text(_csv(a), encoding="utf-8")
        return [str(tmp_path / f"{name}.csv") for name in arrays]

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        g1, g2, query = self.above_n_files(tmp_path)
        commands = [
            ["estimate", g1, g2],
            ["calibrate", g1, g2, "--method", "m2-logit", "--eu", "0.2", "--beta", "0.1"],
            ["classify", g1, g2, query, "--method", "m1", "--alpha", "0.1"],
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(eddr.__file__)))
        outputs = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            outputs[threads] = []
            for argv in commands:
                proc = subprocess.run([sys.executable, "-m", "eddr.cli", *argv],
                                      capture_output=True, env=env, timeout=120)
                assert proc.returncode == 0, proc.stderr
                outputs[threads].append(proc.stdout)
        assert outputs["1"] == outputs["2"]

    def test_blas_threads_pinned_and_restored(self, capsys, tmp_path, monkeypatch):
        lib = openblas()
        g1, g2, query = self.above_n_files(tmp_path)
        seen = []
        real = eddr.cli.pooled_summary

        def spy(x1, x2):
            seen.append(lib.get_threads())
            return real(x1, x2)

        monkeypatch.setattr(eddr.cli, "pooled_summary", spy)
        old = lib.get_threads()
        lib.set_threads(3)
        try:
            for argv, exit_code in (
                (["estimate", g1, g2], 0),
                (["calibrate", g1, g2, "--method", "m1", "--alpha", "0.1"], 0),
                (["classify", g1, g2, query, "--cutoff", "0.0"], 0),
                # the query is read after the training summary: the pinned block raises
                (["classify", g1, g2, str(tmp_path / "missing.csv"), "--cutoff", "0.0"], 2),
            ):
                code, _, err = run_cli(capsys, *argv)
                assert code == exit_code, err
                assert lib.get_threads() == 3
            assert seen == [1, 1, 1, 1]
        finally:
            lib.set_threads(old)


class TestSimulate:
    def test_grid_outputs(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code, out, _ = run_cli(
            capsys, "simulate", "--n-grid", "12,16", "--p-grid", "4,8",
            "--reps", "40", "--seed", "9", "--method", "m1", "--alpha", "0.2",
            "--out", prefix,
        )
        assert code == 0
        csv_text = (tmp_path / "run.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "N,p=4,p=8"
        assert lines[1].startswith("12,") and lines[2].startswith("16,")
        sidecar = json.loads((tmp_path / "run.json").read_text())
        assert sidecar["value"] == "ae"
        assert len(sidecar["cells"]) == 4
        for cell in sidecar["cells"]:
            assert "ae_se" in cell and "excluded" in cell
        # each CSV entry is its own cell's value
        values = {(c["n_total"], c["p"]): format_table_value(c["ae"]) for c in sidecar["cells"]}
        for line in lines[1:]:
            n_total, *row = line.split(",")
            assert row == [values[(int(n_total), p)] for p in (4, 8)]
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 9
        assert manifest["outputs"] == [prefix + ".csv", prefix + ".json"]

    def test_manifest_shape(self, capsys, tmp_path):
        # the OpenBLAS thread count is the one outside the pin: 3 here
        lib = openblas()
        old = lib and lib.get_threads()
        start_method = multiprocessing.get_start_method(allow_none=True)
        if lib:
            lib.set_threads(3)
        try:
            code, _, err = run_cli(
                capsys, "simulate", "--n-grid", "6", "--p-grid", "2", "--reps", "5",
                "--seed", "3", "--method", "m1", "--alpha", "0.3", "--out", str(tmp_path / "m"),
            )
        finally:
            if lib:
                lib.set_threads(old)
        assert code == 0, err
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert list(manifest) == ["command", "config", "seed", "outputs",
                                  "started", "finished", "versions", "blas", "environment"]
        assert list(manifest["versions"]) == ["eddr", "numpy", "python"]
        assert manifest["versions"]["eddr"] == eddr.__version__
        assert list(manifest["blas"]) == ["library", "pinned"]
        assert manifest["environment"] == {
            "nproc": cores(), "pool_size": 1,
            "start_method": start_method or multiprocessing.get_all_start_methods()[0],
            "blas_threads": 3 if lib else None}
        # writing the manifest leaves the start method as unset as it found it
        assert multiprocessing.get_start_method(allow_none=True) == start_method
        started, finished = (datetime.fromisoformat(manifest[k]) for k in ("started", "finished"))
        assert started <= finished

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        args = ["simulate", "--n-grid", "12", "--p-grid", "4", "--reps", "60",
                "--seed", "31", "--method", "m2-logit", "--eu", "0.3", "--beta", "0.2"]
        code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_zero_reps_usage_error(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--n-grid", "12", "--p-grid", "4", "--reps", "0",
            "--seed", "1", "--method", "m1", "--alpha", "0.2",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_zero_reps_is_a_usage_error_before_the_sizes(self, capsys, tmp_path):
        # SimConfig checks reps before p, so p = 0 does not turn exit 1 into 2
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "12", "--p-grid", "0", "--reps", "0",
            "--seed", "1", "--method", "m1", "--alpha", "0.2", "--out", str(tmp_path / "x"),
        )
        assert code == 1 and "reps must be positive" in err, err

    def test_odd_total_rejected(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "simulate", "--n-grid", "13", "--p-grid", "4", "--reps", "10",
            "--seed", "1", "--method", "m1", "--alpha", "0.2",
            "--out", str(tmp_path / "x"),
        )
        assert code == 1

    def test_every_cell_validated_before_the_first_runs(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("eddr.cli.run_simulation", lambda cfg: calls.append(cfg))
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "12", "--p-grid", "4,0", "--reps", "10",
            "--seed", "1", "--method", "m1", "--alpha", "0.2",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2, err
        assert calls == []
        assert list(tmp_path.glob("x*")) == []

    def test_m2_sample_size_checked_before_the_first_runs(self, capsys, tmp_path, monkeypatch):
        # N = 8 leaves n = 6, below the 7 that M2's estimates need
        calls = []
        monkeypatch.setattr("eddr.cli.run_simulation", lambda cfg, pop: calls.append(cfg))
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "200,8", "--p-grid", "4", "--reps", "10",
            "--seed", "1", "--method", "m2-logit", "--eu", "0.1", "--beta", "0.05",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2, err
        assert "n >= 7" in err
        assert calls == []
        assert list(tmp_path.glob("x*")) == []

    def test_missing_out_directory_fails_before_the_first_trial(self, capsys, tmp_path,
                                                               monkeypatch):
        calls = []
        monkeypatch.setattr("eddr.cli.run_simulation", lambda cfg, pop: calls.append(cfg))
        prefix = str(tmp_path / "missing" / "run")
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "12", "--p-grid", "4", "--reps", "10",
            "--seed", "1", "--method", "m1", "--alpha", "0.2", "--out", prefix,
        )
        assert code == 2, err
        assert f"--out {prefix!r}" in err and ".tmp-" not in err
        assert calls == []

    def test_one_population_per_p(self, capsys, tmp_path, monkeypatch):
        import eddr.cli

        built = []
        real = eddr.cli.make_population

        def counting(cfg):
            built.append(cfg.p)
            return real(cfg)

        monkeypatch.setattr(eddr.cli, "make_population", counting)
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "12,16", "--p-grid", "4,8", "--rho", "0.3",
            "--reps", "20", "--seed", "9", "--method", "m1", "--alpha", "0.2",
            "--out", str(tmp_path / "run"),
        )
        assert code == 0, err
        assert built == [4, 8]

    def test_indefinite_band_exits_numeric(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "12", "--p-grid", "150", "--rho", "0.95",
            "--bandwidth", "50", "--reps", "10", "--seed", "1", "--method", "m1",
            "--alpha", "0.2", "--out", str(tmp_path / "x"),
        )
        assert code == 3
        assert "not positive definite" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "# minimal design\n"
            "n_grid = 12\np_grid = 4\nreps = 30\nseed = 5\n"
            "method = m1\nalpha = 0.2\nout = {}\n".format(tmp_path / "c")
        )
        code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        sidecar1 = json.loads((tmp_path / "c.json").read_text())
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--alpha", "0.4",
            "--out", str(tmp_path / "d"),
        )
        assert code == 0
        sidecar2 = json.loads((tmp_path / "d.json").read_text())
        assert sidecar2["cells"][0]["ae"] > sidecar1["cells"][0]["ae"]

    def test_config_sets_anchor_and_logit_variance(self, capsys, tmp_path):
        design = ["--n-grid", "16", "--p-grid", "8", "--reps", "40", "--seed", "5",
                  "--method", "m2-logit", "--eu", "0.3", "--beta", "0.2"]
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("anchor = fixed-point\nlogit_variance = plain\n")
        runs = {
            "config": ["--config", str(cfg)],
            "flags": ["--anchor", "fixed-point", "--logit-variance", "plain"],
            "default": [],
        }
        for name, extra in runs.items():
            code, _, err = run_cli(capsys, "simulate", *design, *extra,
                                   "--out", str(tmp_path / name))
            assert code == 0, err
        sidecar = {name: (tmp_path / f"{name}.json").read_bytes() for name in runs}
        assert sidecar["config"] == sidecar["flags"] != sidecar["default"]
        for name, expected in (("config", ("fixed-point", "plain")), ("default", ("eu", "delta"))):
            config = json.loads((tmp_path / f"{name}.manifest.json").read_text())["config"]
            assert (config["anchor"], config["logit_variance"]) == expected

    @pytest.mark.parametrize("method", [
        ["--method", "m1", "--alpha", "0.2"],
        ["--method", "m2-normal", "--eu", "0.3", "--beta", "0.2"],
        ["--method", "m2-logit", "--eu", "0.3", "--beta", "0.2"],
    ])
    @pytest.mark.parametrize("line", ["anchor = bogus", "logit_variance = bogus", "method = bogus"])
    def test_config_value_outside_choices_usage_error(self, capsys, tmp_path, method, line):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--n-grid", "12", "--p-grid", "4",
            "--reps", "20", "--seed", "3", *method, "--out", str(tmp_path / "bad"),
        )
        assert code == 1
        assert "bogus" in err
        assert list(tmp_path.glob("bad*")) == []

    def test_non_utf8_config_is_a_data_error(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_bytes(b"seed = 5\nmethod = m1\xe9\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert f"{cfg}: line 2: not UTF-8 text" in err

    @pytest.mark.parametrize("line, key", [("reps = abc", "reps"), ("rho = half", "rho")])
    def test_config_value_that_does_not_convert_is_named(self, capsys, tmp_path, line, key):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert f"{cfg}: {key} must be of type" in err
        assert "invalid literal" not in err and "could not convert" not in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_worker_count_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EDDR_WORKERS", "2")
        code, _, _ = run_cli(
            capsys, "simulate", "--n-grid", "12", "--p-grid", "4", "--reps", "20",
            "--seed", "3", "--method", "m1", "--alpha", "0.2",
            "--out", str(tmp_path / "env"),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "env.manifest.json").read_text())
        assert manifest["config"]["resolved_workers"] == 2

    def test_manifest_records_the_capped_pool(self, capsys, tmp_path, monkeypatch):
        # 64 workers asked for on 3 cores: a run starts at most 3 processes
        monkeypatch.setattr(eddr.simulate, "cores", lambda: 3)
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "6", "--p-grid", "2", "--reps", "5",
            "--seed", "3", "--method", "m1", "--alpha", "0.3", "--workers", "64",
            "--out", str(tmp_path / "cap"),
        )
        assert code == 0, err
        manifest = json.loads((tmp_path / "cap.manifest.json").read_text())
        assert manifest["config"]["resolved_workers"] == 64
        assert manifest["environment"]["pool_size"] == 3

    @pytest.mark.parametrize("value", ["two", "0", "-1"])
    def test_bad_worker_count_in_environment_named(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv("EDDR_WORKERS", value)
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "12", "--p-grid", "4", "--reps", "20",
            "--seed", "3", "--method", "m1", "--alpha", "0.2",
            "--out", str(tmp_path / "env"),
        )
        assert code == 1
        assert f"EDDR_WORKERS must be a positive integer, got {value!r}" in err
        assert list(tmp_path.glob("env*")) == []

    @pytest.mark.parametrize("grids, named", [
        (["--n-grid", "8", "--p-grid", ","], "--p-grid"),
        (["--n-grid", "", "--p-grid", "4"], "--n-grid"),
        (["--config", "{cfg}", "--n-grid", "8"], "--p-grid"),
    ], ids=["p-grid-comma", "n-grid-blank", "config-p-grid-blank"])
    def test_empty_grid_usage_error(self, capsys, tmp_path, grids, named):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("p_grid =\n")
        grids = [g.format(cfg=cfg) for g in grids]
        code, out, err = run_cli(
            capsys, "simulate", *grids, "--reps", "2", "--seed", "1",
            "--method", "m1", "--alpha", "0.2", "--out", str(tmp_path / "empty"),
        )
        assert code == 1
        assert f"{named} is empty" in err
        assert out == ""
        assert list(tmp_path.glob("empty*")) == []

    def test_single_trial_sidecar_is_strict_json(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "8", "--p-grid", "4", "--method", "m1",
            "--alpha", "0.2", "--reps", "1", "--seed", "1", "--out", str(tmp_path / "one"),
        )
        assert code == 0, err

        def reject(token):
            raise ValueError(f"sidecar holds {token}")

        sidecar = json.loads((tmp_path / "one.json").read_text(), parse_constant=reject)
        (cell,) = sidecar["cells"]
        assert cell["ae_se"] is None
        assert 0.0 < cell["ae"] < 1.0

    def test_reps_defaults_to_desk_scale(self, capsys, tmp_path):
        # omit --reps entirely: a tiny grid still works with the default,
        # so keep the design minuscule
        code, _, _ = run_cli(
            capsys, "simulate", "--n-grid", "6", "--p-grid", "2",
            "--seed", "3", "--method", "m1", "--alpha", "0.3",
            "--out", str(tmp_path / "dflt"), "--workers", "2",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "dflt.manifest.json").read_text())
        assert manifest["config"]["reps"] == 20000

    def test_manifest_records_the_defaults(self, capsys, tmp_path, monkeypatch):
        # no --rho, --bandwidth or --out: the manifest still says which design ran, and where
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(
            capsys, "simulate", "--n-grid", "6", "--p-grid", "2", "--reps", "5",
            "--seed", "3", "--method", "m1", "--alpha", "0.3",
        )
        assert code == 0, err
        config = json.loads((tmp_path / "simulation.manifest.json").read_text())["config"]
        assert (config["rho"], config["bandwidth"], config["out"]) == (0.0, 50, "simulation")
        assert (tmp_path / "simulation.csv").exists()

    def test_every_flag_is_a_setting(self):
        # _resolve_sim_settings reads the flags through the settings table
        dests = set(vars(build_parser().parse_args(["simulate"])))
        assert dests - {"func", "command", "config"} == set(_SIM_KEYS)


class TestVerifyMoments:
    def test_exact_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify-moments", "--suite", "exact", "--n-max", "10")
        assert code == 0
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_mc_suite_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-moments", "--suite", "mc", "--p", "2", "--n", "5",
            "--draws", "40000", "--seed", "3",
        )
        assert code == 0
        assert out.count("PASS") == 9

    def test_bad_p_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify-moments", "--suite", "mc", "--p", "0")
        assert code == 1

    def test_mc_suite_takes_p_above_n(self, capsys):
        # the paper's regime: the Wishart draw has rank n < p
        code, out, err = run_cli(capsys, "verify-moments", "--suite", "mc", "--p", "3",
                                 "--n", "2", "--draws", "40000")
        assert code == 0, err
        assert out.count("PASS") == 9

    def test_mc_suite_needs_a_degree_of_freedom(self, capsys, monkeypatch):
        monkeypatch.setattr("eddr.cli.mc_moment_suite", lambda **kw: pytest.fail("sampled"))
        code, out, err = run_cli(capsys, "verify-moments", "--suite", "mc", "--n", "0")
        assert code == 1
        assert "--n must be at least 1, got 0" in err
        assert out == ""

    @pytest.mark.parametrize("draws", ["1", "0"])
    def test_too_few_draws_usage_error(self, capsys, monkeypatch, draws):
        monkeypatch.setattr("eddr.cli.mc_moment_suite", lambda **kw: pytest.fail("sampled"))
        code, out, err = run_cli(capsys, "verify-moments", "--suite", "mc", "--draws", draws)
        assert code == 1
        assert "--draws must be at least 2" in err
        assert out == ""

    @pytest.mark.parametrize("n_max, code", [("-3", 1), ("0", 1), ("1", 0)])
    def test_exact_range_must_hold_an_n(self, capsys, n_max, code):
        got, out, err = run_cli(capsys, "verify-moments", "--suite", "exact", "--n-max", n_max)
        assert got == code
        assert out.count("PASS") == (7 if code == 0 else 0)
        assert ("--n-max must be at least 1" in err) == (code == 1)


class TestParsing:
    def test_no_command_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["classify", "/nonexistent.csv", "/nonexistent.csv", "/nonexistent.csv"],
        ["classify", "/nonexistent.csv", "/nonexistent.csv", "/nonexistent.csv",
         "--method", "m1"],
        ["calibrate", "/nonexistent.csv", "/nonexistent.csv", "--method", "m2-logit",
         "--eu", "0.1"],
        ["calibrate", "/nonexistent.csv", "/nonexistent.csv", "--method", "m1",
         "--alpha", "1.5"],
        ["classify", "/nonexistent.csv", "/nonexistent.csv", "/nonexistent.csv",
         "--cutoff", "nan"],
        ["classify", "/nonexistent.csv", "/nonexistent.csv", "/nonexistent.csv",
         "--cutoff", "inf"],
    ])
    def test_flags_checked_before_any_file_is_read(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "data error" not in err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command", ["estimate", "calibrate", "classify", "simulate",
                                         "verify-moments"])
    def test_every_subcommand_renders_its_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        method_keys = ["method", "alpha", "eu", "beta", "logit_variance", "anchor"]
        keys = {"calibrate": method_keys, "classify": method_keys, "simulate": list(_SIM_KEYS)}
        for key in keys.get(command, []):
            choices = _SIM_KEYS[key].choices
            shown = "{" + ",".join(choices) + "}" if choices else key.upper()
            assert f"\n  --{key.replace('_', '-')} {shown}" in out


class TestScaledData:
    """Rescaled training data: the law is scale-free, overflow is a typed error."""

    @staticmethod
    def scaled_files(tmp_path, x1, x2, scale):
        paths = []
        for name, x in (("scaled1.csv", x1), ("scaled2.csv", x2)):
            path = tmp_path / name
            np.savetxt(path, scale * x, delimiter=",")
            paths.append(str(path))
        return paths

    def test_m2_law_is_scale_free(self, capsys, tmp_path, training_files):
        _, _, x1, x2 = training_files
        tau2 = []
        for scale in (1.0, 1e20):
            f1, f2 = self.scaled_files(tmp_path, x1, x2, scale)
            code, out, err = run_cli(capsys, "calibrate", f1, f2, "--method", "m2-logit",
                                     "--eu", "0.2", "--beta", "0.1")
            assert code == 0, err
            tau2.append(json.loads(out)["tau2"])
        assert tau2[1] == pytest.approx(tau2[0], rel=1e-9)

    @pytest.mark.parametrize("command", [
        ["estimate"],
        ["calibrate", "--method", "m2-logit", "--eu", "0.1", "--beta", "0.05"],
    ])
    def test_overflow_exits_3_without_traceback(self, tmp_path, rng, command):
        # finite entries, but (tr S)^4 exceeds the double range at p = 40
        x1 = rng.standard_normal((12, 40)) + 0.5
        x2 = rng.standard_normal((12, 40))
        f1, f2 = self.scaled_files(tmp_path, x1, x2, 1e38)
        src = os.path.dirname(os.path.dirname(os.path.abspath(eddr.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "eddr.cli", command[0], f1, f2, *command[1:]],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "not finite" in proc.stderr

    def test_m1_needs_no_fourth_power(self, capsys, tmp_path, rng):
        # the data above: M1 reads only a2, delta0 and delta1, which stay finite
        x1 = rng.standard_normal((12, 40)) + 0.5
        x2 = rng.standard_normal((12, 40))
        f1, f2 = self.scaled_files(tmp_path, x1, x2, 1e38)
        code, out, err = run_cli(capsys, "calibrate", f1, f2, "--method", "m1", "--alpha", "0.1")
        assert code == 0, err
        assert math.isfinite(json.loads(out)["c"])

    def test_score_overflow_exits_3(self, capsys, tmp_path, training_files):
        # a finite query row whose squared distances overflow to inf - inf
        f1, f2, *_ = training_files
        query = tmp_path / "huge.csv"
        query.write_text("1.0,1.0,1.0,1.0,1.0,1.0\n" + ",".join(["1e200"] * 6) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "classify", f1, f2, str(query), "--cutoff", "0.5")
        assert code == 3
        assert "eddr: error: discriminant score is not finite" in err


# -- robustness: every finite input gives finite output or a typed exit ---------

_COMMANDS = [
    ["estimate"],
    ["estimate", "--format", "csv"],
    ["calibrate", "--method", "m1", "--alpha", "0.1"],
    ["calibrate", "--method", "m2-normal", "--eu", "0.2", "--beta", "0.1"],
    ["calibrate", "--method", "m2-logit", "--eu", "0.2", "--beta", "0.1"],
    ["calibrate", "--method", "m2-logit", "--eu", "0.2", "--beta", "0.1",
     "--anchor", "fixed-point"],
    ["classify", "--cutoff", "0.5"],
    ["classify", "--method", "m1", "--alpha", "0.1"],
    ["classify", "--method", "m2-logit", "--eu", "0.2", "--beta", "0.1"],
]
_NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)


def _csv(a):
    return "".join(",".join(map(repr, row)) + "\n" for row in a.tolist())


@pytest.fixture(scope="module")
def robustness_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n1=st.integers(2, 9), n2=st.integers(2, 9),
       p=st.integers(1, 12), scale_exp=st.integers(-600, 600),
       query_exp=st.integers(-300, 300), command=st.sampled_from(_COMMANDS))
def test_finite_inputs_give_finite_output_or_a_typed_exit(
    robustness_dir, seed, n1, n2, p, scale_exp, query_exp, command
):
    rng = np.random.default_rng(seed)
    scale = 2.0**scale_exp
    paths = [str(robustness_dir / name) for name in ("g1.csv", "g2.csv", "query.csv")]
    for path, x in zip(paths, (scale * (rng.standard_normal((n1, p)) + 1.0),
                               scale * rng.standard_normal((n2, p)),
                               10.0**query_exp * rng.standard_normal((3, p)))):
        # a new file each example: ext4 flushes one rewritten in place on close
        if os.path.exists(path):
            os.unlink(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_csv(x))
    files = paths if command[0] == "classify" else paths[:2]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command[0], *files, *command[1:]])
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert not _NON_FINITE.search(out), out
    else:
        assert code in (2, 3), err
        assert err.startswith("eddr: "), err
