"""Command-line interface: workflows, exit codes, reproducibility."""

import ast
import csv
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from frailplp.cli import main, _write_matrix, EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL
from frailplp.data import _CHUNK_VALUES, ingest

from conftest import COLUMNS, make_dataset
from frailplp.data import ObservationDesign, write_dataset
from frailplp.plp import PlpParams
from frailplp.simulate import SimScenario, simulate


def run(*argv):
    return main(list(argv))


def read_truth(path):
    """The frailty column of a simulated fleet's truth file."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)


@pytest.fixture
def fleet_csv(tmp_path):
    out = tmp_path / "fleet.csv"
    code = run(
        "simulate", "--out", str(out), "--m", "40", "--T", "20",
        "--beta", "1.2,0.7", "--alpha", "5,13.33", "--eta", "1",
        "--normalize", "--seed", "7",
    )
    assert code == EXIT_OK
    return out


@pytest.fixture
def warranty_csv(tmp_path):
    """Fleet of 439 systems with per-cause totals (76, 87, 111).

    Times are arbitrary within the window; only counts drive the rate
    estimates under the closed form.
    """
    rng = np.random.default_rng(0)
    events = []
    for q, n in enumerate((76, 87, 111), start=1):
        systems = rng.integers(1, 440, size=n)
        times = rng.uniform(1.0, 2999.0, size=n)
        events += [(int(j), q, float(t)) for j, t in zip(systems, times)]
    data = make_dataset(T=3000.0, m=439, K=3, events=events)
    path = tmp_path / "warranty.csv"
    write_dataset(path, data)
    return path


class TestSimulate:
    def test_writes_dataset_and_truth(self, fleet_csv):
        data = ingest(fleet_csv)
        assert data.design.m == 40
        z = read_truth(str(fleet_csv) + ".truth.csv")
        assert z.size == 40
        assert z.mean() == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_truth_is_all_ones(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run("simulate", "--out", str(out), "--eta", "0", "--seed", "1") == EXIT_OK
        assert np.all(read_truth(str(out) + ".truth.csv") == 1.0)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--out", str(out), "--eta", "0.5", "--seed", "11") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_mismatched_cause_lists(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = run("simulate", "--out", str(out), "--beta", "1.0", "--alpha", "5,6", "--seed", "1")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: beta and alpha must have matching length\n"
        assert list(tmp_path.iterdir()) == []

    def test_mixture_frailties(self, tmp_path):
        out = tmp_path / "d.csv"
        code = run(
            "simulate", "--out", str(out), "--m", "500",
            "--frailty-mixture", "0.5,-0.8,0.25,0.5,0.5,0.25",
            "--seed", "2",
        )
        assert code == EXIT_OK
        z = read_truth(str(out) + ".truth.csv")
        assert z.mean() == pytest.approx(1.0, abs=0.1)

    def test_output_in_missing_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "f.csv"
        assert run("simulate", "--out", str(out), "--seed", "1") == EXIT_CONFIG
        assert f"config error: cannot write {out}" in capsys.readouterr().err

    def test_malformed_mixture(self, tmp_path):
        code = run(
            "simulate", "--out", str(tmp_path / "d.csv"),
            "--frailty-mixture", "0.5,-0.8", "--seed", "2",
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("mixture, message", [
        ("1,1000,1", "mixture mean inf is not finite and positive"),
        ("1,0,40", "mixture mean inf is not finite and positive"),
        ("1,-1000,1", "mixture mean 0.0 is not finite and positive"),
        ("1,nan,1", "mixture mu must be finite, got nan"),
        ("0.5,0,1,inf,1,1", "mixture weight must be finite, got inf"),
        ("1,0,nan", "mixture sigma must be finite, got nan"),
        ("1,0,30", "mixture variance inf is not finite"),
    ], ids=["mean-inf-mu", "mean-inf-sigma", "mean-zero", "mu-nan", "weight-inf", "sigma-nan",
            "variance-inf"])
    def test_non_finite_mixture_is_config_error(self, tmp_path, capsys, mixture, message):
        out = tmp_path / "d.csv"
        code = run("simulate", "--out", str(out), "--frailty-mixture", mixture, "--seed", "2")
        assert code == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_mixture_writes_a_failure_free_fleet(self, tmp_path, capsys):
        # a finite mixture whose unit-mean shift puts nearly every frailty at
        # about 0 is a valid law: its fleet has no failures, and fit then has
        # nothing to fit
        out = tmp_path / "d.csv"
        code = run("simulate", "--out", str(out), "--frailty-mixture", "1,0,26", "--m", "50",
                   "--seed", "1")
        assert code == EXIT_OK
        assert len(ingest(out)) == 0
        assert run("fit", "--data", str(out), "--out", str(tmp_path / "e.csv")) == EXIT_DATA
        assert "dataset contains no failures" in capsys.readouterr().err

    def test_eta_whose_gamma_shape_overflows_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = run("simulate", "--out", str(out), "--m", "3", "--eta", "1e-310", "--seed", "1")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: frailty variance eta 1e-310 is too small: the gamma shape 1/eta overflows\n"
        )
        assert not out.exists()

    def test_frailties_that_all_underflow_cannot_be_normalized(self, tmp_path, capsys):
        # every Gamma(1e-6) draw of seed 1 is exactly 0, so their mean is 0
        out = tmp_path / "d.csv"
        argv = ["simulate", "--out", str(out), "--m", "3", "--eta", "1e6", "--seed", "1"]
        assert run(*argv, "--normalize") == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "numerical failure: all 3 frailties drawn with eta 1000000.0 and seed 1 underflowed to 0, "
            "so they cannot be rescaled to mean 1\n"
        )
        assert not out.exists()
        # not normalised, the same frailties make a valid fleet with no failures
        assert run(*argv) == EXIT_OK
        assert not read_truth(str(out) + ".truth.csv").any()


class TestFit:
    def test_warranty_scale_rates(self, warranty_csv, tmp_path, capsys):
        out = tmp_path / "est.csv"
        assert run("fit", "--data", str(warranty_csv), "--out", str(out)) == EXIT_OK
        rows = {line.split(",")[0]: line.split(",")[1:]
                for line in out.read_text().splitlines()[1:]}
        means = [float(rows[f"alpha_{q}"][0]) for q in (1, 2, 3)]
        assert means == pytest.approx([0.173, 0.198, 0.253], abs=5e-4)
        assert float(rows["alpha_1"][1]) == pytest.approx(0.020, abs=5e-4)
        assert float(rows["alpha_1"][2]) == pytest.approx(0.136, abs=2e-3)
        assert float(rows["alpha_1"][3]) == pytest.approx(0.214, abs=2e-3)

    def test_json_output(self, warranty_csv, tmp_path):
        out = tmp_path / "est.json"
        assert run("fit", "--data", str(warranty_csv), "--out", str(out)) == EXIT_OK
        payload = json.loads(out.read_text())
        assert {p["parameter"] for p in payload} >= {"alpha_1", "beta_1"}

    def test_empty_dataset_is_data_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_dataset(path, make_dataset(m=3, events=[]))
        assert run("fit", "--data", str(path)) == EXIT_DATA

    def test_missing_file_is_data_error(self, tmp_path):
        assert run("fit", "--data", str(tmp_path / "nope.csv")) == EXIT_DATA

    def test_output_in_missing_directory_is_config_error(self, warranty_csv, tmp_path, capsys):
        out = tmp_path / "nodir" / "e.csv"
        assert run("fit", "--data", str(warranty_csv), "--out", str(out)) == EXIT_CONFIG
        assert f"config error: cannot write {out}" in capsys.readouterr().err

    def test_integer_beyond_int64_is_data_error_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("# T=20.0\n# m=3\n# K=1\nsystem_id,cause,time\n"
                        "1,1,2.0\n99999999999999999999,1,3.0\n")
        assert run("fit", "--data", str(path), "--out", str(tmp_path / "e.csv")) == EXIT_DATA
        assert "data error: line 6:" in capsys.readouterr().err

    def test_file_not_utf8_is_data_error_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# T=20.0\n# m=3\n# K=1\nsystem_id,cause,time\n1,1,2.0\n2,1,3.\xff0\n")
        assert run("fit", "--data", str(path), "--out", str(tmp_path / "e.csv")) == EXIT_DATA
        assert "data error: line 6:" in capsys.readouterr().err

    def test_propriety_violation_is_numerical_error(self, tmp_path):
        path = tmp_path / "one.csv"
        write_dataset(path, make_dataset(m=2, events=[(1, 1, 5.0)]))
        assert run("fit", "--data", str(path), "--out", str(tmp_path / "e.csv")) == EXIT_NUMERICAL

    @pytest.mark.parametrize("zeta", ["0", "0.5"])
    def test_cause_without_failures_is_numerical_error(self, tmp_path, capsys, zeta):
        # n_q = 0 > zeta - 1 passes the propriety check, but beta_hat_q is 0 / 0
        path = tmp_path / "no_cause_2.csv"
        write_dataset(path, make_dataset(m=3, K=2, events=[(1, 1, 2.0), (2, 1, 5.0), (3, 1, 9.0)]))
        out = tmp_path / "e.csv"
        assert run("fit", "--data", str(path), "--out", str(out), "--zeta", zeta) == EXIT_NUMERICAL
        assert "numerical failure: cause 2 has no failures" in capsys.readouterr().err
        assert not out.exists()

    def test_short_duane_cause_is_data_error_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        events = [(1, 1, 2.0), (2, 1, 5.0), (3, 1, 7.0), (1, 2, 4.0)]
        write_dataset(path, make_dataset(m=3, K=2, events=events))
        code = run(
            "fit", "--data", str(path), "--out", str(tmp_path / "e.csv"),
            "--duane-out", str(tmp_path / "duane"), "--zeta", "1.5",
        )
        assert code == EXIT_DATA
        assert "cause 2 needs at least 2 failures" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short.csv"]

    def test_tied_duane_cause_is_data_error_before_any_output(self, tmp_path, capsys):
        # ties across systems are valid data, but give the Duane fit no slope
        path = tmp_path / "tied.csv"
        path.write_text("# T=10.0\n# m=2\n# K=1\nsystem_id,cause,time\n1,1,5.0\n2,1,5.0\n")
        code = run(
            "fit", "--data", str(path), "--out", str(tmp_path / "e.csv"),
            "--duane-out", str(tmp_path / "duane"),
        )
        assert code == EXIT_DATA
        captured = capsys.readouterr()
        assert "cause 1 needs two distinct failure times" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tied.csv"]

    def test_large_fleet_fits_in_bounded_memory(self, tmp_path):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=5000, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=0.5,
            seed=11,
        )
        data, _ = simulate(scen)
        assert len(data) > 80_000
        column_bytes = sum(getattr(data, name).nbytes for name in COLUMNS)
        write_dataset(tmp_path / "fleet.csv", data)
        del data
        tracemalloc.start()
        try:
            code = run(
                "fit", "--data", str(tmp_path / "fleet.csv"), "--out", str(tmp_path / "e.csv"),
                "--duane-out", str(tmp_path / "duane"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        # the parsed rows held once, then one cause's Duane arrays at a time:
        # about 1.8 times the column bytes; an ingest that copies the rows
        # reads 2.4 times, a slope through np.polyfit 3.3 times
        assert peak < 2.2 * column_bytes

    def test_single_system_prints_classic_mles(self, tmp_path, capsys):
        T = 20.0
        path = tmp_path / "single.csv"
        write_dataset(
            path,
            make_dataset(
                T=T, m=1,
                events=[(1, 1, T / math.e), (1, 1, T * math.exp(-0.5)),
                        (1, 1, T * math.exp(-1.5))],
            ),
        )
        assert run("fit", "--data", str(path), "--out", str(tmp_path / "e.csv")) == EXIT_OK
        text = capsys.readouterr().out
        assert "classic MLEs" in text
        assert "beta_hat=1.000000" in text

    def test_duane_outputs(self, fleet_csv, tmp_path, capsys):
        prefix = tmp_path / "duane"
        code = run(
            "fit", "--data", str(fleet_csv), "--out", str(tmp_path / "e.csv"),
            "--duane-out", str(prefix),
        )
        assert code == EXIT_OK
        for q in (1, 2):
            lines = (tmp_path / f"duane.cause{q}.csv").read_text().splitlines()
            assert lines[0] == "index,log_time,log_count"
            assert len(lines) > 10

    def test_design_override_needs_all_three(self, warranty_csv):
        assert run("fit", "--data", str(warranty_csv), "--m", "500") == EXIT_CONFIG

    def test_bad_design_in_file_metadata_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("# T=20.0\n# m=0\n# K=1\nsystem_id,cause,time\n")
        assert run("fit", "--data", str(path), "--out", str(tmp_path / "e.csv")) == EXIT_DATA
        assert "data error: need at least one system" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--m", "0"], "need at least one system"),
        (["simulate", "--T", "-1"], "truncation time must be positive"),
        (["simulate", "--T", "nan"], "truncation time must be positive"),
        (["simulate", "--beta", "", "--alpha", ""], "need at least one failure cause"),
        (["benchmark", "--m", "0", "--M", "1"], "need at least one system"),
        (["benchmark", "--T", "-3", "--M", "1"], "truncation time must be positive"),
        (["fit", "--T", "20", "--m", "0", "--K", "2"], "need at least one system"),
        (["mcmc", "--T", "inf", "--m", "3", "--K", "1"], "truncation time must be positive"),
        (["fit", "--zeta", "nan"], "zeta must be finite"),
        (["fit", "--zeta", "inf"], "zeta must be finite"),
        (["benchmark", "--zeta", "nan", "--M", "1"], "zeta must be finite"),
        (["simulate", "--eta", "nan"], "frailty variance eta must be finite"),
        (["simulate", "--eta", "inf"], "frailty variance eta must be finite"),
        (["benchmark", "--eta", "nan", "--M", "1"], "frailty variance eta must be finite"),
    ],
)
def test_bad_design_flags_are_config_error(tmp_path, capsys, fleet_csv, argv, message):
    command = argv[0]
    if command in ("fit", "mcmc"):
        argv = argv + ["--data", str(fleet_csv)]
    if command in ("simulate", "benchmark"):
        argv = argv + ["--seed", "1"]
    out = tmp_path / ("out" if command == "mcmc" else "out.csv")
    argv += ["--out-dir" if command == "mcmc" else "--out", str(out)]
    assert run(*argv) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["simulate", "--m", "3"], ["benchmark", "--m", "3", "--M", "2"]], ids=["simulate", "benchmark"]
)
def test_negative_seed_is_config_error(tmp_path, capsys, argv):
    # numpy's SeedSequence rejects the seed before any substream is built
    out = tmp_path / "out.csv"
    assert run(*argv, "--seed", "-1", "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: expected non-negative integer\n"
    assert list(tmp_path.iterdir()) == []


class TestMcmc:
    @pytest.fixture(scope="class")
    def mcmc_out(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("mcmc")
        data = tmp / "fleet.csv"
        assert run(
            "simulate", "--out", str(data), "--m", "30", "--eta", "1",
            "--normalize", "--seed", "5",
        ) == EXIT_OK
        out = tmp / "chain"
        code = run(
            "mcmc", "--data", str(data), "--out-dir", str(out),
            "--iterations", "600", "--burn-in", "300", "--seed", "2",
        )
        assert code == EXIT_OK
        return out

    def test_emits_all_artifacts(self, mcmc_out):
        for name in (
            "z_trace.csv", "var_z_trace.csv", "c_trace.csv", "acceptance.csv",
            "z_hat.csv", "frailty_density.csv", "summary.json",
        ):
            assert (mcmc_out / name).exists()

    def test_frailty_estimates_satisfy_constraint(self, mcmc_out):
        lines = (mcmc_out / "z_hat.csv").read_text().splitlines()
        assert lines[0] == "system,z_hat,n_failures"
        z_hat = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert z_hat.size == 30
        assert z_hat.mean() == pytest.approx(1.0, abs=1e-10)

    def test_failure_counts_are_the_fleet_counts(self, mcmc_out):
        fleet = ingest(mcmc_out.parent / "fleet.csv")
        table = np.loadtxt(mcmc_out / "z_hat.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 2], np.bincount(fleet.system_id - 1, minlength=30))

    def test_summary_contents(self, mcmc_out):
        summary = json.loads((mcmc_out / "summary.json").read_text())
        assert summary["iterations"] == 600
        assert 0.0 < summary["var_z_mean"] < 5.0
        assert 0.3 < summary["acceptance_rate"] <= 1.0
        assert summary["z_hat_mean"] == pytest.approx(1.0, abs=1e-10)
        # the mixture-based Var(Z) has no finite posterior mean; only its interval is reported
        assert "mixture_var_z_mean" not in summary
        lo, hi = summary["mixture_var_z_ci"]
        assert math.isfinite(lo) and math.isfinite(hi)
        assert 0.0 < lo <= hi

    def test_summary_reports_adapted_step_and_divergent_iterations(self, mcmc_out, tmp_path):
        summary = json.loads((mcmc_out / "summary.json").read_text())
        # the adapted step, not the --step-size it started from
        assert math.isfinite(summary["step_size"]) and summary["step_size"] > 0
        assert summary["step_size"] != 0.1
        assert len(summary["divergent_iterations"]) == summary["divergences"]
        # an oversized fixed step diverges in some moves but not all
        out = tmp_path / "rough"
        run(
            "mcmc", "--data", str(mcmc_out.parent / "fleet.csv"), "--out-dir", str(out),
            "--iterations", "200", "--burn-in", "100", "--seed", "2",
            "--step-size", "0.2", "--no-adapt",
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["step_size"] == 0.2
        divergent = summary["divergent_iterations"]
        assert 0 < len(divergent) == summary["divergences"] < 200
        assert divergent == sorted(set(divergent)) and 0 <= divergent[0] and divergent[-1] < 200
        accepted = np.loadtxt(out / "acceptance.csv", delimiter=",", skiprows=1)[:, 1]
        assert not accepted[divergent].any()

    def test_diagnose_reads_own_variance_trace(self, mcmc_out, tmp_path):
        # one row per iteration, so the chain's own trace is long enough
        trace = mcmc_out / "var_z_trace.csv"
        assert len(trace.read_text().splitlines()) == 600 + 1
        out = tmp_path / "diag.json"
        assert run("diagnose", "--trace", str(trace), "--out", str(out)) == EXIT_OK
        assert json.loads(out.read_text())["ess"] > 0

    def test_bad_lengths_config_error(self, mcmc_out, tmp_path):
        data = mcmc_out.parent / "fleet.csv"
        code = run(
            "mcmc", "--data", str(data), "--out-dir", str(tmp_path / "x"),
            "--iterations", "100", "--burn-in", "200",
        )
        assert code == EXIT_CONFIG

    def test_short_chain_rejected_before_running(self, mcmc_out, tmp_path, capsys):
        # 50 post-burn-in draws cannot feed the Geweke check in summary.json
        data = mcmc_out.parent / "fleet.csv"
        out = tmp_path / "short"
        code = run(
            "mcmc", "--data", str(data), "--out-dir", str(out),
            "--iterations", "150", "--burn-in", "100",
        )
        assert code == EXIT_CONFIG
        assert "post-burn-in" in capsys.readouterr().err
        assert not out.exists()

    def test_same_seed_writes_identical_files(self, mcmc_out, tmp_path):
        again = tmp_path / "again"
        code = run(
            "mcmc", "--data", str(mcmc_out.parent / "fleet.csv"), "--out-dir", str(again),
            "--iterations", "600", "--burn-in", "300", "--seed", "2",
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in mcmc_out.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (again / name).read_bytes() == (mcmc_out / name).read_bytes(), name

    @pytest.mark.parametrize(
        "flags",
        [
            ("--grid-lo", "0"),
            ("--grid-points", "0"),
            ("--grid-lo", "nan"),
            ("--target-accept", "1.5"),
            ("--target-accept", "0"),
            ("--step-size", "nan"),
            ("--step-size", "inf"),
            ("--s0", "nan"),
            ("--m0", "inf"),
        ],
    )
    def test_meaningless_settings_rejected_before_any_output(self, mcmc_out, tmp_path, capsys, flags):
        out = tmp_path / "x"
        code = run(
            "mcmc", "--data", str(mcmc_out.parent / "fleet.csv"), "--out-dir", str(out),
            "--iterations", "200", "--burn-in", "100", *flags,
        )
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_burn_in_rejected_before_any_output(self, mcmc_out, tmp_path, capsys):
        # a negative burn-in used to run the whole chain, write every file
        # and then fail on a five-draw "post-burn-in" trace
        out = tmp_path / "x"
        code = run(
            "mcmc", "--data", str(mcmc_out.parent / "fleet.csv"), "--out-dir", str(out),
            "--burn-in", "-5", "--iterations", "200",
        )
        assert code == EXIT_CONFIG
        assert "config error: burn_in must not be negative" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, mcmc_out, tmp_path, monkeypatch, capsys):
        def broken_chain(*args, **kwargs):
            raise FloatingPointError("non-finite state")

        monkeypatch.setattr("frailplp.cli.run_chain", broken_chain)
        data = mcmc_out.parent / "fleet.csv"
        code = run(
            "mcmc", "--data", str(data), "--out-dir", str(tmp_path / "x"),
            "--iterations", "200", "--burn-in", "100",
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestWriteMatrix:
    @staticmethod
    def reference(path, header, array):
        """Per-value csv.writer output that _write_matrix must reproduce."""
        array = np.asarray(array)
        if array.ndim == 1:
            array = array[:, None]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i, row in enumerate(array):
                writer.writerow([i] + [f"{float(v)!r}" for v in row])

    @pytest.mark.parametrize(
        "array",
        [
            np.array([[0.1, -2.5e-300, 5e-324], [1e300, -0.0, 3.0], [np.inf, -np.inf, np.nan]]),
            np.random.default_rng(0).lognormal(sigma=3.0, size=(40, 7)),
            np.array([0.25, 1.0 / 3.0, 7.0]),
            np.array([1, 0, 0, 1]),
            np.empty((0, 2)),
        ],
    )
    def test_bytes_match_csv_writer(self, tmp_path, array):
        header = ["index", "a", "b"]
        _write_matrix(tmp_path / "new.csv", header, array)
        self.reference(tmp_path / "ref.csv", header, array)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    # rows per chunk of a one-value-per-row table, whose rows hold the index too
    CHUNK_ROWS = _CHUNK_VALUES // 2

    @pytest.mark.parametrize(
        "array",
        [
            np.empty(0),
            np.empty((0, 600)),
            np.arange(CHUNK_ROWS, dtype=float),
            np.arange(CHUNK_ROWS - 1, dtype=float) / 7.0,
            np.arange(CHUNK_ROWS + 1, dtype=float) * 1e-7,
            np.random.default_rng(1).lognormal(sigma=20.0, size=3 * CHUNK_ROWS + 2),
            np.random.default_rng(2).normal(size=(_CHUNK_VALUES // 4, 3)),
            np.array([[1e16, 9999999999999998.0], [1e-5, 1e-4], [9.999999999999999e-05, 5e-324],
                      [np.inf, np.nan], [-np.inf, -0.0]]),
            np.array([3, -7, 2**40, 0]),
            np.arange(60, dtype=np.int64).reshape(20, 3),
            np.random.default_rng(3).lognormal(size=(3, 600)),
            np.random.default_rng(4).lognormal(size=(9, _CHUNK_VALUES + 5)),
        ],
    )
    def test_bytes_match_csv_writer_across_chunks(self, tmp_path, array):
        header = ["index", "values"]
        _write_matrix(tmp_path / "new.csv", header, array)
        self.reference(tmp_path / "ref.csv", header, array)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_columns_match_their_stack(self, tmp_path):
        rng = np.random.default_rng(5)
        z, counts, block = rng.lognormal(size=700), rng.integers(0, 9, 700), rng.normal(size=(700, 4))
        header = ["index", "z", "n", "a", "b", "c", "d"]
        _write_matrix(tmp_path / "new.csv", header, z, counts, block)
        self.reference(tmp_path / "ref.csv", header, np.column_stack([z, counts, block]))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[1].split(",")[2].endswith(".0")

    def test_wide_trace_writes_in_bounded_memory(self, tmp_path):
        array = np.random.default_rng(6).lognormal(size=(200, 500))
        tracemalloc.start()
        try:
            _write_matrix(tmp_path / "z.csv", ["iteration"] + [f"z_{j}" for j in range(500)], array)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000


    def test_index_column_builds_no_array(self, tmp_path):
        # the index is written from a range: an index array of these 200 000
        # rows would alone hold 1.6 MB
        column = np.random.default_rng(7).lognormal(size=200_000)
        tracemalloc.start()
        try:
            _write_matrix(tmp_path / "c.csv", ["index", "v"], column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000

class TestDiagnose:
    def test_on_variance_trace(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rng = np.random.default_rng(1)
        values = rng.standard_normal(2000)
        trace.write_text(
            "iteration,value\n" + "\n".join(f"{i},{float(v)!r}" for i, v in enumerate(values)) + "\n"
        )
        out = tmp_path / "diag.json"
        assert run("diagnose", "--trace", str(trace), "--out", str(out)) == EXIT_OK
        result = json.loads(out.read_text())
        assert result["geweke_pass"] is True
        assert result["ess"] > 1000
        assert len(result["acf"]) == 51

    def test_missing_trace_is_data_error(self, tmp_path, capsys):
        assert run("diagnose", "--trace", str(tmp_path / "nope.csv")) == EXIT_DATA
        assert "data error: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["7,not-a-number", "7", "7,\xff"])
    def test_malformed_trace_is_data_error(self, tmp_path, capsys, bad_row):
        trace = tmp_path / "trace.csv"
        rows = [f"{i},{0.5 + 0.01 * i!r}" for i in range(200)]
        rows[7] = bad_row
        trace.write_bytes(("iteration,value\n" + "\n".join(rows) + "\n").encode("latin-1"))
        assert run("diagnose", "--trace", str(trace)) == EXIT_DATA
        assert f"data error: malformed trace {trace}" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [0, 1])
    def test_short_trace_is_data_error(self, tmp_path, capsys, rows):
        # a header-only or one-row trace is a short input, not a bad flag,
        # and loadtxt's empty-input warning does not escape
        trace = tmp_path / "trace.csv"
        trace.write_text("iteration,value\n" + "".join(f"{i},0.5\n" for i in range(rows)))
        assert run("diagnose", "--trace", str(trace)) == EXIT_DATA
        assert f"data error: trace {trace} holds {rows} values" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--max-lag", "-3"), "max_lag must be non-negative"),
            (("--first-frac", "-0.2"), "must be positive and sum to at most 1"),
            (("--last-frac", "0"), "must be positive and sum to at most 1"),
            (("--first-frac", "1.5"), "must be positive and sum to at most 1"),
            (("--first-frac", "0.6"), "must be positive and sum to at most 1"),
            (("--first-frac", "0.001"), "each needs at least 2"),
        ],
    )
    def test_bad_diagnostic_settings_are_config_error(self, tmp_path, capsys, flags, message):
        # a negative lag, a window of no or negative size, windows that
        # overlap and a window of fewer than 2 draws are rejected, not scored
        trace = tmp_path / "trace.csv"
        trace.write_text("iteration,value\n" + "".join(f"{i},{math.sin(i)!r}\n" for i in range(1000)))
        out = tmp_path / "diag.json"
        assert run("diagnose", "--trace", str(trace), "--out", str(out), *flags) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["2", "-3"])
    def test_column_beyond_header_is_config_error(self, tmp_path, capsys, column):
        trace = tmp_path / "trace.csv"
        trace.write_text("iteration,value\n" + "".join(f"{i},{0.5 + 0.01 * i!r},9\n" for i in range(200)))
        assert run("diagnose", "--trace", str(trace), "--column", column) == EXIT_CONFIG
        assert "beyond the 2 columns" in capsys.readouterr().err


class TestBenchmark:
    def test_smoke_single_replication(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "benchmark", "--scenario", "A", "--M", "1", "--m", "10",
            "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("eta,m,M,parameter")
        assert len(lines) == 5  # four parameters

    def test_unknown_scenario(self, tmp_path):
        code = run(
            "benchmark", "--scenario", "Z", "--M", "1", "--seed", "3",
            "--out", str(tmp_path / "b.csv"),
        )
        assert code == EXIT_CONFIG

    def test_output_in_missing_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "b.csv"
        code = run(
            "benchmark", "--scenario", "A", "--M", "1", "--m", "10",
            "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_CONFIG
        assert f"config error: cannot write {out}" in capsys.readouterr().err

    def test_mismatched_cause_lists(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run("benchmark", "--beta", "1.0,2.0", "--alpha", "5", "--M", "2", "--seed", "1", "--out", str(out))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: beta and alpha must have matching length\n"
        assert list(tmp_path.iterdir()) == []

    def test_improper_replication_is_named_and_reproducible(self, tmp_path, capsys):
        # the failing replication's fleet, simulated on its own, fails `fit`
        # with the same message
        out = tmp_path / "b.csv"
        design = ["--beta", "1", "--alpha", "1", "--m", "3", "--eta", "0"]
        assert run("benchmark", *design, "--M", "50", "--seed", "1", "--out", str(out)) == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        match = re.fullmatch(r"numerical failure: replication (\d+) \(simulate seed (\d+)\): (.+)\n", err)
        assert match, err
        rep, seed, cause = int(match[1]), match[2], match[3]
        assert int(seed) == np.random.SeedSequence(entropy=1, spawn_key=(rep,)).generate_state(1)[0]
        fleet = tmp_path / "rep.csv"
        assert run("simulate", *design, "--normalize", "--seed", seed, "--out", str(fleet)) == EXIT_OK
        capsys.readouterr()
        assert run("fit", "--data", str(fleet), "--out", str(tmp_path / "e.csv")) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {cause}\n"

    def test_eta_whose_gamma_shape_overflows_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = run("benchmark", "--eta", "1e-310", "--m", "3", "--M", "5", "--seed", "1", "--out", str(out))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: frailty variance eta 1e-310 is too small: the gamma shape 1/eta overflows\n"
        )
        assert not out.exists()

    def test_replication_whose_frailties_all_underflow_is_named(self, tmp_path, capsys):
        # the harness normalises every replication's frailties; the named
        # replication's fleet, simulated on its own, fails the same way
        out = tmp_path / "b.csv"
        design = ["--m", "3", "--eta", "1e6"]
        assert run("benchmark", *design, "--M", "5", "--seed", "1", "--out", str(out)) == EXIT_NUMERICAL
        assert not out.exists()
        err = capsys.readouterr().err
        match = re.fullmatch(r"numerical failure: replication 0 \(simulate seed (\d+)\): (.+)\n", err)
        assert match, err
        seed, cause = match[1], match[2]
        assert cause.startswith(f"all 3 frailties drawn with eta 1000000.0 and seed {seed} underflowed to 0")
        fleet = tmp_path / "rep.csv"
        assert run("simulate", *design, "--normalize", "--seed", seed, "--out", str(fleet)) == EXIT_NUMERICAL
        assert capsys.readouterr().err == f"numerical failure: {cause}\n"

    def test_explicit_parameters(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            "benchmark", "--beta", "1.0", "--alpha", "6.0", "--m", "10",
            "--M", "25", "--eta", "0", "--seed", "4", "--out", str(out),
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 3


class TestConfigFile:
    def test_file_values_applied_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=12\neta=0.5\nseed=9\n")
        out = tmp_path / "d.csv"
        code = run(
            "simulate", "--config", str(cfg), "--out", str(out), "--m", "7",
            "--seed", "9",
        )
        assert code == EXIT_OK
        # --m on the command line wins over m=12 in the file
        assert ingest(out).design.m == 7

    def test_abbreviated_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta=0.9\nm=12\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(a), "--et", "0.3",
                   "--seed", "4") == EXIT_OK
        assert run("simulate", "--out", str(b), "--m", "12", "--eta", "0.3",
                   "--seed", "4") == EXIT_OK
        # --et is argparse's abbreviation of --eta and wins over eta=0.9
        assert a.read_bytes() == b.read_bytes()
        assert ingest(a).design.m == 12

    def test_file_values_converted_for_flags_without_defaults(self, fleet_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T=20\nm=40\nK=2\n")
        code = run("fit", "--config", str(cfg), "--data", str(fleet_csv),
                   "--out", str(tmp_path / "e.csv"))
        assert code == EXIT_OK

    def test_required_flags_given_only_in_the_file(self, fleet_csv, tmp_path):
        # --seed and --out for simulate, --data for fit and mcmc and --trace
        # for diagnose may all come from the file; a flag given still wins
        ref, a, b = tmp_path / "ref.csv", tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--out", str(ref), "--seed", "9") == EXIT_OK
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"seed=9\nout={a}\n")
        assert run("simulate", "--config", str(cfg)) == EXIT_OK
        assert run("simulate", "--config", str(cfg), "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes() == ref.read_bytes()
        assert run("simulate", "--config", str(cfg), "--out", str(b), "--seed", "4") == EXIT_OK
        assert b.read_bytes() != ref.read_bytes()

        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"data={fleet_csv}\niterations=300\nburn_in=100\n")
        assert run("fit", "--config", str(cfg), "--out", str(tmp_path / "e.csv")) == EXIT_OK
        out_dir = tmp_path / "chain"
        assert run("mcmc", "--config", str(cfg), "--out-dir", str(out_dir)) == EXIT_OK
        cfg = tmp_path / "diag.cfg"
        cfg.write_text(f"trace={out_dir / 'var_z_trace.csv'}\n")
        assert run("diagnose", "--config", str(cfg)) == EXIT_OK

    def test_required_flag_missing_from_flags_and_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m=12\n")
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv"))
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path):
        code = run(
            "simulate", "--config", str(tmp_path / "nope.cfg"),
            "--out", str(tmp_path / "d.csv"), "--seed", "1",
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("line", ["mm=7", "func=1", "command=fit", "help=1", "truth_outt=t.csv"])
    def test_unknown_key_is_config_error_naming_key_and_file(self, tmp_path, capsys, line):
        # a key that names no flag of any command was dropped (or, for func,
        # crashed the run); now it stops the run before any output
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=3\n{line}\n")
        out = tmp_path / "d.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
        key = line.partition("=")[0]
        assert f"config error: {cfg}: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "TRUE", "Yes", "0", "false", "NO"])
    def test_boolean_values_in_any_case(self, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"normalize={value}\n")
        out = tmp_path / "d.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(out), "--eta", "1", "--m", "5",
                   "--seed", "3") == EXIT_OK
        normalized = value.lower() in ("1", "true", "yes")
        assert (abs(read_truth(f"{out}.truth.csv").mean() - 1.0) < 1e-12) == normalized

    def test_boolean_no_adapt_from_file(self, fleet_csv, tmp_path):
        # adaptation off: summary.json reports the configured step size
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-adapt=Yes\nstep-size=0.07\n")
        out_dir = tmp_path / "chain"
        assert run("mcmc", "--config", str(cfg), "--data", str(fleet_csv), "--out-dir", str(out_dir),
                   "--iterations", "150", "--burn-in", "50") == EXIT_OK
        assert json.loads((out_dir / "summary.json").read_text())["step_size"] == 0.07

    @pytest.mark.parametrize(
        "command, line",
        [("simulate", "normalize=ture"), ("mcmc", "no_adapt=2"), ("benchmark", "with-mcmc=on")],
    )
    def test_bad_boolean_value_is_config_error_naming_key_and_file(
        self, fleet_csv, tmp_path, capsys, command, line
    ):
        # a misspelt value was read as false, and the run went on without a word
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed=3\ndata={fleet_csv}\n{line}\n")
        out = tmp_path / "out"
        flag = "--out-dir" if command == "mcmc" else "--out"
        assert run(command, "--config", str(cfg), flag, str(out)) == EXIT_CONFIG
        key = line.partition("=")[0].replace("-", "_")
        assert f"config error: {cfg}: key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_keys_of_other_commands_allowed(self, tmp_path):
        # one file may serve several commands: simulate skips mcmc's and
        # benchmark's keys, and a hyphenated key names its flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations=300\nwith-mcmc=1\nM=5\ntruth-out=\nm=7\nseed=3\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", str(cfg), "--out", str(a)) == EXIT_OK
        assert run("simulate", "--m", "7", "--seed", "3", "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this is not a pair\n")
        code = run(
            "simulate", "--config", str(cfg), "--out", str(tmp_path / "d.csv"),
            "--seed", "1",
        )
        assert code == EXIT_CONFIG


RUNTIME_PROBE = """
import sys
import numpy as np
from frailplp.cli import main

after_import = set(sys.modules)
out = sys.argv[1]
codes = [
    main(["simulate", "--out", out + "/fleet.csv", "--m", "30", "--T", "20",
          "--beta", "1.2,0.7", "--alpha", "5,13.33", "--eta", "0.5", "--seed", "3"]),
    main(["fit", "--data", out + "/fleet.csv", "--out", out + "/est.csv", "--duane-out", out + "/duane"]),
    main(["benchmark", "--scenario", "A", "--m", "20", "--eta", "0.5", "--M", "5",
          "--seed", "1", "--out", out + "/bench.csv"]),
]
lazy_fft = int(np.__version__.split(".")[0]) >= 2
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(lazy_fft and "numpy.fft" in after_import)
print("numpy.ma" in sys.modules)
"""


IMPORT_PROBE = """
import sys
import numpy
before = set(sys.modules)
import frailplp.cli
print(sorted(m for m in set(sys.modules) - before
             if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "random"]))
"""


class TestRuntimeDependencies:
    def test_import_loads_neither_numpy_random_nor_scipy(self):
        # setup_s is the import time of the CLI: numpy.random (about 15 ms)
        # and scipy load on first use, not at import
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_cli_runs_without_scipy(self, tmp_path):
        # A fresh interpreter, so that no scipy imported by the test suite
        # itself can hide an import made by the package.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", RUNTIME_PROBE, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        codes, scipy_modules, fft_at_import, masked = proc.stdout.strip().splitlines()[-4:]
        assert codes == "[0, 0, 0]"
        assert scipy_modules == "[]"
        # numpy 2 loads numpy.fft on first use; the diagnostics touch it only
        # when called, so importing the CLI does not pay for it.
        assert fft_at_import == "False"
        # nor do the commands load numpy.ma, which np.unique imports and
        # which adds about 1.4 MB to the benchmark's peak RSS
        assert masked == "False"


PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "frailplp"


class TestPublicNames:
    """A deleted function must take its exports with it."""

    @pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
    def test_every_name_in_all_resolves(self, module):
        name = "frailplp" if module == "__init__" else f"frailplp.{module}"
        mod = importlib.import_module(name)
        assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []

    def test_every_name_the_package_imports_resolves(self):
        package = importlib.import_module("frailplp")
        tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
        assert imports
        for node in imports:
            source = importlib.import_module(f"frailplp.{node.module}")
            for alias in node.names:
                assert hasattr(source, alias.name), (node.module, alias.name)
                assert hasattr(package, alias.asname or alias.name), alias.name
