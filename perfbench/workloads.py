"""The four benchmark workloads and the checks on their outputs.

Each workload drives ``frailplp.cli.main`` in-process, as a user would run
the ``frailplp`` command, on inputs generated from the workload seed.  One
operation is one user-visible command (for ``fleet_io_m5000``, the
``simulate`` then ``fit`` pair).  ``check`` recomputes what it can from the
raw files with numpy and returns one message per failed check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time

import numpy as np

import ess as ess_mod

ZETA = 2.0
SCENARIO_A = dict(beta=(1.2, 0.7), alpha=(5.0, 13.33), T=20.0)
# A bimodal frailty: two log-normal components of equal weight, 2.5 apart on
# the log scale (criterion 8 uses 1.3).  From its one-cluster start, a chain
# on m=500 of these systems mostly splits into 2-4 occupied clusters within
# 20-140 sweeps; with the criterion 8 spacing it takes several hundred.
BIMODAL = "0.5,-1.5,0.2,0.5,1.0,0.2"
# A check on a per-command frequency fails by chance at most ~1e-6 per check,
# so a 10-second run of any workload fails spuriously with negligible odds.
Z_BAND = 5.0


def derived_seed(seed, *key):
    """Integer seed for one input, derived from the workload seed."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(seq.generate_state(1)[0])


class Op:
    """One completed operation: timings, units of work, output location, exit code."""

    def __init__(self, seconds, parts, units, out, code):
        self.seconds = seconds
        self.parts = parts
        self.units = units
        self.out = out
        self.code = code


def run_cli(main, argv):
    """Call ``frailplp.cli.main`` with its stdout captured; (code, seconds, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed, buf.getvalue()


def read_fleet(path):
    """(design dict, int system ids, int causes, float times) from a fleet CSV.

    The file is read by numpy's streaming parser, so that the program, not
    this check, sets the peak memory of the run.
    """
    meta = {}
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        skip = 1
        while line.startswith("#"):
            key, _, value = line.lstrip("#").strip().partition("=")
            meta[key.strip()] = value.strip()
            line = fh.readline()
            skip += 1
    if line.rstrip("\n") != "system_id,cause,time":
        raise ValueError(f"unexpected header {line!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    design = dict(T=float(meta["T"]), m=int(meta["m"]), K=int(meta["K"]))
    return design, rows[:, 0].astype(int), rows[:, 1].astype(int), rows[:, 2]


def count_rows(path):
    """Data rows of a CSV with one header line, counted without keeping them."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


def read_table(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


class Scorecard:
    name = "scorecard_m50"
    why = (
        "frailplp benchmark, scenario A, m=50, eta=0.5: the simulate-then-estimate "
        "harness; simulate- and data-bound, never runs the sampler"
    )
    reps = 100
    unit = "replications"

    def prepare(self, main, work, seed):
        self.main, self.work, self.seed = main, work, seed

    def operate(self, i):
        out = self.work / "scorecard.csv"
        argv = [
            "benchmark", "--scenario", "A", "--m", "50", "--eta", "0.5",
            "--M", str(self.reps), "--seed", str(derived_seed(self.seed, 1, i)),
            "--out", str(out),
        ]
        code, seconds, _ = run_cli(self.main, argv)
        return Op(seconds, {"benchmark_s": seconds}, self.reps, out, code)

    def check(self, op):
        if op.code != 0:
            return [f"exit code {op.code}"]
        rows = read_table(op.out)
        names = [r["parameter"] for r in rows]
        if names != ["beta_1", "beta_2", "alpha_1", "alpha_2"]:
            return [f"scorecard rows {names}"]
        problems = []
        band = Z_BAND * math.sqrt(0.95 * 0.05 / self.reps)
        for r in rows:
            cp95, bias, mc_se = float(r["cp95"]), float(r["bias"]), float(r["mc_se"])
            if int(r["M"]) != self.reps:
                problems.append(f"{r['parameter']}: M={r['M']}")
            if abs(cp95 - 0.95) > band:
                problems.append(f"{r['parameter']}: cp95={cp95} outside 0.95 +- {band:.3f}")
            if not abs(bias) <= Z_BAND * mc_se:
                problems.append(f"{r['parameter']}: bias {bias} beyond {Z_BAND} MC s.e.")
            if not close(float(r["rmse"]) ** 2, float(r["mse"]), rel=1e-6):
                problems.append(f"{r['parameter']}: rmse^2 != mse")
        return problems


class FleetIo:
    name = "fleet_io_m5000"
    why = (
        "frailplp simulate writes an m=5000 fleet (~91k events), then frailplp fit "
        "--duane-out reads it back: large-file data-layer I/O"
    )
    m = 5000
    unit = "events"

    def prepare(self, main, work, seed):
        self.main, self.work, self.seed = main, work, seed

    def operate(self, i):
        fleet = self.work / "fleet.csv"
        sim = [
            "simulate", "--out", str(fleet), "--truth-out", str(self.work / "truth.csv"),
            "--m", str(self.m), "--T", str(SCENARIO_A["T"]),
            "--beta", ",".join(map(str, SCENARIO_A["beta"])),
            "--alpha", ",".join(map(str, SCENARIO_A["alpha"])),
            "--eta", "0.5", "--seed", str(derived_seed(self.seed, 2, i)),
        ]
        fit = [
            "fit", "--data", str(fleet), "--out", str(self.work / "estimates.csv"),
            "--duane-out", str(self.work / "duane"), "--zeta", str(ZETA),
        ]
        code, sim_s, text = run_cli(self.main, sim)
        fit_s = 0.0
        if code == 0:
            code, fit_s, more = run_cli(self.main, fit)
            text += more
        parts = {"simulate_s": sim_s, "fit_s": fit_s}
        words = text.split()
        events = int(words[1]) if words[:1] == ["wrote"] else 0
        return Op(sim_s + fit_s, parts, events, self.work, code)

    def check(self, op):
        if op.code != 0:
            return [f"exit code {op.code}"]
        design, sid, cause, t = read_fleet(op.out / "fleet.csv")
        problems = []
        if design != dict(T=SCENARIO_A["T"], m=self.m, K=2):
            problems.append(f"design {design}")
        if t.size != op.units:
            problems.append(f"{t.size} events in the file, {op.units} reported")
        if not (np.all((sid >= 1) & (sid <= self.m)) and np.all((cause == 1) | (cause == 2))):
            problems.append("system id or cause out of range")
        if not np.all((t > 0) & (t < design["T"])):
            problems.append("failure time outside (0, T)")
        truth = np.loadtxt(op.out / "truth.csv", delimiter=",", skiprows=1, ndmin=2)
        if truth.shape != (self.m, 2) or not np.all(truth[:, 1] > 0):
            problems.append("truth file is not m positive frailties")

        # closed form from the raw file: beta_q mean (n_q + 1 - zeta) / S_q,
        # alpha_q mean n_q / m, with S_q the sum of log(T / t) over cause q
        n_q = np.bincount(cause, minlength=3)[1:]
        s_q = np.bincount(cause, weights=np.log(design["T"] / t), minlength=3)[1:]
        expect = {f"beta_{q + 1}": (n_q[q] + 1.0 - ZETA) / s_q[q] for q in range(2)}
        expect |= {f"alpha_{q + 1}": n_q[q] / self.m for q in range(2)}
        got = {r["parameter"]: float(r["mean"]) for r in read_table(op.out / "estimates.csv")}
        if got.keys() != expect.keys():
            problems.append(f"estimate rows {sorted(got)}")
        else:
            for name, value in expect.items():
                if not close(got[name], value):
                    problems.append(f"{name}: fit {got[name]!r} != closed form {value!r}")
        for q in range(2):
            rows = count_rows(op.out / f"duane.cause{q + 1}.csv")
            if rows != n_q[q]:
                problems.append(f"duane cause {q + 1}: {rows} rows for n_q={n_q[q]}")
        return problems


class Mcmc:
    """``frailplp mcmc`` chains; fleet and chain seeds come from the workload seed.

    Chain i runs on fleet i % FLEETS, so that the median of a run covers
    several fleets and depends less on the cost of one fleet's posterior.
    """

    unit = "draws"
    FLEETS = 8

    def __init__(self, name, why, m, mixture, iterations, burn_in):
        self.name, self.why, self.m = name, why, m
        self.mixture, self.iterations, self.burn_in = mixture, iterations, burn_in

    def prepare(self, main, work, seed):
        self.main, self.work, self.seed = main, work, seed
        for k in range(self.FLEETS):
            argv = [
                "simulate", "--out", str(work / f"fleet{k}.csv"), "--m", str(self.m),
                "--normalize", "--seed", str(derived_seed(seed, 3, k)),
            ]
            if self.mixture:
                argv += ["--frailty-mixture", self.mixture]
            else:
                argv += ["--eta", "0.5"]
            code, _, _ = run_cli(main, argv)
            if code != 0:
                raise RuntimeError(f"simulating input fleet {k} exited {code}")
        self.ess_var_z = 0.0
        self.ess_z_min = 0.0

    def operate(self, i):
        out = self.work / "mcmc"
        argv = [
            "mcmc", "--data", str(self.work / f"fleet{i % self.FLEETS}.csv"),
            "--out-dir", str(out),
            "--iterations", str(self.iterations), "--burn-in", str(self.burn_in),
            "--seed", str(derived_seed(self.seed, 4, i)),
        ]
        code, seconds, _ = run_cli(self.main, argv)
        draws = self.iterations - self.burn_in
        return Op(seconds, {"mcmc_s": seconds}, draws, out, code)

    def check(self, op):
        if op.code != 0:
            return [f"exit code {op.code}"]
        problems = []
        with open(op.out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        z = np.loadtxt(op.out / "z_trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        if z.shape != (self.iterations, self.m):
            return [f"z trace shape {z.shape}"]
        if not np.all(np.isfinite(z) & (z > 0)):
            problems.append("z trace has non-positive or non-finite draws")
        if np.max(np.abs(z.mean(axis=1) - 1.0)) > 1e-8:
            problems.append("a z draw violates mean(z) = 1")
        z_hat = np.loadtxt(op.out / "z_hat.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        if abs(z_hat.mean() - 1.0) > 1e-8 or abs(summary["z_hat_mean"] - 1.0) > 1e-8:
            problems.append(f"mean(z_hat) = {z_hat.mean()!r}, not 1")
        if not 0.5 <= summary["acceptance_rate"] <= 0.99:
            problems.append(f"acceptance rate {summary['acceptance_rate']}")
        if summary["divergences"] > 0.05 * self.iterations:
            problems.append(f"{summary['divergences']} divergences in {self.iterations}")
        post = z[self.burn_in :]
        var_z = np.sum((post - 1.0) ** 2, axis=1) / (self.m - 1)
        if not close(summary["var_z_mean"], float(var_z.mean())):
            problems.append("summary var_z_mean differs from the z trace")
        dens = np.loadtxt(op.out / "frailty_density.csv", delimiter=",", skiprows=1, ndmin=2)
        if dens.shape[0] != 300 or not np.all(np.isfinite(dens[:, 2]) & (dens[:, 2] >= 0)):
            problems.append("frailty density grid malformed")
        if not problems:
            # chains are independent, so their effective draws add
            self.ess_var_z += ess_mod.ess(var_z)
            self.ess_z_min += float(ess_mod.ess_columns(post).min())
        return problems

    def ess_per_s(self, chain_seconds):
        """ESS of var_z and of each chain's worst-mixing z_j, summed over chains,
        per second of chain time."""
        if chain_seconds <= 0:
            return {"ess_per_s.var_z": 0.0, "ess_per_s.z_min": 0.0}
        return {
            "ess_per_s.var_z": self.ess_var_z / chain_seconds,
            "ess_per_s.z_min": self.ess_z_min / chain_seconds,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Scorecard(),
        FleetIo(),
        Mcmc(
            "mcmc_gamma_m50",
            "frailplp mcmc on the desk-scale 50-system gamma-frailty fleet (eta=0.5): "
            "allocations and HMC split each sweep about evenly",
            m=50, mixture=None, iterations=400, burn_in=150,
        ),
        Mcmc(
            "mcmc_bimodal_m500",
            "frailplp mcmc on a 500-system bimodal log-normal-mixture fleet: "
            "allocation-bound; most chains split into 2-4 occupied clusters during burn-in",
            m=500, mixture=BIMODAL, iterations=200, burn_in=100,
        ),
    )
}
