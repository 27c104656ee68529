#!/usr/bin/env python3
"""frailplp benchmark: one workload, one seed, a closed loop for N seconds.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mcmc_gamma_m50 --seed 1 --seconds 22 --trace 0

The workload's inputs are generated from --seed and fed to
``frailplp.cli.main`` in-process, one command after the other, until
--seconds have passed (at least one command).  Every command's outputs are
checked; a command that fails or whose output fails a check counts in
``failed``.  The report is printed for a reader, and the last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
reports its per-layer metrics instead: it runs the first command untraced
and again traced, requires bit-identical outputs of the two, reports the
difference of their scaled times as the tracing overhead, then keeps going
traced.  The
spans are written to ``.perfbench_work/<workload>-s<seed>-t1/spans.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# cap BLAS pools at the cores this process may use, before numpy loads
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import ess as ess_mod  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SETUP_REPEATS = 8
# A fresh interpreter importing numpy alone, the part of start-up that no
# change to frailplp can move, is the reference for setup_s: each import of
# frailplp.cli is scaled by REFERENCE_NOMINAL_S / (mean reference time around
# it).  Process start and extension loading speed drift with the host's load,
# and both imports drift together.  REFERENCE_NOMINAL_S is about the
# reference's median on the machine of baseline.json.
REFERENCE_NOMINAL_S = 0.16
# On a shared host the speed of a core drifts by up to 2x within seconds.  A
# fixed reference kernel is timed before and after each timed command, for
# KERNEL_SHARE of the command's time, and the command time is scaled by
# KERNEL_NOMINAL_S / (mean kernel unit time around it): the time the command
# takes when one kernel unit takes KERNEL_NOMINAL_S, about its median on the
# machine of baseline.json.  Runs minutes apart then compare at one speed.
KERNEL_NOMINAL_S = 1e-3
KERNEL_SHARE = 0.2


def kernel_unit():
    """Fixed interpreter- and numpy-bound work that does not touch frailplp."""
    a = np.linspace(0.1, 1.0, 64)
    s = 0.0
    for i in range(300):
        a = np.sqrt(a * 1.0001 + 0.5)
        s += float(a[i & 63])
    return s


def kernel_seconds(budget):
    """Mean seconds per kernel unit, measured for at least `budget` seconds."""
    n = 0
    t0 = time.perf_counter()
    while True:
        kernel_unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / n


class MachineSpeed:
    """Kernel samples taken between timed pieces of work."""

    def __init__(self):
        self.last = kernel_seconds(0.1)

    def scale(self, elapsed):
        """Factor for work that took `elapsed` s since the last sample."""
        after = kernel_seconds(KERNEL_SHARE * elapsed)
        factor = 2.0 * KERNEL_NOMINAL_S / (self.last + after)
        self.last = after
        return factor


def import_program():
    """The package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import frailplp.cli
    import frailplp.diagnostics

    if Path(frailplp.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"frailplp resolved to {frailplp.cli.__file__}, not under {SRC}")
    return frailplp.cli, frailplp.diagnostics


def setup_seconds():
    """(scaled, raw) times of fresh interpreters importing frailplp.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def interpreter(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    # the first imports write bytecode caches and fill the file cache
    interpreter("import frailplp.cli")
    before = interpreter("import numpy")
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        elapsed = interpreter("import frailplp.cli")
        after = interpreter("import numpy")
        scaled.append(elapsed * 2.0 * REFERENCE_NOMINAL_S / (before + after))
        raw.append(elapsed)
        before = after
    return scaled, raw


def ess_crosscheck(diagnostics):
    """The benchmark's ESS agrees with the package's on a fixed AR(1) series."""
    x = ess_mod.ar1(0.5, 4000, seed=20210101)
    ours, theirs = ess_mod.ess(x), diagnostics.ess(x)
    if abs(ours / theirs - 1.0) > 0.05:
        return [f"ESS cross-check: benchmark {ours:.1f} vs frailplp.diagnostics {theirs:.1f}"]
    return []


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    line = f"  {name:<26} {statistics.median(values):12.6g} {unit:<6} median of {len(values)}"
    t = tail(values)
    if t:
        line += f", p{t[0]:.0f} {t[1]:.6g}"
    return line


def digest(out):
    """Hash of every file an operation wrote, to compare traced and untraced runs."""
    h = hashlib.sha256()
    out = Path(out)
    paths = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else [out]
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_ops(wl, deadline, first_index, failures, scale=False):
    """Operations in a closed loop until the deadline; returns them all.

    With `scale`, each op's ``scale`` converts its time to the nominal
    machine speed (see KERNEL_NOMINAL_S); otherwise it is 1.
    """
    ops = []
    i = first_index
    speed = MachineSpeed() if scale else None
    while not ops or time.perf_counter() < deadline:
        try:
            op = wl.operate(i)
            problems = wl.check(op)
        except Exception as exc:  # a crashed command is a failed operation
            op = Op(0.0, {}, 0, None, None)
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append((i, problems))
        op.failed = bool(problems)
        op.scale = speed.scale(op.seconds) if speed else 1.0
        ops.append(op)
        i += 1
    return ops


def per_layer_metrics(tracer, ops, wl):
    tot = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    n_ops = len(ops)
    op_seconds = sum(op.seconds for op in ops)
    sweeps = n_ops * getattr(wl, "iterations", 0)
    out = {
        "simulate.ms_per_call": 1e3 * ratio(incl("simulate.simulate"), calls("simulate.simulate")),
        "simulate.events_per_s": ratio(counts["simulate.events"], incl("simulate.simulate")),
        "data.ingest.s": ratio(incl("data.ingest"), calls("data.ingest")),
        "data.ingest.events_per_s": ratio(counts["data.ingest.events"], incl("data.ingest")),
        "data.write_dataset.s": ratio(incl("data.write_dataset"), calls("data.write_dataset")),
        "data.summarize.ms_per_call": 1e3 * ratio(incl("data.summarize"), calls("data.summarize")),
        "plp.posterior.ms_per_call": 1e3 * ratio(incl("plp.posterior"), calls("plp.posterior")),
        "plp.interval.ms_per_rep": 1e3 * ratio(incl("plp.interval"), calls("plp.posterior")),
        "plp.duane_points.s": ratio(incl("plp.duane_points"), calls("plp.duane_points")),
    }
    for stage in (
        "prune_levels", "update_concentration", "update_sticks", "update_slices",
        "extend_levels", "update_atoms", "update_allocations",
    ):
        out[f"dpm.{stage}.ms_per_sweep"] = 1e3 * ratio(incl(f"dpm.{stage}"), sweeps)
    out |= {
        "dpm.levels_per_sweep": ratio(counts["dpm.levels"], calls("dpm.extend_levels")),
        "dpm.clusters_per_sweep": ratio(counts["dpm.clusters"], calls("dpm.update_allocations")),
        "dpm.occupied_level_ratio": ratio(counts["dpm.clusters"], counts["dpm.instantiated"]),
        "dpm.density_estimate.s": ratio(incl("dpm.density_estimate"), calls("dpm.density_estimate")),
        "dpm.mixture_variance.s": ratio(incl("dpm.mixture_variance"), calls("dpm.mixture_variance")),
        "hmc.hmc_update.ms_per_sweep": 1e3 * ratio(incl("hmc.hmc_update"), sweeps),
        "hmc.grad_evals_per_sweep": ratio(calls("hmc.log_target_z"), sweeps),
        "hmc.log_target_z.us_per_call": 1e6 * ratio(incl("hmc.log_target_z"), calls("hmc.log_target_z")),
        "hmc.accept_ratio": ratio(counts["hmc.accepted"], calls("hmc.hmc_update")),
        "hmc.divergences": ratio(counts["hmc.divergent"], len(counts.chains)),
        "diagnostics.run_harness.self_ms_per_rep": 1e3 * ratio(
            tot.get("diagnostics.run_harness", (0, 0.0, 0.0))[2], calls("plp.posterior")
        ),
    }
    c_ess = sum(ess_mod.ess(ch.c[ch.burn_in :]) for ch in counts.chains)
    out["dpm.ess_per_s.c"] = ratio(c_ess, op_seconds)
    if hasattr(wl, "ess_per_s"):
        out |= wl.ess_per_s(op_seconds)
    else:
        out |= {"ess_per_s.var_z": 0.0, "ess_per_s.z_min": 0.0}
    for module in spans.MODULES:
        s = sum(row[2] for name, row in tot.items() if name.split(".", 1)[0] == module)
        out[f"{module}.self_s"] = ratio(s, n_ops)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    cli, diagnostics = import_program()

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-s{args.seed}-t{args.trace}"
    if work.exists():
        for p in sorted(work.rglob("*"), reverse=True):
            p.unlink() if p.is_file() else p.rmdir()
    work.mkdir(parents=True, exist_ok=True)

    print(f"frailplp benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; {wl.why}")
    setup, setup_wall = ([], []) if args.trace else setup_seconds()
    failures = []
    checks = ess_crosscheck(diagnostics)
    if checks:
        failures.append(("ess cross-check", checks))

    # resolve cli.main at each call, so that the traced wrapper is the one called
    def main_cli(argv):
        return cli.main(argv)

    wl.prepare(main_cli, work, args.seed)
    tracer = None
    start = time.perf_counter()
    deadline = start + args.seconds
    if args.trace:
        ref = run_ops(wl, 0.0, 0, failures, scale=True)[0]
        ref_digest = digest(ref.out) if not ref.failed else None
        wl.prepare(main_cli, work, args.seed)  # resets the pooled ESS
        tracer = spans.Tracer()
        tracer.install()
        try:
            first = run_ops(wl, 0.0, 0, failures, scale=True)[0]
            if not first.failed and digest(first.out) != ref_digest:
                failures.append((0, ["traced and untraced outputs differ"]))
                first.failed = True
            ops = [first] + run_ops(wl, deadline, 1, failures)
        finally:
            tracer.uninstall()
    else:
        ops = run_ops(wl, deadline, 0, failures, scale=True)
    loop_s = time.perf_counter() - start

    attempted = len(ops) + 1
    failed = sum(op.failed for op in ops) + bool(checks)
    seconds = [op.seconds for op in ops if not op.failed] or [0.0]
    scaled = [op.seconds * op.scale for op in ops if not op.failed] or [0.0]
    parts = {k: [op.parts[k] for op in ops if not op.failed] for k in ops[0].parts}
    rate = sum(op.units for op in ops if not op.failed) / max(sum(seconds), 1e-12)

    print(f"  {len(ops)} commands in {loop_s:.1f} s; failed {failed} of {attempted} "
          f"(including the ESS cross-check)")
    for index, problems in failures:
        for p in problems:
            print(f"  FAILED {index}: {p}")
    if args.trace:
        metrics = per_layer_metrics(tracer, ops, wl)
        ref_s, first_s = ref.seconds * ref.scale, first.seconds * first.scale
        metrics["trace.overhead_frac"] = first_s / ref_s - 1.0 if ref_s else 0.0
        spans_path = work / "spans.csv"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for name, s, e, parent in tracer.spans():
                fh.write(f"{name},{s - start:.9f},{e - start:.9f},{parent}\n")
        print(f"  {len(tracer.names)} spans written to {spans_path.relative_to(ROOT)}")
        absent = sorted(
            n for n in units if metrics.get(n) == 0.0 and n.split(".")[0] in spans.MODULES
        )
        if absent:
            print(f"  absent or not exercised (reported as 0): {', '.join(absent)}")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "setup_wall_s": statistics.median(setup_wall),
            "command_s": statistics.median(scaled),
            "command_wall_s": statistics.median(seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(describe("setup_s", setup, "s") + " (at the nominal machine speed)")
        print(describe("setup_wall_s", setup_wall, "s"))
        print(describe("command_s", scaled, "s") + " (at the nominal machine speed)")
        print(describe("command_wall_s", seconds, "s"))
        if len(parts) > 1:
            for k, v in parts.items():
                print(describe(k, v, "s"))
        print(f"  {wl.unit + '_per_s':<26} {rate:12.6g} 1/s    over {len(seconds)} commands")
        if hasattr(wl, "ess_per_s"):
            for k, v in wl.ess_per_s(sum(seconds)).items():
                metrics[k] = v
                print(f"  {k:<26} {v:12.6g} 1/s    pooled over {len(seconds)} chains")
        print(f"  {'failed_frac':<26} {failed / attempted:12.6g} ratio")
        print(f"  {'peak_rss_mb':<26} {metrics['peak_rss_mb']:12.6g} MB")

    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    if args.trace:
        for name in units:
            print(f"  {name:<40} {metrics[name]:12.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
