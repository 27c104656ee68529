#!/usr/bin/env python3
"""Monte Carlo scorecards for the closed-form estimators across fleet sizes.

Runs the simulate-then-estimate harness for the two built-in parameter
scenarios at several fleet sizes and frailty variances, and writes one CSV
per scenario with bias / RMSE / 95% coverage per parameter.  With
--with-mcmc, an eta row (posterior frailty variance) is added per cell at a
much higher cost per replication.

Example:
    python3 scripts/run_benchmark_tables.py --out-dir results --M 500 --seed 1
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import time

from frailplp import SCENARIOS, ObservationDesign, PriorConfig, SimScenario, run_harness


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="benchmark_tables")
    ap.add_argument("--M", type=int, default=2000, help="replications per cell")
    ap.add_argument("--m", type=int, nargs="+", default=[10, 50, 100], help="fleet sizes")
    ap.add_argument("--eta", type=float, nargs="+", default=[0.0, 0.5], help="frailty variances")
    ap.add_argument("--T", type=float, default=20.0)
    ap.add_argument("--zeta", type=float, default=2.0)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--with-mcmc", action="store_true")
    ap.add_argument("--mcmc-iterations", type=int, default=1500)
    ap.add_argument("--mcmc-burn-in", type=int, default=500)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prior = PriorConfig(zeta=args.zeta)

    for name, params in SCENARIOS.items():
        path = out_dir / f"scenario_{name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["m", "eta", "parameter", "truth", "bias", "rmse", "cp95", "mc_se"])
            for m in args.m:
                for eta in args.eta:
                    scenario = SimScenario(
                        design=ObservationDesign(T=args.T, m=m, K=params.K),
                        true_params=params,
                        eta=eta,
                        seed=args.seed,
                        normalize_frailties=True,
                    )
                    t0 = time.perf_counter()
                    report = run_harness(
                        scenario,
                        prior=prior,
                        M=args.M,
                        with_mcmc=args.with_mcmc and eta > 0,
                        mcmc_iterations=args.mcmc_iterations,
                        mcmc_burn_in=args.mcmc_burn_in,
                    )
                    dt = time.perf_counter() - t0
                    for r in report.rows:
                        w.writerow([m, eta, r.name, r.truth, r.bias, r.rmse, r.cp95, r.mc_se])
                    print(f"scenario {name}: m={m} eta={eta} done in {dt:.1f}s")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
