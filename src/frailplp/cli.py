"""Command-line front end: simulate / fit / mcmc / diagnose / benchmark.

All commands are deterministic functions of (config, input files, seed).
Flags may be collected in a flat key=value config file passed via --config;
explicit command-line flags override file values.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from dataclasses import astuple

import numpy as np

from .data import ObservationDesign, DatasetError, _write_rows, ingest, summarize, write_dataset
from .plp import (
    PlpParams,
    PriorConfig,
    ImproperPosteriorError,
    posterior,
    bayes_estimates,
    classic_mle,
    check_duane,
    duane_points,
)
from .simulate import SCENARIOS, SimScenario, FrailtyMixture, simulate, write_frailties
from .dpm import DEFAULT_GRID, DpmHyperparams, run_chain, frailty_variance
from .hmc import HmcConfig
from .diagnostics import GEWEKE_MIN_DRAWS, geweke, autocorrelation, ess, run_harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

class ConfigError(Exception):
    pass


def _parse_floats(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}") from None


def _load_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


def _parse_args(argv):
    """Parse argv; values from a --config file become the command's defaults.

    A first pass, with no flag required, finds the command and its file; a
    flag the file gives is then no longer required.  argparse resolves every
    flag given on the command line, abbreviated or not, over the file, and
    converts the file's strings with each flag's type.  A key must name a
    flag of some command; one of another command is skipped, so that one
    file can serve several commands.
    """
    parser = build_parser()
    flags = {a.dest for p in parser.commands.values() for a in p._actions if a.option_strings} - {"help"}
    required = [a for p in parser.commands.values() for a in p._actions if a.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    defaults = {}
    for key, value in (_load_config_file(args.config) if args.config else {}).items():
        if key not in flags:
            raise ConfigError(f"{args.config}: unknown key {key!r}; it names no flag of any command")
        if not hasattr(args, key):  # a flag of another command
            continue
        if isinstance(command.get_default(key), bool):
            if value.lower() not in _BOOLEANS:
                raise ConfigError(f"{args.config}: key {key!r} needs 1/true/yes or 0/false/no, got {value!r}")
            value = _BOOLEANS[value.lower()]
        defaults[key] = value
    command.set_defaults(**defaults)
    for action in required:
        action.required = action.dest not in defaults
    return parser.parse_args(argv)


@contextlib.contextmanager
def _reading(path):
    """A missing or unreadable input is a data error (exit 3).

    Any other OSError reaching main comes from opening an output, which is
    a config error (exit 2).
    """
    try:
        yield
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_estimates(path, rows):
    header = ["parameter", "mean", "sd", "ci_low", "ci_high"]
    table = [astuple(r) for r in rows]
    if str(path).endswith(".json"):
        _write_json(path, [dict(zip(header, row)) for row in table])
    else:
        _write_table(path, header, [row[0] for row in table], np.array([row[1:] for row in table]))


def _write_table(path, header, *fields):
    """The header, then the CSV rows `data._write_rows` makes of the `fields`, in CRLF lines."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, *fields, end="\r\n")


def _write_matrix(path, header, *fields):
    """A `_write_table` of float fields after an index column.

    A 1-D field is one column, a 2-D field one column per entry of its second
    axis.  The index counts from 0 and is written from a range, so no index
    array is built; every value is cast to float (an int count prints as
    ``3.0``).
    """
    fields = [np.asarray(f, dtype=float) for f in fields]
    _write_table(path, header, range(len(fields[0])), *fields)


def _design(T, m, K):
    """The observation design given by command-line flags; a bad one is a config error."""
    try:
        return ObservationDesign(T=T, m=m, K=K)
    except DatasetError as exc:
        raise ConfigError(str(exc)) from None


def cmd_simulate(args):
    params = PlpParams(beta=_parse_floats(args.beta), alpha=_parse_floats(args.alpha))
    design = _design(args.T, args.m, params.K)
    family = None
    if args.frailty_mixture:
        parts = _parse_floats(args.frailty_mixture)
        if len(parts) % 3 != 0 or not parts:
            raise ConfigError("--frailty-mixture needs weight,mu,sigma triples")
        triples = np.array(parts).reshape(-1, 3)
        family = FrailtyMixture(weights=triples[:, 0], mu=triples[:, 1], sigma=triples[:, 2])
    scenario = SimScenario(
        design=design,
        true_params=params,
        eta=args.eta,
        frailty_family=family,
        seed=args.seed,
        normalize_frailties=args.normalize,
    )
    data, z = simulate(scenario)
    write_dataset(args.out, data)
    write_frailties(args.truth_out or args.out + ".truth.csv", z)
    print(f"wrote {len(data)} failures across {design.m} systems to {args.out}")
    return EXIT_OK


def _read_dataset(args):
    design = None
    if args.T is not None or args.m is not None or args.K is not None:
        if None in (args.T, args.m, args.K):
            raise ConfigError("design overrides need all of --T, --m, --K")
        design = _design(args.T, args.m, args.K)
    with _reading(args.data):
        return ingest(args.data, design)


def cmd_fit(args):
    data = _read_dataset(args)
    if len(data) == 0:
        raise DatasetError("dataset contains no failures; nothing to fit")
    causes = range(1, data.design.K + 1) if args.duane_out else ()
    for q in causes:
        check_duane(data, q)
    summary = summarize(data)
    post = posterior(summary, PriorConfig(zeta=args.zeta))
    rows = bayes_estimates(post)
    _write_estimates(args.out, rows)
    for r in rows:
        print(f"{r.name:>8}  mean={r.mean:.3f}  sd={r.sd:.3f}  ci=[{r.ci_low:.3f}, {r.ci_high:.3f}]")
    if data.design.m == 1 and data.design.K == 1:
        beta_hat, mu_hat = classic_mle(summary)
        print(f"classic MLEs: beta_hat={beta_hat:.6f}  mu_hat={mu_hat:.6f}")
    for q in causes:
        print(f"duane slope cause {q}: {_write_duane(args.duane_out, data, q):.4f}")
    return EXIT_OK


def _write_duane(prefix, data, cause):
    """Write one cause's Duane table and return its slope; its arrays die on return."""
    log_t, log_n, slope = duane_points(data, cause)
    _write_matrix(f"{prefix}.cause{cause}.csv", ["index", "log_time", "log_count"], log_t, log_n)
    return slope


def cmd_mcmc(args):
    data = _read_dataset(args)
    summary = summarize(data)
    hyper = DpmHyperparams(
        ac0=args.ac0, bc0=args.bc0, m0=args.m0, s0=args.s0, d0=args.d0, p0=args.p0
    )
    hmc = HmcConfig(
        step_size=args.step_size,
        leapfrog_steps=args.leapfrog_steps,
        adapt=not args.no_adapt,
        target_accept=args.target_accept,
    )
    if args.iterations - args.burn_in < GEWEKE_MIN_DRAWS:
        raise ConfigError(
            f"need at least {GEWEKE_MIN_DRAWS} post-burn-in iterations for the Geweke check"
        )
    grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_points)
    trace = run_chain(
        summary,
        hyper=hyper,
        hmc=hmc,
        iterations=args.iterations,
        burn_in=args.burn_in,
        seed=args.seed,
        grid=grid,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    z_hat = trace.z_hat
    for name, header, fields in (
        ("z_trace.csv", ["iteration"] + [f"z_{j}" for j in range(1, z_hat.size + 1)], (trace.z,)),
        ("var_z_trace.csv", ["iteration", "var_z"], (trace.var_z,)),
        ("c_trace.csv", ["iteration", "c"], (trace.c,)),
        ("acceptance.csv", ["iteration", "accepted"], (trace.accepted,)),
        ("z_hat.csv", ["system", "z_hat", "n_failures"], (z_hat, summary.n_j)),
        ("frailty_density.csv", ["index", "z", "density"], (grid, trace.density)),
    ):
        _write_matrix(os.path.join(args.out_dir, name), header, *fields)
    vz = frailty_variance(trace.var_z[trace.burn_in :])
    mix_vz = frailty_variance(trace.mixture_var[trace.burn_in :])
    gw = geweke(trace.var_z[trace.burn_in :])
    results = dict(
        iterations=args.iterations,
        burn_in=args.burn_in,
        var_z_mean=vz.mean,
        var_z_sd=vz.sd,
        var_z_ci=[vz.ci_low, vz.ci_high],
        mixture_var_z_ci=[mix_vz.ci_low, mix_vz.ci_high],
        geweke_var_z=gw.z_score,
        geweke_pass=gw.passed,
        acceptance_rate=trace.acceptance_rate,
        divergences=trace.divergences,
        divergent_iterations=np.flatnonzero(trace.divergent).tolist(),
        step_size=trace.step_size,
        z_hat_mean=float(z_hat.mean()),
    )
    _write_json(os.path.join(args.out_dir, "summary.json"), results)
    print(
        f"Var(Z) posterior mean {vz.mean:.3f} sd {vz.sd:.3f} "
        f"CI [{vz.ci_low:.3f}, {vz.ci_high:.3f}]; geweke z={gw.z_score:.2f}"
    )
    divergence_frac = trace.divergences / args.iterations
    if divergence_frac > 0.5:
        print(f"warning: divergence fraction {divergence_frac:.2f}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_diagnose(args):
    with _reading(args.trace), open(args.trace, encoding="utf-8") as fh:
        try:
            columns = fh.readline().count(",") + 1
            if not -columns <= args.column < columns:
                raise ConfigError(
                    f"--column {args.column} is beyond the {columns} columns of {args.trace}"
                )
            with warnings.catch_warnings():
                # an empty body is reported below as a short trace
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", usecols=args.column, ndmin=1)
        except ValueError as exc:
            raise DatasetError(f"malformed trace {args.trace}: {exc}") from None
    if values.size < GEWEKE_MIN_DRAWS:
        raise DatasetError(
            f"trace {args.trace} holds {values.size} values; the diagnostic needs >= {GEWEKE_MIN_DRAWS}"
        )
    gw = geweke(values, first_frac=args.first_frac, last_frac=args.last_frac)
    acf = autocorrelation(values, args.max_lag)
    result = dict(
        geweke_z=gw.z_score,
        geweke_pass=gw.passed,
        ess=ess(values),
        acf=list(map(float, acf)),
    )
    if args.out:
        _write_json(args.out, result)
    print(f"geweke z={gw.z_score:.3f} pass={gw.passed} ess={result['ess']:.1f}")
    return EXIT_OK


def cmd_benchmark(args):
    if args.scenario:
        if args.scenario not in SCENARIOS:
            raise ConfigError(
                f"unknown scenario {args.scenario!r}; choices: {sorted(SCENARIOS)}"
            )
        params = SCENARIOS[args.scenario]
    else:
        params = PlpParams(beta=_parse_floats(args.beta), alpha=_parse_floats(args.alpha))
    design = _design(args.T, args.m, params.K)
    scenario = SimScenario(
        design=design,
        true_params=params,
        eta=args.eta,
        seed=args.seed,
    )
    report = run_harness(
        scenario,
        prior=PriorConfig(zeta=args.zeta),
        M=args.M,
        with_mcmc=args.with_mcmc,
        mcmc_iterations=args.mcmc_iterations,
        mcmc_burn_in=args.mcmc_burn_in,
    )
    rows = report.values()
    _write_table(
        args.out,
        ["eta", "m", "M", "parameter", "truth", "bias", "mse", "rmse", "cp95", "mc_se"],
        [f"{args.eta!r},{args.m},{args.M},{r.name}" for r in rows],
        np.array([(r.truth, r.bias, r.mse, r.rmse, r.cp95, r.mc_se) for r in rows]),
    )
    for r in rows:
        print(
            f"{r.name:>8}  bias={r.bias:+.4f}  mse={r.mse:.4f}  rmse={r.rmse:.4f}  cp95={r.cp95:.4f}"
        )
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="frailplp",
        description="Reliability inference for repairable systems under dependent competing risks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file; flags override it")
    # simulate's and benchmark's default parameters are scenario A's
    beta_a, alpha_a = (",".join(map(repr, v.tolist())) for v in (SCENARIOS["A"].beta, SCENARIOS["A"].alpha))

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic fleet")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--beta", default=beta_a)
    p.add_argument("--alpha", default=alpha_a)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--frailty-mixture", default=None, help="weight,mu,sigma triples")
    p.add_argument("--normalize", action="store_true", help="rescale frailties to sample mean 1")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", parents=[common], help="closed-form Bayes estimates and Duane data")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="estimates.csv")
    p.add_argument("--duane-out", default=None, help="prefix for per-cause Duane CSVs")
    p.add_argument("--zeta", type=float, default=2.0)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mcmc", parents=[common], help="frailty posterior via the hybrid Gibbs/HMC chain")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", default="mcmc_out")
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=5_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--ac0", type=float, default=1.0)
    p.add_argument("--bc0", type=float, default=1.0)
    p.add_argument("--m0", type=float, default=0.0)
    p.add_argument("--s0", type=float, default=1.0)
    p.add_argument("--d0", type=float, default=2.0)
    p.add_argument("--p0", type=float, default=1.0)
    p.add_argument("--step-size", type=float, default=0.1)
    p.add_argument("--leapfrog-steps", type=int, default=20)
    p.add_argument("--target-accept", type=float, default=0.8)
    p.add_argument("--no-adapt", action="store_true")
    grid_lo, grid_hi, grid_points = DEFAULT_GRID
    p.add_argument("--grid-lo", type=float, default=grid_lo)
    p.add_argument("--grid-hi", type=float, default=grid_hi)
    p.add_argument("--grid-points", type=int, default=grid_points)
    p.set_defaults(func=cmd_mcmc)

    p = sub.add_parser("diagnose", parents=[common], help="Geweke / ACF / ESS on a trace CSV column")
    p.add_argument("--trace", required=True)
    p.add_argument("--column", type=int, default=1)
    p.add_argument("--max-lag", type=int, default=50)
    p.add_argument("--first-frac", type=float, default=0.1)
    p.add_argument("--last-frac", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("benchmark", parents=[common], help="Monte Carlo bias/MSE/coverage harness")
    p.add_argument("--scenario", default=None, help=f"named scenario: {sorted(SCENARIOS)}")
    p.add_argument("--beta", default=beta_a)
    p.add_argument("--alpha", default=alpha_a)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--m", type=int, default=50)
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--M", type=int, default=2000)
    p.add_argument("--zeta", type=float, default=2.0)
    p.add_argument("--with-mcmc", action="store_true")
    p.add_argument("--mcmc-iterations", type=int, default=1500)
    p.add_argument("--mcmc-burn-in", type=int, default=500)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="benchmark.csv")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        target = exc.filename or "output"
        print(f"config error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ImproperPosteriorError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
