"""Command-line front end: `gen`, `fit`, `study`, `spindex`.

Every command is deterministic under a fixed --seed. Exit codes: 0 on
success, 1 for usage or configuration problems, 2 for runtime or numeric
failures.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import contextmanager

from .datagen import DEFAULT_BETA, SimConfig, replicate_panel
from .errors import ConfigError
from .experiment import RUNS, run_study, write_tables
from .kvconfig import KVFile, finite, write_kv_file
from .model import PanelDataset, write_csv
from .priors import default_uninformative, load_priors, posterior_to_priorset, save_priors
from .sampler import ChainConfig, draws_to_csv, run_chain, summarize, warn_unmixed
from .spindex import (DEFAULT_SPLIT_YEAR, DEFAULT_THRESHOLD, load_returns, surrogate_path,
                      two_stage_fit, write_comparison_csv)
from .workers import usable_cpus


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"usage error: {message}")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="panelbayes",
                     description="Bayesian random-effects logistic fitting for panel binary data")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate one replicate's synthetic panel")
    p_gen.add_argument("--config", required=True, help="key=value file with individuals/periods/sigma")
    p_gen.add_argument("--out", required=True, help="panel CSV path (truth sidecar goes to <out>.truth)")
    p_gen.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_gen.add_argument("--replicate", type=int, default=None, help="replicate stream index (default 0)")

    p_fit = sub.add_parser("fit", help="fit one panel CSV")
    p_fit.add_argument("--data", required=True, help="panel CSV (individual,time,y,x1,x2)")
    p_fit.add_argument("--config", default=None, help="optional key=value file with chain settings")
    p_fit.add_argument("--priors-in", default="uninformative",
                       help="priors file from an earlier fit, or 'uninformative'")
    p_fit.add_argument("--priors-out", default=None,
                       help="write the posterior, moment-matched, as a priors file")
    p_fit.add_argument("--out", default=None, help="summary CSV path (default: stdout)")
    p_fit.add_argument("--draws-out", default=None, help="write kept draws as iteration,parameter,value")
    _add_chain_flags(p_fit)

    p_study = sub.add_parser("study", help="run the replicated R1..R6 study")
    p_study.add_argument("--config", required=True, help="study config (key=value)")
    p_study.add_argument("--out", default=None, help="override the config output directory")
    p_study.add_argument("--jobs", type=int, default=None, help="override the worker count")
    _add_chain_flags(p_study)

    p_sp = sub.add_parser("spindex", help="two-stage fit of a yearly return series")
    p_sp.add_argument("--data", default=None,
                      help="year,return CSV (default: bundled synthetic surrogate)")
    p_sp.add_argument("--config", default=None, help="optional key=value file with chain settings")
    p_sp.add_argument("--split-year", type=int, default=DEFAULT_SPLIT_YEAR)
    p_sp.add_argument("--threshold", type=finite, default=DEFAULT_THRESHOLD)
    p_sp.add_argument("--out", default=None, help="comparison CSV path (default: stdout)")
    _add_chain_flags(p_sp)

    return parser


def _source(cfg: KVFile, key: str, flag) -> str:
    """Where the value of `key` came from, to anchor an error: its flag when
    the flag was given, else the config file."""
    return cfg.path if flag is None else "--" + key.replace("_", "-")


def _chain_config_from(cfg: KVFile, args) -> ChainConfig:
    values = {key: cfg.get(key, int, getattr(ChainConfig, key), getattr(args, key))
              for key in ("burn_in", "samples", "thin", "seed")}
    try:
        return ChainConfig(**values)
    except ValueError as exc:
        key = str(exc).split()[0]  # ChainConfig names the field it rejects first
        raise ConfigError(f"{_source(cfg, key, getattr(args, key, None))}: {exc}") from None


def _sim_config_from(cfg: KVFile, args) -> SimConfig:
    return SimConfig(
        individuals=cfg.get("individuals", int),
        periods=cfg.get("periods", int),
        sigma=cfg.get("sigma"),
        beta_true=tuple(cfg.get(f"beta{k}", default=DEFAULT_BETA[k]) for k in range(3)),
        replicates=cfg.get("replicates", int, SimConfig.replicates),
        seed=cfg.get("seed", int, SimConfig.seed, args.seed),
    )


def cmd_gen(args) -> int:
    cfg = KVFile(args.config)
    sim = _sim_config_from(cfg, args)
    rep = cfg.get("replicate", int, 0, args.replicate)
    cfg.check_all_read()
    panel, true_eps = replicate_panel(sim, rep)
    panel.to_csv(args.out)
    sidecar: dict[str, object] = {
        "individuals": sim.individuals, "periods": sim.periods, "sigma": sim.sigma,
        "beta0": sim.beta_true[0], "beta1": sim.beta_true[1], "beta2": sim.beta_true[2],
        "seed": sim.seed, "replicate": rep,
    }
    for i, e in enumerate(true_eps, start=1):
        sidecar[f"epsilon.{i}"] = float(e)
    write_kv_file(args.out + ".truth", sidecar, header="panelbayes generation truth")
    return 0


def _write_summary(stats, out_path) -> None:
    write_csv(out_path, ["parameter", "mean", "sd", "lcl", "ucl", "ess"],
              ([name, s.mean, s.sd, s.lower, s.upper, s.ess] for name, s in stats.items()))


def _chain_config(args) -> ChainConfig:
    """The chain settings of `fit` and `spindex`, whose config files hold only those."""
    cfg = KVFile(args.config)
    chain = _chain_config_from(cfg, args)
    cfg.check_all_read()
    return chain


def cmd_fit(args) -> int:
    data = PanelDataset.from_csv(args.data)
    if data.n_obs == 0:
        raise ConfigError(f"{args.data}: no observations to fit")
    if args.priors_in == "uninformative":
        priors = default_uninformative()
    else:
        priors = load_priors(args.priors_in)
    samples = run_chain(data, priors, _chain_config(args))
    stats = summarize(samples)
    warn_unmixed("fit", stats, samples.n_kept)
    _write_summary(stats, args.out)
    if args.priors_out:
        save_priors(posterior_to_priorset(samples), args.priors_out)
    if args.draws_out:
        draws_to_csv(samples, args.draws_out)
    return 0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


@contextmanager
def _sigterm_exits():
    """SIGTERM would end this process at once and orphan its pool workers;
    raised as SystemExit, it lets the pool end them first.

    A SystemExit raised while numpy.random initialises is lost, and the
    command runs on, so the numpy modules a chain and its summary import on
    first use are loaded before the handler goes in.
    """
    import numpy.fft  # noqa: F401
    import numpy.random  # noqa: F401

    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def cmd_study(args) -> int:
    cfg = KVFile(args.config)
    sim = _sim_config_from(cfg, args)
    chain = _chain_config_from(cfg, args)
    run_ids = [r.strip() for r in cfg.get("runs", str, ",".join(RUNS)).split(",") if r.strip()]
    outdir = cfg.get("out", str, "", args.out)
    cpus = usable_cpus()
    jobs = cfg.get("jobs", int, cpus, args.jobs)
    cfg.check_all_read()
    if jobs < 1:
        raise ConfigError(f"{_source(cfg, 'jobs', args.jobs)}: jobs must be >= 1")
    if not outdir:
        raise ConfigError(f"{cfg.path}: no output directory (set 'out' or pass --out)")
    if os.path.exists(outdir) and not os.path.isdir(outdir):
        raise ConfigError(f"output directory {outdir!r} exists and is not a directory")
    with _sigterm_exits():
        result = run_study(sim, run_ids, chain, jobs=min(jobs, cpus))
    for path in write_tables(result, outdir):
        print(path)
    return 0


def cmd_spindex(args) -> int:
    path = args.data if args.data is not None else surrogate_path()
    years, returns = load_returns(path)
    chain = _chain_config(args)
    with _sigterm_exits():
        report = two_stage_fit(years, returns, chain, split_year=args.split_year,
                               threshold=args.threshold, jobs=usable_cpus())
    write_comparison_csv(report, args.out)
    return 0


_COMMANDS = {"gen": cmd_gen, "fit": cmd_fit, "study": cmd_study, "spindex": cmd_spindex}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
