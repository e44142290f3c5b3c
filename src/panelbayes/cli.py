"""Command-line front end: `gen`, `fit`, `study`, `spindex`.

Every command is deterministic under a fixed --seed. Exit codes: 0 on
success, 1 for usage or configuration problems, 2 for runtime or numeric
failures.
"""

from __future__ import annotations

import argparse
import os
import sys

from .datagen import DEFAULT_BETA, SimConfig, replicate_panel
from .errors import ConfigError
from .experiment import RUNS, TABLE_FILES, run_study, write_tables
from .kvconfig import KVFile, finite, integer, write_kv_file
from .model import PanelDataset, write_csv
from .priors import default_uninformative, load_priors, posterior_to_priorset, save_priors
from .sampler import ChainConfig, draws_to_csv, run_chain, summarize, warn_unmixed
from .spindex import (DEFAULT_SPLIT_YEAR, DEFAULT_THRESHOLD, load_returns, surrogate_path,
                      two_stage_fit, write_comparison_csv)
from .workers import usable_cpus, worker_pool


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(f"usage error: {message}")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--burn-in", type=integer, default=None)
    p.add_argument("--samples", type=integer, default=None)
    p.add_argument("--thin", type=integer, default=None)
    p.add_argument("--seed", type=integer, default=None, help="override the config seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="panelbayes",
                     description="Bayesian random-effects logistic fitting for panel binary data")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate one replicate's synthetic panel")
    p_gen.add_argument("--config", required=True, help="key=value file with individuals/periods/sigma")
    p_gen.add_argument("--out", required=True, help="panel CSV path (truth sidecar goes to <out>.truth)")
    p_gen.add_argument("--seed", type=integer, default=None, help="override the config seed")
    p_gen.add_argument("--replicate", type=integer, default=None,
                       help="replicate stream index (default 0)")

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
    p_study.add_argument("--jobs", type=integer, default=None, help="override the worker count")
    _add_chain_flags(p_study)

    p_sp = sub.add_parser("spindex", help="two-stage fit of a yearly return series")
    p_sp.add_argument("--data", default=None,
                      help="year,return CSV (default: bundled synthetic surrogate)")
    p_sp.add_argument("--config", default=None, help="optional key=value file with chain settings")
    p_sp.add_argument("--split-year", type=integer, default=DEFAULT_SPLIT_YEAR)
    p_sp.add_argument("--threshold", type=finite, default=DEFAULT_THRESHOLD)
    p_sp.add_argument("--out", default=None, help="comparison CSV path (default: stdout)")
    _add_chain_flags(p_sp)

    return parser


def _source(cfg: KVFile, key: str, flag) -> str:
    """Where the value of `key` came from, to anchor an error: its flag when
    the flag was given, else the config file."""
    return cfg.path if flag is None else "--" + key.replace("_", "-")


def _chain_config_from(cfg: KVFile, args) -> ChainConfig:
    values = {key: cfg.get(key, integer, getattr(ChainConfig, key), getattr(args, key))
              for key in ("burn_in", "samples", "thin", "seed")}
    try:
        return ChainConfig(**values)
    except ValueError as exc:
        key = str(exc).split()[0]  # ChainConfig names the field it rejects first
        raise ConfigError(f"{_source(cfg, key, getattr(args, key, None))}: {exc}") from None


def _sim_config_from(cfg: KVFile, args) -> SimConfig:
    values = dict(
        individuals=cfg.get("individuals", integer),
        periods=cfg.get("periods", integer),
        sigma=cfg.get("sigma"),
        beta_true=tuple(cfg.get(f"beta{k}", default=DEFAULT_BETA[k]) for k in range(3)),
        replicates=cfg.get("replicates", integer, SimConfig.replicates),
        seed=cfg.get("seed", integer, SimConfig.seed, args.seed),
    )
    try:
        return SimConfig(**values)
    except ConfigError as exc:  # every field SimConfig checks comes from the file
        raise ConfigError(f"{cfg.path}: {exc}") from None


def cmd_gen(args) -> int:
    _check_out_paths(args, ["out"], ["config"], sidecar=".truth")
    cfg = KVFile(args.config)
    sim = _sim_config_from(cfg, args)
    rep = cfg.get("replicate", integer, 0, args.replicate)
    cfg.check_all_read()
    if rep < 0:
        raise ConfigError(f"{_source(cfg, 'replicate', args.replicate)}: "
                          f"replicate must be >= 0, got {rep}")
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


def _chain_config(args) -> ChainConfig:
    """The chain settings of `fit` and `spindex`, whose config files hold only those."""
    cfg = KVFile(args.config)
    chain = _chain_config_from(cfg, args)
    cfg.check_all_read()
    return chain


def _check_out_paths(args, outs, reads=(), sidecar: str = "") -> None:
    """Reject an output path that is empty, whose directory is missing, that
    is a directory, or that names the same file (by `os.path.realpath`) as
    another output or as an input the command reads, naming its flag and
    the other's, so the error comes before any data is generated, any chain
    runs or any file is written. `outs` and `reads` are flags; one not given
    is skipped. Given a `sidecar` suffix, each output's path with it
    appended, written beside it, is checked in the same way."""
    paths = {flag: getattr(args, flag.replace("-", "_")) for flag in (*reads, *outs)}
    taken = {os.path.realpath(paths[flag]): flag for flag in reads if paths[flag] is not None}
    for flag in outs:
        path = paths[flag]
        if path is None:
            continue
        if not path:
            raise ConfigError(f"--{flag}: empty path")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise ConfigError(f"--{flag}: directory {folder!r} does not exist")
        for target in [path, path + sidecar] if sidecar else [path]:
            if os.path.isdir(target):
                raise ConfigError(f"--{flag}: {target!r} is a directory")
            other = taken.setdefault(os.path.realpath(target), flag)
            if other != flag:
                raise ConfigError(f"--{flag}: {target!r} is the same file as --{other}")


def cmd_fit(args) -> int:
    reads = ["data", "config"] + ([] if args.priors_in == "uninformative" else ["priors-in"])
    _check_out_paths(args, ["out", "priors-out", "draws-out"], reads)
    data = PanelDataset.from_csv(args.data)
    if data.n_obs == 0:
        raise ConfigError(f"{args.data}: no observations to fit")
    if args.priors_in == "uninformative":
        priors = default_uninformative()
    else:
        priors = load_priors(args.priors_in)
    chain = _chain_config(args)
    with worker_pool(1 if usable_cpus() > 1 else 0) as pool:
        samples = run_chain(data, priors, chain, pool)
        # every result is computed before the first file is written
        carried = None if args.priors_out is None else posterior_to_priorset(samples)
        stats = summarize(samples)
        warn_unmixed("fit", stats, samples.n_kept)
        write_csv(args.out, ["parameter", "mean", "sd", "lcl", "ucl", "ess"],
                  ([name, s.mean, s.sd, s.lower, s.upper, s.ess] for name, s in stats.items()))
        if carried is not None:
            save_priors(carried, args.priors_out)
        if args.draws_out is not None:
            draws_to_csv(samples, args.draws_out)
    return 0


def cmd_study(args) -> int:
    cfg = KVFile(args.config)
    sim = _sim_config_from(cfg, args)
    chain = _chain_config_from(cfg, args)
    run_ids = [r.strip() for r in cfg.get("runs", str, ",".join(RUNS)).split(",") if r.strip()]
    outdir = cfg.get("out", str, "", args.out)
    cpus = usable_cpus()
    # < 1 only if set < 1; a pool starts every worker at once, so one per replicate at most
    jobs = min(cfg.get("jobs", integer, cpus, args.jobs), cpus, sim.replicates)
    cfg.check_all_read()
    if jobs < 1:
        raise ConfigError(f"{_source(cfg, 'jobs', args.jobs)}: jobs must be >= 1")
    if not outdir:
        raise ConfigError("--out: empty path" if args.out is not None
                          else f"{cfg.path}: no output directory (set 'out' or pass --out)")
    # the directory is made only once the tables are ready, but its nearest
    # existing ancestor must be a directory, and no table a directory or the config
    where, folder = _source(cfg, "out", args.out), outdir
    while not os.path.lexists(folder) and os.path.dirname(folder) not in ("", folder):
        folder = os.path.dirname(folder)
    if os.path.lexists(folder) and not os.path.isdir(folder):
        what = "exists and is" if folder == outdir else f"is under {folder!r}, which is"
        raise ConfigError(f"{where}: output directory {outdir!r} {what} not a directory")
    for path in (os.path.join(outdir, name) for name in TABLE_FILES):
        if os.path.isdir(path):
            raise ConfigError(f"{where}: {path!r} is a directory")
        if os.path.realpath(path) == os.path.realpath(cfg.path):
            raise ConfigError(f"{where}: {path!r} is the same file as --config")
    with worker_pool(jobs if jobs > 1 else 0) as pool:
        try:
            result = run_study(sim, run_ids, chain, pool)
        except ConfigError as exc:  # the run ids and replicates come from the file
            raise ConfigError(f"{cfg.path}: {exc}") from None
    for path in write_tables(result, outdir):
        print(path)
    return 0


def cmd_spindex(args) -> int:
    if args.data is None:
        args.data = surrogate_path()
    _check_out_paths(args, ["out"], ["data", "config"])
    years, returns = load_returns(args.data)
    chain = _chain_config(args)
    with worker_pool(1 if usable_cpus() > 1 else 0) as pool:
        report = two_stage_fit(years, returns, chain, args.split_year, args.threshold, pool)
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
