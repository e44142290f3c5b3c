"""Benchmark for panelbayes: runs one workload's CLI command in process and
prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports panelbayes from ./src and
nowhere else. With --trace 0 it sets the workload up several times, then runs
the command repeatedly for S seconds (and at least twice) and reports the
end-to-end metrics. With --trace 1 it runs the command untraced and then once
with spans around the calls into each layer, times the per-iteration layer
functions directly, and reports the per-layer metrics; the spans go to
.perfbench_out/spans/. Every result, with the environment it was measured
in, is also written to .perfbench_out/results/. The last line of standard
output is the result as one JSON object. NOTES.md describes the workloads and
the metrics.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
REFERENCE_S = 0.05  # time of the calibration loop at the reference speed
MIN_COMMANDS = 2   # the second command checks determinism
BLAS_THREADS = 1

# name -> unit; BENCHMARK.json lists the same names (a test checks it)
END_TO_END = {"setup_s": "s", "wall_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "model.log_likelihood_us": "us", "sampler.metropolis_sweep_us": "us",
    "sampler.ns_per_obs_iter": "ns", "sampler.run_chain_s": "s", "sampler.us_per_iter": "us",
    "sampler.gibbs_sigma2_us": "us", "sampler.iterations": "count", "model.n_obs": "count",
    "sampler.accept_beta": "ratio", "sampler.accept_eps_mean": "ratio",
    "sampler.ess_per_draw_min": "ratio", "sampler.err_z_max": "sd",
    "min_ess": "draws", "min_ess_per_s": "draws/s", "failed_frac": "ratio",
    "sampler.summarize_ms": "ms", "sampler.draws_to_csv_ms": "ms",
    "sampler.draws_csv_bytes": "bytes", "model.from_csv_ms": "ms",
    "priors.posterior_to_priorset_ms": "ms", "priors.save_priors_ms": "ms",
    "datagen.gen_panel_ms": "ms", "datagen.partition_ms": "ms", "model.to_csv_ms": "ms",
    **{f"experiment.execute_run_s.R{k}": "s" for k in range(1, 7)},
    "experiment.replicate_s": "s", "experiment.chains": "count",
    "experiment.pool_efficiency": "ratio", "experiment.write_tables_ms": "ms",
    "spindex.load_returns_ms": "ms", "spindex.series_to_panel_ms": "ms",
    "spindex.two_stage_fit_s": "s", "spindex.write_comparison_csv_ms": "ms",
    "cli.self_s": "s", "trace.overhead_frac": "ratio",
}

IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "t = time.perf_counter()\n"
                "import panelbayes.cli\n"
                "print(repr(time.perf_counter() - t))\n")


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the panelbayes CLI from ./src."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def digest(path: Path) -> dict[str, str]:
    """sha256 of every file below `path`, by relative name."""
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


def environment(seed: int, nproc: int) -> dict:
    """What the result was measured on and with, for the result file."""
    import numpy as np
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for name, h in digest(SRC / "panelbayes").items():
        if "__pycache__" not in name:
            source.update(f"{name} {h}\n".encode())
    return {"nproc": nproc, "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "source_sha256": source.hexdigest(), "seed": seed}


class Runner:
    """Runs one workload's CLI command in process, checks it and counts failures.

    A command fails on a nonzero exit code, on any output check, and when its
    files differ from those of the first command at the same seed.
    """

    def __init__(self, workload, work: Path):
        self.workload, self.work = workload, work
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None
        self.sizes: dict[str, int] = {}
        self.draws: dict = {}

    def run(self, jobs: int, tracer=None) -> float:
        from panelbayes import cli

        out = self.work / f"command{self.attempted}"
        out.mkdir()
        argv = self.workload.argv(out, jobs)
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                code = cli.main(argv)
            wall = time.perf_counter() - start
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stderr.getvalue().strip()[-300:]}")
        else:
            draws = self.workload.check(out, stdout.getvalue(), problems)
            self.draws = self.draws or draws
            files = digest(out)
            self.reference = self.reference or files
            if files != self.reference:
                problems.append("output files differ from the first command at this seed")
            self.sizes = {p.name: p.stat().st_size for p in out.iterdir()}
        self.problems += [f"command {self.attempted}: {p}" for p in problems]
        self.attempted += 1
        self.failed += bool(problems)
        shutil.rmtree(out)
        return wall


def peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus, per pool worker, that of the largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_workers else 0
    return (own + pool_workers * child) / 1024.0


def calibrate(n_obs: int, n_ind: int, reps: int) -> float:
    """Seconds for a fixed loop of the numpy operations of one sampler sweep.

    The loop is the benchmark's own code, so changes to panelbayes do not
    change its time; only the speed of the machine does.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    codes = np.arange(n_obs) % n_ind
    x = rng.standard_normal(n_obs)
    start = time.perf_counter()
    for _ in range(reps):
        y = x + rng.standard_normal(n_ind)[codes]
        np.bincount(codes, weights=np.logaddexp(0.0, y), minlength=n_ind)
    return time.perf_counter() - start


def timed_run(make, seed: int, seconds: float, work: Path, nproc: int):
    """Untraced run: set-up SETUP_REPS times, then commands for `seconds`.

    Every reported time is scaled to the reference speed: multiplied by
    REFERENCE_S over the mean time of the calibration loop just before and
    just after it. The measured times go to the result file.
    """
    from perfbench import ess, workloads

    def scaled(times: list[float], cal: list[float]) -> list[float]:
        return [t * 2.0 * REFERENCE_S / (a + b) for t, a, b in zip(times, cal, cal[1:])]

    made = [make(seed, work / f"inputs{rep}") for rep in range(SETUP_REPS)]
    wl = made[0]
    setups, setup_cal = [], [calibrate(*wl.calibration)]
    for each in made:
        imported = import_seconds()
        start = time.perf_counter()
        each.setup()
        setups.append(imported + time.perf_counter() - start)
        setup_cal.append(calibrate(*wl.calibration))
    runner = Runner(wl, work)
    if any(digest(w.inputs) != digest(wl.inputs) for w in made):
        runner.problems.append("set-up wrote different inputs at one seed")
    walls, cal = [], [calibrate(*wl.calibration)]
    start = time.perf_counter()
    while len(walls) < MIN_COMMANDS or time.perf_counter() - start < seconds:
        walls.append(runner.run(nproc))
        cal.append(calibrate(*wl.calibration))
    iters = workloads.ITERS_PER_CHAIN * wl.chains
    setups_ref, walls_ref = scaled(setups, setup_cal), scaled(walls, cal)
    metrics = {
        "setup_s": statistics.median(setups_ref),
        "wall_s": statistics.median(walls_ref),
        "iters_per_s": statistics.median(iters / w for w in walls_ref),
        "peak_rss_mb": peak_rss_mb(nproc if isinstance(wl, workloads.Study) else 0),
    }
    lines = [_timing_line("setup_s", setups_ref, setups, "s"),
             _timing_line("wall_s", walls_ref, walls, "s"),
             _timing_line("iters_per_s", [iters / w for w in walls_ref],
                          [iters / w for w in walls], "1/s"),
             f"  {'peak_rss_mb':14s} {metrics['peak_rss_mb']:.1f} MB",
             f"  {'calibration':14s} {statistics.median(cal):.4f} s    median of {len(cal)}"
             f" (reference {REFERENCE_S} s)"]
    if runner.draws:
        low = ess.min_ess(runner.draws["beta"], runner.draws["sigma2"])
        lines += [f"  {'min_ess':14s} {low:.1f} draws (of {workloads.SAMPLES}, from --draws-out)",
                  f"  {'min_ess_per_s':14s} {low / statistics.median(walls):.2f} draws/s"
                  " (measured wall time)"]
    samples = {"setup_s": setups, "setup_calibration_s": setup_cal,
               "wall_s": walls, "calibration_s": cal}
    return metrics, runner, lines, samples


def _timing_line(name: str, ref: list[float], raw: list[float], unit: str) -> str:
    return (f"  {name:14s} {statistics.median(ref):.4f} {unit}    median of {len(ref)}"
            f" (min {min(ref):.4f}, max {max(ref):.4f}); measured {statistics.median(raw):.4f}")


def probe(tracer, name: str, fn) -> float:
    """Median seconds per call of `fn` over 5 batches of at least 20 ms each."""
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= 0.02:
            break
        n *= 2
    per_call = []
    for _ in range(5):
        with tracer.span(name):
            start = time.perf_counter()
            for _ in range(n):
                fn()
            per_call.append((time.perf_counter() - start) / n)
    return statistics.median(per_call)


def traced_run(make, seed: int, work: Path, nproc: int):
    """Traced run: untraced command(s), one traced command, then layer probes."""
    import numpy as np
    from panelbayes import model, sampler
    from perfbench import ess, workloads
    from perfbench.spans import Tracer

    tracer = Tracer()
    wl = make(seed, work / "inputs")
    tracer.install()
    try:
        with tracer.span("setup"):
            wl.setup()
    finally:
        tracer.uninstall()
    runner = Runner(wl, work)
    study = isinstance(wl, workloads.Study)
    # The study is traced at jobs=1, so its spans stay in this process; its
    # files must equal those of the untraced run at jobs=nproc.
    untraced = {nproc: runner.run(nproc)}
    traced_jobs = 1 if study else nproc
    if traced_jobs not in untraced:
        untraced[traced_jobs] = runner.run(traced_jobs)
    tracer.install()
    try:
        traced_wall = runner.run(traced_jobs, tracer)
    finally:
        tracer.uninstall()

    chains = tracer.chains
    if not chains:
        raise RuntimeError(f"the traced command ran no chain: {runner.problems}")
    first = chains[0]
    state = sampler.initial_state(first["data"], first["priors"])
    rng = np.random.default_rng(seed)
    loglik = probe(tracer, "probe.model.log_likelihood",
                   lambda: model.log_likelihood(first["data"], state))
    sweep = probe(tracer, "probe.sampler.metropolis_sweep",
                  lambda: sampler.metropolis_sweep(first["data"], state, first["priors"], rng))
    gibbs = probe(tracer, "probe.sampler.gibbs_sigma2",
                  lambda: sampler.gibbs_sigma2(state.epsilon, first["priors"].sigma2_prior, rng))

    layers = tracer.layers()

    def per_call(name: str, scale: float) -> float:
        d = layers.get(name)
        return d["total_s"] / d["calls"] * scale if d else 0.0

    iters = [c["config"].burn_in + c["config"].samples * c["config"].thin for c in chains]
    n_obs = [c["data"].n_obs for c in chains]
    chain_s = layers["sampler.run_chain"]["total_s"]
    samples = [c["samples"] for c in chains]
    lows = [ess.min_ess(s.beta, s.sigma2) for s in samples]
    err_z = 0.0
    for s in samples if wl.truth else []:
        for k, p in enumerate(workloads.PARAMETERS):
            x = s.beta[:, k] if k < 3 else s.sigma
            err_z = max(err_z, abs(x.mean() - wl.truth[p]) / x.std(ddof=1))
    metrics = {
        "model.log_likelihood_us": loglik * 1e6,
        "sampler.metropolis_sweep_us": sweep * 1e6,
        "sampler.ns_per_obs_iter": chain_s / sum(i * n for i, n in zip(iters, n_obs)) * 1e9,
        "sampler.run_chain_s": chain_s / len(chains),
        "sampler.us_per_iter": chain_s / sum(iters) * 1e6,
        "sampler.gibbs_sigma2_us": gibbs * 1e6,
        "sampler.iterations": sum(iters),
        "model.n_obs": statistics.mean(n_obs),
        "sampler.accept_beta": statistics.mean(s.accept_beta for s in samples),
        "sampler.accept_eps_mean": statistics.mean(float(s.accept_epsilon.mean()) for s in samples),
        "sampler.ess_per_draw_min": statistics.median(lo / s.n_kept for lo, s in zip(lows, samples)),
        "sampler.err_z_max": err_z,
        "min_ess": statistics.median(lows),
        "min_ess_per_s": statistics.median(lows) / untraced[nproc],
        "failed_frac": runner.failed / runner.attempted,
        "sampler.summarize_ms": per_call("sampler.summarize", 1e3),
        "sampler.draws_to_csv_ms": per_call("sampler.draws_to_csv", 1e3),
        "sampler.draws_csv_bytes": runner.sizes.get("draws.csv", 0),
        "model.from_csv_ms": per_call("model.from_csv", 1e3),
        "priors.posterior_to_priorset_ms": per_call("priors.posterior_to_priorset", 1e3),
        "priors.save_priors_ms": per_call("priors.save_priors", 1e3),
        "datagen.gen_panel_ms": per_call("datagen.gen_panel", 1e3),
        "datagen.partition_ms": per_call("datagen.partition", 1e3),
        "model.to_csv_ms": per_call("model.to_csv", 1e3),
        **{f"experiment.execute_run_s.R{k}": per_call(f"experiment.execute_run.R{k}", 1.0)
           for k in range(1, 7)},
        "experiment.replicate_s": (layers["experiment.run_study"]["total_s"] / wl.replicates
                                   if study else 0.0),
        "experiment.chains": len(chains) if study else 0,
        "experiment.pool_efficiency": (untraced[1] / (nproc * untraced[nproc]) if study else 0.0),
        "experiment.write_tables_ms": per_call("experiment.write_tables", 1e3),
        "spindex.load_returns_ms": per_call("spindex.load_returns", 1e3),
        "spindex.series_to_panel_ms": per_call("spindex.series_to_panel", 1e3),
        "spindex.two_stage_fit_s": per_call("spindex.two_stage_fit", 1.0),
        "spindex.write_comparison_csv_ms": per_call("spindex.write_comparison_csv", 1e3),
        "cli.self_s": layers["cli.main"]["self_s"],
        "trace.overhead_frac": traced_wall / untraced[traced_jobs] - 1.0,
    }
    lines = [f"  untraced command: {untraced[nproc]:.4f} s at jobs={nproc}; traced: "
             f"{traced_wall:.4f} s at jobs={traced_jobs}; {len(chains)} chains traced"]
    lines += [f"  {k:32s} {v:.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
    return metrics, runner, lines, tracer, {"untraced_wall_s": untraced, "traced_wall_s": traced_wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # Fixed before numpy is first imported. The study runs nproc worker
    # processes, so one BLAS thread each keeps the total at nproc threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    if not (SRC / "panelbayes" / "__init__.py").is_file():
        print(f"error: no panelbayes sources at {SRC / 'panelbayes'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import panelbayes
    if Path(panelbayes.__file__).resolve().parent != (SRC / "panelbayes").resolve():
        print(f"error: panelbayes was imported from {panelbayes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    make = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, runner, lines, tracer, samples = traced_run(make, args.seed, work, nproc)
            units = PER_LAYER
        else:
            metrics, runner, lines, samples = timed_run(make, args.seed, args.seconds, work, nproc)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, nproc)
    tag = f"{args.workload}-seed{args.seed}"
    result = {"correct": runner.failed == 0 and not runner.problems,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    (OUT / "results").mkdir(exist_ok=True)
    result_path = OUT / "results" / f"{tag}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                       "environment": env, "samples": samples,
                                       "problems": runner.problems,
                                       **result}, indent=1) + "\n")
    print(f"panelbayes benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {runner.attempted} commands")
    print("\n".join(lines))
    if not args.trace:
        print(f"  {'failed_frac':14s} {runner.failed / runner.attempted:.4f}    "
              f"{runner.failed} of {runner.attempted} commands failed")
    for problem in runner.problems[:10]:
        print(f"  problem: {problem}")
    if args.trace:
        (OUT / "spans").mkdir(exist_ok=True)
        span_path = OUT / "spans" / f"{tag}.json"
        span_path.write_text(json.dumps({"workload": args.workload, "environment": env,
                                         "layers": tracer.layers(), "spans": tracer.spans},
                                        indent=1) + "\n")
        print(f"  spans: {span_path.relative_to(ROOT)}")
    print(f"  environment: {json.dumps(env)}")
    print(f"  result: {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
