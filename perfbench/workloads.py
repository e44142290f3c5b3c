"""The benchmark's workloads: how each makes its inputs from the seed, which
CLI command it runs, and how the command's output files are checked.

Every input is a pure function of the workload seed, so a seed repeats the
same inputs and every repeat of a command must write byte-identical files.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from panelbayes import datagen, model

BURN_IN, SAMPLES = 2000, 10000          # the CLI's default chain
ITERS_PER_CHAIN = BURN_IN + SAMPLES
RUN_IDS = ("R1", "R2", "R3", "R4", "R5", "R6")
PARAMETERS = ("beta0", "beta1", "beta2", "sigma")
TRUTH = {"beta0": -1.0, "beta1": 1.0, "beta2": 1.0, "sigma": 1.0}   # datagen defaults


def _read_csv(path: Path, header: list[str], n_rows: int, problems: list[str]) -> list[list[str]]:
    """Rows of a CSV below its header; a wrong header or row count is a problem."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        problems.append(f"{path.name}: cannot read ({exc.strerror})")
        return []
    if not rows or rows[0] != header:
        problems.append(f"{path.name}: header {rows[0] if rows else None} != {header}")
        return []
    if len(rows) - 1 != n_rows:
        problems.append(f"{path.name}: {len(rows) - 1} rows, expected {n_rows}")
    return rows[1:]


def _floats(values, what: str, problems: list[str]) -> np.ndarray:
    try:
        arr = np.array([float(v) for v in values], dtype=np.float64)
    except ValueError:
        problems.append(f"{what}: a value is not a number")
        return np.zeros(0)
    if not np.isfinite(arr).all():
        problems.append(f"{what}: a value is not finite")
    return arr


def _check_table(path: Path, header: list[str], keys: list[tuple], problems: list[str]) -> None:
    """Leading columns must equal `keys` row by row; the rest must be finite numbers."""
    rows = _read_csv(path, header, len(keys), problems)
    if rows and [tuple(r[:len(keys[0])]) for r in rows] != keys:
        problems.append(f"{path.name}: row labels differ from {keys}")
    _floats([v for r in rows for v in r[len(keys[0]):]], path.name, problems)


class Workload:
    """One workload at one seed, with its inputs in the directory `inputs`."""

    chains = 1          # chains one command runs
    truth = TRUTH       # generating values, or None when the data has none
    # (observations, individuals, repetitions) of the calibration loop: the
    # size of the workload's data, and about 50 ms on a 2-vCPU Xeon VM
    calibration = (600, 100, 1600)

    def __init__(self, seed: int, inputs: Path):
        self.seed, self.inputs = seed, inputs

    def setup(self) -> None:
        """Write the command's input files into `inputs` (which must not exist yet)."""
        self.inputs.mkdir(parents=True)


class Fit(Workload):
    """`panelbayes fit` on one window of a generated panel, one chain."""

    def __init__(self, seed: int, inputs: Path, individuals: int, window: str,
                 calibration: tuple[int, int, int]):
        super().__init__(seed, inputs)
        self.individuals, self.window, self.calibration = individuals, window, calibration
        self.data = inputs / "panel.csv"

    def setup(self) -> None:
        super().setup()
        sim = datagen.SimConfig(individuals=self.individuals, periods=12, sigma=TRUTH["sigma"])
        panel, _ = datagen.gen_panel(sim, np.random.default_rng([self.seed, 1]))
        q = datagen.partition(panel)
        block = q.m22 if self.window == "m22" else model.concat_panels(q.m12, q.m22)
        block.to_csv(str(self.data))

    def argv(self, out: Path, jobs: int) -> list[str]:
        return ["fit", "--data", str(self.data), "--out", str(out / "summary.csv"),
                "--priors-out", str(out / "priors.kv"), "--draws-out", str(out / "draws.csv"),
                "--burn-in", str(BURN_IN), "--samples", str(SAMPLES), "--seed", str(self.seed)]

    def check(self, out: Path, stdout: str, problems: list[str]) -> dict:
        """Checks the summary, priors and draws files; returns the draws."""
        _check_table(out / "summary.csv", ["parameter", "mean", "sd", "lcl", "ucl", "ess"],
                     [(p,) for p in PARAMETERS], problems)
        _check_priors(out / "priors.kv", problems)
        rows = _read_csv(out / "draws.csv", ["iteration", "parameter", "value"],
                         4 * SAMPLES, problems)
        if len(rows) != 4 * SAMPLES:
            return {}
        its, names, values = zip(*rows)
        if (list(its) != [str(i) for i in np.repeat(np.arange(1, SAMPLES + 1), 4)]
                or list(names) != ["beta0", "beta1", "beta2", "sigma2"] * SAMPLES):
            problems.append("draws.csv: rows are not iteration-major beta0..beta2, sigma2")
        draws = _floats(values, "draws.csv", problems)
        if draws.size != 4 * SAMPLES:
            return {}
        draws = draws.reshape(SAMPLES, 4)
        if not (draws[:, 3] > 0.0).all():
            problems.append("draws.csv: a sigma2 draw is not positive")
        return {"beta": draws[:, :3], "sigma2": draws[:, 3]}


def _check_priors(path: Path, problems: list[str]) -> None:
    keys = [f"beta{k}.{m}" for k in range(3) for m in ("mean", "variance")]
    keys += ["sigma2.shape", "sigma2.scale"]
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        problems.append(f"{path.name}: cannot read ({exc.strerror})")
        return
    entries = [line.split("=", 1) for line in lines if line.strip() and not line.startswith("#")]
    if any(len(e) != 2 for e in entries):
        problems.append(f"{path.name}: a line is not 'key = value'")
        return
    kv = {k.strip(): v.strip() for k, v in entries}
    if sorted(kv) != sorted(keys):
        problems.append(f"{path.name}: keys {sorted(kv)} != {sorted(keys)}")
        return
    vals = _floats([kv[k] for k in keys], path.name, problems)
    if vals.size == len(keys) and not (vals[1:6:2] > 0.0).all() & (vals[6:] > 0.0).all():
        problems.append(f"{path.name}: a variance, shape or scale is not positive")


class Study(Workload):
    """`panelbayes study` for R1..R6: per replicate 3 two-stage and 3 one-stage runs."""

    def __init__(self, seed: int, inputs: Path, individuals: int, replicates: int):
        super().__init__(seed, inputs)
        self.individuals, self.replicates = individuals, replicates
        self.chains = replicates * 9
        self.config = inputs / "study.kv"

    def setup(self) -> None:
        super().setup()
        self.config.write_text(
            f"individuals = {self.individuals}\nperiods = 12\nsigma = {TRUTH['sigma']!r}\n"
            f"replicates = {self.replicates}\nseed = {self.seed}\nruns = {','.join(RUN_IDS)}\n"
            f"burn_in = {BURN_IN}\nsamples = {SAMPLES}\n", encoding="utf-8")

    def argv(self, out: Path, jobs: int) -> list[str]:
        return ["study", "--config", str(self.config), "--out", str(out), "--jobs", str(jobs)]

    def check(self, out: Path, stdout: str, problems: list[str]) -> dict:
        names = [f"table_{p}.csv" for p in PARAMETERS] + ["estimates.csv"]
        if stdout.split() != [str(out / n) for n in names]:
            problems.append(f"stdout does not list the {len(names)} written tables")
        for p in PARAMETERS:
            _check_table(out / f"table_{p}.csv", ["run", "N", "mean", "sd", "lcl", "ucl", "mse"],
                         [(r, str(self.individuals)) for r in RUN_IDS], problems)
        keys = [(str(rep), r, p) for rep in range(self.replicates) for r in RUN_IDS for p in PARAMETERS]
        _check_table(out / "estimates.csv", ["replicate", "run", "parameter", "estimate"],
                     keys, problems)
        return {}


class Spindex(Workload):
    """`panelbayes spindex` on the bundled surrogate series; three chains."""

    chains = 3
    truth = None   # the surrogate was not drawn from the model
    calibration = (45, 45, 6500)

    def argv(self, out: Path, jobs: int) -> list[str]:
        return ["spindex", "--out", str(out / "comparison.csv"),
                "--burn-in", str(BURN_IN), "--samples", str(SAMPLES), "--seed", str(self.seed)]

    def check(self, out: Path, stdout: str, problems: list[str]) -> dict:
        keys = [(run, p) for run in ("uninformative", "informative") for p in ("beta0", "beta1", "sigma")]
        _check_table(out / "comparison.csv", ["run", "parameter", "mean", "sd", "lcl", "ucl"],
                     keys, problems)
        return {}


# name -> constructor taking (seed, inputs directory)
WORKLOADS = {
    "fit-i100-late": lambda seed, inputs: Fit(seed, inputs, 100, "late", (600, 100, 1600)),
    "fit-i1000-m22": lambda seed, inputs: Fit(seed, inputs, 1000, "m22", (3000, 500, 440)),
    "study-i100": lambda seed, inputs: Study(seed, inputs, 100, 2),
    "spindex": Spindex,
}
