"""Random-effects logistic model for panel binary data.

The observation model: individual i contributes binary responses y_ij at time
points j with covariates (x1_ij, x2_ij). Conditional on the individual effect
eps_i,

    P(y_ij = 1) = exp(mu_ij) / (1 + exp(mu_ij)),
    mu_ij = beta0 + beta1 * x1_ij + beta2 * x2_ij + eps_i,

with eps_i ~ N(0, sigma2). Everything here is a pure function of immutable
inputs: arrays are frozen at construction and safe to share across threads or
processes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .kvconfig import binary, finite, int64, read_input
from .priors import PriorSet, log_density_invgamma, log_density_normal

PANEL_COLUMNS = [("individual", int64), ("time", int64), ("y", binary),
                 ("x1", finite), ("x2", finite)]
PANEL_CSV_HEADER = [name for name, _ in PANEL_COLUMNS]


def write_csv(path: str | None, header: Sequence[str], rows: Iterable[Sequence] | str) -> None:
    """Write `header`, then `rows`, as UTF-8 CSV with "\\n" line ends; None
    means stdout. `rows` holds rows of len(header) cells each, or is text
    already in this form, such as `sampler.draws_to_csv` builds.

    Every row goes through one `str.format` template, so each cell is written
    with str(): Python floats come out as their shortest round-trip repr
    (pass `float(x)` or `.tolist()`, not numpy scalars). No cell is quoted:
    every cell written is an int, a float or an identifier such as a
    parameter or run name, none of which holds a comma, a quote or a line end.
    """
    row = (",".join(["{}"] * len(header)) + "\n").format
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        fh.write(row(*header))
        fh.write(rows if isinstance(rows, str) else "".join([row(*cells) for cells in rows]))


def read_csv(path: str, columns: Sequence[tuple[str, Callable[[str], object]]]) -> list[list]:
    """One list per column of `columns`, (name, parser) pairs, holding the
    parsed cells of every non-blank data row of a CSV file, in file order.

    The first row, with its cells stripped, must equal the column names, and
    every data row must have as many cells. Each cell goes to its column's
    parser, one of `kvconfig`'s, which allows blanks around it. Any of
    these failing raises ConfigError with a `path:line` anchor; a cell that
    its parser rejects, the first in file order, raises
    `path:line: column 'name' is not <kind>: 'cell'`. A file that cannot be
    read raises `read_input`'s ConfigError.
    """
    header = [name for name, _ in columns]
    reader = csv.reader(io.StringIO(read_input(path), newline=""))
    first = next(reader, None)
    if first is None or [c.strip() for c in first] != header:
        raise ConfigError(f"{path}:1: expected header {','.join(header)}")
    values: list[list] = [[] for _ in columns]
    for rowno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(columns):
            raise ConfigError(f"{path}:{rowno}: expected {len(columns)} columns, got {len(row)}")
        for (name, parse), cell, dest in zip(columns, row, values):
            try:
                dest.append(parse(cell))
            except ValueError as exc:
                raise ConfigError(f"{path}:{rowno}: column {name!r} is {exc}: {cell!r}") from None
    return values


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Binary panel observations in long form.

    Rows are canonicalized to (individual, time) order at construction. Time
    indices must be strictly increasing within each individual (this also
    rules out duplicate observations). Ragged panels (unequal lengths per
    individual) are allowed.

    Attributes
    ----------
    individual : int array, original individual ids (any integers)
    time : int array, original time index j of each observation
    y : int array of 0/1 responses
    x1, x2 : float covariate arrays
    """

    individual: np.ndarray
    time: np.ndarray
    y: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    # derived, filled in __post_init__
    ids: np.ndarray = field(init=False, repr=False, compare=False)
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ind = np.asarray(self.individual, dtype=np.int64)
        tim = np.asarray(self.time, dtype=np.int64)
        y_raw = np.asarray(self.y)
        x1 = np.asarray(self.x1, dtype=np.float64)
        x2 = np.asarray(self.x2, dtype=np.float64)
        n = ind.size
        if not (tim.size == y_raw.size == x1.size == x2.size == n):
            raise ValueError("panel columns must have equal length")
        if not ((y_raw == 0) | (y_raw == 1)).all():
            raise ValueError("responses must be exactly 0 or 1")
        y = y_raw.astype(np.int64)
        order = np.lexsort((tim, ind))
        ind, tim, y, x1, x2 = ind[order], tim[order], y[order], x1[order], x2[order]
        if not (np.isfinite(x1).all() and np.isfinite(x2).all()):
            raise ValueError("covariates must be finite")
        ids, codes = np.unique(ind, return_inverse=True)
        # strictly increasing times within an individual (catches duplicates)
        same = codes[1:] == codes[:-1]
        if np.any(same & (np.diff(tim) <= 0)):
            raise ValueError("time indices must be strictly increasing within an individual")
        for name, arr in [("individual", ind), ("time", tim), ("y", y), ("x1", x1), ("x2", x2)]:
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "ids", _frozen(ids))
        object.__setattr__(self, "codes", _frozen(codes.astype(np.int64)))

    @property
    def n_obs(self) -> int:
        return int(self.y.size)

    @property
    def n_individuals(self) -> int:
        return int(self.ids.size)

    def times(self) -> np.ndarray:
        """Sorted unique time indices present in the panel."""
        return np.unique(self.time)

    def is_rectangular(self) -> bool:
        """True when every individual is observed at the same time points."""
        t = self.times()
        if self.n_obs != t.size * self.n_individuals:
            return False
        expect = np.tile(t, self.n_individuals)
        return bool(np.array_equal(self.time, expect))

    def subset(self, ids=None, times=None) -> "PanelDataset":
        """Rows restricted to the given individual ids and/or time indices."""
        mask = np.ones(self.n_obs, dtype=bool)
        if ids is not None:
            mask &= np.isin(self.individual, np.asarray(ids))
        if times is not None:
            mask &= np.isin(self.time, np.asarray(times))
        return PanelDataset(self.individual[mask], self.time[mask], self.y[mask],
                            self.x1[mask], self.x2[mask])

    def to_csv(self, path: str) -> None:
        write_csv(path, PANEL_CSV_HEADER,
                  zip(self.individual.tolist(), self.time.tolist(), self.y.tolist(),
                      self.x1.tolist(), self.x2.tolist()))

    @classmethod
    def from_csv(cls, path: str) -> "PanelDataset":
        try:
            return cls(*read_csv(path, PANEL_COLUMNS))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def concat_panels(*parts: PanelDataset) -> PanelDataset:
    """Row-union of panels; duplicate (individual, time) pairs are rejected."""
    if not parts:
        raise ValueError("need at least one panel")
    return PanelDataset(
        np.concatenate([p.individual for p in parts]),
        np.concatenate([p.time for p in parts]),
        np.concatenate([p.y for p in parts]),
        np.concatenate([p.x1 for p in parts]),
        np.concatenate([p.x2 for p in parts]),
    )


@dataclass(frozen=True, eq=False)
class ParameterState:
    """One point in parameter space: fixed effects, individual effects, variance."""

    beta: np.ndarray     # (beta0, beta1, beta2)
    epsilon: np.ndarray  # one entry per individual, in PanelDataset.ids order
    sigma2: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        eps = np.asarray(self.epsilon, dtype=np.float64)
        if beta.shape != (3,):
            raise ValueError("beta must have exactly 3 components")
        if float(self.sigma2) <= 0.0:
            raise ValueError("sigma2 must be positive")
        object.__setattr__(self, "beta", _frozen(beta))
        object.__setattr__(self, "epsilon", _frozen(eps))
        object.__setattr__(self, "sigma2", float(self.sigma2))


def softplus(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(x)) elementwise for a float array x, as
    max(x, 0) + log1p(exp(-|x|)), computed in place in `out` (a new array
    when None, never x itself), which it returns.

    exp only ever sees a non-positive argument, so the result is finite for
    every finite x and keeps the tail of large negative x. copysign(x, -1)
    gives -|x| bit for bit in one call. It serves `log_likelihood`, `expit`
    and a `sampler._Chain`'s first column sums, not the sweep's passes.
    """
    t = np.copysign(x, -1.0, out=out)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    t += np.maximum(x, 0.0)
    return t


def expit(x) -> np.ndarray:
    """The logistic 1 / (1 + exp(-x)) elementwise for an array x, as
    exp(-softplus(-x)).

    Finite, within [0, 1] and free of warnings for every finite x.
    """
    return np.exp(-softplus(-np.asarray(x, dtype=np.float64)))


def log_likelihood(data: PanelDataset, state: ParameterState) -> float:
    """Sum over observations of y*mu - log(1 + exp(mu)).

    Uses `softplus` for log(1 + exp(mu)), so trending covariates with large
    |mu| neither overflow nor lose the tail.
    """
    if state.epsilon.size != data.n_individuals:
        raise ValueError(
            f"epsilon has {state.epsilon.size} entries but the panel has "
            f"{data.n_individuals} individuals")
    b = state.beta
    mu = b[0] + b[1] * data.x1 + b[2] * data.x2 + state.epsilon[data.codes]
    return float(data.y @ mu - softplus(mu).sum())


def log_posterior(data: PanelDataset, state: ParameterState, priors: PriorSet) -> float:
    """Unnormalized-in-data but fully-normalized-in-parameters log density:

    log_likelihood
      + sum_k log N(beta_k | prior)
      + sum_i log N(eps_i | 0, sigma2)
      + log IG(sigma2 | shape, scale)
    """
    total = log_likelihood(data, state)
    for b, p in zip(state.beta, priors.beta_priors):
        total += log_density_normal(p, float(b))
    eps = state.epsilon
    total += float(-0.5 * eps.size * math.log(2.0 * math.pi * state.sigma2)
                   - (eps @ eps) / (2.0 * state.sigma2))
    total += log_density_invgamma(priors.sigma2_prior, state.sigma2)
    return float(total)
