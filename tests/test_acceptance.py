"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two replicated-study
criteria and criteria 10 and 11 take most of the time; their fits run in a
worker pool. Criterion 10's oracle is `posterior_oracle`, next to this file.
"""

import math
import os

import numpy as np
from scipy import stats as sps
from scipy.special import expit

from panelbayes.cli import main
from panelbayes.datagen import SimConfig, gen_panel, partition, replicate_panel
from panelbayes.experiment import mse, replicate_ci, run_study, stage_dataset
from panelbayes.model import PanelDataset, ParameterState, concat_panels
from panelbayes.priors import (InverseGammaPrior, NormalPrior, PriorSet, default_uninformative,
                               fit_invgamma, fit_normal)
from panelbayes.sampler import (ChainConfig, effective_sample_size, gibbs_sigma2, metropolis_sweep,
                                run_chain)
from panelbayes.workers import worker_pool
from posterior_oracle import panel as oracle_panel
from posterior_oracle import posterior_moments

JOBS = max(1, min(4, os.cpu_count() or 1))

# criterion 10: I = 1000 panels whose seeds were fixed before any run
I1000_SIMS = tuple(SimConfig(individuals=1000, periods=12, sigma=1.0, seed=seed)
                   for seed in (5001, 5002, 5003))

# criterion 11: a stage-2-like proper prior, and L = 100 ranks from every 20th of 2000 draws
SBC_PRIORS = PriorSet(beta_priors=(NormalPrior(-1.0, 0.09), NormalPrior(1.0, 0.09),
                                   NormalPrior(1.0, 0.04)),
                      sigma2_prior=InverseGammaPrior(20.0, 19.0))
SBC_FITS, SBC_DRAWS, SBC_THIN = 200, 2000, 20


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _with_moments(mean, sd, n):
    base = np.linspace(-1.0, 1.0, n)
    z = (base - base.mean()) / base.std(ddof=1)
    return mean + sd * z


def test_criterion_1_table_arithmetic():
    est = _with_moments(-1.068, 0.157, 30)
    m1 = mse(est, -1.0)
    lcl, ucl = replicate_ci(est)
    est2 = _with_moments(0.911, 0.086, 30)
    m2 = mse(est2, 1.0)
    lcl2, ucl2 = replicate_ci(est2)
    ok = (abs(m1 - 0.029) <= 0.001
          and round(lcl, 3) == -1.127 and round(ucl, 3) == -1.009
          and abs(m2 - 0.015) <= 0.001
          and round(lcl2, 3) == 0.879 and round(ucl2, 3) == 0.943)
    _report(1, "replicate-table arithmetic reproduction", ok,
            f"(mse_1={m1:.4f}, ci_1=({lcl:.3f},{ucl:.3f}), mse_2={m2:.4f})")


def test_criterion_2_conjugate_gibbs():
    rng = np.random.default_rng(123)
    prior = InverseGammaPrior(0.001, 0.001)
    draws = np.array([gibbs_sigma2(np.zeros(10), prior, rng) for _ in range(5000)])
    ks = sps.kstest(draws, sps.invgamma(5.001, scale=0.001).cdf)

    # the chain's own sigma2 step, at a fixed eps != 0: with no beta and no
    # eps steps, each sweep from one state is one exact full-conditional draw
    rng = np.random.default_rng(124)
    panel = PanelDataset(np.repeat(np.arange(10), 2), np.tile([1, 2], 10), rng.integers(0, 2, 20),
                         rng.normal(size=20), rng.normal(size=20))
    eps = rng.standard_normal(10)
    state = ParameterState(beta=np.zeros(3), epsilon=eps, sigma2=1.0)
    priors = default_uninformative()
    draws = np.array([metropolis_sweep(panel, state, priors, rng, beta_log_scale=-math.inf,
                                       eps_scales=np.zeros(10)).sigma2 for _ in range(5000)])
    half_ss = 0.5 * float(eps @ eps)
    ks_chain = sps.kstest(draws, sps.invgamma(0.001 + 5, scale=0.001 + half_ss).cdf)
    _report(2, "conjugate variance draws match the analytic inverse gamma, at eps = 0 and in "
            "the chain's sweep at a fixed eps", ks.pvalue > 0.01 and ks_chain.pvalue > 0.01,
            f"(KS p={ks.pvalue:.3g} at eps = 0; p={ks_chain.pvalue:.3g} in the sweep, "
            f"sum eps^2={2 * half_ss:.2f})")


def test_criterion_3_quadrature_oracle():
    data = PanelDataset([1, 1, 1], [1, 2, 3], [1, 0, 1], np.zeros(3), np.zeros(3))
    priors = PriorSet(
        beta_priors=(NormalPrior(0.0, 4.0), NormalPrior(0.0, 10000.0), NormalPrior(0.0, 10000.0)),
        sigma2_prior=InverseGammaPrior(1e6, 1.0),  # pins sigma2 near 1e-6
    )
    s = run_chain(data, priors, ChainConfig(burn_in=2000, samples=20000, seed=13))
    b0 = s.beta[:, 0]
    mcse = b0.std(ddof=1) / math.sqrt(effective_sample_size(b0))

    # 1-d grid integration of the intercept posterior with eps = 0:
    # log weight = log N(b0 | 0, 4) + 2*b0 - 3*log(1 + exp(b0))
    grid = np.linspace(-8.0, 8.0, 160001)
    logw = -grid ** 2 / 8.0 + 2.0 * grid - 3.0 * np.logaddexp(0.0, grid)
    w = np.exp(logw - logw.max())
    oracle = float((grid * w).sum() / w.sum())

    diff = abs(float(b0.mean()) - oracle)
    _report(3, "intercept posterior mean matches grid integration", diff <= 3 * mcse,
            f"(chain={b0.mean():.4f}, oracle={oracle:.4f}, diff={diff:.4f}, 3*mcse={3 * mcse:.4f})")


def test_criterion_4_joint_distribution():
    # compare E[beta0], E[beta1], E[beta2] and E[log sigma2] under (prior,
    # data) sampled forward against the chain that alternates one
    # fixed-kernel sweep with a data redraw
    ind = np.array([1, 1, 2, 2])
    tim = np.array([1, 2, 1, 2])
    x1 = np.array([0.0, 0.0, 1.0, 1.0])
    x2 = np.array([0.3, -0.2, 0.1, 0.5])
    X = np.column_stack([np.ones(4), x1, x2])
    codes = np.array([0, 0, 1, 1])
    priors = PriorSet(beta_priors=tuple(NormalPrior(0.0, 1.0) for _ in range(3)),
                      sigma2_prior=InverseGammaPrior(3.0, 2.0))
    rng = np.random.default_rng(71)

    def draw_state():
        beta = rng.normal(0.0, 1.0, 3)
        sigma2 = 1.0 / rng.gamma(3.0, 0.5)
        eps = rng.normal(0.0, math.sqrt(sigma2), 2)
        return ParameterState(beta=beta, epsilon=eps, sigma2=sigma2)

    def draw_y(state):
        mu = X @ state.beta + np.asarray(state.epsilon)[codes]
        return (rng.random(4) < expit(mu)).astype(int)

    def means_of(state):
        return (*state.beta, math.log(state.sigma2))

    m_draws = 50000
    prior_draws = np.empty((m_draws, 4))
    for m in range(m_draws):
        st = draw_state()
        draw_y(st)
        prior_draws[m] = means_of(st)

    sweeps = 52000
    chain_draws = np.empty((sweeps, 4))
    st = draw_state()
    y = draw_y(st)
    for t in range(sweeps):
        panel = PanelDataset(ind, tim, y, x1, x2)
        st = metropolis_sweep(panel, st, priors, rng,
                              beta_log_scale=math.log(0.6),
                              eps_scales=np.array([0.8, 0.8]))
        y = draw_y(st)
        chain_draws[t] = means_of(st)
    chain_draws = chain_draws[2000:]

    ok, details = True, []
    for name, prior_k, chain_k in zip(("beta0", "beta1", "beta2", "log sigma2"),
                                      prior_draws.T, chain_draws.T):
        se_prior = prior_k.std(ddof=1) / math.sqrt(m_draws)
        se_chain = chain_k.std(ddof=1) / math.sqrt(effective_sample_size(chain_k))
        diff = abs(float(prior_k.mean()) - float(chain_k.mean()))
        budget = 4.0 * math.sqrt(se_prior ** 2 + se_chain ** 2)
        ok = ok and diff <= budget
        details.append(f"{name}: prior={prior_k.mean():+.4f}, chain={chain_k.mean():+.4f}, "
                       f"diff={diff:.4f}, 4*se={budget:.4f}")
    _report(4, "prior-path and successive-conditional means of beta0, beta1, beta2 "
            "and log sigma2 agree", ok, "(" + "; ".join(details) + ")")


def test_criterion_5_desk_scale_ordering():
    sim = SimConfig(individuals=100, periods=12, sigma=1.0, replicates=10, seed=202)
    with worker_pool(JOBS if JOBS > 1 else 0) as pool:
        res = run_study(sim, ("R2", "R6"), ChainConfig(seed=sim.seed), pool)
    m = {(r.run_id, r.parameter): r.mse for r in res.rows}
    ok = (m[("R2", "beta1")] < m[("R6", "beta1")]
          and m[("R2", "beta2")] < m[("R6", "beta2")])
    _report(5, "informative-over-time beats diffuse on the late window (desk scale)", ok,
            f"(beta1: {m[('R2', 'beta1')]:.4f} vs {m[('R6', 'beta1')]:.4f}; "
            f"beta2: {m[('R2', 'beta2')]:.4f} vs {m[('R6', 'beta2')]:.4f})")


def test_criterion_6_long_window_contrast():
    sim = SimConfig(individuals=50, periods=100, sigma=1.0, replicates=5, seed=202)
    with worker_pool(JOBS if JOBS > 1 else 0) as pool:
        res = run_study(sim, ("R2", "R6"), ChainConfig(seed=sim.seed), pool)
    m = {(r.run_id, r.parameter): r.mse for r in res.rows}
    mean = {(r.run_id, r.parameter): r.mean for r in res.rows}
    ok = (m[("R6", "beta2")] > m[("R2", "beta2")]
          and abs(mean[("R2", "beta2")] - 1.0) <= 0.2)
    _report(6, "long-window diffuse fit degrades while carried-over priors hold", ok,
            f"(R6 mse={m[('R6', 'beta2')]:.1f} vs R2 mse={m[('R2', 'beta2')]:.4f}; "
            f"R2 mean={mean[('R2', 'beta2')]:.3f})")


def test_criterion_7_prior_round_trips():
    ig_draws = sps.invgamma(4.0, scale=3.0).rvs(size=10 ** 5, random_state=77)
    ig = fit_invgamma(ig_draws)
    norm_draws = np.random.default_rng(91).normal(-1.0, 0.2, size=10 ** 5)
    nm = fit_normal(norm_draws)
    ok = (abs(ig.shape - 4.0) / 4.0 < 0.05
          and abs(nm.mean - (-1.0)) < 0.01
          and abs(nm.variance - 0.04) / 0.04 < 0.10)
    _report(7, "moment-matched priors recover their generating parameters", ok,
            f"(shape={ig.shape:.3f}, mean={nm.mean:.4f}, variance={nm.variance:.5f})")


def test_criterion_8_determinism_suite(tmp_path):
    gen_cfg = tmp_path / "gen.kv"
    gen_cfg.write_text("individuals = 4\nperiods = 4\nsigma = 1.0\nseed = 99\n")
    pairs = []

    for name in ("a", "b"):
        out = tmp_path / f"panel_{name}.csv"
        assert main(["gen", "--config", str(gen_cfg), "--out", str(out)]) == 0
        pairs.append(out.read_bytes() + (tmp_path / f"panel_{name}.csv.truth").read_bytes())
    gen_ok = pairs[0] == pairs[1]

    fit_outs = []
    for name in ("a", "b"):
        out = tmp_path / f"fit_{name}.csv"
        assert main(["fit", "--data", str(tmp_path / "panel_a.csv"), "--out", str(out),
                     "--burn-in", "200", "--samples", "400", "--seed", "7"]) == 0
        fit_outs.append(out.read_bytes())
    fit_ok = fit_outs[0] == fit_outs[1]

    study_cfg = tmp_path / "study.kv"
    study_cfg.write_text(
        "individuals = 4\nperiods = 4\nsigma = 1.0\nreplicates = 2\nseed = 31\n"
        "burn_in = 150\nsamples = 250\nruns = R3,R4\njobs = 2\n")
    study_bytes = []
    for name in ("a", "b"):
        outdir = tmp_path / f"study_{name}"
        assert main(["study", "--config", str(study_cfg), "--out", str(outdir)]) == 0
        blob = b"".join((outdir / f).read_bytes() for f in
                        ("table_beta0.csv", "table_beta1.csv", "table_beta2.csv",
                         "table_sigma.csv", "estimates.csv"))
        study_bytes.append(blob)
    study_ok = study_bytes[0] == study_bytes[1]

    _report(8, "gen/fit/study are byte-identical under fixed seeds",
            gen_ok and fit_ok and study_ok,
            f"(gen={gen_ok}, fit={fit_ok}, study={study_ok})")


def test_criterion_9_sp_pipeline_shape(tmp_path):
    out = tmp_path / "sp.csv"
    code = main(["spindex", "--out", str(out),
                 "--burn-in", "400", "--samples", "800", "--seed", "5"])
    lines = out.read_text().strip().split("\n") if out.exists() else []
    header_ok = bool(lines) and lines[0] == "run,parameter,mean,sd,lcl,ucl"
    body = [ln.split(",")[:2] for ln in lines[1:]]
    layout_ok = body == [["uninformative", "beta0"], ["uninformative", "beta1"],
                         ["uninformative", "sigma"], ["informative", "beta0"],
                         ["informative", "beta1"], ["informative", "sigma"]]
    _report(9, "bundled-surrogate two-stage comparison emits both runs",
            code == 0 and header_ok and layout_ok,
            f"(exit={code}, rows={len(lines) - 1 if lines else 0})")


def _i1000_fit(sim: SimConfig):
    """Criterion 10's fit of the late window of `sim`'s replicate 0 with the
    default chain, and the oracle's: the chain's posterior mean, SD and ESS of
    beta0, beta1, beta2 and sigma, and the oracle's `Moments`."""
    q = partition(replicate_panel(sim, 0)[0])
    late = concat_panels(q.m12, q.m22)
    s = run_chain(late, default_uninformative(), ChainConfig(seed=sim.seed))
    draws = np.column_stack([s.beta, s.sigma])
    oracle = posterior_moments(oracle_panel(late.y, late.x1, late.x2, late.codes), seed=sim.seed)
    return (draws.mean(axis=0), draws.std(axis=0, ddof=1),
            np.array([effective_sample_size(d) for d in draws.T]), oracle)


def test_criterion_10_i1000_late_window():
    with worker_pool(JOBS if JOBS > 1 else 0) as pool:
        fits = list(pool.map(_i1000_fit, I1000_SIMS))
    ok, details = True, []
    for sim, (mean, sd, ess, oracle) in zip(I1000_SIMS, fits):
        mcse = sd / np.sqrt(ess)
        to_truth = np.abs(mean - np.array([*sim.beta_true, sim.sigma])) / (3 * mcse + 2 * sd)
        to_oracle = np.abs(mean - oracle.mean) / (3 * np.sqrt(mcse ** 2 + oracle.se ** 2))
        ok = ok and to_truth.max() <= 1.0 and to_oracle.max() <= 1.0 and ess.min() >= 100
        details.append(f"seed {sim.seed}: min ESS={ess.min():.0f}, "
                       f"max |mean - truth|/(3 mcse + 2 sd)={to_truth.max():.2f}, "
                       f"max |mean - oracle|/(3 sqrt(mcse^2 + se_is^2))={to_oracle.max():.2f}, "
                       f"oracle Kish ESS={oracle.kish_ess:.0f}")
    _report(10, "I = 1000 late-window fits match the truth and the AGHQ importance-sampling "
            "oracle, with min ESS >= 100", ok, "(" + "; ".join(details) + ")")


def _sbc_ranks(k: int) -> np.ndarray:
    """Fit k of criterion 11: draw (beta, sigma2) from SBC_PRIORS and a 100 x 12
    panel from them on default_rng([7, k]), fit its late window on chain seed
    k, and return the rank of each true beta0, beta1, beta2 and sigma2 among
    every SBC_THIN-th kept draw, from 0 to 100."""
    rng = np.random.default_rng([7, k])
    beta = rng.normal([p.mean for p in SBC_PRIORS.beta_priors],
                      [math.sqrt(p.variance) for p in SBC_PRIORS.beta_priors])
    ig = SBC_PRIORS.sigma2_prior
    sigma2 = 1.0 / rng.gamma(ig.shape, 1.0 / ig.scale)
    sim = SimConfig(individuals=100, periods=12, sigma=math.sqrt(sigma2),
                    beta_true=tuple(beta), replicates=1)
    late = stage_dataset("late", partition(gen_panel(sim, rng)[0]))
    s = run_chain(late, SBC_PRIORS, ChainConfig(burn_in=500, samples=SBC_DRAWS, seed=k))
    draws = np.column_stack([s.beta, s.sigma2])[::SBC_THIN]
    return (draws < np.append(beta, sigma2)).sum(axis=0)


def test_criterion_11_simulation_based_calibration():
    # Talts et al. 2018 (arXiv:1804.06788): if run_chain samples the
    # posterior, the rank of a prior draw among the draws fitted to data
    # simulated from it is uniform on 0..L
    with worker_pool(JOBS if JOBS > 1 else 0) as pool:
        ranks = np.array(list(pool.map(_sbc_ranks, range(SBC_FITS))))
    n_ranks = SBC_DRAWS // SBC_THIN + 1
    share = np.bincount(np.arange(n_ranks) * 10 // n_ranks) / n_ranks  # 11 ranks in bin 0, 10 after
    p_values = [sps.chisquare(np.bincount(r * 10 // n_ranks, minlength=10), SBC_FITS * share).pvalue
                for r in ranks.T]
    _report(11, "simulation-based calibration: the true parameters' ranks among the "
            "kept draws are uniform", min(p_values) > 0.0025,
            "(10-bin chi-square p: " + ", ".join(
                f"{name}={p:.4f}" for name, p in zip(("beta0", "beta1", "beta2", "sigma2"),
                                                     p_values)) + ")")
