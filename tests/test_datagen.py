import numpy as np
import pytest
from scipy.special import expit

from panelbayes.datagen import SimConfig, gen_panel, partition
from panelbayes.errors import ConfigError
from panelbayes.model import PANEL_CSV_HEADER, PanelDataset, concat_panels
from panelbayes.seeding import derive_seed


def same_rows(a, b):
    return all(np.array_equal(getattr(a, col), getattr(b, col)) for col in PANEL_CSV_HEADER)


def rows_of(panel, ids, times):
    """The rows of `panel` whose individual is in `ids` and time in `times`."""
    mask = np.isin(panel.individual, ids) & np.isin(panel.time, times)
    return PanelDataset(panel.individual[mask], panel.time[mask], panel.y[mask],
                        panel.x1[mask], panel.x2[mask])


class TestSimConfig:
    def test_rejects_odd_individuals(self):
        with pytest.raises(ConfigError, match="individuals"):
            SimConfig(individuals=5, periods=4, sigma=1.0)

    def test_rejects_odd_periods(self):
        with pytest.raises(ConfigError, match="periods"):
            SimConfig(individuals=4, periods=3, sigma=1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigError, match="sigma"):
            SimConfig(individuals=4, periods=4, sigma=0.0)

    def test_rejects_two_betas(self):
        with pytest.raises(ConfigError, match="beta_true needs 3"):
            SimConfig(individuals=4, periods=4, sigma=1.0, beta_true=(1.0, 2.0))

    def test_default_truth(self):
        cfg = SimConfig(individuals=4, periods=4, sigma=1.0)
        assert cfg.beta_true == (-1.0, 1.0, 1.0)
        assert cfg.replicates == 30


class TestX2Path:
    """The trending covariate of `gen_panel`:
    x2[1] ~ U(-0.5, 0.5), x2[j] = 0.1*j + 0.5*x2[j-1] + U(-0.5, 0.5)."""

    @staticmethod
    def x2_paths(individuals, periods, seed):
        cfg = SimConfig(individuals=individuals, periods=periods, sigma=1.0)
        panel, _ = gen_panel(cfg, np.random.default_rng(seed))
        return panel.x2.reshape(individuals, periods)  # rows sorted by (individual, time)

    def test_recursion_residuals_are_the_uniform_noise(self):
        x2 = self.x2_paths(500, 12, 3)
        j = np.arange(2, 13)
        resid = x2[:, 1:] - 0.1 * j - 0.5 * x2[:, :-1]
        assert resid.min() > -0.5
        assert resid.max() < 0.5
        # the noise fills its interval rather than a narrower one
        assert resid.min() < -0.49 and resid.max() > 0.49

    def test_first_value_support(self):
        firsts = self.x2_paths(10 ** 4, 2, 3)[:, 0]
        assert firsts.min() > -0.5
        assert firsts.max() < 0.5

    def test_mean_at_t12_matches_recursion_oracle(self):
        # closed-form expectation: e_1 = 0, e_j = 0.1*j + 0.5*e_{j-1}
        e = 0.0
        for j in range(2, 13):
            e = 0.1 * j + 0.5 * e
        assert e == pytest.approx(2.2, abs=1e-12)

        vals = self.x2_paths(10 ** 4, 12, 44)[:, -1]
        assert abs(vals.mean() - e) < 0.02


class TestGenPanel:
    def test_shapes_and_schema(self):
        cfg = SimConfig(individuals=6, periods=4, sigma=1.0)
        panel, eps = gen_panel(cfg, np.random.default_rng(0))
        assert panel.n_obs == 24
        assert panel.n_individuals == 6
        assert eps.shape == (6,)
        q = partition(panel)  # the panel is a rectangular 6 x 4 grid
        for quad in (q.m11, q.m12, q.m21, q.m22):
            assert (quad.n_individuals, np.unique(quad.time).size, quad.n_obs) == (3, 2, 6)
        assert set(panel.y.tolist()) <= {0, 1}

    def test_x1_time_constant(self):
        cfg = SimConfig(individuals=10, periods=6, sigma=1.0)
        panel, _ = gen_panel(cfg, np.random.default_rng(1))
        for i in panel.ids:
            vals = panel.x1[panel.individual == i]
            assert len(set(vals.tolist())) == 1
            assert vals[0] in (0.0, 1.0)

    def test_sigma_limit_pins_epsilon(self):
        cfg = SimConfig(individuals=50, periods=2, sigma=1e-8)
        _, eps = gen_panel(cfg, np.random.default_rng(2))
        assert np.abs(eps).max() < 1e-6

    def test_x1_frequency(self):
        cfg = SimConfig(individuals=10 ** 4, periods=2, sigma=1.0)
        panel, _ = gen_panel(cfg, np.random.default_rng(5))
        per_ind = panel.x1[::2]
        assert abs(per_ind.mean() - 0.5) < 0.015

    def test_y_frequency_at_zero_predictor(self):
        # with all coefficients zero and eps pinned, mu = 0 so P(y=1) = 0.5
        cfg = SimConfig(individuals=5000, periods=2, sigma=1e-8,
                        beta_true=(0.0, 0.0, 0.0))
        panel, _ = gen_panel(cfg, np.random.default_rng(8))
        assert abs(panel.y.mean() - 0.5) < 0.015

    def test_success_rate_matches_independent_simulation(self):
        cfg = SimConfig(individuals=1000, periods=12, sigma=1.0, seed=0)
        panel, _ = gen_panel(cfg, np.random.default_rng(10))
        observed = panel.y.mean()

        # independent re-simulation of the generative process
        rng = np.random.default_rng(987654)
        m = 200000
        eps = rng.normal(0.0, 1.0, size=m)
        x1 = (rng.random(m) < 0.5).astype(float)
        x2 = np.empty((m, 12))
        x2[:, 0] = rng.uniform(-0.5, 0.5, size=m)
        for j in range(2, 13):
            x2[:, j - 1] = 0.1 * j + 0.5 * x2[:, j - 2] + rng.uniform(-0.5, 0.5, size=m)
        p = expit(-1.0 + x1[:, None] + x2 + eps[:, None])
        assert abs(observed - p.mean()) < 0.01

    def test_determinism_and_stream_separation(self):
        cfg = SimConfig(individuals=8, periods=4, sigma=1.0, seed=123)
        a, _ = gen_panel(cfg, np.random.default_rng(derive_seed(cfg.seed, 0, 0)))
        b, _ = gen_panel(cfg, np.random.default_rng(derive_seed(cfg.seed, 0, 0)))
        c, _ = gen_panel(cfg, np.random.default_rng(derive_seed(cfg.seed, 1, 0)))
        assert same_rows(a, b)
        assert not same_rows(a, c)

    def test_replicate_streams_disjoint(self):
        master = 2024
        r0 = np.random.default_rng(derive_seed(master, 0))
        r1 = np.random.default_rng(derive_seed(master, 1))
        assert not np.allclose(r0.random(100), r1.random(100))


class TestPartition:
    def make_panel(self, n_ind=4, periods=4):
        cfg = SimConfig(individuals=n_ind, periods=periods, sigma=1.0)
        panel, _ = gen_panel(cfg, np.random.default_rng(7))
        return panel

    def test_quadrant_shapes(self):
        q = partition(self.make_panel())
        for quad in (q.m11, q.m12, q.m21, q.m22):
            assert quad.n_individuals == 2
            assert np.unique(quad.time).size == 2

    def test_m22_contents(self):
        panel = self.make_panel()
        q = partition(panel)
        assert list(q.m22.ids) == [3, 4]
        assert list(np.unique(q.m22.time)) == [3, 4]
        # covariates carried verbatim from the original rows
        assert same_rows(q.m22, rows_of(panel, [3, 4], [3, 4]))

    def test_quadrants_match_row_filters(self):
        panel = self.make_panel(6, 8)
        q = partition(panel)
        for quad, ids, times in ((q.m11, [1, 2, 3], [1, 2, 3, 4]), (q.m12, [1, 2, 3], [5, 6, 7, 8]),
                                 (q.m21, [4, 5, 6], [1, 2, 3, 4]), (q.m22, [4, 5, 6], [5, 6, 7, 8])):
            assert same_rows(quad, rows_of(panel, ids, times))

    def test_reassembly_is_lossless(self):
        panel = self.make_panel(6, 8)
        q = partition(panel)
        back = concat_panels(q.m11, q.m12, q.m21, q.m22)
        assert same_rows(back, panel)
        total = sum(quad.n_obs for quad in (q.m11, q.m12, q.m21, q.m22))
        assert total == panel.n_obs  # non-overlapping cover

    def test_time_indices_not_reindexed(self):
        q = partition(self.make_panel(4, 8))
        assert q.m12.time.min() == 5  # late block keeps original j

    def test_rejects_ragged(self):
        ragged = PanelDataset([1, 1, 2], [1, 2, 1], [0, 1, 0],
                              [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="rectangular"):
            partition(ragged)
        # equal counts per individual, but not the same times
        shifted = PanelDataset([1, 1, 2, 2], [1, 2, 1, 3], [0, 1, 0, 1], np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="rectangular"):
            partition(shifted)
        # the empty panel is rectangular, and its quadrants are empty
        empty = PanelDataset([], [], [], [], [])
        q = partition(empty)
        assert [quad.n_obs for quad in (q.m11, q.m12, q.m21, q.m22)] == [0, 0, 0, 0]

    def test_rejects_odd_counts(self):
        three = PanelDataset([1, 1, 2, 2, 3, 3], [1, 2, 1, 2, 1, 2],
                             [0, 1, 0, 1, 0, 1], np.zeros(6), np.zeros(6))
        with pytest.raises(ValueError, match="even individual"):
            partition(three)
        odd_t = PanelDataset([1, 1, 1, 2, 2, 2], [1, 2, 3, 1, 2, 3],
                             [0, 1, 0, 1, 0, 1], np.zeros(6), np.zeros(6))
        with pytest.raises(ValueError, match="even period"):
            partition(odd_t)
