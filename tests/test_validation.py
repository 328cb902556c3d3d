import numpy as np
import pytest

from ecrplus.domain import CohortPanel
from ecrplus.errors import DataError
from ecrplus.estimation import (
    McmcChain,
    ParamVector,
    _flat_names,
    _flatten,
    map_risk_factor,
    mom_transform,
)
from ecrplus.trends import death_prob_grid
from ecrplus.validation import (
    bg_lm_test,
    breusch_godfrey,
    cross_correlation_ttest,
    ks_gamma_test,
    moment_bounds_test,
    standardized_residuals,
    transformed_moments,
)

from conftest import flat_trends, simulate_panel


def _setup(rng, A=3, K=2, T=25, m=50_000, sigma2=(0.08, 0.15)):
    tr = flat_trends(A=A, K=K, alpha=-2.0)
    sigma2 = np.array(sigma2)
    pv = ParamVector(trends=tr, sigma2=sigma2)
    years = np.arange(1987, 1987 + T)
    panel, lam = simulate_panel(rng, tr, sigma2, years, m)
    return panel, pv, lam


class TestTransformedMoments:
    def test_variance_formula_against_simulation(self, rng):
        panel, pv, _ = _setup(rng, T=5)
        rho_T, var, s2 = transformed_moments(panel, pv)
        # simulate many one-year draws of the rescaled counts per cell
        n_sims = 40_000
        k = 2
        lam = rng.gamma(1.0 / s2[k], s2[k], size=n_sims)
        counts = rng.poisson(rho_T[0, 0, k] * lam)
        assert counts.var() == pytest.approx(var[0, 0, k], rel=0.05)
        assert var[:, :, 0] == pytest.approx(rho_T[:, :, 0], rel=1e-12)


class TestMomentBounds:
    def test_fraction_near_nominal_on_simulated_data(self, rng):
        panel, pv, _ = _setup(rng)
        report = moment_bounds_test(panel, pv, [pv], level=0.10, seed=1, n_draws=400)
        assert 0.75 <= report.accepted_fraction <= 1.0
        kinds = {s["kind"] for s in report.statistics}
        assert kinds == {"var", "cov"}

    def test_needs_enough_years(self, rng):
        panel, pv, _ = _setup(rng, T=2)
        with pytest.raises(DataError):
            moment_bounds_test(panel, pv, [pv])

    def test_empty_chain_rejected(self, rng):
        panel, pv, _ = _setup(rng)
        with pytest.raises(DataError):
            moment_bounds_test(panel, pv, [])

    def test_pair_covariances_match_the_cell_loop(self, rng):
        panel, pv, _ = _setup(rng, T=6)
        report = moment_bounds_test(panel, pv, [pv], n_draws=20)
        counts = mom_transform(panel, pv).deaths.astype(float)
        centred = counts - counts.mean(axis=0)
        T, A, G, K1 = counts.shape
        cells = [(a, g) for a in range(A) for g in range(G)]
        expected = {}
        for i, (a1, g1) in enumerate(cells):
            for a2, g2 in cells[i + 1 :]:
                cov = (centred[:, a1, g1, :] * centred[:, a2, g2, :]).sum(axis=0) / (T - 1)
                for k in range(K1):
                    expected[((a1, g1), (a2, g2), k)] = cov[k]
        observed = {s["cell"]: s["observed"] for s in report.statistics if s["kind"] == "cov"}
        assert observed == expected

    def test_long_chain_builds_only_the_draws_it_uses(self, rng, monkeypatch):
        panel, pv, _ = _setup(rng, T=5)
        n_records, n_draws = 3000, 40
        chain = McmcChain(
            names=_flat_names(pv),
            samples=np.repeat(_flatten(pv)[None, :], n_records, axis=0),
            log_posterior=np.zeros(n_records),
            acceptance={},
            template=pv,
        )
        built = []
        original = McmcChain.param_vector

        def counting(self, i):
            built.append(i)
            return original(self, i)

        monkeypatch.setattr(McmcChain, "param_vector", counting)
        moment_bounds_test(panel, pv, chain, n_draws=n_draws)
        assert 0 < len(built) <= n_draws
        assert built[0] == 0 and built[-1] == n_records - 1


class TestStandardizedResiduals:
    def test_exact_zero_and_unit_values(self):
        tr = flat_trends(A=1, K=0, alpha=-2.0)
        pv = ParamVector(trends=tr, sigma2=np.zeros(0))
        years = np.arange(2000, 2003)
        exposure = np.full((3, 1, 2), 10_000)
        q = death_prob_grid(years, tr)
        rho = (exposure * q)[:, :, :, None]
        mean = rho[0, 0, 0, 0]
        deaths = np.full((3, 1, 2, 1), round(mean))
        deaths[1, 0, 0, 0] = round(mean + np.sqrt(mean))
        panel = CohortPanel(years=years, deaths=deaths, exposure=exposure)
        resid = standardized_residuals(panel, pv, np.zeros((3, 0)))
        assert resid[0, 0, 0, 0] == pytest.approx(
            (round(mean) - mean) / np.sqrt(mean), abs=1e-12
        )
        assert resid[1, 0, 0, 0] == pytest.approx(
            (round(mean + np.sqrt(mean)) - mean) / np.sqrt(mean), abs=1e-12
        )

    def test_large_exposure_standardisation(self, rng):
        panel, pv, _ = _setup(rng, m=200_000)
        lam = np.empty((panel.n_years, panel.n_causes - 1))
        for k in range(1, panel.n_causes):
            for ti, year in enumerate(panel.years):
                lam[ti, k - 1] = map_risk_factor(panel, pv, k, int(year))
        resid = standardized_residuals(panel, pv, lam)
        assert 0.9 <= resid.std() <= 1.1


class TestCrossCorrelation:
    def test_size_on_independent_residuals(self, rng):
        accepted = []
        for _ in range(40):
            resid = rng.standard_normal((25, 2, 2, 3))
            rep = cross_correlation_ttest(resid)
            accepted.append(rep.accepted_fraction)
        assert np.mean(accepted) == pytest.approx(0.95, abs=0.03)

    def test_perfect_correlation_rejected(self, rng):
        resid = rng.standard_normal((20, 1, 2, 2))
        resid[:, 0, 0, 1] = resid[:, 0, 0, 0]
        rep = cross_correlation_ttest(resid)
        pair = [s for s in rep.statistics if s["cell"] == (0, 0)][0]
        assert not pair["accepted"]
        assert pair["p_value"] == 0.0

    def test_constant_series_rejected(self):
        resid = np.zeros((10, 1, 2, 2))
        with pytest.raises(DataError):
            cross_correlation_ttest(resid)


class TestBreuschGodfrey:
    def test_white_noise_size(self, rng):
        rejections = 0
        trials = 0
        for _ in range(120):
            x = rng.standard_normal(60)
            rep = breusch_godfrey(x, max_order=10)
            rejections += sum(not s["accepted"] for s in rep.statistics)
            trials += len(rep.statistics)
        assert 0.02 <= rejections / trials <= 0.10

    def test_ar1_rejected_at_order_one(self, rng):
        rejected = 0
        for _ in range(50):
            e = rng.standard_normal(40)
            x = np.empty(40)
            x[0] = e[0]
            for i in range(1, 40):
                x[i] = 0.9 * x[i - 1] + e[i]
            _, pval = bg_lm_test(x, 1)
            rejected += pval <= 0.05
        assert rejected >= 45

    def test_series_too_short(self):
        with pytest.raises(DataError):
            bg_lm_test(np.arange(8.0), 10)


class TestKsGamma:
    def test_size_under_null(self, rng):
        rejections = 0
        for i in range(400):
            lam = rng.gamma(10.0, 0.1, size=25)
            rep = ks_gamma_test(lam, 0.1, n_boot=0)
            rejections += not rep.statistics[0]["accepted"]
        assert 0.02 <= rejections / 400 <= 0.10

    def test_power_against_uniform(self, rng):
        rejected = 0
        for i in range(50):
            lam = rng.uniform(0.0, 2.0, size=40) + 1e-9
            rep = ks_gamma_test(lam, 0.01, n_boot=0)
            rejected += not rep.statistics[0]["accepted"]
        assert rejected >= 48

    def test_bootstrap_p_value_reported(self, rng):
        lam = rng.gamma(10.0, 0.1, size=25)
        rep = ks_gamma_test(lam, 0.1, n_boot=50, seed=4)
        assert 0.0 <= rep.statistics[0]["p_value_bootstrap"] <= 1.0

    def test_invalid_inputs(self, rng):
        with pytest.raises(DataError):
            ks_gamma_test(np.ones(3), 0.1)
        with pytest.raises(ValueError):
            ks_gamma_test(np.ones(10), -0.1)
