import numpy as np
import pytest
from scipy import stats

from ecrplus.aggregation import quantile, tv_distance
from ecrplus.errors import DataError
from ecrplus.estimation import ParamVector
from ecrplus.forecast import (
    ForecastConfig,
    beta_mixing_variance,
    estimate_inflation,
    forecast_bands,
    forecast_death_rate,
    inflated_variances,
    life_expectancy,
)
from ecrplus.trends import death_prob, laplace_cdf_inv

from conftest import flat_trends, realistic_trends


def _params(K=1, alpha=-2.0, sigma2=(0.1,)):
    tr = flat_trends(A=1, K=K, alpha=alpha)
    return ParamVector(trends=tr, sigma2=np.array(sigma2, dtype=float))


def _cfg(d=0.0, m=10_000, horizon=2020):
    return ForecastConfig(
        base_year=2000, horizon=horizon, inflation=d,
        population={(0, 0): m, (0, 1): m},
    )


class TestDeathRateForecast:
    def test_zero_inflation_matches_plain_engine(self):
        pv = _params()
        d0 = forecast_death_rate((0, 0), 2001, pv, _cfg(d=0.0))
        # same year, same parameters, no inflation: engine at t
        from ecrplus.aggregation import aggregate_loss
        from ecrplus.domain import LatticeSeverity, Policyholder, Portfolio, RiskFactorSpec

        q = death_prob(0, 0, 2001, pv.trends)
        w = pv.trends.u[0, 0]  # zeros -> uniform weights
        holder = Policyholder(
            id="x", age_group=0, gender="f", birth_year=0, death_prob=q,
            weights=np.array([0.5, 0.5]), payment=LatticeSeverity.point(1),
            multiplicity=10_000,
        )
        ref = aggregate_loss(Portfolio(holders=[holder]), [RiskFactorSpec(1, 0.1)], unit=1.0)
        assert tv_distance(d0.truncated(min(d0.n_max, ref.n_max)),
                           ref.truncated(min(d0.n_max, ref.n_max))) < 1e-12

    def test_variance_inflation_factor(self):
        np.testing.assert_allclose(
            inflated_variances(np.array([0.1, 0.2]), 0.22, 5),
            np.array([0.1, 0.2]) * (1 + 0.22 * 5) ** 2,
            rtol=1e-15,
        )

    def test_inflated_variance_widens_forecast(self):
        pv = _params()
        no_infl = forecast_death_rate((0, 0), 2010, pv, _cfg(d=0.0))
        infl = forecast_death_rate((0, 0), 2010, pv, _cfg(d=0.22))
        spread0 = quantile(no_infl, 0.99) - quantile(no_infl, 0.01)
        spread1 = quantile(infl, 0.99) - quantile(infl, 0.01)
        assert spread1 > spread0

    def test_idiosyncratic_only_is_poisson(self):
        tr = flat_trends(A=1, K=0, alpha=laplace_cdf_inv(0.03))
        pv = ParamVector(trends=tr, sigma2=np.zeros(0))
        dist = forecast_death_rate((0, 1), 2005, pv, _cfg(m=2000))
        lam = 2000 * 0.03
        ref = stats.poisson.pmf(np.arange(dist.n_max + 1), lam)
        np.testing.assert_allclose(dist.pmf, ref, atol=1e-12)

    def test_horizon_enforced(self):
        pv = _params()
        with pytest.raises(DataError):
            forecast_death_rate((0, 0), 2031, pv, _cfg(horizon=2020))

    def test_spread_monotone_in_horizon_with_inflation(self):
        pv = _params()
        cfg = _cfg(d=0.3)
        spreads = []
        for year in (2002, 2006, 2010, 2015):
            dist = forecast_death_rate((0, 0), year, pv, cfg)
            spreads.append(quantile(dist, 0.99) - quantile(dist, 0.01))
        assert all(b >= a for a, b in zip(spreads, spreads[1:]))

    def test_mass_accounting(self):
        pv = _params(K=2, sigma2=(0.1, 0.3))
        dist = forecast_death_rate((0, 0), 2010, pv, _cfg(d=0.2))
        assert abs(dist.pmf.sum() + dist.truncation_mass - 1.0) < 1e-9


class TestForecastBands:
    def test_single_sample_equals_plain_quantiles(self):
        pv = _params()
        cfg = _cfg()
        bands = forecast_bands((0, 0), [2005], [pv], cfg, levels=(0.05, 0.5, 0.95))
        dist = forecast_death_rate((0, 0), 2005, pv, cfg)
        m = 10_000
        for lv in (0.05, 0.5, 0.95):
            assert bands[2005][lv] == quantile(dist, lv) / m

    def test_identical_samples_match_single(self):
        pv = _params()
        cfg = _cfg()
        one = forecast_bands((0, 0), [2005], [pv], cfg)
        three = forecast_bands((0, 0), [2005], [pv, pv, pv], cfg)
        assert one == three

    def test_mixture_contains_component_medians(self):
        lo = _params(alpha=-2.2)
        hi = _params(alpha=-1.8)
        cfg = _cfg()
        bands = forecast_bands((0, 0), [2005], [lo, hi], cfg, levels=(0.5,))
        med_lo = quantile(forecast_death_rate((0, 0), 2005, lo, cfg), 0.5) / 10_000
        med_hi = quantile(forecast_death_rate((0, 0), 2005, hi, cfg), 0.5) / 10_000
        assert med_lo <= bands[2005][0.5] <= med_hi

    def test_empty_chain_rejected(self):
        with pytest.raises(DataError):
            forecast_bands((0, 0), [2005], [], _cfg())


class TestLifeExpectancy:
    def test_constant_half_probability(self):
        assert life_expectancy(30, 0, 2020, lambda a, g, y: 0.5) == 1.0

    def test_zero_mortality_until_terminal(self):
        omega = 100
        q_fn = lambda a, g, y: 0.0 if a < omega else 1.0
        assert life_expectancy(40, "m", 2020, q_fn) == 60.0

    def test_trend_family_input(self):
        tr = flat_trends(A=1, K=0, alpha=0.0, ages=[0.0])
        e = life_expectancy(50, 0, 2000, tr)
        assert e == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_mortality(self):
        tr_low = flat_trends(A=1, K=0, alpha=-2.0, ages=[0.0])
        tr_high = flat_trends(A=1, K=0, alpha=-1.5, ages=[0.0])
        e_low = life_expectancy(60, 0, 2000, tr_low)
        e_high = life_expectancy(60, 0, 2000, tr_high)
        assert e_high < e_low


class TestBetaMixing:
    def test_reference_value(self):
        assert beta_mixing_variance(0.5, 1.0) == pytest.approx(0.125, rel=1e-15)

    def test_vanishes_with_factor_variance(self):
        assert beta_mixing_variance(0.5, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_at_small_q(self):
        assert beta_mixing_variance(1e-9, 0.5) < 1e-9

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_boundaries_rejected(self, q):
        with pytest.raises(ValueError):
            beta_mixing_variance(q, 0.1)


class TestInflationFit:
    @staticmethod
    def _inflated_panel(rng, d_true):
        tr = realistic_trends(rng, A=2, K=1)
        base_year = 2000
        years = np.arange(2001, 2016)
        sigma2 = np.array([0.05])
        ahead = years - base_year
        T = years.size
        exposure = np.full((T, 2, 2), 100_000)
        from ecrplus.trends import cause_weights_grid, death_prob_grid

        q = death_prob_grid(years, tr)
        w = cause_weights_grid(years, tr)
        rho = exposure[:, :, :, None] * q[:, :, :, None] * w
        s2t = sigma2[None, :] * (1 + d_true * ahead[:, None]) ** 2
        lam = np.ones((T, 2))
        lam[:, 1:] = rng.gamma(1 / s2t, s2t)
        from ecrplus.domain import CohortPanel

        panel = CohortPanel(years=years, deaths=rng.poisson(rho * lam[:, None, None, :]),
                            exposure=exposure)
        return panel, ParamVector(trends=tr, sigma2=sigma2), base_year

    def test_recovers_positive_inflation(self, rng):
        d_true = 0.3
        panel, pv, base_year = self._inflated_panel(rng, d_true)
        d_hat = estimate_inflation(panel, pv, base_year, grid=np.linspace(0, 1, 51))
        assert abs(d_hat - d_true) < 0.2

    def test_grid_values_are_the_inflated_likelihood(self, rng):
        # One kernel whose q and w pieces are reused across the grid gives,
        # bit for bit, the likelihood built afresh at each grid point.
        from ecrplus.estimation import log_likelihood_inflated
        from ecrplus.forecast import _inflation_profile

        panel, pv, base_year = self._inflated_panel(rng, 0.3)
        grid = np.linspace(0.0, 1.0, 101)
        ahead = np.maximum(panel.years - base_year, 0)
        ref = [
            log_likelihood_inflated(panel, pv, pv.sigma2[None, :] * (1.0 + d * ahead[:, None]) ** 2)
            for d in grid
        ]
        assert _inflation_profile(panel, pv, base_year, grid) == ref
        assert estimate_inflation(panel, pv, base_year) == grid[int(np.argmax(ref))]
