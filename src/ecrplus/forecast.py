"""Forward projection of death rates and life expectancy.

Death-rate forecasts reuse the exact count engine: with unit payments the
aggregate S for one cell is its death count, so the count distribution at
a future year is the engine output with the trend family evaluated there.
Forecast uncertainty beyond statistical fluctuation is injected two ways:
factor variances inflate quadratically with the horizon,
sigma~_k(t)^2 = sigma_k^2 (1 + d (t - T))^2, and parameter uncertainty is
mixed in by pooling over posterior samples.

Populations are held constant at the base year by default, which
overstates fluctuations slightly as populations tend to grow; a
user-supplied population path overrides this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregation import LossDistribution, aggregate_loss, mixture, quantile
from .domain import LatticeSeverity, Policyholder, Portfolio, RiskFactorSpec
from .errors import DataError
from .estimation import McmcChain, ParamVector, _finite_state, _loglik_kernel, posterior_draws
from .trends import TrendParams, cause_weights, death_prob

# Life tables close with q = 1 at this age; life expectancies and the
# term-life liabilities in ``solvency`` share it.
TERMINAL_AGE = 121

__all__ = [
    "TERMINAL_AGE",
    "ForecastConfig",
    "forecast_death_rate",
    "forecast_bands",
    "life_expectancy",
    "beta_mixing_variance",
    "estimate_inflation",
]


@dataclass(frozen=True)
class ForecastConfig:
    """Projection settings.

    ``population`` maps (age_group, gender_index) to the exposure frozen at
    the base year.  ``inflation`` is the d in the quadratic variance
    inflation.
    """

    base_year: int
    horizon: int
    inflation: float = 0.0
    population: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon <= self.base_year:
            raise ValueError("horizon must lie beyond the base year")
        if self.inflation < 0.0:
            raise ValueError("variance inflation d must be >= 0")

    def exposure_for(self, cell: tuple) -> int:
        a, gi = cell
        if (a, gi) in self.population:
            return int(self.population[(a, gi)])
        raise DataError(f"no population for cell (a={a}, g={gi})")


def inflated_variances(sigma2: np.ndarray, d: float, years_ahead: int) -> np.ndarray:
    """sigma~^2 = sigma^2 (1 + d * years_ahead)^2 per factor."""
    return np.asarray(sigma2, dtype=float) * (1.0 + d * years_ahead) ** 2


def forecast_death_rate(
    cell: tuple, year: int, params: ParamVector, cfg: ForecastConfig
) -> LossDistribution:
    """Distribution of the death count of one cell at a future year.

    The death rate is this count divided by the frozen exposure:
    P(rate = n / m) = P(count = n).  Factor variances are inflated by
    (1 + d (year - T))^2.
    """
    if year > cfg.horizon:
        raise DataError(f"year {year} exceeds the forecast horizon {cfg.horizon}")
    a, gi = cell
    m = cfg.exposure_for(cell)
    trends = params.trends
    q = death_prob(a, gi, year, trends)
    w = cause_weights(a, gi, year, trends)
    s2 = inflated_variances(params.sigma2, cfg.inflation, max(year - cfg.base_year, 0))
    holder = Policyholder(
        id=f"forecast:a{a}g{gi}",
        age_group=a,
        gender="fm"[gi],
        birth_year=trends.birth_year(a, year),
        death_prob=q,
        weights=w,
        payment=LatticeSeverity.point(1),
        multiplicity=m,
    )
    rf = [RiskFactorSpec(k=k + 1, variance=s2[k]) for k in range(s2.size)]
    return aggregate_loss(Portfolio(holders=[holder]), rf, unit=1.0)


def forecast_bands(
    cell: tuple,
    years,
    chain: McmcChain | list[ParamVector],
    cfg: ForecastConfig,
    levels=(0.05, 0.5, 0.95),
    max_samples: int = 200,
) -> dict:
    """Per-year death-rate quantile bands pooled over posterior samples.

    For each year, every sample's count distribution enters an equal-weight
    mixture whose quantiles, divided by the frozen exposure, form the band.
    A one-element list, such as ``[chain.mean_param_vector()]``, gives
    plain engine bands without parameter uncertainty.
    """
    samples = posterior_draws(chain, max_samples)
    out = {}
    for year in years:
        m = cfg.exposure_for(cell)
        dists = [forecast_death_rate(cell, year, pv, cfg) for pv in samples]
        mix = mixture(dists)
        out[int(year)] = {lv: quantile(mix, lv) / m for lv in levels}
    return out


def _q_resolver(params):
    """Accept TrendParams or a callable q(age, gender_index, year)."""
    if isinstance(params, TrendParams):

        def q_fn(age, gi, year):
            return death_prob(params.age_group_of(age), gi, year, params)

        return q_fn
    if callable(params):
        return params
    raise TypeError("params must be TrendParams or a callable q(age, gender, year)")


def life_expectancy(age: int, gender, year: int, params) -> float:
    """Expected curtate future lifetime at the given age and calendar year.

    Sums the survival probabilities k_p = prod_{j<k} (1 - q(age+j, year+j)),
    walking the trend family forward in both age and calendar time so
    mortality improvement is priced in.  The table is closed by q = 1 at
    :data:`TERMINAL_AGE`, so the series terminates exactly.
    """
    gi = gender if gender in (0, 1) else ("f", "m").index(gender)
    q_fn = _q_resolver(params)
    e = 0.0
    surv = 1.0
    j = 0
    while surv > 0.0:
        current = age + j
        q = 1.0 if current >= TERMINAL_AGE else min(max(float(q_fn(current, gi, year + j)), 0.0), 1.0)
        surv *= 1.0 - q
        e += surv
        j += 1
    return e


def beta_mixing_variance(q: float, sigma1_sq: float) -> float:
    """Threshold variance q(1-q)/(1/sigma_1^2 + 1) of a beta death
    probability at which the product with the gamma factor is again gamma
    with mean one and variance q * sigma_1^2."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if sigma1_sq <= 0.0:
        raise ValueError("sigma_1^2 must be positive")
    return q * (1.0 - q) / (1.0 / sigma1_sq + 1.0)


def estimate_inflation(panel, params: ParamVector, base_year: int, grid=None) -> float:
    """One-dimensional likelihood fit of the variance-inflation slope d.

    Years at or before ``base_year`` keep the fitted variances; later years
    get sigma^2 (1 + d (t - T))^2.  All other parameters stay fixed.
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)
    values = _inflation_profile(panel, params, base_year, grid)
    return float(grid[int(np.argmax(values))])


def _inflation_profile(panel, params: ParamVector, base_year: int, grid) -> list[float]:
    """The log-likelihood at each d in ``grid``: one kernel, whose q and w
    pieces are computed once and reused, as only sigma2 changes."""
    ahead = np.maximum(np.asarray(panel.years) - base_year, 0)
    loglik = _loglik_kernel(panel, params, "poisson")
    state = _finite_state(params)
    pieces = loglik(state)[1]
    values = []
    for d in grid:
        state["sigma2"] = params.sigma2[None, :] * (1.0 + float(d) * ahead[:, None]) ** 2
        values.append(loglik(state, pieces, "sigma2")[0])
    return values
