"""Model validation: moment bands, residual tests, serial correlation and
gamma goodness of fit.

All four procedures work on counts rescaled to the final year's intensity
level, under which the yearly series are approximately i.i.d.  The moment
check compares each cell's sample variance (and each same-cause cell
pair's sample covariance) against posterior-predictive quantile bands
simulated from chain samples.  Standardised residuals

    N* = (N' - m q w lambda) / sqrt(m q w lambda)

are approximately standard normal for large exposures; cross-cause
correlations of N* are zero under the model, which a correlation test per
cause pair checks, and a Breusch-Godfrey LM test probes serial correlation
order by order.  Finally the factor realisation series are tested against
their fitted gamma law with Kolmogorov-Smirnov, reporting both the plain
asymptotic p-value and a parametric-bootstrap one (the plain test is
anti-conservative when parameters are estimated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .domain import CohortPanel
from .errors import DataError, DegenerateEstimateError, NumericalError
from .estimation import McmcChain, ParamVector, _rho_grid, map_sigma, mom_transform, posterior_draws

__all__ = [
    "TestReport",
    "transformed_moments",
    "moment_bounds_test",
    "standardized_residuals",
    "cross_correlation_ttest",
    "bg_lm_test",
    "breusch_godfrey",
    "ks_gamma_test",
]


# Posterior-predictive draws behind each moment band.
MOMENT_BOUNDS_DRAWS = 1000


@dataclass(frozen=True)
class TestReport:
    """Outcome of one validation procedure over many cells or pairs."""

    name: str
    level: float
    statistics: list = field(default_factory=list)
    accepted_fraction: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.accepted_fraction <= 1.0:
            raise ValueError("accepted fraction must lie in [0, 1]")


def transformed_moments(panel: CohortPanel, params: ParamVector):
    """Model variance of the rescaled counts and covariance factor.

    After rescaling to the final year, Var(N') = rho + sigma^2 rho^2 with
    rho = m(T) q(T) w(T) (sigma^2 = 0 for cause 0), and same-cause cells
    a != a' have Cov = sigma^2 rho rho'.
    """
    rho, _ = _rho_grid(panel, params)
    rho_T = rho[-1]
    s2 = np.concatenate([[0.0], params.sigma2])
    var = rho_T + s2[None, None, :] * rho_T**2
    return rho_T, var, s2


def _simulate_transformed(rng, rho_T: np.ndarray, s2: np.ndarray, n_years: int) -> np.ndarray:
    """One posterior-predictive draw of the rescaled panel counts."""
    A, G, K1 = rho_T.shape
    out = np.empty((n_years, A, G, K1))
    out[:, :, :, 0] = rng.poisson(rho_T[None, :, :, 0], size=(n_years, A, G))
    for k in range(1, K1):
        lam = rng.gamma(1.0 / s2[k], s2[k], size=n_years)
        out[:, :, :, k] = rng.poisson(rho_T[None, :, :, k] * lam[:, None, None])
    return out


def moment_bounds_test(
    panel: CohortPanel,
    params: ParamVector,
    chain: McmcChain | list[ParamVector],
    level: float = 0.10,
    seed: int = 0,
    n_draws: int = MOMENT_BOUNDS_DRAWS,
) -> TestReport:
    """Compare sample variances and same-cause covariances of the rescaled
    counts with posterior-predictive quantile bands.

    Band draw d takes the d-th of ``n_draws`` chain samples spread evenly
    over the chain (cycling when the chain is shorter), simulates a fresh
    T-year panel at its parameters and recomputes the statistic, so the
    band reflects both parameter uncertainty and finite-sample noise of
    the statistic; with the default level the band spans the 5% and 95%
    quantiles.
    """
    if panel.n_years < 3:
        raise DataError("moment bounds need at least 3 years")
    samples = posterior_draws(chain, n_draws)

    transformed = mom_transform(panel, params)
    obs = transformed.deaths.astype(float)
    T, A, G, K1 = obs.shape
    obs_var = obs.var(axis=0, ddof=1)

    # Same-cause covariances of every cell pair i < j, cells numbered a * G + g.
    cells = [(a, g) for a in range(A) for g in range(G)]
    iu, ju = np.triu_indices(len(cells), k=1)

    def pair_covariances(panel_counts):
        c = (panel_counts - panel_counts.mean(axis=0)).reshape(T, A * G, K1)
        return (c[:, iu] * c[:, ju]).sum(axis=0) / (T - 1)

    rng = np.random.default_rng(seed)
    var_draws = np.empty((n_draws, A, G, K1))
    cov_draws = np.empty((n_draws, iu.size, K1))
    moments = [transformed_moments(panel, pv) for pv in samples]
    for d in range(n_draws):
        rho_T, _, s2 = moments[d % len(moments)]
        sim = _simulate_transformed(rng, rho_T, s2, T)
        var_draws[d] = sim.var(axis=0, ddof=1)
        cov_draws[d] = pair_covariances(sim)

    lo_q, hi_q = level / 2.0, 1.0 - level / 2.0
    stats_list = []
    n_in = 0
    for a in range(A):
        for g in range(G):
            for k in range(K1):
                lo = float(np.quantile(var_draws[:, a, g, k], lo_q))
                hi = float(np.quantile(var_draws[:, a, g, k], hi_q))
                inside = bool(lo <= obs_var[a, g, k] <= hi)
                n_in += inside
                stats_list.append(
                    {
                        "kind": "var",
                        "cell": (a, g, k),
                        "observed": float(obs_var[a, g, k]),
                        "band": (lo, hi),
                        "accepted": inside,
                    }
                )
    obs_cov = pair_covariances(obs)
    for pi, (i, j) in enumerate(zip(iu, ju)):
        for k in range(K1):
            lo = float(np.quantile(cov_draws[:, pi, k], lo_q))
            hi = float(np.quantile(cov_draws[:, pi, k], hi_q))
            inside = bool(lo <= obs_cov[pi, k] <= hi)
            n_in += inside
            stats_list.append(
                {
                    "kind": "cov",
                    "cell": (cells[i], cells[j], k),
                    "observed": float(obs_cov[pi, k]),
                    "band": (lo, hi),
                    "accepted": inside,
                }
            )
    frac = n_in / len(stats_list)
    return TestReport(
        name="moment-bounds", level=level, statistics=stats_list, accepted_fraction=frac
    )


def standardized_residuals(
    panel: CohortPanel, params: ParamVector, lambda_hats: np.ndarray
) -> np.ndarray:
    """Residuals (N' - rho lambda) / sqrt(rho lambda), indexed (t, a, g, k).

    ``lambda_hats`` holds the factor realisation estimates per year and
    cause 1..K; cause 0 uses lambda = 1.
    """
    transformed = mom_transform(panel, params)
    rho, _ = _rho_grid(panel, params)
    rho_T = rho[-1]
    T = panel.n_years
    lam = np.ones((T, panel.n_causes))
    lam_in = np.atleast_2d(np.asarray(lambda_hats, dtype=float))
    if lam_in.shape != (T, panel.n_causes - 1):
        raise DataError(
            f"lambda_hats must have shape (T, K) = ({T}, {panel.n_causes - 1})"
        )
    lam[:, 1:] = lam_in
    mean = rho_T[None, :, :, :] * lam[:, None, None, :]
    if np.any(mean <= 0.0):
        raise DataError("zero intensity cell; residuals undefined")
    return (transformed.deaths - mean) / np.sqrt(mean)


def _fisher_corr_pvalue(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    n = x.size
    sx, sy = x.std(), y.std()
    if sx == 0.0 or sy == 0.0:
        raise DataError("constant residual series; correlation undefined")
    r = float(np.corrcoef(x, y)[0, 1])
    if abs(r) >= 1.0 - 1e-15:
        return r, 0.0
    z = math.atanh(r) * math.sqrt(max(n - 3, 1))
    return r, 2.0 * stats.norm.sf(abs(z))


def cross_correlation_ttest(residuals: np.ndarray, level: float = 0.05) -> TestReport:
    """Test zero correlation between residuals of different causes.

    For every cell and cause pair k < k', the yearly residual series are
    correlated and the Fisher-stabilised statistic atanh(r) sqrt(T-3) is
    referred to the standard normal, two-sided.
    """
    T, A, G, K1 = residuals.shape
    if T < 4:
        raise DataError("need at least 4 paired observations")
    stats_list = []
    n_acc = 0
    for a in range(A):
        for g in range(G):
            for k in range(K1):
                for k2 in range(k + 1, K1):
                    r, p = _fisher_corr_pvalue(residuals[:, a, g, k], residuals[:, a, g, k2])
                    acc = bool(p > level)
                    n_acc += acc
                    stats_list.append(
                        {
                            "cell": (a, g),
                            "pair": (k, k2),
                            "correlation": r,
                            "p_value": p,
                            "accepted": acc,
                        }
                    )
    if not stats_list:
        raise DataError("no cause pairs to test (K = 0)")
    return TestReport(
        name="cross-correlation",
        level=level,
        statistics=stats_list,
        accepted_fraction=n_acc / len(stats_list),
    )


def bg_lm_test(series: np.ndarray, order: int) -> tuple[float, float]:
    """Breusch-Godfrey LM statistic and chi-square p-value for one order.

    The auxiliary regression puts the demeaned series on an intercept and
    its own ``order`` lags (zero-padded at the start); LM = n R^2 is
    referred to chi-square with ``order`` degrees of freedom.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n <= order + 2:
        raise DataError(f"series of length {n} too short for order {order}")
    resid = x - x.mean()
    padded = np.concatenate([np.zeros(order), resid])
    lags = np.column_stack([padded[order - j : order - j + n] for j in range(1, order + 1)])
    design = np.column_stack([np.ones(n), lags])
    coef, *_ = np.linalg.lstsq(design, resid, rcond=None)
    fitted = design @ coef
    ssr = float(((resid - fitted) ** 2).sum())
    sst = float((resid**2).sum())
    r2 = 0.0 if sst == 0.0 else 1.0 - ssr / sst
    lm = n * r2
    return lm, float(stats.chi2.sf(lm, order))


def breusch_godfrey(series: np.ndarray, max_order: int = 10, level: float = 0.05) -> TestReport:
    """Serial-correlation screen of one residual series over orders
    1..max_order; reports the fraction of orders not rejected."""
    stats_list = []
    n_acc = 0
    for p in range(1, max_order + 1):
        lm, pval = bg_lm_test(series, p)
        acc = bool(pval > level)
        n_acc += acc
        stats_list.append({"order": p, "lm": lm, "p_value": pval, "accepted": acc})
    return TestReport(
        name="breusch-godfrey",
        level=level,
        statistics=stats_list,
        accepted_fraction=n_acc / max_order,
    )


def ks_gamma_test(
    lambda_series: np.ndarray,
    sigma_sq: float,
    level: float = 0.05,
    n_boot: int = 500,
    seed: int = 0,
) -> TestReport:
    """Kolmogorov-Smirnov test of the factor realisations against the
    gamma law with mean one and variance sigma^2.

    The decision uses the plain asymptotic p-value; because the variance is
    estimated from the same series, a parametric-bootstrap p-value (with
    the variance re-estimated per resample) is reported alongside.
    """
    lam = np.asarray(lambda_series, dtype=float)
    if lam.size < 5:
        raise DataError("need at least 5 realisations for the KS test")
    if sigma_sq <= 0.0:
        raise ValueError("sigma^2 must be positive")
    shape = 1.0 / sigma_sq

    def stat(x, shp, scale):
        xs = np.sort(x)
        cdf = special.gammainc(shp, xs / scale)
        n = xs.size
        upper = np.arange(1, n + 1) / n - cdf
        lower = cdf - np.arange(0, n) / n
        return float(max(upper.max(), lower.max()))

    d_obs = stat(lam, shape, sigma_sq)
    n = lam.size
    p_asymp = float(special.kolmogorov(math.sqrt(n) * d_obs))

    p_boot = None
    fallbacks = 0
    if n_boot > 0:
        rng = np.random.default_rng(seed)
        exceed = 0
        for _ in range(n_boot):
            resample = rng.gamma(shape, sigma_sq, size=n)
            try:
                s_hat = map_sigma(resample) ** 2
            except (DegenerateEstimateError, NumericalError):
                # No mode: fall back to the moment estimate, and count it.
                fallbacks += 1
                s_hat = float(np.mean((resample - 1.0) ** 2))
            s_hat = max(s_hat, 1e-12)
            d_b = stat(resample, 1.0 / s_hat, s_hat)
            exceed += d_b >= d_obs
        p_boot = exceed / n_boot

    acc = bool(p_asymp > level)
    return TestReport(
        name="ks-gamma",
        level=level,
        statistics=[
            {
                "ks_statistic": d_obs,
                "p_value": p_asymp,
                "p_value_bootstrap": p_boot,
                "accepted": acc,
            }
        ],
        accepted_fraction=float(acc),
        extras={"n": n, "sigma_sq": sigma_sq, "sigma_fallbacks": fallbacks},
    )
