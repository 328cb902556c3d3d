"""Parameter estimation: likelihoods, MAP equations, matching of moments,
smoothing priors and the random-walk Metropolis-Hastings-within-Gibbs
sampler.

The full likelihood integrates the gamma factors out analytically: cause 0
contributes independent Poisson terms and each cause k >= 1 a gamma-mixed
(negative-multinomial) term with a ratio of gamma functions, with
rho_{a,g,k}(t) = m_{a,g}(t) q_{a,g}(t) w_{a,g,k}(t).  Everything is
evaluated in log form with log-gamma, since the raw products underflow
immediately at realistic scales.

Posterior-mode identities give closed-form risk-factor realisation
estimates and a one-dimensional root for each factor's variance; the
cruder closed forms and the matching-of-moments pipeline are also here.
The sampler updates one parameter family per gender per step in fixed
order, adapts proposal scales toward a 20-40% acceptance rate during
burn-in only, and draws from counter-based streams keyed by (seed, chain,
step) so interrupted runs can resume bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize, special

from .domain import CohortPanel
from .errors import DataError, DegenerateEstimateError, NumericalError
from .trends import (
    TrendParams,
    _kappa_grid,
    _q_grid_arrays,
    _w_grid_arrays,
    cause_weights_grid,
    death_prob_grid,
    laplace_cdf_inv,
    trend_time,
)

__all__ = [
    "ParamVector",
    "BlockPrior",
    "PriorSpec",
    "McmcConfig",
    "McmcChain",
    "log_likelihood",
    "log_likelihood_bernoulli",
    "log_prior",
    "map_risk_factor",
    "map_sigma",
    "map_risk_factor_approx",
    "map_sigma_approx",
    "mom_transform",
    "mom_fit",
    "mcmc_sample",
    "load_chain",
    "posterior_draws",
    "posterior_mean",
    "metropolis_accept",
    "information_criteria",
    "cv_prior_scale",
]

# Parameter families in their fixed Gibbs update order.
FAMILIES = ("alpha", "beta", "zeta", "eta", "kappa", "u", "v", "phi", "psi", "sigma2")
# The families held as arrays on TrendParams (kappa is a dict by birth year).
TREND_FAMILIES = ("alpha", "beta", "zeta", "eta", "u", "v", "phi", "psi")
_POSITIVE = {"eta", "psi", "sigma2"}
_DEFAULT_FIXED = frozenset({"zeta", "eta", "kappa", "phi", "psi"})


@dataclass(frozen=True)
class ParamVector:
    """Trend parameters plus factor variances, with a set of fixed blocks.

    ``fixed`` names parameter families the samplers hold constant; the
    remaining families are free.  sigma2 has one entry per non-idiosyncratic
    cause.
    """

    trends: TrendParams
    sigma2: np.ndarray
    fixed: frozenset = _DEFAULT_FIXED

    def __post_init__(self):
        s2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        if s2.size != self.trends.n_causes - 1:
            raise DataError(
                f"sigma2 needs {self.trends.n_causes - 1} entries, got {s2.size}"
            )
        if s2.size and np.any(s2 <= 0.0):
            raise ValueError("sigma2 entries must be strictly positive")
        unknown = set(self.fixed) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown fixed blocks {sorted(unknown)}")
        s2.setflags(write=False)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "fixed", frozenset(self.fixed))

    @property
    def n_causes(self) -> int:
        return self.trends.n_causes

    def kappa_years(self) -> tuple[int, ...]:
        return tuple(sorted(self.trends.kappa))

    def to_state(self) -> dict[str, np.ndarray]:
        t = self.trends
        state = {
            "alpha": t.alpha.copy(),
            "beta": t.beta.copy(),
            "zeta": t.zeta.copy(),
            "eta": t.eta.copy(),
            "kappa": np.array([t.kappa[z] for z in self.kappa_years()]),
            "u": t.u.copy(),
            "v": t.v.copy(),
            "phi": t.phi.copy(),
            "psi": t.psi.copy(),
            "sigma2": self.sigma2.copy(),
        }
        return state

    def with_state(self, state: dict[str, np.ndarray]) -> "ParamVector":
        kappa = dict(zip(self.kappa_years(), np.asarray(state["kappa"], dtype=float)))
        blocks = {f: state[f] for f in TREND_FAMILIES}
        trends = replace(self.trends, kappa=kappa, **blocks)
        return replace(self, trends=trends, sigma2=state["sigma2"])


def _rho_grid(panel: CohortPanel, params: ParamVector):
    """rho_{a,g,k}(t) = m q w, shape (T, A, 2, K+1); also returns q grid."""
    q = death_prob_grid(panel.years, params.trends)
    w = cause_weights_grid(panel.years, params.trends)
    rho = panel.exposure[:, :, :, None] * q[:, :, :, None] * w
    return rho, q


def _finite_state(params: ParamVector) -> dict[str, np.ndarray]:
    """``params.to_state()``, raising on non-finite or non-positive values."""
    state = params.to_state()
    for name, arr in state.items():
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in parameter block {name}")
    if np.any(params.sigma2 <= 0.0):
        raise ValueError("sigma2 must be strictly positive")
    return state


def _log_likelihood_rho(deaths: np.ndarray, rho: np.ndarray, sigma2_t: np.ndarray) -> float:
    """Log-likelihood given intensities; sigma2_t has shape (T, K)."""
    if np.any((rho == 0.0) & (deaths > 0)):
        return -np.inf
    n0 = deaths[:, :, :, 0]
    rho0 = rho[:, :, :, 0]
    log_rho0 = np.log(np.where(rho0 > 0.0, rho0, 1.0))
    total = float((-rho0 + n0 * log_rho0 - special.gammaln(n0 + 1.0)).sum())

    K = deaths.shape[3] - 1
    if K == 0:
        return total
    nk = deaths[:, :, :, 1:]
    rhok = rho[:, :, :, 1:]
    n_sum = nk.sum(axis=(1, 2))  # (T, K)
    rho_sum = rhok.sum(axis=(1, 2))
    inv = 1.0 / sigma2_t
    mixed = (
        special.gammaln(inv + n_sum)
        - special.gammaln(inv)
        - inv * np.log(sigma2_t)
        - (inv + n_sum) * np.log(inv + rho_sum)
    )
    log_rhok = np.log(np.where(rhok > 0.0, rhok, 1.0))
    cell = nk * log_rhok - special.gammaln(nk + 1.0)
    return total + float(mixed.sum()) + float(cell.sum())


def _loglik_kernel(panel: CohortPanel, template: ParamVector, likelihood: str):
    """Log-likelihood of the panel as a function of a raw state dict.

    The single implementation behind the public likelihoods and the
    sampler, which calls it on state dicts directly to skip rebuilding
    parameter objects in its inner loop.  ``state["sigma2"]`` holds one
    variance per factor, or one row of them per panel year.  The cohort
    grid is built once when ``template`` fixes kappa or declares no cohort
    years.
    """
    years = panel.years.astype(float)
    deaths = panel.deaths
    exposure = panel.exposure
    trends = template.trends
    t0 = trends.t0
    zs = template.kappa_years()

    def kappa_grid(kappa: dict):
        return _kappa_grid(years, kappa, trends.age_midpoints, trends.n_age_groups)

    kappa_static = "kappa" in template.fixed or not zs
    static_kap = kappa_grid(trends.kappa) if kappa_static else None

    def q_grid(state):
        kap = static_kap if kappa_static else kappa_grid(dict(zip(zs, state["kappa"])))
        return _q_grid_arrays(
            years, state["alpha"], state["beta"], state["zeta"], state["eta"], t0, kap
        )

    if likelihood == "bernoulli":
        if panel.n_causes != 1:
            raise DataError("Bernoulli likelihood requires a K=0 panel; merge causes first")
        n = deaths[:, :, :, 0]
        m = exposure
        if np.any(n > m):
            raise DataError("deaths exceed exposure; Bernoulli model impossible")
        log_binom = float(
            (special.gammaln(m + 1.0) - special.gammaln(n + 1.0) - special.gammaln(m - n + 1.0)).sum()
        )

        def loglik(state):
            q = q_grid(state)
            return log_binom + float((n * np.log(q) + (m - n) * np.log1p(-q)).sum())

        return loglik

    def loglik(state):
        q = q_grid(state)
        w = _w_grid_arrays(years, state["u"], state["v"], state["phi"], state["psi"], t0)
        rho = exposure[:, :, :, None] * q[:, :, :, None] * w
        s2 = state["sigma2"]
        return _log_likelihood_rho(deaths, rho, np.broadcast_to(s2, (years.size, s2.shape[-1])))

    return loglik


def log_likelihood(panel: CohortPanel, params: ParamVector) -> float:
    """Log of the gamma-mixed Poisson likelihood of the panel.

    Returns -inf when some cell has positive deaths but zero intensity;
    raises on non-finite or non-positive parameters.
    """
    state = _finite_state(params)
    if panel.n_years == 0:
        raise DataError("empty panel")
    return _loglik_kernel(panel, params, "poisson")(state)


def log_likelihood_inflated(
    panel: CohortPanel, params: ParamVector, sigma2_t: np.ndarray
) -> float:
    """Log-likelihood with per-year factor variances (used to fit the
    forecast variance inflation)."""
    state = _finite_state(params)
    state["sigma2"] = np.asarray(sigma2_t, dtype=float)
    return _loglik_kernel(panel, params, "poisson")(state)


def log_likelihood_bernoulli(panel: CohortPanel, params: ParamVector) -> float:
    """Binomial log-likelihood for the purely idiosyncratic model (K = 0)."""
    loglik = _loglik_kernel(panel, params, "bernoulli")
    return loglik(_finite_state(params))


@dataclass(frozen=True)
class BlockPrior:
    """Gaussian smoothing prior for one parameter family.

    Penalises squared order-k differences across ages (k = 1 neighbours,
    k = 2 deviations from a line, k = 3 from a parabola, in the
    Whittaker-Henderson tradition) plus ``epsilon`` times the squared
    levels; ``c`` scales the whole penalty.
    """

    c: float = 0.0
    epsilon: float = 0.0
    order: int = 1

    def __post_init__(self):
        if self.c < 0.0 or self.epsilon < 0.0:
            raise ValueError("prior scale and penalty must be non-negative")
        if self.order not in (1, 2, 3):
            raise ValueError("difference order must be 1, 2 or 3")


@dataclass(frozen=True)
class PriorSpec:
    """Per-family smoothing priors; families not listed are flat."""

    blocks: dict = field(default_factory=dict)

    def get(self, family: str) -> BlockPrior:
        return self.blocks.get(family, BlockPrior())


def _diff_penalty_matrix(n: int, order: int, epsilon: float) -> np.ndarray:
    d = np.diff(np.eye(n), n=order, axis=0)
    return d.T @ d + epsilon * np.eye(n)


def _block_log_prior(x: np.ndarray, bp: BlockPrior) -> float:
    """Log prior of one 1-d coefficient vector, including normalisation.

    With epsilon = 0 the density is improper and the normalising constant
    is taken as one.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0 or bp.c == 0.0:
        return 0.0
    k = min(bp.order, x.size - 1) if x.size > 1 else 0
    penalty = float(np.sum(np.diff(x, n=k) ** 2)) if k >= 1 else 0.0
    penalty += bp.epsilon * float(x @ x)
    logp = -bp.c * penalty
    if bp.epsilon > 0.0:
        p = bp.c * _diff_penalty_matrix(x.size, max(k, 1), bp.epsilon)
        sign, logdet = np.linalg.slogdet(p)
        if sign > 0:
            logp += 0.5 * (logdet - x.size * math.log(math.pi))
    return logp


def log_prior(params: ParamVector, prior: PriorSpec) -> float:
    """Sum of the Gaussian smoothing log-priors over all parameter families.

    Cell families are penalised per gender column (and per cause for the
    weight parameters); the cohort block across birth years.
    """
    return _log_prior_state(params.to_state(), prior)


def _log_prior_state(state: dict, prior: PriorSpec) -> float:
    total = 0.0
    for family, bp in prior.blocks.items():
        if family not in FAMILIES:
            raise ValueError(f"unknown prior family {family!r}")
        if bp.c == 0.0:
            continue
        arr = state[family]
        if arr.size == 0:
            continue
        # One column per gender (and cause); 1-d families are one column.
        for col in arr.reshape(arr.shape[0], -1).T:
            total += _block_log_prior(col, bp)
    return total


def prior_covariance(n: int, bp: BlockPrior) -> np.ndarray:
    """Implied prior covariance matrix of one coefficient column."""
    if bp.c <= 0.0 or bp.epsilon <= 0.0:
        raise ValueError("a proper prior needs c > 0 and epsilon > 0")
    p = bp.c * _diff_penalty_matrix(n, bp.order, bp.epsilon)
    return np.linalg.inv(2.0 * p)


def _cause_sums(panel: CohortPanel, params: ParamVector, k: int, year: int):
    if not 1 <= k < panel.n_causes:
        raise DataError(f"cause index {k} outside 1..{panel.n_causes - 1}")
    years = list(panel.years)
    if year not in years:
        raise DataError(f"year {year} not in panel")
    ti = years.index(year)
    rho, _ = _rho_grid(panel, params)
    return float(panel.deaths[ti, :, :, k].sum()), float(rho[ti, :, :, k].sum())


def map_risk_factor(panel: CohortPanel, params: ParamVector, k: int, year: int) -> float:
    """Posterior-mode estimate of the factor realisation for cause k, year t:

        (1/sigma^2 - 1 + sum n) / (1/sigma^2 + sum rho),

    defined only when the numerator is positive.
    """
    n_sum, rho_sum = _cause_sums(panel, params, k, year)
    inv = 1.0 / params.sigma2[k - 1]
    num = inv - 1.0 + n_sum
    if num <= 0.0:
        raise DegenerateEstimateError(
            f"insufficient data for the factor mode at cause {k}, year {year}: "
            f"1/sigma^2 - 1 + deaths = {num}"
        )
    return num / (inv + rho_sum)


def _sigma_eq_lhs(sigma: float) -> float:
    return 2.0 * math.log(sigma) + special.digamma(sigma**-2)


def map_sigma(lambda_series) -> float:
    """Unique positive root of the factor-variance mode equation

        2 log(sigma) + digamma(1/sigma^2) = mean(1 + log(lam) - lam).

    The left side decreases strictly from 0- to -inf, and the right side is
    strictly negative unless every realisation equals one, so the root
    exists and is unique; an all-ones series is degenerate.
    """
    lam = np.asarray(lambda_series, dtype=float)
    if lam.size == 0 or np.any(lam <= 0.0):
        raise ValueError("factor realisations must be strictly positive")
    rhs = float(np.mean(1.0 + np.log(lam) - lam))
    if rhs >= -1e-14:
        raise DegenerateEstimateError(
            "all factor realisations equal one; sigma estimate degenerates to 0"
        )
    lo = 1e-8
    while _sigma_eq_lhs(lo) - rhs <= 0.0:
        lo *= 0.5
        if lo < 1e-150:
            raise NumericalError("could not bracket the sigma root from below")
    hi = 1.0
    while _sigma_eq_lhs(hi) - rhs > 0.0:
        hi *= 2.0
        if hi > 1e150:
            raise NumericalError("could not bracket the sigma root from above")
    root = optimize.brentq(
        lambda s: _sigma_eq_lhs(s) - rhs, lo, hi, xtol=1e-14, rtol=8.9e-16
    )
    if abs(_sigma_eq_lhs(root) - rhs) > 1e-9:
        raise NumericalError("sigma root residual exceeds 1e-9")
    return float(root)


def map_risk_factor_approx(panel: CohortPanel, params: ParamVector, k: int, year: int) -> float:
    """Cruder closed form (-1 + sum n) / sum rho; 0 is a flagged boundary."""
    n_sum, rho_sum = _cause_sums(panel, params, k, year)
    if rho_sum == 0.0:
        raise DataError(f"zero intensity for cause {k}, year {year}")
    if n_sum < 1.0:
        raise DegenerateEstimateError(
            f"no deaths for cause {k}, year {year}; approximation undefined"
        )
    lam = (-1.0 + n_sum) / rho_sum
    if lam == 0.0:
        warnings.warn(f"factor estimate hit the zero boundary at cause {k}, year {year}")
    return lam


def map_sigma_approx(lambda_series) -> float:
    """Root mean square deviation of the realisation series from one."""
    lam = np.asarray(lambda_series, dtype=float)
    return float(np.sqrt(np.mean((lam - 1.0) ** 2)))


def mom_transform(panel: CohortPanel, params: ParamVector) -> CohortPanel:
    """Rescale counts to the final year's intensity level:

        n' = floor(n * (m q w)(T) / (m q w)(t)),

    making the yearly counts approximately i.i.d.  The final year is
    unchanged.
    """
    rho, _ = _rho_grid(panel, params)
    rho_T = rho[-1]
    out = panel.deaths.astype(float).copy()
    for ti in range(panel.n_years - 1):
        denom = rho[ti]
        bad = (denom == 0.0) & (rho_T != 0.0) & (panel.deaths[ti] > 0)
        if np.any(bad):
            cell = tuple(np.argwhere(bad)[0])
            raise DataError(f"zero intensity at (a,g,k)={cell}, year {panel.years[ti]}")
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(denom > 0.0, rho_T / np.where(denom > 0.0, denom, 1.0), 0.0)
        out[ti] = np.floor(ratio * panel.deaths[ti])
    return CohortPanel(
        years=panel.years,
        deaths=out.astype(np.int64),
        exposure=panel.exposure,
        cause_labels=panel.cause_labels,
    )


def _ols_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares intercept and slope of y on x."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0]), float(coef[1])


def mom_fit(panel: CohortPanel, template: TrendParams) -> ParamVector:
    """Matching-of-moments fit of alpha, beta, u, v and the factor variances.

    ``template`` supplies everything held fixed a priori: zeta, eta, phi,
    psi, kappa, t0 and the age-group layout.  Death-probability parameters
    come from regressing the Laplace-inverted death rates on the trend
    transform; weight parameters from regressing log count ratios on the
    cause transforms; the factor variances from the unbiased sample
    variance of the rescaled count ratios, floored at zero.
    """
    if panel.n_years < 2:
        raise DataError("matching of moments needs at least 2 years")
    A, K1 = panel.n_age_groups, panel.n_causes
    if template.n_age_groups != A or template.n_causes != K1:
        raise DataError("template shape does not match the panel")
    years = panel.years.astype(float)
    m = panel.exposure.astype(float)

    rates = panel.deaths.sum(axis=3) / m
    # The Laplace inverse diverges at rate 0; continuity-correct empty cells.
    rates = np.where(rates <= 0.0, 0.5 / m, rates)
    rates = np.minimum(rates, 1.0 - 1e-12)

    alpha = np.zeros((A, 2))
    beta = np.zeros((A, 2))
    for a in range(A):
        for gi in range(2):
            x = trend_time(years, template.zeta[a, gi], template.eta[a, gi], template.t0)
            kap = np.array([template.kappa_for(a, t) for t in years])
            y = laplace_cdf_inv(rates[:, a, gi]) - kap
            alpha[a, gi], beta[a, gi] = _ols_line(x, y)

    fitted_trends = replace(template, alpha=alpha, beta=beta)
    q_hat = death_prob_grid(years, fitted_trends)

    u = np.zeros((A, 2, K1))
    v = np.zeros((A, 2, K1))
    counts = np.where(panel.deaths > 0, panel.deaths, 0.5)
    for k in range(K1):
        xk = trend_time(years, template.phi[k], template.psi[k], template.t0)
        for a in range(A):
            for gi in range(2):
                y = np.log(counts[:, a, gi, k] / (m[:, a, gi] * q_hat[:, a, gi]))
                u[a, gi, k], v[a, gi, k] = _ols_line(xk, y)

    fitted_trends = replace(fitted_trends, u=u, v=v)
    out = ParamVector(trends=fitted_trends, sigma2=np.full(K1 - 1, 1e-12), fixed=_DEFAULT_FIXED)

    w_T = cause_weights_grid(years[-1:], fitted_trends)[0]
    q_T = q_hat[-1]
    m_T = m[-1]
    transformed = mom_transform(panel, out)
    w_star = transformed.deaths / (m_T * q_T)[None, :, :, None]
    var_hat = w_star.var(axis=0, ddof=1)

    sigma2 = np.zeros(max(K1 - 1, 0))
    for k in range(1, K1):
        num = float((var_hat[:, :, k] - w_T[:, :, k] / (m_T * q_T)).sum())
        den = float((w_T[:, :, k] ** 2).sum())
        sigma2[k - 1] = max(0.0, num / den)
    # Strictly positive variances are required downstream; keep a floor.
    sigma2 = np.maximum(sigma2, 1e-12)
    return ParamVector(trends=fitted_trends, sigma2=sigma2, fixed=_DEFAULT_FIXED)


# ---------------------------------------------------------------------------
# Random-walk Metropolis-Hastings within Gibbs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings.  A burn-in shorter than the chain is required;
    proposal adaptation happens during burn-in only."""

    n_steps: int
    burn_in: int
    seed: int = 0
    proposal_scales: dict = field(default_factory=dict)
    adapt: bool = True
    likelihood: str = "poisson"
    record_path: str | None = None
    chain_id: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_steps:
            raise ValueError("need 0 <= burn_in < n_steps")
        if self.likelihood not in ("poisson", "bernoulli"):
            raise ValueError("likelihood must be 'poisson' or 'bernoulli'")


@dataclass
class McmcChain:
    """Post-burn-in samples, one row per step, plus diagnostics."""

    names: list[str]
    samples: np.ndarray
    log_posterior: np.ndarray
    acceptance: dict
    template: ParamVector

    def __len__(self) -> int:
        return self.samples.shape[0]

    def param_vector(self, i: int) -> ParamVector:
        return _unflatten(self.template, self.samples[i])

    def mean_param_vector(self) -> ParamVector:
        return _unflatten(self.template, self.samples.mean(axis=0))

    def mode_param_vector(self) -> ParamVector:
        return self.param_vector(int(np.argmax(self.log_posterior)))

    def block_quantiles(self, lo: float = 0.05, hi: float = 0.95) -> dict:
        out = {}
        for j, name in enumerate(self.names):
            col = self.samples[:, j]
            out[name] = (float(np.quantile(col, lo)), float(np.quantile(col, hi)))
        return out


def posterior_draws(chain: McmcChain | list[ParamVector], max_samples: int) -> list[ParamVector]:
    """At most ``max_samples`` draws spread evenly over a posterior sample,
    first and last included; all of them when there are no more.

    Only the chosen records of a chain become parameter vectors.
    """
    n = len(chain)
    if n == 0:
        raise DataError("empty chain")
    idx = np.unique(np.linspace(0, n - 1, min(max_samples, n)).astype(int))
    if isinstance(chain, McmcChain):
        return [chain.param_vector(i) for i in idx]
    return [chain[i] for i in idx]


def posterior_mean(chain: McmcChain | list[ParamVector]) -> ParamVector:
    """Mean of the free parameters over every draw of a posterior sample."""
    if len(chain) == 0:
        raise DataError("empty chain")
    if isinstance(chain, McmcChain):
        return chain.mean_param_vector()
    flats = np.stack([_flatten(pv) for pv in chain])
    return _unflatten(chain[0], flats.mean(axis=0))


def _blocks_for(params: ParamVector) -> list[tuple[str, int | None]]:
    """Gibbs blocks in fixed order: one per family per gender where the
    family is age-indexed, one otherwise."""
    state = params.to_state()
    blocks: list[tuple[str, int | None]] = []
    for family in FAMILIES:
        if family in params.fixed:
            continue
        arr = state[family]
        if arr.size == 0:
            continue
        if arr.ndim >= 2:
            blocks.append((family, 0))
            blocks.append((family, 1))
        else:
            blocks.append((family, None))
    return blocks


def _block_view(state: dict, family: str, gi: int | None) -> np.ndarray:
    """One Gibbs block, flat: the whole family, or its gender column
    ``arr[:, gi]`` (with every cause for the weight families)."""
    arr = state[family]
    return (arr if gi is None else arr[:, gi]).reshape(-1)


def _set_block(state: dict, family: str, gi: int | None, flat: np.ndarray):
    """Replace one Gibbs block in ``state`` with a copy holding ``flat``."""
    arr = state[family].copy()
    block = arr if gi is None else arr[:, gi]
    block[...] = np.reshape(flat, block.shape)
    state[family] = arr


def _flat_names(params: ParamVector) -> list[str]:
    names = []
    state = params.to_state()
    for family, gi in _blocks_for(params):
        size = _block_view(state, family, gi).size
        tag = family if gi is None else f"{family}.{'fm'[gi]}"
        names.extend(f"{tag}[{i}]" for i in range(size))
    return names


def _flatten(params: ParamVector) -> np.ndarray:
    state = params.to_state()
    return np.concatenate(
        [_block_view(state, family, gi) for family, gi in _blocks_for(params)]
    )


def _unflatten(template: ParamVector, flat: np.ndarray) -> ParamVector:
    state = template.to_state()
    pos = 0
    for family, gi in _blocks_for(template):
        size = _block_view(state, family, gi).size
        _set_block(state, family, gi, np.asarray(flat[pos : pos + size]))
        pos += size
    if pos != flat.size:
        raise DataError("flattened parameter vector has the wrong length")
    return template.with_state(state)


def metropolis_accept(rng: np.random.Generator, log_ratio: float) -> bool:
    """One Metropolis accept/reject decision; always consumes one uniform."""
    u = rng.random()
    if log_ratio >= 0.0:
        return True
    return math.log(u) < log_ratio


class _StepStreams:
    """One Philox generator per (seed, chain), repositioned per step.

    Each step draws from the counter block (0, step, 0, 0), so interrupted
    runs resumed at an arbitrary step reproduce the uninterrupted stream
    exactly without re-seeding from entropy.
    """

    def __init__(self, seed: int, chain: int):
        self._bits = np.random.Philox(
            key=[np.uint64(seed & (2**64 - 1)), np.uint64(chain)]
        )
        self.generator = np.random.Generator(self._bits)

    def at_step(self, step: int) -> np.random.Generator:
        state = self._bits.state
        state["state"]["counter"] = np.array([0, step, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        state["uinteger"] = 0
        self._bits.state = state
        return self.generator


_CHAIN_HEADER = "#ecrplus-chain v1"
# Header fields of a record file; a resumed run must match all of them.
_CHAIN_META = ("seed", "chain", "n_steps", "burn_in", "likelihood", "blocks")


def _state_logpost(panel: CohortPanel, template: ParamVector, prior: PriorSpec, likelihood: str):
    """Log-posterior as a function of the raw state dict."""
    loglik = _loglik_kernel(panel, template, likelihood)

    def logpost(state):
        ll = loglik(state)
        if not math.isfinite(ll):
            return -math.inf
        return ll + _log_prior_state(state, prior)

    return logpost


def _proposal_shapes(panel: CohortPanel, template: ParamVector, blocks) -> dict:
    """Unit-mean per-coordinate proposal shape vectors.

    Cells with more observed deaths carry more information and get
    proportionally smaller moves (1/sqrt of the death count).  The vectors
    are deterministic functions of the panel, so resumed runs rebuild them
    identically without storing them in the record file.
    """
    deaths_cell = panel.deaths.sum(axis=(0, 3)).astype(float)
    deaths_cause = panel.deaths.sum(axis=0).astype(float)
    state = template.to_state()
    shapes = {}
    for family, gi in blocks:
        size = _block_view(state, family, gi).size
        if family in ("alpha", "beta") and gi is not None:
            w = 1.0 / np.sqrt(deaths_cell[:, gi] + 10.0)
        elif family in ("u", "v") and gi is not None:
            w = 1.0 / np.sqrt(deaths_cause[:, gi, :].reshape(-1) + 10.0)
        else:
            shapes[(family, gi)] = np.ones(size)
            continue
        shapes[(family, gi)] = w / w.mean()
    return shapes


def mcmc_sample(
    panel: CohortPanel,
    init: ParamVector,
    prior: PriorSpec,
    cfg: McmcConfig,
    resume: bool = False,
) -> McmcChain:
    """Random-walk Metropolis-Hastings within Gibbs over the free blocks.

    Blocks are updated in a fixed order each step with normal proposals;
    positivity-constrained coordinates reject out-of-domain proposals.
    Per-step randomness comes from a stream keyed by (seed, chain, step),
    so a run interrupted and resumed from its record file reproduces the
    uninterrupted run exactly; a record file written with other settings
    is refused with :class:`DataError`.  The returned chain holds the post-burn-in
    steps executed by this call; :func:`load_chain` reads the complete
    record file after a resumed run.
    """
    logpost = _state_logpost(panel, init, prior, cfg.likelihood)

    blocks = _blocks_for(init)
    names = _flat_names(init)
    state = init.to_state()
    scales = {
        (family, gi): float(cfg.proposal_scales.get(family, 0.05))
        for family, gi in blocks
    }
    shapes = _proposal_shapes(panel, init, blocks)

    start_step = 0
    writer = None
    if cfg.record_path:
        meta = {
            "seed": cfg.seed,
            "chain": cfg.chain_id,
            "n_steps": cfg.n_steps,
            "burn_in": cfg.burn_in,
            "likelihood": cfg.likelihood,
            "blocks": [f"{f}:{'' if g is None else 'fm'[g]}" for f, g in blocks],
        }
        resumed = None
        if resume and os.path.exists(cfg.record_path):
            resumed = _resume_point(cfg.record_path, meta, init, blocks)
        if resumed is not None:
            state, scales, start_step = resumed
            writer = open(cfg.record_path, "a")
        else:
            writer = open(cfg.record_path, "w")
            writer.write(f"{_CHAIN_HEADER} {json.dumps(meta)}\n")
            writer.write("step,log_posterior," + ",".join(
                [f"scale.{f}{'' if g is None else '.' + 'fm'[g]}" for f, g in blocks]
            ) + "," + ",".join(names) + "\n")

    cur_lp = logpost(state)
    if not math.isfinite(cur_lp):
        raise NumericalError("log-posterior is not finite at the initial state")

    kept_steps = cfg.n_steps - cfg.burn_in
    samples = np.empty((kept_steps, len(names)))
    lps = np.empty(kept_steps)
    accept_count = {b: 0 for b in blocks}
    window_acc = {b: 0 for b in blocks}
    window_try = {b: 0 for b in blocks}
    kept = 0
    streams = _StepStreams(cfg.seed, cfg.chain_id)

    for step in range(cfg.n_steps):
        if step < start_step:
            continue
        rng = streams.at_step(step)
        for b in blocks:
            family, gi = b
            flat = _block_view(state, family, gi)
            prop = flat + scales[b] * shapes[b] * rng.standard_normal(flat.size)
            ok = (
                family not in _POSITIVE or np.all(prop > 0.0)
            ) and np.all(np.isfinite(prop))
            if ok:
                new_state = dict(state)
                _set_block(new_state, family, gi, prop)
                cand_lp = logpost(new_state)
                if metropolis_accept(rng, cand_lp - cur_lp):
                    state = new_state
                    cur_lp = cand_lp
                    accept_count[b] += 1
                    window_acc[b] += 1
            else:
                metropolis_accept(rng, -math.inf)
            window_try[b] += 1
        if cfg.adapt and step < cfg.burn_in and (step + 1) % 25 == 0:
            for b in blocks:
                rate = window_acc[b] / max(window_try[b], 1)
                scales[b] *= math.exp(max(-1.0, min(1.0, 2.0 * (rate - 0.3))))
                window_acc[b] = 0
                window_try[b] = 0
        if step >= cfg.burn_in:
            flat_all = np.concatenate([_block_view(state, f, g) for f, g in blocks])
            samples[kept] = flat_all
            lps[kept] = cur_lp
            kept += 1
            # Only post-burn-in records are streamed; a run interrupted
            # during burn-in simply restarts.
            if writer is not None:
                row = [str(step), f"{cur_lp:.17g}"]
                row += [f"{scales[b]:.17g}" for b in blocks]
                row += [f"{x:.17g}" for x in flat_all]
                writer.write(",".join(row) + "\n")
    if writer is not None:
        writer.close()

    executed = max(cfg.n_steps - start_step, 1)
    acc = {
        f"{f}{'' if g is None else '.' + 'fm'[g]}": accept_count[(f, g)] / executed
        for f, g in blocks
    }
    for name, rate in acc.items():
        if rate == 0.0:
            warnings.warn(f"block {name}: every proposal was rejected; check scales")
    chain = McmcChain(
        names=names,
        samples=samples[:kept],
        log_posterior=lps[:kept],
        acceptance=acc,
        template=init,
    )
    return chain


def _read_records(path: str) -> tuple[dict, list[str], np.ndarray]:
    """Header metadata, column names and (records, columns) values of a
    chain record file.

    Every record is written as one newline-terminated line, so a file whose
    last byte is not a newline holds a write that was cut short.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8", "replace")
        if not header.startswith(_CHAIN_HEADER):
            raise DataError(f"{path} is not a chain record file")
        try:
            meta = json.loads(header[len(_CHAIN_HEADER) :])
        except ValueError:
            meta = None
        if not isinstance(meta, dict) or any(k not in meta for k in _CHAIN_META):
            raise DataError(f"{path}: damaged chain header")
        columns = fh.readline().decode("utf-8", "replace").strip().split(",")
        start = fh.tell()
        if fh.seek(0, os.SEEK_END) > start:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                raise DataError(f"{path}: the last record is torn (no line end)")
        fh.seek(start)
        with warnings.catch_warnings():
            # A file without records is valid here: a resume restarts it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                raise DataError(f"{path}: damaged chain records ({exc})") from None
    if not data.size:
        return meta, columns, np.empty((0, len(columns)))
    if data.shape[1] != len(columns):
        raise DataError(
            f"{path}: records have {data.shape[1]} fields, the column row names {len(columns)}"
        )
    return meta, columns, data


def _resume_point(path: str, meta: dict, init: ParamVector, blocks) -> tuple[dict, dict, int] | None:
    """State, scales and next step from the last record, or None if the
    file holds no records yet (restart from scratch).  The file's header
    must match ``meta``, the metadata of the run being resumed."""
    found, _, data = _read_records(path)
    differ = [k for k in _CHAIN_META if found[k] != meta[k]]
    if differ:
        raise DataError(
            f"{path} was written by another run ({', '.join(differ)} differ); "
            "resume with the same settings or start a fresh run"
        )
    if not len(data):
        return None
    row = data[-1]
    n_blocks = len(blocks)
    scales = {b: float(row[2 + i]) for i, b in enumerate(blocks)}
    state = _unflatten(init, row[2 + n_blocks :]).to_state()
    return state, scales, int(row[0]) + 1


def load_chain(path: str, template: ParamVector) -> McmcChain:
    """Load a streamed chain record file written by :func:`mcmc_sample`.

    The file's parameter columns must be the free blocks of ``template``,
    in order; a chain written with other free blocks is a :class:`DataError`.
    """
    meta, columns, data = _read_records(path)
    if not len(data):
        raise DataError(f"{path} holds no chain records")
    n_scales = sum(1 for c in columns if c.startswith("scale."))
    names = columns[2 + n_scales :]
    if names != _flat_names(template):
        raise DataError(
            f"{path}: the chain's parameter columns are not the free blocks of the parameters"
        )
    keep = data[:, 0].astype(int) >= meta["burn_in"]
    return McmcChain(
        names=names,
        samples=data[keep, 2 + n_scales :],
        log_posterior=data[keep, 1],
        acceptance={},
        template=template,
    )


def information_criteria(panel: CohortPanel, chain: McmcChain, likelihood: str = "poisson") -> dict:
    """AIC, BIC and DIC computed from a posterior sample."""
    loglik = log_likelihood if likelihood == "poisson" else log_likelihood_bernoulli
    k = len(chain.names)
    n_obs = panel.deaths.size
    lls = np.array([loglik(panel, chain.param_vector(i)) for i in range(len(chain))])
    ll_mean_theta = loglik(panel, chain.mean_param_vector())
    max_ll = float(lls.max())
    d_bar = float(np.mean(-2.0 * lls))
    p_d = d_bar - (-2.0 * ll_mean_theta)
    return {
        "aic": 2.0 * k - 2.0 * max_ll,
        "bic": k * math.log(n_obs) - 2.0 * max_ll,
        "dic": d_bar + p_d,
    }


def cv_prior_scale(
    panel: CohortPanel,
    template: ParamVector,
    grid,
    family: str = "alpha",
    epsilon: float = 1e-2,
    order: int = 1,
) -> dict:
    """Leave-one-year-out log-score over a grid of prior scales c.

    For each candidate c and each held-out year, alpha and beta are fitted
    on the remaining years by penalised maximum likelihood (Bernoulli
    model) and scored on the held-out year; bigger is better.
    """
    if panel.n_causes != 1:
        raise DataError("cross-validation is implemented for K=0 panels")
    scores = {}
    for c in grid:
        prior = PriorSpec({family: BlockPrior(c=float(c), epsilon=epsilon, order=order)})
        total = 0.0
        for ti in range(panel.n_years):
            keep = np.arange(panel.n_years) != ti
            sub = CohortPanel(
                years=panel.years[keep],
                deaths=panel.deaths[keep],
                exposure=panel.exposure[keep],
                cause_labels=panel.cause_labels,
            )
            hold = CohortPanel(
                years=panel.years[ti : ti + 1],
                deaths=panel.deaths[ti : ti + 1],
                exposure=panel.exposure[ti : ti + 1],
                cause_labels=panel.cause_labels,
            )

            def neg(x):
                pv = _unflatten(template, x)
                ll = log_likelihood_bernoulli(sub, pv)
                return -(ll + log_prior(pv, prior))

            x0 = _flatten(template)
            res = optimize.minimize(neg, x0, method="L-BFGS-B")
            fitted = _unflatten(template, res.x)
            total += log_likelihood_bernoulli(hold, fitted)
        scores[float(c)] = total
    best = max(scores, key=scores.get)
    return {"best_c": best, "scores": scores}
