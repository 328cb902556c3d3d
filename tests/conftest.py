import numpy as np
import pytest

from ecrplus.domain import CohortPanel, LatticeSeverity, Policyholder, Portfolio
from ecrplus.trends import TrendParams, cause_weights_grid, death_prob_grid


def table1_portfolio(idiosyncratic: bool) -> Portfolio:
    """The reference portfolio: 10,000 heads, q = 0.05, unit payments."""
    weights = np.array([1.0]) if idiosyncratic else np.array([0.0, 1.0])
    holder = Policyholder(
        id="ref",
        age_group=0,
        gender="f",
        birth_year=0,
        death_prob=0.05,
        weights=weights,
        payment=LatticeSeverity.point(1),
        survival_payment=LatticeSeverity.point(1),
        multiplicity=10_000,
    )
    return Portfolio(holders=[holder])


def flat_trends(A=2, K=1, t0=2000.0, alpha=-2.0, beta=0.0, u=None, ages=None) -> TrendParams:
    """Minimal trend parameters with constant cells."""
    u_arr = np.zeros((A, 2, K + 1)) if u is None else np.asarray(u, dtype=float)
    return TrendParams(
        alpha=np.full((A, 2), alpha),
        beta=np.full((A, 2), beta),
        zeta=np.zeros((A, 2)),
        eta=np.full((A, 2), 1.0 / 150.0),
        u=u_arr,
        v=np.zeros_like(u_arr),
        phi=np.zeros(K + 1),
        psi=np.full(K + 1, 1.0 / 150.0),
        t0=t0,
        age_lower_bounds=None if ages is None else np.asarray(ages, dtype=float),
    )


def realistic_trends(rng, A=8, K=3, t0=1987.0) -> TrendParams:
    """Trend parameters at the scale of a real multi-cause panel."""
    alpha = np.linspace(-2.2, -0.3, A)[:, None] + np.array([[-0.1, 0.0]])
    beta = np.full((A, 2), -0.02) + rng.normal(0, 0.004, (A, 2))
    return TrendParams(
        alpha=alpha,
        beta=beta,
        zeta=np.zeros((A, 2)),
        eta=np.full((A, 2), 1.0 / 150.0),
        u=rng.normal(0, 0.6, (A, 2, K + 1)),
        v=rng.normal(0, 0.01, (A, 2, K + 1)),
        phi=np.zeros(K + 1),
        psi=np.full(K + 1, 1.0 / 150.0),
        t0=t0,
        age_lower_bounds=np.arange(50.0, 50.0 + 5.0 * A, 5.0),
    )


def simulate_panel(rng, trends: TrendParams, sigma2, years, exposure):
    """Draw a cohort panel from the gamma-mixed Poisson model.

    Returns the panel and the factor realisations used.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    years = np.asarray(years)
    K = sigma2.size
    exposure = np.broadcast_to(
        np.asarray(exposure), (years.size, trends.n_age_groups, 2)
    ).copy()
    q = death_prob_grid(years, trends)
    w = cause_weights_grid(years, trends)
    rho = exposure[:, :, :, None] * q[:, :, :, None] * w
    lam = np.ones((years.size, K + 1))
    if K:
        lam[:, 1:] = rng.gamma(1.0 / sigma2, sigma2, size=(years.size, K))
    deaths = rng.poisson(rho * lam[:, None, None, :])
    panel = CohortPanel(years=years, deaths=deaths, exposure=exposure)
    return panel, lam


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


def reference_log_likelihood(panel: CohortPanel, params, sigma2_t=None) -> float:
    """The gamma-mixed Poisson log-likelihood summed term by term from the
    intensities rho = m q w, the textbook form the kernel is checked against;
    ``sigma2_t`` has shape (T, K), default the fitted variances every year."""
    from scipy import special

    deaths = panel.deaths
    q = death_prob_grid(panel.years, params.trends)
    w = cause_weights_grid(panel.years, params.trends)
    rho = panel.exposure[:, :, :, None] * q[:, :, :, None] * w
    if sigma2_t is None:
        sigma2_t = np.broadcast_to(params.sigma2, (panel.n_years, params.sigma2.size))
    if np.any((rho == 0.0) & (deaths > 0)):
        return -np.inf
    n0 = deaths[:, :, :, 0]
    rho0 = rho[:, :, :, 0]
    log_rho0 = np.log(np.where(rho0 > 0.0, rho0, 1.0))
    total = float((-rho0 + n0 * log_rho0 - special.gammaln(n0 + 1.0)).sum())
    if deaths.shape[3] == 1:
        return total
    nk = deaths[:, :, :, 1:]
    rhok = rho[:, :, :, 1:]
    n_sum = nk.sum(axis=(1, 2))
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
