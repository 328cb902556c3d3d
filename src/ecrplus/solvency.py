"""Scenario analysis, best-estimate liabilities and solvency capital.

Fixing a risk factor at a chosen realisation turns its sector into a
conditional compound Poisson while the other sectors keep their negative
binomial mixing, giving the conditional portfolio loss of a scenario such
as "cancer deaths down 25 percent".

The one-year change in basic own funds for a run-off term-life book mixes,
over posterior parameter samples, a deterministic revaluation term and a
compound Poisson sum of death benefits net of released reserves; its 99.5%
quantile is the solvency capital requirement.  Statistical fluctuation
enters through the recursion, parameter risk through the posterior mixture.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .aggregation import (
    LossDistribution,
    PoissonCount,
    SectorCompound,
    aggregate_sectors,
    build_sectors,
    mixture,
    quantile,
    stochastic_round,
)
from .domain import Portfolio, RiskFactorSpec
from .errors import DataError, NumericalError
from .estimation import McmcChain, ParamVector, posterior_draws, posterior_mean
from .forecast import TERMINAL_AGE, _q_resolver

__all__ = [
    "Scenario",
    "DiscountCurve",
    "TermPolicy",
    "scenario_sectors",
    "scenario_loss",
    "term_life_bel",
    "delta_bof_distribution",
    "scr",
    "gamma_mixture_grid",
]


@dataclass(frozen=True)
class Scenario:
    """Risk-factor realisations to condition on, keyed by cause index."""

    fixed_factors: dict

    def __post_init__(self):
        for k, lam in self.fixed_factors.items():
            if lam <= 0.0:
                raise ValueError(f"scenario factor for cause {k} must be positive, got {lam}")


@dataclass(frozen=True)
class DiscountCurve:
    """Discount factors D(T, T+t) keyed by integer year offset; D(T,T)=1."""

    factors: dict

    def __post_init__(self):
        f = {int(t): float(v) for t, v in self.factors.items()}
        f.setdefault(0, 1.0)
        if abs(f[0] - 1.0) > 1e-12:
            raise ValueError("a discount curve must have D(T, T) = 1")
        if any(v <= 0.0 or v > 1.0 + 1e-12 for v in f.values()):
            raise ValueError("discount factors must lie in (0, 1]")
        object.__setattr__(self, "factors", f)

    @classmethod
    def flat(cls, rate: float, horizon: int) -> "DiscountCurve":
        return cls({t: (1.0 + rate) ** (-t) for t in range(horizon + 1)})

    def discount(self, t: int) -> float:
        if t not in self.factors:
            raise DataError(f"discount curve has a gap at offset {t}")
        return self.factors[t]

    def shifted(self, base: int) -> "DiscountCurve":
        """Curve seen from T+base: D'(t) = D(base+t) / D(base)."""
        d0 = self.discount(base)
        return DiscountCurve(
            {t - base: v / d0 for t, v in self.factors.items() if t >= base}
        )


def scenario_sectors(sectors: list[SectorCompound], scenario: Scenario) -> list[SectorCompound]:
    """The sectors with some factors pinned to fixed realisations.

    Pinned sectors become conditional Poisson(mu_k lambda_k) compounds;
    free sectors are returned as the same objects, so that
    :func:`aggregate_sector_sets` runs each of them once when the
    unconditional law is computed alongside.
    """
    K = len(sectors) - 1
    for k in scenario.fixed_factors:
        if not 1 <= k <= K:
            raise DataError(f"scenario fixes unknown cause {k}")
    return [
        replace(s, count_law=PoissonCount(s.intensity * scenario.fixed_factors[s.k]))
        if s.k in scenario.fixed_factors and s.intensity != 0.0
        else s
        for s in sectors
    ]


def scenario_loss(
    portfolio: Portfolio,
    rf: list[RiskFactorSpec],
    scenario: Scenario,
    unit: float = 1.0,
    n_max: int | None = None,
) -> LossDistribution:
    """Distribution of S with some factors pinned to fixed realisations
    (see :func:`scenario_sectors`)."""
    sectors = scenario_sectors(build_sectors(portfolio, rf, unit), scenario)
    return aggregate_sectors(sectors, n_max)


def gamma_mixture_grid(sigma_sq: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-probability discretisation of the gamma factor law.

    Bins at quantiles i/n; each node is the conditional mean of the factor
    within its bin, so the discretised mixing distribution matches the
    gamma's mean exactly and mixing conditional losses over the grid
    reproduces the unconditional law to quadrature accuracy.
    """
    if sigma_sq <= 0.0:
        raise ValueError("sigma^2 must be positive")
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    shape = 1.0 / sigma_sq
    scale = sigma_sq
    probs = np.linspace(0.0, 1.0, n_nodes + 1)
    edges = special.gammaincinv(shape, probs[1:-1]) * scale
    edges = np.concatenate([[0.0], edges, [np.inf]])
    upper = special.gammainc(shape + 1.0, edges[1:] / scale)
    lower = special.gammainc(shape + 1.0, edges[:-1] / scale)
    # E[X; bin] for Gamma(shape, scale) equals mean * (F_{shape+1}(b) - F_{shape+1}(a)).
    nodes = (upper - lower) * n_nodes  # mean is one
    weights = np.full(n_nodes, 1.0 / n_nodes)
    return nodes, weights


def term_life_bel(
    age: int,
    gender,
    year: int,
    term_years: int,
    curve: DiscountCurve,
    params,
) -> float:
    """Best-estimate liability of a unit term-life benefit paid at the end
    of the year of death within ``term_years`` + 1 years:

        A = D(1) q(T) + sum_{t=1..d} D(t+1) * t_p * q(age+t, T+t).

    ``params`` is a TrendParams or a callable q(age, gender, year).  The
    table is closed with q = 1 at :data:`~ecrplus.forecast.TERMINAL_AGE`,
    as life expectancies are, so an undiscounted whole-life value
    telescopes to one.
    """
    if term_years < 0:
        raise ValueError("term must be >= 0 years")
    gi = gender if gender in (0, 1) else ("f", "m").index(gender)
    q_fn = _q_resolver(params)

    def q_at(a, t):
        return 1.0 if a >= TERMINAL_AGE else float(q_fn(a, gi, t))

    q0 = q_at(age, year)
    value = curve.discount(1) * q0
    surv = 1.0 - q0
    for t in range(1, term_years + 1):
        if surv == 0.0:
            break
        qt = q_at(age + t, year + t)
        value += curve.discount(t + 1) * surv * qt
        surv *= 1.0 - qt
    return value


@dataclass(frozen=True)
class TermPolicy:
    """One term-life policy: lump sum on death within the remaining term."""

    age: int
    gender: str
    sum_insured: float
    term_years: int

    def __post_init__(self):
        if self.sum_insured <= 0.0:
            raise ValueError("sum insured must be positive")
        if self.term_years < 1:
            raise ValueError("term must cover at least the coming year")
        if self.gender not in ("f", "m"):
            raise ValueError(f"gender must be 'f' or 'm', not {self.gender!r}")
        if not 0 <= self.age < TERMINAL_AGE:
            raise ValueError(f"age {self.age} outside [0, {TERMINAL_AGE})")


def delta_bof_distribution(
    policies: list[TermPolicy],
    asset_value: float,
    coupon: float,
    curve: DiscountCurve,
    chain: McmcChain | list[ParamVector],
    base_year: int,
    unit: float | None = None,
    max_samples: int = 200,
    lattice_points: int = 200_000,
) -> LossDistribution:
    """Distribution of the one-year decline in basic own funds.

    For each posterior sample the death benefits net of next year's
    reserves form a compound Poisson computed by the recursion; the
    per-sample laws, shifted by their deterministic revaluation terms, are
    mixed with equal weights.  Positive values are losses, so the solvency
    capital is the 99.5% quantile.
    """
    if not policies:
        raise DataError("empty policy list")
    d1 = curve.discount(1)
    samples = posterior_draws(chain, max_samples)
    theta_mean = posterior_mean(chain)

    curve1 = curve.shifted(1)
    bel0 = [
        term_life_bel(p.age, p.gender, base_year, p.term_years, curve, theta_mean.trends)
        for p in policies
    ]
    det_base = asset_value * (1.0 - d1 * (1.0 + coupon)) - sum(
        p.sum_insured * a for p, a in zip(policies, bel0)
    )

    per_sample = []
    for pv in samples:
        q_fn = _q_resolver(pv.trends)
        bel1 = [
            term_life_bel(p.age + 1, p.gender, base_year + 1, p.term_years - 1, curve1, pv.trends)
            for p in policies
        ]
        lam = np.array(
            [
                q_fn(p.age, 0 if p.gender == "f" else 1, base_year)
                for p in policies
            ]
        )
        atoms = np.array(
            [d1 * p.sum_insured * (1.0 - a) for p, a in zip(policies, bel1)]
        )
        det = det_base + d1 * sum(p.sum_insured * a for p, a in zip(policies, bel1))
        per_sample.append((lam, atoms, det))

    if unit is None:
        max_atom = max(a.max() for _, a, _ in per_sample)
        unit = max(max_atom / lattice_points, 1e-12)

    dists = []
    for lam, atoms, det in per_sample:
        lam_tot = float(lam.sum())
        if lam_tot == 0.0:
            dists.append(LossDistribution.point(det, unit=unit))
            continue
        mix: dict[float, float] = {}
        for y, li in zip(atoms, lam):
            mix[y] = mix.get(y, 0.0) + li / lam_tot
        severity = stochastic_round(mix, unit)
        sector = SectorCompound(
            k=0, count_law=PoissonCount(lam_tot), severity=severity, intensity=lam_tot
        )
        dists.append(replace(aggregate_sectors([sector]), offset=det))
    return mixture(dists)


def scr(delta_bof: LossDistribution) -> float:
    """Solvency capital: the 99.5% quantile of the own-funds decline."""
    if delta_bof.truncation_mass >= 0.005:
        raise NumericalError(
            f"truncated tail mass {delta_bof.truncation_mass:.4g} >= 0.5%; "
            "extend the lattice before reading the 99.5% quantile"
        )
    return quantile(delta_bof, 0.995)
