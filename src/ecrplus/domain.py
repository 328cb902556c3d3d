"""Core data types: portfolios, risk factors, severities and cohort panels.

A portfolio is a list of representative policyholders.  Identical heads in
one age/gender cell are stored once with a ``multiplicity`` instead of
being materialised, and every downstream computation treats multiplicity
as an exposure weight.

Risk factors are latent gamma variables with mean one and variance
sigma^2 per cause; weights attribute each head's death intensity to the
causes, with cause 0 the idiosyncratic bucket.  All types are immutable
after construction and safe to share across parallel workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .trends import TrendParams, cause_weights, death_prob

__all__ = [
    "LatticeSeverity",
    "RiskFactorSpec",
    "Policyholder",
    "Portfolio",
    "CohortPanel",
    "CellSpec",
    "pairwise_death_covariance",
    "build_portfolio",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class LatticeSeverity:
    """Distribution of a payment on the lattice {0, u, 2u, ...}.

    ``pmf`` maps non-negative integer lattice indices to probabilities
    summing to one.
    """

    unit: float
    pmf: dict[int, float]

    def __post_init__(self):
        if self.unit <= 0.0:
            raise ValueError("loss unit must be positive")
        pmf = {int(k): float(p) for k, p in self.pmf.items() if p != 0.0}
        if not pmf:
            pmf = {0: 1.0}
        if min(pmf) < 0:
            raise ValueError("lattice severity has negative support")
        if any(p < 0.0 for p in pmf.values()):
            raise ValueError("negative probability in severity pmf")
        total = sum(pmf.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"severity pmf sums to {total}, not 1")
        if abs(total - 1.0) > _PROB_TOL:
            pmf = {k: p / total for k, p in pmf.items()}
        object.__setattr__(self, "pmf", pmf)

    @classmethod
    def point(cls, index: int, unit: float = 1.0) -> "LatticeSeverity":
        return cls(unit=unit, pmf={int(index): 1.0})

    @property
    def max_index(self) -> int:
        return max(self.pmf)

    def mean(self) -> float:
        """Mean in currency units."""
        return self.unit * sum(k * p for k, p in self.pmf.items())

    def mean_index(self) -> float:
        return sum(k * p for k, p in self.pmf.items())

    def second_moment_index(self) -> float:
        return sum(k * k * p for k, p in self.pmf.items())

    def as_array(self, length: int | None = None) -> np.ndarray:
        n = (self.max_index if length is None else length - 1) + 1
        arr = np.zeros(max(n, 1))
        for k, p in self.pmf.items():
            if k < len(arr):
                arr[k] = p
        return arr


@dataclass(frozen=True)
class RiskFactorSpec:
    """One latent cause factor: gamma with mean one and variance ``variance``."""

    k: int
    variance: float

    def __post_init__(self):
        if self.variance <= 0.0:
            raise ValueError(f"risk factor {self.k}: variance must be > 0")


@dataclass(frozen=True)
class Policyholder:
    """A representative policyholder (or a cell of identical ones).

    ``weights`` has length K+1 with cause 0 idiosyncratic; ``payment`` is
    the amount due on death, ``survival_payment`` the amount due on
    survival (used for annuity-style losses).  ``multiplicity`` counts how
    many identical heads this record stands for.
    """

    id: str
    age_group: int
    gender: str
    birth_year: int
    death_prob: float
    weights: np.ndarray
    payment: LatticeSeverity
    survival_payment: LatticeSeverity | None = None
    multiplicity: int = 1

    def __post_init__(self):
        if not 0.0 <= self.death_prob <= 1.0:
            raise ValueError(f"policyholder {self.id}: death_prob outside [0, 1]")
        w = np.asarray(self.weights, dtype=float)
        if np.any(w < 0.0) or np.any(w > 1.0):
            raise ValueError(f"policyholder {self.id}: weights outside [0, 1]")
        if abs(w.sum() - 1.0) > _PROB_TOL:
            raise ValueError(f"policyholder {self.id}: weights sum to {w.sum()}, not 1")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_causes(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Portfolio:
    """A list of representative policyholders sharing one payment lattice."""

    holders: tuple[Policyholder, ...]

    def __post_init__(self):
        object.__setattr__(self, "holders", tuple(self.holders))
        ks = {h.n_causes for h in self.holders}
        if len(ks) > 1:
            raise DataError(f"policyholders disagree on the number of causes: {sorted(ks)}")

    def __len__(self) -> int:
        return sum(h.multiplicity for h in self.holders)

    def __iter__(self):
        return iter(self.holders)

    @property
    def n_causes(self) -> int:
        return self.holders[0].n_causes if self.holders else 1

    def expected_loss(self) -> float:
        """Model mean of S: sum over heads of q_i * E[Y_i]."""
        return sum(h.multiplicity * h.death_prob * h.payment.mean() for h in self.holders)

    def total_survival_payment(self) -> float:
        """Sum of survival payments when every X_i is deterministic."""
        total = 0.0
        for h in self.holders:
            if h.survival_payment is None:
                raise DataError(f"policyholder {h.id} has no survival payment")
            if len(h.survival_payment.pmf) != 1:
                raise DataError(
                    f"policyholder {h.id}: survival payment is random; "
                    "pass its distribution to loss_from_annuity explicitly"
                )
            (idx,) = h.survival_payment.pmf
            total += h.multiplicity * idx * h.survival_payment.unit
        return total


def pairwise_death_covariance(i: Policyholder, j: Policyholder, rf: list[RiskFactorSpec]) -> float:
    """Model covariance of the death counts of two distinct policyholders.

    cov(N_i, N_j) = q_i q_j sum_k w_{i,k} w_{j,k} sigma_k^2 over the common
    causes k >= 1; cause 0 is idiosyncratic and contributes nothing.
    """
    if i.n_causes != j.n_causes:
        raise DataError("policyholders have different numbers of causes")
    if len(rf) != i.n_causes - 1:
        raise DataError(
            f"expected {i.n_causes - 1} risk factors for K+1={i.n_causes} weights, got {len(rf)}"
        )
    acc = 0.0
    for spec in rf:
        acc += i.weights[spec.k] * j.weights[spec.k] * spec.variance
    return i.death_prob * j.death_prob * acc


@dataclass(frozen=True)
class CellSpec:
    """Input cell for :func:`build_portfolio`.

    ``payment`` and ``survival_payment`` may be a scalar amount (rounded
    onto the lattice) or a ready :class:`LatticeSeverity`.
    """

    age_group: int
    gender: str
    count: int
    payment: float | LatticeSeverity = 1.0
    survival_payment: float | LatticeSeverity | None = None


def _to_severity(value, unit: float) -> LatticeSeverity:
    if isinstance(value, LatticeSeverity):
        return value
    from .aggregation import stochastic_round

    return stochastic_round({float(value): 1.0}, unit)


def build_portfolio(
    spec: list[CellSpec],
    trends: TrendParams,
    year: float,
    unit: float = 1.0,
) -> Portfolio:
    """Expand per-cell counts into representative policyholders.

    Death probabilities and cause weights are evaluated from the trend
    family at ``year``; payments are discretised onto the common lattice
    with mean-preserving stochastic rounding.
    """
    holders = []
    for n, cell in enumerate(spec):
        if cell.count < 0:
            raise DataError(f"cell {n}: negative count {cell.count}")
        if cell.count == 0:
            continue
        gi = trends.gender_index(cell.gender)
        if not 0 <= cell.age_group < trends.n_age_groups:
            raise DataError(f"cell {n}: unknown age group {cell.age_group}")
        q = death_prob(cell.age_group, gi, year, trends)
        w = cause_weights(cell.age_group, gi, year, trends)
        surv = cell.survival_payment
        holders.append(
            Policyholder(
                id=f"cell{n}:a{cell.age_group}{cell.gender}",
                age_group=cell.age_group,
                gender="fm"[gi],
                birth_year=trends.birth_year(cell.age_group, year),
                death_prob=q,
                weights=w,
                payment=_to_severity(cell.payment, unit),
                survival_payment=None if surv is None else _to_severity(surv, unit),
                multiplicity=cell.count,
            )
        )
    return Portfolio(holders=holders)


@dataclass(frozen=True)
class CohortPanel:
    """Observed deaths and exposures by year, age group, gender and cause.

    ``deaths`` has shape (T, A, 2, K+1) and ``exposure`` (T, A, 2), with
    the gender axis ordered (f, m) and cause 0 idiosyncratic.  ``years``
    are the calendar years of the T rows.  Multiple deaths per head are
    admissible under the Poisson reading, so a cell whose deaths exceed
    its exposure only triggers a warning.
    """

    years: np.ndarray
    deaths: np.ndarray
    exposure: np.ndarray
    cause_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        deaths = np.asarray(self.deaths, dtype=np.int64)
        exposure = np.asarray(self.exposure, dtype=np.int64)
        if deaths.ndim != 4 or exposure.ndim != 3:
            raise DataError("deaths must be (T, A, 2, K+1) and exposure (T, A, 2)")
        if deaths.shape[:3] != exposure.shape or deaths.shape[0] != years.size:
            raise DataError(
                f"shape mismatch: years {years.shape}, deaths {deaths.shape}, "
                f"exposure {exposure.shape}"
            )
        if deaths.min(initial=0) < 0:
            raise DataError("negative death counts")
        if exposure.min(initial=1) <= 0:
            raise DataError("exposures must be positive")
        total = deaths.sum(axis=3)
        if np.any(total > exposure):
            bad = np.argwhere(total > exposure)[0]
            warnings.warn(
                f"deaths exceed exposure at (t,a,g)={tuple(bad)}; "
                "allowed under the Poisson reading",
                stacklevel=2,
            )
        if not self.cause_labels:
            object.__setattr__(
                self,
                "cause_labels",
                tuple(
                    ["idiosyncratic"] + [f"cause{k}" for k in range(1, deaths.shape[3])]
                ),
            )
        elif len(self.cause_labels) != deaths.shape[3]:
            raise DataError("cause_labels length must be K+1")
        for arr in (years, deaths, exposure):
            arr.setflags(write=False)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "deaths", deaths)
        object.__setattr__(self, "exposure", exposure)

    @property
    def n_years(self) -> int:
        return self.years.size

    @property
    def n_age_groups(self) -> int:
        return self.deaths.shape[1]

    @property
    def n_causes(self) -> int:
        """K+1 including the idiosyncratic cause."""
        return self.deaths.shape[3]

    def collapse_causes(self) -> "CohortPanel":
        """Fold all causes into one idiosyncratic bucket (K = 0 panel)."""
        return CohortPanel(
            years=self.years,
            deaths=self.deaths.sum(axis=3, keepdims=True),
            exposure=self.exposure,
            cause_labels=("idiosyncratic",),
        )
