"""Exact aggregate-loss distributions via per-sector Panjer recursion.

The portfolio's death counts decompose into K+1 independent sectors, one
per cause.  Conditionally on its gamma factor, sector k's total count is
Poisson with intensity mu_k * Lambda_k where mu_k = sum_i q_i w_{i,k};
integrating the factor out gives a negative binomial count law with
r = 1/sigma_k^2 and p = 1/(1 + sigma_k^2 mu_k).  The idiosyncratic sector
(k = 0) stays Poisson.  Each sector is a compound law of its count and the
intensity-weighted severity mixture, computed exactly on the lattice by
the (a, b, 0) Panjer recursion; the sector laws are then convolved.

Severity mass at zero is absorbed into the count law before the recursion
(zero modification), and the recursion runs on rescaled values with an
explicit log scale per entry so that initial probabilities far below the
double-precision floor (the classic g_0 = e^{-lambda} underflow) cannot
poison it.

Cost follows the useful work.  The recursion computes a block of values per
numpy step: lags reaching back before the block are one gather over the
nonzero atoms.  When the smallest payment index is below the block length,
the lags inside the block are one banded triangular solve of the
recursion multiplied by n, whose band is a fixed linear function of the
block's start; blocks are then 512 values long when the severity spans
fewer than 128 points, else 128.  Sector laws are
convolved directly below 1,024 points and through the real FFT above; the
FFT's rounding error is about 1e-16 of the peak, the same floor below which
entries are trimmed into the tail before convolving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft
from scipy.linalg.lapack import dtbtrs

from .domain import LatticeSeverity, Portfolio, RiskFactorSpec
from .errors import DataError, NumericalError

__all__ = [
    "LossDistribution",
    "PoissonCount",
    "NegBinCount",
    "SectorCompound",
    "stochastic_round",
    "build_sectors",
    "panjer_compound",
    "convolve_sectors",
    "loss_from_annuity",
    "quantile",
    "tv_distance",
    "aggregate_sectors",
    "aggregate_sector_sets",
    "aggregate_loss",
    "mixture",
    "model_moments",
]

# Rescaling threshold for the recursion; values are renormalised whenever
# the running maximum crosses it, far inside the double range.
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)

# Blocked Panjer: blocks hold m (the smallest payment index) values when
# m >= _BLOCK, else 4 * _BLOCK when the severity spans fewer than _BLOCK
# points and _BLOCK otherwise, with at most _GATHER_MAX gathered window
# entries.
_BLOCK = 128
_GATHER_MAX = 1 << 20

# Convolutions whose operands both reach this length go through the FFT
# (the direct sum wins below ~700 points); shorter pmfs are not trimmed.
_FFT_MIN = 1024

# Default lattice bound: the enumerated range reaches the aggregate's mean
# plus this many standard deviations; the mass beyond is reported as
# truncation_mass, never dropped silently.
N_SD = 12.0

# The most points one distribution's lattice may hold (2^25, 256 MiB per
# float64 array).  A larger lattice comes from a unit far too small for
# the book; it is refused before anything is allocated.
MAX_LATTICE_POINTS = 1 << 25


@dataclass(frozen=True)
class LossDistribution:
    """Probability mass function of an aggregate quantity on a lattice.

    Lattice point n carries the value ``offset + n * unit``; ``offset`` is
    zero for plain losses and nonzero for shifted or reflected quantities
    (annuity losses, own-fund changes).  ``truncation_mass`` is the
    probability above the enumerated range, ``lower_mass`` the probability
    below it (only reflected laws have any).
    """

    unit: float
    pmf: np.ndarray
    truncation_mass: float = 0.0
    offset: float = 0.0
    lower_mass: float = 0.0

    def __post_init__(self):
        if self.unit <= 0.0:
            raise ValueError("loss unit must be positive")
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a non-empty 1-d array")
        if pmf.min() < -1e-12:
            raise NumericalError(f"negative pmf entry {pmf.min()}")
        pmf = np.clip(pmf, 0.0, None)
        total = pmf.sum() + self.truncation_mass + self.lower_mass
        if abs(total - 1.0) > 1e-6:
            raise NumericalError(f"pmf plus tail masses sum to {total}, not 1")
        pmf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)

    @classmethod
    def point(cls, value: float, unit: float = 1.0) -> "LossDistribution":
        return cls(unit=unit, pmf=np.array([1.0]), offset=value)

    @property
    def n_max(self) -> int:
        return self.pmf.size - 1

    def values(self) -> np.ndarray:
        return self.offset + self.unit * np.arange(self.pmf.size)

    def cdf(self) -> np.ndarray:
        return self.lower_mass + np.cumsum(self.pmf)

    def mean(self) -> float:
        """Mean over the enumerated range (tail masses excluded)."""
        n = np.arange(self.pmf.size)
        return float(self.offset * self.pmf.sum() + self.unit * (n @ self.pmf))

    def variance(self) -> float:
        n = np.arange(self.pmf.size)
        m1 = n @ self.pmf
        m2 = (n * n) @ self.pmf
        return float(self.unit**2 * (m2 - m1 * m1))

    def truncated(self, n_max: int) -> "LossDistribution":
        """Move all mass above lattice index ``n_max`` into the tail."""
        if n_max >= self.n_max:
            return self
        cut = self.pmf[n_max + 1 :].sum()
        return LossDistribution(
            unit=self.unit,
            pmf=self.pmf[: n_max + 1],
            truncation_mass=self.truncation_mass + cut,
            offset=self.offset,
            lower_mass=self.lower_mass,
        )


@dataclass(frozen=True)
class PoissonCount:
    """Poisson count law; Panjer class with a = 0, b = lambda."""

    lam: float

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError("Poisson intensity must be non-negative")

    def mean(self) -> float:
        return self.lam

    def var(self) -> float:
        return self.lam

    def thinned(self, keep: float) -> "PoissonCount":
        return PoissonCount(self.lam * keep)

    def panjer_ab(self) -> tuple[float, float]:
        return 0.0, self.lam

    def log_p0(self) -> float:
        return -self.lam


@dataclass(frozen=True)
class NegBinCount:
    """Negative binomial count law: P(N=n) = C(n+r-1, n) p^r (1-p)^n.

    Mean r(1-p)/p; Panjer class with a = 1-p, b = (r-1)(1-p).
    """

    r: float
    p: float

    def __post_init__(self):
        if self.r <= 0.0 or not 0.0 < self.p <= 1.0:
            raise ValueError("need r > 0 and 0 < p <= 1")

    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p

    def var(self) -> float:
        return self.r * (1.0 - self.p) / self.p**2

    def thinned(self, keep: float) -> "NegBinCount":
        # Thinning a gamma-mixed Poisson scales the mixing intensity, so r
        # is preserved and only the mean changes.
        mu = self.mean() * keep
        return NegBinCount(self.r, self.r / (self.r + mu))

    def panjer_ab(self) -> tuple[float, float]:
        a = 1.0 - self.p
        return a, (self.r - 1.0) * a

    def log_p0(self) -> float:
        return self.r * math.log(self.p)


@dataclass(frozen=True)
class SectorCompound:
    """Compound law of one sector: count law plus severity mixture Q_k."""

    k: int
    count_law: PoissonCount | NegBinCount
    severity: LatticeSeverity
    intensity: float

    def mean(self) -> float:
        """Mean in lattice units."""
        return self.count_law.mean() * self.severity.mean_index()

    def var(self) -> float:
        """Variance in lattice units squared."""
        ey = self.severity.mean_index()
        ey2 = self.severity.second_moment_index()
        n = self.count_law
        return n.mean() * (ey2 - ey * ey) + n.var() * ey * ey


def stochastic_round(severity, unit: float) -> LatticeSeverity:
    """Mean-preserving discretisation of a payment law onto the lattice.

    An atom at y = (n + f) u with f in [0, 1) sends mass (1 - f) to n u and
    f to (n + 1) u, so the mean is preserved exactly.  ``severity`` is a
    mapping from non-negative payment values to probabilities.
    """
    if unit <= 0.0:
        raise ValueError("loss unit must be positive")
    out: dict[int, float] = {}
    for y, prob in severity.items():
        y = float(y)
        if y < 0.0:
            raise DataError(f"negative payment atom {y}")
        x = y / unit
        n = math.floor(x)
        f = x - n
        # Snap away float fuzz so exactly-representable atoms stay atoms.
        if f < 1e-12:
            f = 0.0
        elif f > 1.0 - 1e-12:
            n += 1
            f = 0.0
        if f:
            out[n] = out.get(n, 0.0) + prob * (1.0 - f)
            out[n + 1] = out.get(n + 1, 0.0) + prob * f
        else:
            out[n] = out.get(n, 0.0) + prob
    return LatticeSeverity(unit=unit, pmf=out)


def build_sectors(
    portfolio: Portfolio, rf: list[RiskFactorSpec], unit: float
) -> list[SectorCompound]:
    """Split the portfolio into K+1 independent compound sectors.

    Sector k has intensity mu_k = sum_i q_i w_{i,k} and severity mixture
    Q_k(y) = sum_i q_i w_{i,k} P(Y_i = y) / mu_k.  Sectors with zero
    intensity come back degenerate (point mass at 0, zero count).
    """
    K1 = portfolio.n_causes
    if len(rf) != K1 - 1:
        raise DataError(f"expected {K1 - 1} risk factors, got {len(rf)}")
    variances = {spec.k: spec.variance for spec in rf}
    if sorted(variances) != list(range(1, K1)):
        raise DataError("risk factor indices must be exactly 1..K")
    for h in portfolio:
        if abs(h.payment.unit - unit) > 1e-12 * unit:
            raise DataError(
                f"policyholder {h.id}: payment lattice unit {h.payment.unit} != {unit}"
            )

    sectors = []
    for k in range(K1):
        mu = 0.0
        mix: dict[int, float] = {}
        for h in portfolio:
            w = h.multiplicity * h.death_prob * h.weights[k]
            if w == 0.0:
                continue
            mu += w
            for idx, p in h.payment.pmf.items():
                mix[idx] = mix.get(idx, 0.0) + w * p
        if mu == 0.0:
            severity = LatticeSeverity.point(0, unit)
            count: PoissonCount | NegBinCount = PoissonCount(0.0)
        else:
            severity = LatticeSeverity(unit=unit, pmf={i: p / mu for i, p in mix.items()})
            if k == 0:
                count = PoissonCount(mu)
            else:
                s2 = variances[k]
                count = NegBinCount(r=1.0 / s2, p=1.0 / (1.0 + s2 * mu))
        sectors.append(SectorCompound(k=k, count_law=count, severity=severity, intensity=mu))
    return sectors


def panjer_compound(sector: SectorCompound, n_max: int) -> LossDistribution:
    """Exact compound distribution of one sector up to lattice index n_max.

    Runs the (a, b, 0) recursion
        g_n = (1 / (1 - a f_0)) * sum_{j=1..n} (a + b j / n) f_j g_{n-j}
    after absorbing severity mass at zero into the count law, on values
    rescaled by a tracked log factor so that extreme intensities neither
    underflow at g_0 nor overflow near the mode.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    unit = sector.severity.unit
    # Payments beyond n_max are never read: the array stops there.
    f = sector.severity.as_array(min(sector.severity.max_index, n_max) + 1)
    f0 = f[0] if f.size else 1.0
    if sector.count_law.mean() == 0.0 or f0 >= 1.0 - 1e-15:
        if abs(f0 - 1.0) > 1e-9 and sector.count_law.mean() != 0.0:
            raise NumericalError("severity mass at zero exceeds one")
        pmf = np.zeros(n_max + 1)
        pmf[0] = 1.0
        return LossDistribution(unit=unit, pmf=pmf)

    count = sector.count_law.thinned(1.0 - f0)
    a, b = count.panjer_ab()
    log_g0 = count.log_p0()

    f_pos = f[1:] / (1.0 - f0)
    J = min(f_pos.size, n_max) if n_max > 0 else 0
    f_pos = f_pos[:J]

    atoms = np.flatnonzero(f_pos)
    if atoms.size == 0:
        # Every payment lies beyond n_max: only the no-claim point is enumerated.
        pmf = np.zeros(n_max + 1)
        pmf[0] = math.exp(log_g0)
        return LossDistribution(unit=unit, pmf=pmf, truncation_mass=1.0 - pmf[0])
    if atoms.size == 1:
        # Single atom up to n_max: the recursion collapses to a product of
        # the (a + b/n) f_j ratios, evaluated as a cumulative sum of logs so
        # that extreme intensities stay finite.  f_j < 1 when the other
        # payments lie beyond n_max.
        j = int(atoms[0]) + 1
        n_pts = n_max // j
        pmf = np.zeros(n_max + 1)
        with np.errstate(divide="ignore"):
            log_ratio = np.log(a + b / np.arange(1.0, n_pts + 1.0)) + math.log(f_pos[j - 1])
        log_g = log_g0 + np.concatenate([[0.0], np.cumsum(log_ratio)])
        pmf[:: j][: n_pts + 1] = np.exp(log_g)
        mass = pmf.sum()
        return LossDistribution(
            unit=unit, pmf=pmf, truncation_mass=max(0.0, 1.0 - mass)
        )

    # B values per numpy step, m the smallest payment index.  Lags reaching
    # back before the block are one gather s[idx + n] over the nonzero atoms
    # (the block's own entries still read zero).  Lags inside it, only when
    # m < B, are solved for: multiplied by n the recursion reads
    #     n g_n = sum_j (a n + b j) f_j g_{n-j},
    # so a block starting at n0 solves a lower band system whose column i
    # holds n0 + i on the diagonal and -(a (n0 + i) + (a + b) j) f_j at lag
    # j.  In LAPACK band storage that is n0 P + Q with P and Q fixed per
    # call.  a n + b j = a (n - j) + (a + b) j >= 0 (a + b = a r for the
    # negative binomial), so every off-diagonal is <= 0 and forward
    # substitution adds only nonnegative terms: no cancellation.  Rows
    # r >= J have every lag inside the block and gather nothing.
    m = int(atoms[0]) + 1
    # A narrow band (J < _BLOCK) makes the solve cheap per value, so its
    # blocks are four times longer; wide bands keep _BLOCK.
    if m >= _BLOCK:
        B = m
    else:
        B = 4 * _BLOCK if J < _BLOCK else _BLOCK
    B = max(1, min(B, _GATHER_MAX // atoms.size))
    j = atoms + 1
    idx = (J - j)[None, :] + np.arange(B)[:, None]
    coef = np.stack([a * f_pos[atoms], j * f_pos[atoms]], axis=1)
    banded = m < B
    if banded:
        kd = min(J, B - 1)
        lag = np.arange(kd + 1.0)[:, None]
        col = np.arange(float(B))
        neg_f = -np.concatenate([[0.0], f_pos[:kd]])[:, None]
        P = np.asfortranarray(np.broadcast_to(a * neg_f, (kd + 1, B)))
        P[0] = 1.0
        Q = np.asfortranarray(neg_f * (a * col + (a + b) * lag))
        Q[0] = col
        band = np.empty_like(P)
    else:
        b_over_n = b / np.arange(1.0, n_max + B)

    # s[J + n] holds g_n / (exp(log_g0) * _RESCALE ** shifts[n]); the first J
    # slots are zero padding and the last block may run past n_max.  Integer
    # shift counts keep the log scale free of drift over many rescales.
    s = np.zeros(J + n_max + B)
    shifts = np.zeros(n_max + B, dtype=np.int64)
    s[J] = 1.0
    n_shifts = 0

    def rescale(n: int, vals: np.ndarray) -> None:
        # Rescale the new block and the window s[n : n + J] every later block
        # reads; older entries keep the shift recorded with them.  A finite
        # peak above _RESCALE lands in [1, _RESCALE) after one shift.
        nonlocal n_shifts
        s[n : n + J] /= _RESCALE
        vals /= _RESCALE
        n_shifts += 1
        shifts[max(0, n - J) : n] = n_shifts

    n = 1
    while n <= n_max:
        # A block whose values overflow before its rescale (near n = 0 each
        # step multiplies by about lambda / n) is recomputed at half width.
        w = B
        while True:
            with np.errstate(over="ignore", invalid="ignore"):
                if banded:
                    k = min(w, J)
                    t = s[idx[:k] + n] @ coef
                    rhs = np.zeros(w)
                    rhs[:k] = (n + col[:k]) * t[:, 0] + b * t[:, 1]
                    np.multiply(P[:, :w], n, out=band[:, :w])
                    band[:, :w] += Q[:, :w]
                    vals, info = dtbtrs(band[:, :w], rhs, uplo="L")
                    if info:
                        raise NumericalError(f"banded Panjer solve failed (LAPACK info {info})")
                else:
                    t = s[idx[:w] + n] @ coef
                    vals = t[:, 0] + b_over_n[n - 1 : n - 1 + w] * t[:, 1]
            if np.isfinite(vals).all():
                break
            if w == 1:
                raise NumericalError("Panjer recursion overflowed within one step")
            w //= 2
        if vals.max() > _RESCALE:
            rescale(n, vals)
        s[J + n : J + n + w] = vals
        shifts[n : n + w] = n_shifts
        n += w
    g = s[J : J + n_max + 1]
    log_g = np.full(n_max + 1, -np.inf)
    np.log(g, out=log_g, where=g > 0.0)
    pmf = np.exp(log_g + (log_g0 + shifts[: n_max + 1] * _LOG_RESCALE))
    mass = pmf.sum()
    if not np.isfinite(mass) or mass > 1.0 + 1e-9:
        raise NumericalError(f"Panjer recursion produced total mass {mass}")
    return LossDistribution(unit=unit, pmf=pmf, truncation_mass=max(0.0, 1.0 - mass))


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full linear convolution of two pmfs, through the FFT when both are long.

    The FFT's rounding error is about 1e-16 of the peak; negative noise is
    clipped to zero.
    """
    if min(x.size, y.size) < _FFT_MIN:
        return np.convolve(x, y)
    size = x.size + y.size - 1
    n = fft.next_fast_len(size, real=True)
    out = fft.irfft(fft.rfft(x, n) * fft.rfft(y, n), n)[:size]
    return np.clip(out, 0.0, None, out=out)


def convolve_sectors(
    sectors: list[LossDistribution], unit: float = 1.0, n_max: int | None = None
) -> LossDistribution:
    """Exact discrete convolution of independent sector distributions.

    Means and variances add; any truncated tail mass stays in the tail.
    The optional ``n_max`` re-truncates the result.
    """
    if not sectors:
        out = LossDistribution.point(0.0, unit=unit)
        return out if n_max is None else out.truncated(n_max)
    for d in sectors:
        if abs(d.unit - sectors[0].unit) > 1e-12 * sectors[0].unit:
            raise DataError("sector lattice units differ")
        if d.lower_mass != 0.0:
            raise DataError("convolve_sectors requires distributions without lower mass")
    # Convolve only the blocks that carry mass.  Entries below 1e-16 of the
    # peak are dropped into the tail mass; the total dropped is orders of
    # magnitude below the 1e-9 mass accounting guarantee.
    def trim(p: np.ndarray) -> tuple[int, np.ndarray]:
        if p.size < _FFT_MIN:
            return 0, p
        nz = np.flatnonzero(p > p.max() * 1e-16)
        if nz.size == 0:
            return 0, p[:1]
        return int(nz[0]), p[nz[0] : nz[-1] + 1]

    base, pmf = trim(sectors[0].pmf)
    offset = sectors[0].offset
    for d in sectors[1:]:
        lo, block = trim(d.pmf)
        pmf = _convolve(pmf, block)
        base += lo
        offset += d.offset
        if n_max is not None and base + pmf.size > n_max + 1:
            pmf = pmf[: max(n_max + 1 - base, 1)]
    length = base + pmf.size if n_max is None else max(n_max + 1, base + pmf.size)
    full = np.zeros(length)
    full[base : base + pmf.size] = pmf
    out = LossDistribution(
        unit=sectors[0].unit,
        pmf=full,
        truncation_mass=max(0.0, 1.0 - pmf.sum()),
        offset=offset,
    )
    return out if n_max is None else out.truncated(n_max)


def loss_from_annuity(total_survival_payments, s: LossDistribution) -> LossDistribution:
    """Distribution of the annuity loss L = sum_i X_i - S.

    With a deterministic payment total the law of S is reflected onto the
    lattice; quantile_p(L) = total - quantile_{1-p}(S).  A random total may
    be passed as a complete :class:`LossDistribution` (no tail masses),
    independent of S.
    """
    if isinstance(total_survival_payments, LossDistribution):
        x = total_survival_payments
        if x.truncation_mass != 0.0 or x.lower_mass != 0.0:
            raise DataError("random survival total must be complete (no truncated mass)")
        if abs(x.unit - s.unit) > 1e-12 * s.unit:
            raise DataError("lattice units differ between X and S")
        reflected = loss_from_annuity(0.0, s)
        pmf = _convolve(x.pmf, reflected.pmf)
        return LossDistribution(
            unit=s.unit,
            pmf=pmf,
            truncation_mass=reflected.truncation_mass,
            offset=x.offset + reflected.offset,
            lower_mass=reflected.lower_mass,
        )
    total = float(total_survival_payments)
    n_top = s.n_max
    return LossDistribution(
        unit=s.unit,
        pmf=s.pmf[::-1].copy(),
        truncation_mass=s.lower_mass,
        offset=total - s.offset - n_top * s.unit,
        lower_mass=s.truncation_mass,
    )


def quantile(dist: LossDistribution, p: float) -> float:
    """Smallest lattice value v with P(X <= v) >= p."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level must be in (0, 1)")
    if p <= dist.lower_mass:
        raise NumericalError(f"quantile {p} lies below the enumerated range")
    cdf = dist.cdf()
    if p > cdf[-1] + 1e-12:
        raise NumericalError(
            f"quantile {p} lies in the truncated tail (mass {dist.truncation_mass:.3g})"
        )
    idx = int(np.searchsorted(cdf, p - 1e-12, side="left"))
    idx = min(idx, dist.n_max)
    return float(dist.offset + dist.unit * idx)


def tv_distance(a: LossDistribution, b: LossDistribution) -> float:
    """Total variation distance: half the L1 distance between the pmfs.

    The lattices must be compatible (equal units, offsets differing by a
    whole number of lattice steps); tail masses enter the same way.
    """
    if abs(a.unit - b.unit) > 1e-12 * a.unit:
        raise DataError("lattice units differ")
    shift = (b.offset - a.offset) / a.unit
    k = round(shift)
    if abs(shift - k) > 1e-9:
        raise DataError("lattice offsets are incompatible")
    # Align b onto a's indexing.
    lo = min(0, k)
    hi = max(a.n_max, k + b.n_max)
    pa = np.zeros(hi - lo + 1)
    pb = np.zeros_like(pa)
    pa[-lo : -lo + a.pmf.size] = a.pmf
    pb[k - lo : k - lo + b.pmf.size] = b.pmf
    return float(
        0.5 * np.abs(pa - pb).sum()
        + 0.5 * abs(a.truncation_mass - b.truncation_mass)
        + 0.5 * abs(a.lower_mass - b.lower_mass)
    )


def model_moments(
    portfolio: Portfolio, rf: list[RiskFactorSpec], unit: float = 1.0
) -> tuple[float, float]:
    """Closed-form mean and variance of S in currency units.

    mean = sum_k mu_k E[Q_k]; var = sum_k (mu_k E[Q_k^2] +
    sigma_k^2 mu_k^2 E[Q_k]^2) with sigma_0^2 = 0.
    """
    sectors = build_sectors(portfolio, rf, unit)
    mean = sum(s.mean() for s in sectors) * unit
    var = sum(s.var() for s in sectors) * unit**2
    return mean, var


def aggregate_sectors(sectors: list[SectorCompound], n_max: int | None = None) -> LossDistribution:
    """Exact distribution of the sum of independent compound sectors.

    Each sector runs through :func:`panjer_compound` and the results are
    convolved.  The default lattice bound is the sum's mean plus ``N_SD``
    standard deviations, rounded up; a lattice of more than
    ``MAX_LATTICE_POINTS`` points is a :class:`DataError`.
    """
    return aggregate_sector_sets([sectors], n_max)[0]


def aggregate_sector_sets(
    laws: list[list[SectorCompound]], n_max: int | None = None
) -> list[LossDistribution]:
    """:func:`aggregate_sectors` for each list of sectors in ``laws``.

    A sector object that several laws hold runs through
    :func:`panjer_compound` once, at the longest of their lattices, and each
    law keeps the prefix on its own lattice.  The recursion never looks
    ahead, so that prefix is bit-identical to a run on the shorter lattice,
    provided both lattices cover the sector's largest payment index (the
    run then reads the same payments); laws share a run only then.
    """
    bounds = [_lattice_bound(sectors, n_max) for sectors in laws]

    def key(s: SectorCompound, n: int) -> tuple:
        return id(s), None if n >= s.severity.max_index else n

    # Laws in order of decreasing lattice: a sector's first run is its longest.
    runs: dict[tuple, LossDistribution] = {}
    for i in sorted(range(len(laws)), key=lambda i: -bounds[i]):
        for s in laws[i]:
            k = key(s, bounds[i])
            if k not in runs:
                runs[k] = panjer_compound(s, bounds[i])
    return [
        convolve_sectors([runs[key(s, n)].truncated(n) for s in sectors], n_max=n)
        for sectors, n in zip(laws, bounds)
    ]


def _lattice_bound(sectors: list[SectorCompound], n_max: int | None) -> int:
    """``n_max``, or the sum's mean plus ``N_SD`` standard deviations."""
    if n_max is None:
        mean = sum(s.mean() for s in sectors)
        var = sum(s.var() for s in sectors)
        n_max = mean + N_SD * math.sqrt(max(var, 0.0))
    if not math.isfinite(n_max) or math.ceil(n_max) + 1 > MAX_LATTICE_POINTS:
        raise DataError(
            f"the lattice needs {n_max + 1:,.0f} points at unit {sectors[0].severity.unit:g}, "
            f"more than the {MAX_LATTICE_POINTS:,} allowed; choose a larger unit"
        )
    return int(math.ceil(n_max))


def aggregate_loss(
    portfolio: Portfolio,
    rf: list[RiskFactorSpec],
    unit: float = 1.0,
    n_max: int | None = None,
) -> LossDistribution:
    """Exact distribution of S for a portfolio (see :func:`aggregate_sectors`)."""
    return aggregate_sectors(build_sectors(portfolio, rf, unit), n_max)


def mixture(dists: list[LossDistribution]) -> LossDistribution:
    """Equal-weight mixture of lattice laws with real-valued offsets.

    Components share the unit; each component's offset residual relative to
    the base lattice is stochastically rounded (mean preserved) onto the
    grid before averaging.
    """
    unit = dists[0].unit
    base = min(d.offset for d in dists)
    shifts = []
    top = 0
    for d in dists:
        x = (d.offset - base) / unit
        n = int(np.floor(x + 1e-12))
        f = x - n
        if f < 1e-12:
            f = 0.0
        shifts.append((n, f))
        top = max(top, n + d.pmf.size + 1)
    pmf = np.zeros(top)
    tail = 0.0
    for d, (n, f) in zip(dists, shifts):
        pmf[n : n + d.pmf.size] += (1.0 - f) * d.pmf
        if f:
            pmf[n + 1 : n + 1 + d.pmf.size] += f * d.pmf
        tail += d.truncation_mass
    m = len(dists)
    return LossDistribution(
        unit=unit, pmf=pmf / m, truncation_mass=tail / m, offset=base
    )
