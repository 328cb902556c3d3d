"""Reference computations for the benchmark's output checks.

Everything here is written from the model's definitions, not from
ecrplus, so that a check compares the program against a second
implementation: the Laplace/arctan/softmax trend link, the gamma-mixed
Poisson likelihood, closed-form compound moments, the aggregate law as
one FFT of the product of sector probability generating functions, the
term-life best-estimate liability, the compound-Poisson own-funds mixture
and scipy count mixtures for forecast cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

TERMINAL_AGE = 121


# ---------------------------------------------------------------------------
# Trend link
# ---------------------------------------------------------------------------


def arctan_time(t, zeta: float, eta: float, t0: float):
    """T(t) = (g(t) - g(t0)) / (g(t0) - g(t0 - 1)), g(t) = atan(eta (t - zeta)) / eta."""

    def g(x):
        return np.arctan(eta * (np.asarray(x, dtype=float) - zeta)) / eta

    return (g(t) - g(t0)) / (g(t0) - g(t0 - 1.0))


def laplace_cdf(x):
    """CDF of the Laplace law with mean 0 and variance 2."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))


@dataclass
class Model:
    """Trend-family parameters with one zeta/eta for every cell and one
    phi/psi for every cause, as the workloads' configs fix them."""

    alpha: np.ndarray  # (A, 2)
    beta: np.ndarray  # (A, 2)
    u: np.ndarray  # (A, 2, K+1)
    v: np.ndarray  # (A, 2, K+1)
    sigma2: np.ndarray  # (K,)
    t0: float
    age_lower_bounds: np.ndarray
    eta: float = 1.0 / 150.0
    zeta: float = 0.0
    psi: float = 1.0 / 150.0
    phi: float = 0.0

    @property
    def n_ages(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_causes(self) -> int:
        return self.u.shape[2]

    def q(self, years) -> np.ndarray:
        """Death probabilities, shape (T, A, 2)."""
        tt = arctan_time(np.atleast_1d(years), self.zeta, self.eta, self.t0)
        return laplace_cdf(self.alpha[None] + self.beta[None] * tt[:, None, None])

    def w(self, years) -> np.ndarray:
        """Cause weights, shape (T, A, 2, K+1)."""
        tt = arctan_time(np.atleast_1d(years), self.phi, self.psi, self.t0)
        s = self.u[None] + self.v[None] * tt[:, None, None, None]
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def age_group(self, age: float) -> int:
        idx = int(np.searchsorted(self.age_lower_bounds, age, side="right")) - 1
        if idx < 0:
            raise ValueError(f"age {age} below the first age group")
        return min(idx, self.n_ages - 1)

    def q_age(self, age: int, gi: int, year: float) -> float:
        if age >= TERMINAL_AGE:
            return 1.0
        a = self.age_group(age)
        x = self.alpha[a, gi] + self.beta[a, gi] * float(arctan_time(year, self.zeta, self.eta, self.t0))
        return 0.5 * math.exp(x) if x < 0.0 else 1.0 - 0.5 * math.exp(-x)

    def with_flat(self, names: list[str], values: np.ndarray) -> "Model":
        """Copy with the free blocks replaced from one chain record."""
        out = Model(
            alpha=self.alpha.copy(), beta=self.beta.copy(), u=self.u.copy(), v=self.v.copy(),
            sigma2=self.sigma2.copy(), t0=self.t0, age_lower_bounds=self.age_lower_bounds,
            eta=self.eta, zeta=self.zeta, psi=self.psi, phi=self.phi,
        )
        for name, x in zip(names, values):
            family, idx = parse_name(name, self.n_causes)
            getattr(out, family)[idx] = x
        return out


def parse_name(name: str, K1: int) -> tuple[str, tuple]:
    """'alpha.f[3]' -> ('alpha', (3, 0)); 'u.m[9]' -> ('u', (9 // K1, 1, 9 % K1));
    'sigma2[1]' -> ('sigma2', (1,))."""
    tag, rest = name.split("[")
    i = int(rest.rstrip("]"))
    if "." not in tag:
        return tag, (i,)
    family, g = tag.split(".")
    gi = "fm".index(g)
    if family in ("u", "v"):
        return family, (i // K1, gi, i % K1)
    return family, (i, gi)


def flat_names(A: int, K1: int) -> list[str]:
    """Chain column names of the CLI's default free blocks, in Gibbs order."""
    names = []
    for family in ("alpha", "beta", "u", "v"):
        size = A * K1 if family in ("u", "v") else A
        for g in "fm":
            names += [f"{family}.{g}[{i}]" for i in range(size)]
    names += [f"sigma2[{i}]" for i in range(K1 - 1)]
    return names


def flat_values(m: Model) -> np.ndarray:
    parts = []
    for family in ("alpha", "beta", "u", "v"):
        arr = getattr(m, family)
        for gi in range(2):
            parts.append(arr[:, gi].reshape(-1))
    parts.append(m.sigma2)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Likelihood and panel simulation
# ---------------------------------------------------------------------------


def log_likelihood(deaths: np.ndarray, exposure: np.ndarray, m: Model, years) -> float:
    """Gamma-mixed Poisson log-likelihood of a (T, A, 2, K+1) panel.

    Cause 0 cells are independent Poisson(rho); for each year and cause
    k >= 1 the cells share one Gamma(1/s2, s2) factor, which integrates to
    prod(rho^n / n!) * G(N + a) / (G(a) s2^a (R + a)^(N + a)), a = 1/s2.
    """
    rho = exposure[..., None] * m.q(years)[..., None] * m.w(years)
    n = deaths.astype(float)
    ll = float(np.sum(n * np.log(rho) - special.gammaln(n + 1.0)))
    ll -= float(rho[..., 0].sum())
    N = n[..., 1:].sum(axis=(1, 2))
    R = rho[..., 1:].sum(axis=(1, 2))
    a = 1.0 / m.sigma2
    ll += float(np.sum(special.gammaln(N + a) - special.gammaln(a) - a * np.log(m.sigma2)
                       - (N + a) * np.log(R + a)))
    return ll


def simulate_panel(rng, m: Model, years, exposure: np.ndarray) -> np.ndarray:
    """Deaths (T, A, 2, K+1) drawn from the model; exposure is (T, A, 2)."""
    rho = exposure[..., None] * m.q(years)[..., None] * m.w(years)
    lam = np.ones((len(years), m.n_causes))
    lam[:, 1:] = rng.gamma(1.0 / m.sigma2, m.sigma2, size=(len(years), m.n_causes - 1))
    return rng.poisson(rho * lam[:, None, None, :])


# ---------------------------------------------------------------------------
# Lattice severities, compound moments and the PGF-FFT aggregate
# ---------------------------------------------------------------------------


def lattice_split(y: float, unit: float) -> tuple[int, float]:
    """Mean-preserving two-point split of a payment: (n, f) puts 1-f at n, f at n+1."""
    x = y / unit
    n = math.floor(x)
    return n, x - n


@dataclass
class Sector:
    """One compound sector: severity pmf on the lattice plus its count law.

    kind is 'poisson' (param mu) or 'negbin' (params r, p with
    P(N=n) = C(n+r-1, n) p^r (1-p)^n)."""

    sev: np.ndarray
    kind: str
    mu: float
    r: float = 0.0
    p: float = 1.0

    def moments(self) -> tuple[float, float]:
        j = np.arange(self.sev.size)
        e1 = float(j @ self.sev)
        e2 = float((j * j) @ self.sev)
        if self.kind == "poisson":
            return self.mu * e1, self.mu * e2
        mean_n = self.r * (1.0 - self.p) / self.p
        var_n = self.r * (1.0 - self.p) / self.p**2
        return mean_n * e1, mean_n * (e2 - e1 * e1) + var_n * e1 * e1


def book_sectors(mult, payments, q, w, sigma2, unit: float, pinned: dict | None = None) -> list[Sector]:
    """Sectors of a book of cells: counts mult, payments, q (n,), w (n, K+1).

    A pinned cause k (factor fixed at lambda) becomes Poisson(mu_k lambda).
    """
    pinned = pinned or {}
    splits = [lattice_split(y, unit) for y in payments]
    top = max(n for n, _ in splits) + 2
    out = []
    for k in range(w.shape[1]):
        inten = mult * q * w[:, k]
        sev = np.zeros(top)
        for (n, f), x in zip(splits, inten):
            sev[n] += x * (1.0 - f)
            sev[n + 1] += x * f
        mu = float(inten.sum())
        sev /= mu
        if k == 0:
            out.append(Sector(sev, "poisson", mu))
        elif k in pinned:
            out.append(Sector(sev, "poisson", mu * pinned[k]))
        else:
            s2 = float(sigma2[k - 1])
            out.append(Sector(sev, "negbin", mu, r=1.0 / s2, p=1.0 / (1.0 + s2 * mu)))
    return out


def pgf_fft_pmf(sectors: list[Sector], length: int) -> np.ndarray:
    """Aggregate pmf on 0..length-1 as the inverse FFT of prod_k PGF_k(F_k).

    Poisson: exp(mu (F - 1)); negative binomial: (p / (1 - (1 - p) F))^r.
    The transform has at least four times the requested length, so the
    wrapped-around tail mass is negligible next to the checks' bounds.
    """
    n_fft = 1 << max(4 * length, max(s.sev.size for s in sectors) + 1).bit_length()
    log_g = np.zeros(n_fft, dtype=complex)
    for s in sectors:
        f_hat = np.fft.fft(s.sev, n_fft)
        if s.kind == "poisson":
            log_g += s.mu * (f_hat - 1.0)
        else:
            log_g += s.r * (np.log(s.p) - np.log(1.0 - (1.0 - s.p) * f_hat))
    pmf = np.fft.ifft(np.exp(log_g)).real[:length]
    return np.clip(pmf, 0.0, None)


def lattice_quantile(cdf: np.ndarray, p: float) -> int:
    """Smallest index whose cdf reaches p (within 1e-12)."""
    return int(np.searchsorted(cdf, p - 1e-12, side="left"))


def quantile_agrees(ref_cdf: np.ndarray, idx: int, p: float, tol: float) -> bool:
    """True when idx is the p-quantile of ref_cdf up to a cdf error of tol:
    the cdf reaches p - tol at idx and stays below p + tol one step before."""
    if not 0 <= idx < ref_cdf.size:
        return False
    below = ref_cdf[idx - 1] if idx > 0 else 0.0
    return ref_cdf[idx] >= p - tol and below < p + tol


# ---------------------------------------------------------------------------
# Term life and the own-funds mixture
# ---------------------------------------------------------------------------


def term_life_bel(m: Model, age: int, gi: int, year: int, term: int, rate: float) -> float:
    """Unit term-life best-estimate liability.

    sum_{t=0..term} D(t+1) * tp * q(age+t, year+t), with flat discounting
    D(t) = (1 + rate)^-t and q = 1 from age 121 on.
    """
    value, surv = 0.0, 1.0
    for t in range(term + 1):
        qt = m.q_age(age + t, gi, year + t)
        value += (1.0 + rate) ** -(t + 1) * surv * qt
        surv *= 1.0 - qt
        if surv == 0.0:
            break
    return value


def delta_bof_reference(policies, samples: list[Model], mean_model: Model, asset_value: float,
                        coupon: float, rate: float, base_year: int, unit: float, n_sd: float = 12.0):
    """Own-funds decline law mixed over posterior samples.

    Returns (pmf, offset, mean): pmf on offset + unit * n, and the exact
    mean of the untruncated mixture.  Each sample contributes a compound
    Poisson of death benefits net of released reserves (computed by FFT),
    enumerated up to its mean + n_sd standard deviations as the engine's
    lattice is, and shifted by its deterministic revaluation; shifts are
    split between the two neighbouring lattice points so that the mixture
    keeps the mean.
    """
    d1 = 1.0 / (1.0 + rate)
    bel0 = [term_life_bel(mean_model, p[0], p[1], base_year, p[3], rate) for p in policies]
    det_base = asset_value * (1.0 - d1 * (1.0 + coupon)) - sum(p[2] * b for p, b in zip(policies, bel0))
    comps = []
    mean = 0.0
    for s in samples:
        bel1 = [term_life_bel(s, p[0] + 1, p[1], base_year + 1, p[3] - 1, rate) for p in policies]
        lam = np.array([s.q_age(p[0], p[1], base_year) for p in policies])
        atoms = np.array([d1 * p[2] * (1.0 - b) for p, b in zip(policies, bel1)])
        det = det_base + d1 * sum(p[2] * b for p, b in zip(policies, bel1))
        lam_tot = float(lam.sum())
        top = int(atoms.max() / unit) + 2
        sev = np.zeros(top)
        for y, li in zip(atoms, lam):
            n, f = lattice_split(y, unit)
            sev[n] += li / lam_tot * (1.0 - f)
            sev[n + 1] += li / lam_tot * f
        j = np.arange(top)
        e1, e2 = float(j @ sev), float((j * j) @ sev)
        n_max = math.ceil(lam_tot * e1 + n_sd * math.sqrt(lam_tot * e2))
        comps.append((pgf_fft_pmf([Sector(sev, "poisson", lam_tot)], n_max + 1), det))
        mean += det + float(lam @ atoms)
    base = min(det for _, det in comps)
    size = max(int((det - base) / unit) + pmf.size + 2 for pmf, det in comps)
    mix = np.zeros(size)
    for pmf, det in comps:
        x = (det - base) / unit
        n = int(math.floor(x + 1e-12))
        f = x - n
        if f < 1e-12:
            f = 0.0
        mix[n : n + pmf.size] += (1.0 - f) * pmf
        mix[n + 1 : n + 1 + pmf.size] += f * pmf
    return mix / len(comps), base, mean / len(comps)


# ---------------------------------------------------------------------------
# Forecast count mixtures and life expectancy
# ---------------------------------------------------------------------------


def forecast_count_pmf(m: Model, a: int, gi: int, year: int, exposure: int,
                       years_ahead: int, d: float) -> np.ndarray:
    """Death-count law of one cell: Poisson idiosyncratic part convolved
    with one negative binomial per cause, variances inflated by (1 + d h)^2."""
    q = float(m.q(year)[0, a, gi])
    w = m.w(year)[0, a, gi]
    s2 = m.sigma2 * (1.0 + d * years_ahead) ** 2
    means = exposure * q * w
    var = means[0] + float(np.sum(means[1:] + s2 * means[1:] ** 2))
    n = np.arange(int(means.sum() + 30.0 * math.sqrt(var)) + 30)
    pmf = stats.poisson.pmf(n, means[0])
    for k in range(1, w.size):
        r = 1.0 / s2[k - 1]
        pmf = np.convolve(pmf, stats.nbinom.pmf(n, r, r / (r + means[k])))[: n.size]
    return pmf


def life_expectancy(m: Model, age: int, gi: int, year: int) -> float:
    """Curtate expectation sum_{k>=1} kp, walking age and calendar year together."""
    e, surv, j = 0.0, 1.0, 0
    while surv > 0.0:
        surv *= 1.0 - m.q_age(age + j, gi, year + j)
        e += surv
        j += 1
    return e
