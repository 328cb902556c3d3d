"""Parametric time trends for death probabilities and cause weights.

Death probabilities follow a Laplace link applied to an affine function of
a bounded arctan time transform plus an optional cohort effect:

    q_{a,g}(t) = F_Lap(alpha + beta * T(t) + kappa_z),

where F_Lap is the cumulative distribution function of the Laplace law
with mean zero and variance two, and T is the arctan transform normalised
so that T(t0) = 0 and T(t0 - 1) = -1.  Cause weights are a softmax of
u + v * T(t) with per-cause transform parameters (phi, psi).

The arctan transform saturates for large |t|, which keeps probabilities
and weights bounded no matter how far the family is extrapolated; eta
controls how fast the trend flattens and zeta where the flattening is
centred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "TrendParams",
    "laplace_cdf",
    "laplace_cdf_inv",
    "trend_time",
    "death_prob",
    "cause_weights",
]

GENDERS = ("f", "m")


def laplace_cdf(x):
    """CDF of the Laplace distribution with mean zero and variance two.

    F(x) = 1/2 + sign(x) * (1 - exp(-|x|)) / 2.  Accepts scalars or arrays.
    exp(-|x|) cannot overflow, and F saturates to 0 or 1 from |x| ~ 37 on.
    """
    x = np.asarray(x, dtype=float)
    # Scaling by 0.5 and setting the sign are exact.
    out = 0.5 + np.copysign(0.5 * np.expm1(-np.abs(x)), x)
    if np.ndim(out) == 0:
        return float(out)
    return out


def laplace_cdf_inv(p):
    """Exact inverse of :func:`laplace_cdf` on (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("laplace_cdf_inv requires 0 < p < 1")
    out = np.where(p_arr < 0.5, np.log(2.0 * p_arr), -np.log(2.0 * (1.0 - p_arr)))
    if out.ndim == 0:
        return float(out)
    return out


def trend_time(t, zeta: float, eta: float, t0: float):
    """Normalised arctan time transform.

    T*(t) = arctan(eta * (t - zeta)) / eta, normalised to
    T(t) = (T*(t) - T*(t0)) / (T*(t0) - T*(t0 - 1)) so that T(t0) = 0 and
    T(t0 - 1) = -1.  Strictly increasing and bounded in t; for eta -> 0 it
    degenerates to the linear trend t - t0.
    """
    if eta <= 0.0:
        raise ValueError("eta must be strictly positive")
    t = np.asarray(t, dtype=float)
    star = np.arctan(eta * (t - zeta)) / eta
    star0 = np.arctan(eta * (t0 - zeta)) / eta
    star0m1 = np.arctan(eta * (t0 - 1.0 - zeta)) / eta
    out = (star - star0) / (star0 - star0m1)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TrendParams:
    """Trend-family parameters on an age-group x gender grid.

    Cell parameters are arrays of shape (A, 2) with gender axis ordered
    (f, m); weight parameters u, v have shape (A, 2, K+1) with cause 0 the
    idiosyncratic bucket; phi, psi have shape (K+1,).  ``kappa`` maps birth
    years to cohort shifts (missing years mean zero).  ``age_lower_bounds``
    gives the lower age of each group so ages can be resolved to cells;
    ``age_midpoints`` fixes the birth-year convention z = t - midpoint(a).
    """

    alpha: np.ndarray
    beta: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    t0: float
    kappa: dict = field(default_factory=dict)
    age_lower_bounds: np.ndarray | None = None
    age_midpoints: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        A = alpha.shape[0]
        object.__setattr__(self, "alpha", alpha)
        for name in ("beta", "zeta", "eta"):
            arr = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float), (A, 2)
            ).copy()
            object.__setattr__(self, name, arr)
        u = np.asarray(self.u, dtype=float)
        if u.ndim == 1:
            u = np.broadcast_to(u, (A, 2, u.shape[-1])).copy()
        object.__setattr__(self, "u", u)
        v = np.broadcast_to(np.asarray(self.v, dtype=float), u.shape).copy()
        object.__setattr__(self, "v", v)
        K1 = u.shape[-1]
        phi = np.broadcast_to(np.asarray(self.phi, dtype=float), (K1,)).copy()
        psi = np.broadcast_to(np.asarray(self.psi, dtype=float), (K1,)).copy()
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)
        if np.any(self.eta <= 0.0) or np.any(psi <= 0.0):
            raise ValueError("eta and psi must be strictly positive")
        if self.age_lower_bounds is not None:
            object.__setattr__(
                self, "age_lower_bounds", np.asarray(self.age_lower_bounds, dtype=float)
            )
        if self.age_midpoints is None and self.age_lower_bounds is not None:
            lb = self.age_lower_bounds
            mids = np.empty_like(lb)
            mids[:-1] = 0.5 * (lb[:-1] + lb[1:])
            mids[-1] = lb[-1] + 2.5
            object.__setattr__(self, "age_midpoints", mids)
        elif self.age_midpoints is not None:
            object.__setattr__(
                self, "age_midpoints", np.asarray(self.age_midpoints, dtype=float)
            )

    @property
    def n_age_groups(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_causes(self) -> int:
        """Number of cause buckets including the idiosyncratic one (K+1)."""
        return self.u.shape[-1]

    def gender_index(self, g) -> int:
        if g in (0, 1):
            return int(g)
        try:
            return GENDERS.index(g)
        except ValueError:
            raise DataError(f"unknown gender {g!r}; expected 'f' or 'm'") from None

    def age_group_of(self, age: float) -> int:
        """Index of the age group containing ``age`` (last group is open)."""
        if self.age_lower_bounds is None:
            raise DataError("TrendParams has no age_lower_bounds; cannot map ages")
        idx = int(np.searchsorted(self.age_lower_bounds, age, side="right")) - 1
        if idx < 0:
            raise DataError(f"age {age} below the first age group")
        return min(idx, self.n_age_groups - 1)

    def birth_year(self, a: int, t: float) -> int:
        mid = 0.0 if self.age_midpoints is None else float(self.age_midpoints[a])
        return int(round(t - mid))

    def kappa_for(self, a: int, t: float) -> float:
        return float(self.kappa.get(self.birth_year(a, t), 0.0))


def _check_cell(params: TrendParams, a: int, g: int):
    if not 0 <= a < params.n_age_groups:
        raise DataError(f"age group index {a} outside 0..{params.n_age_groups - 1}")


# Death probabilities stay strictly inside (0, 1) even when the link
# saturates, so downstream logs of q and 1-q remain finite.
_Q_FLOOR = 1e-300
_Q_CEIL = 1.0 - 1e-16


def death_prob(a: int, g, t, params: TrendParams) -> float:
    """One-period death probability q_{a,g}(t) from the trend family."""
    gi = params.gender_index(g)
    _check_cell(params, a, gi)
    trend = trend_time(t, params.zeta[a, gi], params.eta[a, gi], params.t0)
    arg = params.alpha[a, gi] + params.beta[a, gi] * trend + params.kappa_for(a, t)
    return float(min(max(laplace_cdf(arg), _Q_FLOOR), _Q_CEIL))


def cause_weights(a: int, g, t, params: TrendParams) -> np.ndarray:
    """Cause weight vector (w_0, ..., w_K) for cell (a, g) at year t.

    Softmax of u + v * T_{phi,psi}(t); strictly positive, sums to one.
    """
    gi = params.gender_index(g)
    _check_cell(params, a, gi)
    trends = np.array(
        [trend_time(t, params.phi[k], params.psi[k], params.t0) for k in range(params.n_causes)]
    )
    scores = params.u[a, gi, :] + params.v[a, gi, :] * trends
    scores -= scores.max()
    w = np.exp(scores)
    return w / w.sum()


def _trend_grid(years, zeta, eta, t0) -> np.ndarray:
    """:func:`trend_time` at every year for arrays of (zeta, eta), with the
    same operations; shape (T, *zeta.shape)."""
    t = years.reshape((-1,) + (1,) * np.ndim(zeta))
    star = np.arctan(eta * (t - zeta)) / eta
    star0 = np.arctan(eta * (t0 - zeta)) / eta
    star0m1 = np.arctan(eta * (t0 - 1.0 - zeta)) / eta
    return (star - star0) / (star0 - star0m1)


def _q_from_trend(trend, alpha, beta, kappa_grid=None) -> np.ndarray:
    """Death probabilities from the (T, A, 2) grid of ``_trend_grid``."""
    arg = alpha + beta * trend
    if kappa_grid is not None:
        arg = arg + kappa_grid[:, :, None]
    return np.minimum(np.maximum(laplace_cdf(arg), _Q_FLOOR), _Q_CEIL)


def _w_from_trend(trend, u, v) -> np.ndarray:
    """Cause weights from the (T, K+1) grid of ``_trend_grid``: a softmax
    over the causes taken one cause slice at a time, since numpy reduces
    and broadcasts over a short last axis several times slower."""
    K1 = u.shape[-1]
    scores = u + v * trend[:, None, None, :]
    top = scores[..., 0].copy()
    for k in range(1, K1):
        np.maximum(top, scores[..., k], out=top)
    w = np.exp(scores - top[..., None])
    total = w[..., 0].copy()
    for k in range(1, K1):
        total += w[..., k]
    for k in range(K1):
        w[..., k] /= total
    return w


def _kappa_grid(years: np.ndarray, kappa: dict, age_midpoints, n_age_groups: int):
    """Cohort shifts kappa_z, z = round(t - midpoint(a)), as a (T, A) grid
    (missing birth years mean zero); None when ``kappa`` is empty."""
    if not kappa:
        return None
    grid = np.zeros((years.size, n_age_groups))
    for ti, t in enumerate(years):
        for a in range(n_age_groups):
            mid = 0.0 if age_midpoints is None else float(age_midpoints[a])
            grid[ti, a] = kappa.get(int(round(t - mid)), 0.0)
    return grid


def death_prob_grid(years, params: TrendParams) -> np.ndarray:
    """q_{a,g}(t) for all cells at once; shape (T, A, 2)."""
    years = np.asarray(years, dtype=float)
    kap = _kappa_grid(years, params.kappa, params.age_midpoints, params.n_age_groups)
    trend = _trend_grid(years, params.zeta, params.eta, params.t0)
    return _q_from_trend(trend, params.alpha, params.beta, kap)


def cause_weights_grid(years, params: TrendParams) -> np.ndarray:
    """w_{a,g,k}(t) for all cells at once; shape (T, A, 2, K+1)."""
    years = np.asarray(years, dtype=float)
    trend = _trend_grid(years, params.phi, params.psi, params.t0)
    return _w_from_trend(trend, params.u, params.v)
