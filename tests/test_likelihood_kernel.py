"""The piecewise likelihood kernel against the textbook formula, and the
pieces the sampler carries against fresh evaluations of the same state."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecrplus.estimation import (
    McmcConfig,
    ParamVector,
    PriorSpec,
    _blocks_for,
    _block_view,
    _loglik_kernel,
    _set_block,
    log_likelihood,
    log_likelihood_inflated,
    mcmc_sample,
)

from conftest import realistic_trends, reference_log_likelihood, simulate_panel

POSITIVE = {"eta", "psi", "sigma2"}


def _panel(seed, A, K, T, exposure=20_000, kappa=False):
    """A simulated panel with random exposures and the parameters behind it."""
    rng = np.random.default_rng(seed)
    tr = realistic_trends(rng, A=A, K=K)
    if kappa:
        births = {tr.birth_year(a, t) for a in range(A) for t in range(1987, 1987 + T)}
        tr = replace(tr, kappa={z: rng.normal(0, 0.05) for z in sorted(births)})
    sigma2 = rng.uniform(0.02, 0.3, K)
    m = rng.integers(exposure // 10, exposure, (T, A, 2))
    panel, _ = simulate_panel(rng, tr, sigma2, np.arange(1987, 1987 + T), m)
    return panel, ParamVector(trends=tr, sigma2=sigma2)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("K", [0, 1, 3])
def test_log_likelihood_matches_reference(seed, K):
    panel, pv = _panel(seed, A=4, K=K, T=10, kappa=seed % 2 == 1)
    ref = reference_log_likelihood(panel, pv)
    assert log_likelihood(panel, pv) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("K", [0, 1, 3])
def test_inflated_log_likelihood_matches_reference(seed, K):
    panel, pv = _panel(seed, A=4, K=K, T=10)
    rng = np.random.default_rng(100 + seed)
    sigma2_t = pv.sigma2[None, :] * rng.uniform(0.5, 3.0, (panel.n_years, K))
    ref = reference_log_likelihood(panel, pv, sigma2_t)
    assert log_likelihood_inflated(panel, pv, sigma2_t) == pytest.approx(ref, rel=1e-12)


def test_large_counts_match_reference():
    # 10^5 heads per cell: the log terms are ~10^7 before they cancel.
    panel, pv = _panel(7, A=8, K=3, T=25, exposure=100_000)
    ref = reference_log_likelihood(panel, pv)
    assert log_likelihood(panel, pv) == pytest.approx(ref, rel=1e-12)


def _underflow_params(pv):
    """``pv`` with the idiosyncratic weight of one cell an exact zero."""
    u = pv.trends.u.copy()
    u[0, 0, 0] = -800.0  # exp(-800) underflows to 0
    return ParamVector(trends=replace(pv.trends, u=u), sigma2=pv.sigma2)


def test_weight_underflow_with_deaths_is_minus_inf():
    panel, pv = _panel(3, A=2, K=1, T=4)
    assert panel.deaths[:, 0, 0, 0].sum() > 0
    bad = _underflow_params(pv)
    assert reference_log_likelihood(panel, bad) == -np.inf
    assert log_likelihood(panel, bad) == -np.inf

    # The same through carried pieces: the -inf proposal, rejected, leaves
    # the current pieces valid for the next one.
    loglik = _loglik_kernel(panel, pv, "poisson")
    ll, pieces = loglik(pv.to_state())
    assert loglik(bad.to_state(), pieces, "u")[0] == -np.inf
    moved = pv.to_state()
    moved["alpha"] = moved["alpha"] + 0.01
    assert loglik(moved, pieces, "alpha")[0] == loglik(moved)[0]


def test_weight_underflow_without_deaths_is_finite():
    panel, pv = _panel(3, A=2, K=1, T=4)
    deaths = panel.deaths.copy()
    deaths[:, 0, 0, 0] = 0
    panel = type(panel)(years=panel.years, deaths=deaths, exposure=panel.exposure)
    bad = _underflow_params(pv)
    ll = log_likelihood(panel, bad)
    assert np.isfinite(ll)
    assert ll == pytest.approx(reference_log_likelihood(panel, bad), rel=1e-12)


def _move(rng, state, family, gi, scale):
    """``state`` with one Gibbs block moved, positive families multiplicatively."""
    flat = _block_view(state, family, gi)
    step = scale * rng.standard_normal(flat.size)
    prop = flat * np.exp(step) if family in POSITIVE else flat + step
    new = dict(state)
    _set_block(new, family, gi, prop)
    return new


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    K=st.integers(0, 2),
    all_free=st.booleans(),
    moves=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from([1e-3, 1e-2, 0.1, 1.0]), st.booleans()),
        min_size=1,
        max_size=25,
    ),
)
def test_carried_pieces_equal_fresh_evaluation(seed, K, all_free, moves):
    panel, pv = _panel(seed, A=2, K=K, T=5, exposure=5_000, kappa=all_free)
    if all_free:
        pv = ParamVector(trends=pv.trends, sigma2=pv.sigma2, fixed=frozenset())
    loglik = _loglik_kernel(panel, pv, "poisson")
    blocks = _blocks_for(pv)
    rng = np.random.default_rng(seed)
    state = pv.to_state()
    ll, pieces = loglik(state)
    for pick, scale, accept in moves:
        family, gi = blocks[pick % len(blocks)]
        cand = _move(rng, state, family, gi, scale)
        cand_ll, cand_pieces = loglik(cand, pieces, family)
        fresh = loglik(cand)[0]
        assert np.float64(cand_ll).tobytes() == np.float64(fresh).tobytes()
        if accept:
            state, ll, pieces = cand, cand_ll, cand_pieces
    assert np.float64(loglik(state, pieces, None)[0]).tobytes() == np.float64(ll).tobytes()


def test_resume_with_weights_and_variances_free_is_bit_exact(tmp_path):
    panel, pv = _panel(11, A=2, K=2, T=6)
    init = ParamVector(
        trends=pv.trends, sigma2=pv.sigma2,
        fixed=frozenset({"alpha", "beta", "zeta", "eta", "kappa", "phi", "psi"}),
    )
    full, part = str(tmp_path / "full.csv"), str(tmp_path / "part.csv")

    def cfg(path):
        return McmcConfig(n_steps=150, burn_in=40, seed=4, record_path=path,
                          proposal_scales={"u": 0.05, "v": 0.02, "sigma2": 0.5})

    mcmc_sample(panel, init, PriorSpec(), cfg(full))
    lines = open(full).readlines()
    columns = lines[1].strip().split(",")
    s2_cols = [j for j, c in enumerate(columns) if c.startswith("sigma2")]
    u_cols = [j for j, c in enumerate(columns) if c.startswith("u.")]
    records = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    # Cut after a record whose sigma2 proposal was rejected while its u
    # proposals moved the state: the carried w piece is newer than the
    # sigma2 piece there.
    cuts = [
        i for i in range(20, len(records) - 20)
        if np.array_equal(records[i, s2_cols], records[i - 1, s2_cols])
        and not np.array_equal(records[i, u_cols], records[i - 1, u_cols])
    ]
    assert cuts
    open(part, "w").writelines(lines[: 2 + cuts[0] + 1])
    mcmc_sample(panel, init, PriorSpec(), cfg(part), resume=True)
    assert open(part, "rb").read() == open(full, "rb").read()
