import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecrplus.errors import NumericalError
from ecrplus.estimation import (
    BlockPrior,
    McmcConfig,
    ParamVector,
    PriorSpec,
    cv_prior_scale,
    information_criteria,
    load_chain,
    log_likelihood,
    log_likelihood_bernoulli,
    log_prior,
    mcmc_sample,
    metropolis_accept,
    mom_fit,
)
from ecrplus.trends import TrendParams

from conftest import flat_trends, realistic_trends, simulate_panel


def _k0_panel(rng, alpha=-2.0, m=200_000, T=8):
    tr = flat_trends(A=1, K=0, alpha=alpha)
    years = np.arange(2000, 2000 + T)
    panel, _ = simulate_panel(rng, tr, np.zeros(0), years, m)
    return panel, tr


class TestSamplerMechanics:
    def test_zero_scale_keeps_chain_at_init(self, rng):
        panel, tr = _k0_panel(rng, T=3, m=1000)
        init = ParamVector(
            trends=tr, sigma2=np.zeros(0),
            fixed=frozenset({"zeta", "eta", "kappa", "phi", "psi", "u", "v", "beta"}),
        )
        cfg = McmcConfig(n_steps=50, burn_in=10, seed=1, adapt=False,
                         proposal_scales={"alpha": 0.0})
        chain = mcmc_sample(panel, init, PriorSpec(), cfg)
        assert np.all(chain.samples == chain.samples[0])
        np.testing.assert_array_equal(chain.samples[0], tr.alpha.T.reshape(-1)[[0, 1]])

    def test_detailed_balance_on_two_state_target(self):
        # Symmetric flip proposals on {0, 1} with target (0.3, 0.7): the
        # empirical frequencies must match the target within 1%.
        target = np.array([0.3, 0.7])
        rng = np.random.default_rng(42)
        state = 0
        visits = np.zeros(2)
        for _ in range(200_000):
            prop = 1 - state
            if metropolis_accept(rng, np.log(target[prop]) - np.log(target[state])):
                state = prop
            visits[state] += 1
        freq = visits / visits.sum()
        assert abs(freq[1] - 0.7) < 0.01

    def test_determinism(self, rng):
        panel, tr = _k0_panel(rng, T=4, m=5000)
        init = ParamVector(trends=tr, sigma2=np.zeros(0))
        cfg = McmcConfig(n_steps=80, burn_in=20, seed=5, proposal_scales={"alpha": 0.01})
        a = mcmc_sample(panel, init, PriorSpec(), cfg)
        b = mcmc_sample(panel, init, PriorSpec(), cfg)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_resume_is_bit_exact(self, rng, tmp_path):
        panel, tr = _k0_panel(rng, T=4, m=5000)
        init = ParamVector(trends=tr, sigma2=np.zeros(0))
        full = str(tmp_path / "full.csv")
        part = str(tmp_path / "part.csv")
        cfg_full = McmcConfig(n_steps=100, burn_in=30, seed=9, record_path=full)
        mcmc_sample(panel, init, PriorSpec(), cfg_full)
        lines = open(full).readlines()
        open(part, "w").writelines(lines[: 2 + 25])
        cfg_part = McmcConfig(n_steps=100, burn_in=30, seed=9, record_path=part)
        mcmc_sample(panel, init, PriorSpec(), cfg_part, resume=True)
        assert open(part).read() == open(full).read()

    def test_record_file_holds_post_burn_in_records(self, rng, tmp_path):
        panel, tr = _k0_panel(rng, T=4, m=5000)
        init = ParamVector(trends=tr, sigma2=np.zeros(0))
        path = str(tmp_path / "chain.csv")
        cfg = McmcConfig(n_steps=120, burn_in=40, seed=2, record_path=path)
        mcmc_sample(panel, init, PriorSpec(), cfg)
        records = [l for l in open(path).readlines()[2:] if l.strip()]
        assert len(records) == 80
        loaded = load_chain(path, template=init)
        assert len(loaded) == 80

    @pytest.mark.parametrize("likelihood", ["poisson", "bernoulli"])
    def test_recorded_log_posterior_matches_public_functions(self, rng, likelihood):
        if likelihood == "poisson":
            tr = realistic_trends(rng, A=3, K=2)
            panel, _ = simulate_panel(rng, tr, [0.1, 0.2], np.arange(1987, 1995), 20_000)
            init = ParamVector(trends=tr, sigma2=np.array([0.1, 0.2]))
            loglik = log_likelihood
        else:
            panel, tr = _k0_panel(rng, T=5, m=5000)
            init = ParamVector(trends=tr, sigma2=np.zeros(0))
            loglik = log_likelihood_bernoulli
        prior = PriorSpec({"alpha": BlockPrior(c=5.0, epsilon=0.01, order=2)})
        cfg = McmcConfig(n_steps=40, burn_in=10, seed=3, likelihood=likelihood,
                         proposal_scales=dict.fromkeys(("alpha", "beta", "u", "v", "sigma2"), 0.002))
        chain = mcmc_sample(panel, init, prior, cfg)
        for i in (0, len(chain) // 2, len(chain) - 1):
            pv = chain.param_vector(i)
            expected = loglik(panel, pv) + log_prior(pv, prior)
            assert chain.log_posterior[i] == pytest.approx(expected, rel=1e-12)

    def test_bad_init_rejected(self, rng):
        panel, tr = _k0_panel(rng, T=3, m=1000)
        bad = TrendParams(
            alpha=np.full((1, 2), np.nan), beta=tr.beta, zeta=tr.zeta, eta=tr.eta,
            u=tr.u, v=tr.v, phi=tr.phi, psi=tr.psi, t0=tr.t0,
        )
        init = ParamVector(trends=bad, sigma2=np.zeros(0))
        cfg = McmcConfig(n_steps=10, burn_in=2, seed=1)
        with pytest.raises((NumericalError, ValueError)):
            mcmc_sample(panel, init, PriorSpec(), cfg)


class TestSamplerInference:
    def test_posterior_concentrates_on_truth(self, rng):
        truth = -2.0
        panel, tr = _k0_panel(rng, alpha=truth, m=200_000, T=8)
        start = flat_trends(A=1, K=0, alpha=truth + 0.05)
        init = ParamVector(
            trends=start, sigma2=np.zeros(0),
            fixed=frozenset({"zeta", "eta", "kappa", "phi", "psi", "u", "v", "beta"}),
        )
        cfg = McmcConfig(
            n_steps=4000, burn_in=1500, seed=3, likelihood="bernoulli",
            proposal_scales={"alpha": 0.01},
        )
        chain = mcmc_sample(panel, init, PriorSpec(), cfg)
        cols = [i for i, n in enumerate(chain.names) if n.startswith("alpha")]
        for c in cols:
            post = chain.samples[:, c]
            assert abs(post.mean() - truth) < 3 * post.std() + 1e-9

    def test_mode_dominates_moment_fit(self, rng):
        # With a flat prior the posterior mode is the maximum likelihood
        # point; on a small noisy panel the chain's best sample must beat
        # the cruder matching-of-moments fit it started from.
        tr = realistic_trends(rng, A=2, K=1)
        sigma2 = np.array([0.1])
        panel, _ = simulate_panel(rng, tr, sigma2, np.arange(2000, 2012), 200)
        fit = mom_fit(panel, tr)
        init = ParamVector(
            trends=fit.trends, sigma2=np.maximum(fit.sigma2, 1e-3),
            fixed=frozenset({"zeta", "eta", "kappa", "phi", "psi", "beta", "u", "v"}),
        )
        cfg = McmcConfig(n_steps=4000, burn_in=1000, seed=7,
                         proposal_scales={"alpha": 0.05, "sigma2": 0.1})
        chain = mcmc_sample(panel, init, PriorSpec(), cfg)
        best = chain.mode_param_vector()
        assert log_likelihood(panel, best) >= log_likelihood(panel, fit)

    def test_acceptance_diagnostics_reported(self, rng):
        panel, tr = _k0_panel(rng, T=4, m=5000)
        init = ParamVector(trends=tr, sigma2=np.zeros(0))
        cfg = McmcConfig(n_steps=200, burn_in=50, seed=4, proposal_scales={"alpha": 0.02})
        chain = mcmc_sample(panel, init, PriorSpec(), cfg)
        assert set(chain.acceptance) >= {"alpha.f", "alpha.m"}
        assert all(0.0 <= v <= 1.0 for v in chain.acceptance.values())


class TestChainSummaries:
    def test_information_criteria(self, rng):
        panel, tr = _k0_panel(rng, T=5, m=2000)
        init = ParamVector(trends=tr, sigma2=np.zeros(0))
        cfg = McmcConfig(n_steps=300, burn_in=100, seed=6, proposal_scales={"alpha": 0.02})
        chain = mcmc_sample(panel, init, PriorSpec(), cfg)
        ic = information_criteria(panel, chain)
        assert ic["aic"] < ic["bic"]
        assert np.isfinite(ic["dic"])

    def test_cv_prior_scale_smoke(self, rng):
        panel, tr = _k0_panel(rng, T=5, m=2000)
        template = ParamVector(
            trends=tr, sigma2=np.zeros(0),
            fixed=frozenset({"zeta", "eta", "kappa", "phi", "psi", "u", "v"}),
        )
        out = cv_prior_scale(panel, template, grid=[0.0, 10.0])
        assert set(out["scores"]) == {0.0, 10.0}
        assert out["best_c"] in (0.0, 10.0)


@pytest.fixture(scope="module")
def record_layout(tmp_path_factory):
    """Template, header and column row of a record file from mcmc_sample."""
    panel, tr = _k0_panel(np.random.default_rng(0), T=3, m=1000)
    init = ParamVector(trends=tr, sigma2=np.zeros(0))
    path = str(tmp_path_factory.mktemp("layout") / "chain.csv")
    mcmc_sample(panel, init, PriorSpec(),
                McmcConfig(n_steps=2, burn_in=1, seed=0, record_path=path))
    with open(path) as fh:
        return init, fh.readlines()[:2], path


# Every finite float64, with -0.0 and the subnormal and extreme values drawn often.
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, -1.7976931348623157e308]),
)


class TestChainRecords:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_records_round_trip_bit_exactly(self, record_layout, data):
        # Resume and load_chain read back what mcmc_sample wrote as %.17g.
        init, head, path = record_layout
        columns = head[1].strip().split(",")
        n_fields = len(columns) - 1  # every column but the step
        n_params = len(columns) - 2 - sum(c.startswith("scale.") for c in columns)
        values = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 5)), n_fields),
                                      elements=_FINITE))
        with open(path, "w") as fh:
            fh.writelines(head)
            for i, row in enumerate(values):
                fh.write(",".join([str(1 + i)] + [f"{x:.17g}" for x in row]) + "\n")
        chain = load_chain(path, template=init)
        np.testing.assert_array_equal(chain.log_posterior.view(np.uint64),
                                      values[:, 0].view(np.uint64))
        np.testing.assert_array_equal(chain.samples.view(np.uint64),
                                      values[:, n_fields - n_params:].view(np.uint64))
