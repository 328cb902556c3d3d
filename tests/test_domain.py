import numpy as np
import pytest

from ecrplus.domain import (
    CellSpec,
    CohortPanel,
    LatticeSeverity,
    Policyholder,
    Portfolio,
    RiskFactorSpec,
    build_portfolio,
    pairwise_death_covariance,
)
from ecrplus.errors import DataError
from ecrplus.trends import laplace_cdf_inv

from conftest import flat_trends


def _holder(q=0.05, weights=(0.0, 1.0), mult=1, ident="h"):
    return Policyholder(
        id=ident, age_group=0, gender="f", birth_year=1950, death_prob=q,
        weights=np.array(weights, dtype=float), payment=LatticeSeverity.point(1),
        multiplicity=mult,
    )


class TestPairwiseCovariance:
    def test_single_factor_value(self):
        i = _holder(weights=(0.0, 1.0))
        j = _holder(weights=(0.0, 1.0), ident="j")
        cov = pairwise_death_covariance(i, j, [RiskFactorSpec(k=1, variance=0.1)])
        assert cov == pytest.approx(2.5e-4, rel=1e-12)

    def test_idiosyncratic_is_independent(self):
        i = _holder(weights=(1.0, 0.0))
        j = _holder(weights=(1.0, 0.0), ident="j")
        assert pairwise_death_covariance(i, j, [RiskFactorSpec(k=1, variance=0.5)]) == 0.0

    def test_zero_probability(self):
        i = _holder(q=0.0)
        j = _holder(ident="j")
        assert pairwise_death_covariance(i, j, [RiskFactorSpec(k=1, variance=0.5)]) == 0.0

    def test_symmetry(self, rng):
        rf = [RiskFactorSpec(k=1, variance=0.2), RiskFactorSpec(k=2, variance=0.05)]
        for _ in range(20):
            w1 = rng.dirichlet(np.ones(3))
            w2 = rng.dirichlet(np.ones(3))
            i = _holder(q=rng.uniform(0, 1), weights=w1)
            j = _holder(q=rng.uniform(0, 1), weights=w2, ident="j")
            assert pairwise_death_covariance(i, j, rf) == pytest.approx(
                pairwise_death_covariance(j, i, rf), rel=1e-14
            )

    def test_mismatched_factor_count(self):
        i = _holder()
        j = _holder(ident="j")
        with pytest.raises(DataError):
            pairwise_death_covariance(i, j, [])


class TestInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            _holder(weights=(0.5, 0.4))

    def test_death_prob_domain(self):
        with pytest.raises(ValueError):
            _holder(q=1.2)

    def test_severity_normalisation(self):
        with pytest.raises(ValueError):
            LatticeSeverity(unit=1.0, pmf={0: 0.5, 1: 0.4})
        with pytest.raises(ValueError):
            LatticeSeverity(unit=1.0, pmf={-1: 0.5, 1: 0.5})

    def test_portfolio_mean_identity(self):
        holders = [
            _holder(q=0.1, mult=3),
            Policyholder(
                id="b", age_group=0, gender="m", birth_year=1940, death_prob=0.2,
                weights=np.array([0.3, 0.7]),
                payment=LatticeSeverity(unit=1.0, pmf={1: 0.5, 3: 0.5}), multiplicity=2,
            ),
        ]
        pf = Portfolio(holders=holders)
        assert pf.expected_loss() == pytest.approx(3 * 0.1 * 1 + 2 * 0.2 * 2.0, rel=1e-12)


class TestBuildPortfolio:
    def test_uniform_cells_give_1600(self):
        tr = flat_trends(A=8, K=2, alpha=-1.5, ages=np.arange(50, 90, 5))
        cells = [CellSpec(age_group=a, gender=g, count=100) for a in range(8) for g in "fm"]
        pf = build_portfolio(cells, tr, 2012.0)
        assert len(pf) == 1600
        assert len(pf.holders) == 16

    def test_empty(self):
        pf = build_portfolio([], flat_trends(), 2000.0)
        assert len(pf) == 0

    def test_reference_cell(self):
        # One cell replicated 10,000 times at q = 0.05 with unit payments.
        tr = flat_trends(A=1, K=0, alpha=laplace_cdf_inv(0.05))
        pf = build_portfolio([CellSpec(age_group=0, gender="f", count=10_000)], tr, 2000.0)
        assert len(pf) == 10_000
        h = pf.holders[0]
        assert h.death_prob == pytest.approx(0.05, rel=1e-12)
        assert h.payment.pmf == {1: 1.0}

    def test_negative_count_is_a_data_error(self):
        cells = [CellSpec(age_group=0, gender="f", count=3), CellSpec(age_group=0, gender="m", count=-5)]
        with pytest.raises(DataError, match="cell 1: negative count -5"):
            build_portfolio(cells, flat_trends(), 2000.0)

    def test_zero_count_cells_are_left_out(self):
        cells = [CellSpec(age_group=0, gender="f", count=0), CellSpec(age_group=0, gender="m", count=2)]
        pf = build_portfolio(cells, flat_trends(), 2000.0)
        assert len(pf) == 2 and len(pf.holders) == 1

    def test_unknown_age_group(self):
        with pytest.raises(DataError):
            build_portfolio([CellSpec(age_group=5, gender="f", count=1)], flat_trends(), 2000.0)

    def test_unknown_gender(self):
        with pytest.raises(DataError):
            build_portfolio([CellSpec(age_group=0, gender="x", count=1)], flat_trends(), 2000.0)


class TestCohortPanel:
    def test_deaths_above_exposure_warns(self):
        deaths = np.zeros((1, 1, 2, 1), dtype=int)
        deaths[0, 0, 0, 0] = 5
        with pytest.warns(UserWarning):
            CohortPanel(years=[2000], deaths=deaths, exposure=np.full((1, 1, 2), 2))

    def test_negative_counts_rejected(self):
        deaths = np.full((1, 1, 2, 1), -1)
        with pytest.raises(DataError):
            CohortPanel(years=[2000], deaths=deaths, exposure=np.full((1, 1, 2), 10))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            CohortPanel(
                years=[2000, 2001],
                deaths=np.zeros((1, 1, 2, 1), dtype=int),
                exposure=np.full((1, 1, 2), 10),
            )
