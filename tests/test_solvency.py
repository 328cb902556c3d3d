import numpy as np
import pytest
from scipy import stats

from ecrplus import aggregation
from ecrplus.aggregation import (
    LossDistribution,
    aggregate_loss,
    build_sectors,
    loss_from_annuity,
    quantile,
    tv_distance,
)
from ecrplus.domain import LatticeSeverity, Policyholder, Portfolio, RiskFactorSpec
from ecrplus.errors import DataError, NumericalError
from ecrplus.estimation import McmcChain, ParamVector, _flat_names, _flatten
from ecrplus.solvency import (
    DiscountCurve,
    Scenario,
    TermPolicy,
    delta_bof_distribution,
    gamma_mixture_grid,
    scenario_loss,
    scenario_sectors,
    scr,
    term_life_bel,
)
from ecrplus.trends import TrendParams

from conftest import flat_trends


def _mixed_portfolio(m=100, q=0.05):
    holder = Policyholder(
        id="s", age_group=0, gender="f", birth_year=0, death_prob=q,
        weights=np.array([0.0, 1.0]), payment=LatticeSeverity.point(1),
        survival_payment=LatticeSeverity.point(1), multiplicity=m,
    )
    return Portfolio(holders=[holder]), [RiskFactorSpec(k=1, variance=0.1)]


class TestScenarioLoss:
    def test_mean_factor_removes_mixing_variance(self):
        pf, rf = _mixed_portfolio(m=1000)
        cond = scenario_loss(pf, rf, Scenario({1: 1.0}))
        uncond = aggregate_loss(pf, rf, unit=1.0)
        assert cond.mean() == pytest.approx(uncond.mean(), rel=1e-9)
        assert cond.variance() < uncond.variance()
        ref = stats.poisson.pmf(np.arange(cond.n_max + 1), 50.0)
        np.testing.assert_allclose(cond.pmf, ref, atol=1e-12)

    def test_reduced_cause_shifts_annuity_loss_up(self):
        # Fixing one cause's factor below one means fewer deaths, so more
        # annuity payments: the loss L = sum X - S shifts upward while the
        # other factor keeps its mixing spread.
        holder = Policyholder(
            id="s", age_group=0, gender="f", birth_year=0, death_prob=0.05,
            weights=np.array([0.2, 0.3, 0.5]), payment=LatticeSeverity.point(1),
            survival_payment=LatticeSeverity.point(1), multiplicity=1600,
        )
        pf = Portfolio(holders=[holder])
        rf = [RiskFactorSpec(1, 0.1), RiskFactorSpec(2, 0.1)]
        total = pf.total_survival_payment()
        cond_s = scenario_loss(pf, rf, Scenario({1: 0.7991}))
        base_s = aggregate_loss(pf, rf, unit=1.0)
        cond = loss_from_annuity(total, cond_s)
        base = loss_from_annuity(total, base_s)
        assert cond.mean() > base.mean()
        for p in (0.5, 0.9, 0.95):
            assert quantile(cond, p) >= quantile(base, p)
        assert quantile(cond, 0.5) > quantile(base, 0.5)

    def test_empty_scenario_equals_unconditional(self):
        holder = Policyholder(
            id="s", age_group=0, gender="f", birth_year=0, death_prob=0.05,
            weights=np.array([0.2, 0.3, 0.5]), payment=LatticeSeverity(1.0, {1: 0.4, 3: 0.6}),
            survival_payment=LatticeSeverity.point(1), multiplicity=800,
        )
        pf = Portfolio(holders=[holder])
        rf = [RiskFactorSpec(1, 0.1), RiskFactorSpec(2, 0.2)]
        cond = scenario_loss(pf, rf, Scenario({}))
        base = aggregate_loss(pf, rf, unit=1.0)
        assert tv_distance(cond, base) == 0.0
        assert cond.n_max == base.n_max

    def test_scenario_and_unconditional_share_free_sectors(self, monkeypatch):
        # One pinned factor of three: the idiosyncratic and two free sectors
        # run once for both laws (5 runs, not 8), and each law is the same
        # bytes as its own scenario_loss / aggregate_loss call.
        holder = Policyholder(
            id="s", age_group=0, gender="f", birth_year=0, death_prob=0.05,
            weights=np.array([0.1, 0.3, 0.4, 0.2]),
            payment=LatticeSeverity(1.0, {1: 0.3, 2: 0.5, 7: 0.2}),
            survival_payment=LatticeSeverity.point(1), multiplicity=4000,
        )
        pf = Portfolio(holders=[holder])
        rf = [RiskFactorSpec(1, 0.1), RiskFactorSpec(2, 0.2), RiskFactorSpec(3, 0.05)]
        scenario = Scenario({2: 0.8})
        calls = []
        real = aggregation.panjer_compound
        monkeypatch.setattr(aggregation, "panjer_compound",
                            lambda s, n: calls.append(n) or real(s, n))
        sectors = build_sectors(pf, rf, 1.0)
        cond, base = aggregation.aggregate_sector_sets(
            [scenario_sectors(sectors, scenario), sectors]
        )
        monkeypatch.undo()
        assert len(calls) == 5
        assert cond.n_max < base.n_max
        for got, ref in ((cond, scenario_loss(pf, rf, scenario)), (base, aggregate_loss(pf, rf))):
            assert got.n_max == ref.n_max
            assert got.pmf.tobytes() == ref.pmf.tobytes()
            assert got.truncation_mass == ref.truncation_mass

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            Scenario({1: 0.0})

    def test_unknown_cause_rejected(self):
        pf, rf = _mixed_portfolio()
        with pytest.raises(DataError):
            scenario_loss(pf, rf, Scenario({3: 1.0}))

    def test_mixing_identity(self):
        # Integrating the conditional laws against the gamma quadrature grid
        # must reproduce the unconditional distribution.
        pf, rf = _mixed_portfolio(m=100)
        uncond = aggregate_loss(pf, rf, unit=1.0)
        nodes, weights = gamma_mixture_grid(0.1, 200)
        pmf = np.zeros(uncond.n_max + 1)
        tail = 0.0
        for lam, wt in zip(nodes, weights):
            cond = scenario_loss(pf, rf, Scenario({1: float(lam)}), n_max=uncond.n_max)
            pmf += wt * cond.pmf
            tail += wt * cond.truncation_mass
        mix = LossDistribution(unit=1.0, pmf=pmf, truncation_mass=tail)
        assert tv_distance(mix, uncond) <= 1e-3


class TestGammaGrid:
    def test_mean_preserved(self):
        for s2 in (0.05, 0.1, 0.5):
            nodes, weights = gamma_mixture_grid(s2, 150)
            assert nodes @ weights == pytest.approx(1.0, abs=1e-12)
            assert weights.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.all(np.diff(nodes) > 0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            gamma_mixture_grid(0.0, 100)
        with pytest.raises(ValueError):
            gamma_mixture_grid(0.1, 1)


class TestTermLifeBel:
    def test_zero_mortality(self):
        curve = DiscountCurve.flat(0.02, 30)
        assert term_life_bel(40, 0, 2020, 20, curve, lambda a, g, y: 0.0) == 0.0

    def test_single_year_contract(self):
        curve = DiscountCurve.flat(0.0, 5)
        assert term_life_bel(40, 0, 2020, 0, curve, lambda a, g, y: 0.03) == pytest.approx(0.03)

    def test_certain_death(self):
        curve = DiscountCurve.flat(0.0, 5)
        assert term_life_bel(40, 0, 2020, 3, curve, lambda a, g, y: 1.0) == 1.0

    def test_increasing_in_mortality_and_bounded(self):
        curve = DiscountCurve.flat(0.01, 30)
        values = [
            term_life_bel(40, 0, 2020, 20, curve, lambda a, g, y, qq=qq: qq)
            for qq in (0.01, 0.05, 0.2)
        ]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_telescoping_to_one(self):
        # With no discounting and a horizon past the terminal age the unit
        # benefit is paid almost surely.
        tr = flat_trends(A=1, K=0, alpha=-2.0, ages=[0.0])
        curve = DiscountCurve.flat(0.0, 130)
        val = term_life_bel(40, 0, 2020, 120, curve, tr)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_curve_gap(self):
        curve = DiscountCurve({0: 1.0, 1: 0.99})
        with pytest.raises(DataError):
            term_life_bel(40, 0, 2020, 5, curve, lambda a, g, y: 0.01)


class TestDiscountCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscountCurve({0: 0.9})
        with pytest.raises(ValueError):
            DiscountCurve({0: 1.0, 1: 1.5})

    def test_shift(self):
        curve = DiscountCurve.flat(0.05, 10)
        shifted = curve.shifted(1)
        assert shifted.discount(0) == pytest.approx(1.0)
        assert shifted.discount(2) == pytest.approx(curve.discount(3) / curve.discount(1))


def _chain_of_params(rng, n, spread=0.0):
    base = flat_trends(A=1, K=0, alpha=-2.6, ages=[0.0])
    out = []
    for _ in range(n):
        tr = TrendParams(
            alpha=base.alpha + rng.normal(0, spread, (1, 2)), beta=base.beta,
            zeta=base.zeta, eta=base.eta, u=base.u, v=base.v, phi=base.phi,
            psi=base.psi, t0=base.t0, age_lower_bounds=base.age_lower_bounds,
        )
        out.append(ParamVector(trends=tr, sigma2=np.zeros(0)))
    return out


class TestDeltaBof:
    def test_riskless_book_is_degenerate(self, rng):
        # Survival-certain book and an asset returning exactly the discount
        # rate: own funds cannot move.
        q_zero = flat_trends(A=1, K=0, alpha=-745.0, ages=[0.0])
        pv = ParamVector(trends=q_zero, sigma2=np.zeros(0))
        curve = DiscountCurve.flat(0.01, 25)
        policies = [TermPolicy(age=40, gender="f", sum_insured=1000.0, term_years=20)]
        dist = delta_bof_distribution(
            policies, asset_value=500.0, coupon=1.0 / curve.discount(1) - 1.0,
            curve=curve, chain=[pv], base_year=2020, unit=1.0,
        )
        assert dist.mean() == pytest.approx(0.0, abs=1e-6)
        assert scr(dist) == pytest.approx(0.0, abs=1e-6)

    def test_single_policy_matches_direct_compound(self, rng):
        pv = _chain_of_params(rng, 1)[0]
        curve = DiscountCurve.flat(0.0, 25)
        pol = TermPolicy(age=50, gender="f", sum_insured=100.0, term_years=10)
        # direct computation: one Poisson count with one stochastic atom
        from ecrplus.forecast import _q_resolver
        from ecrplus.solvency import term_life_bel as bel

        q = _q_resolver(pv.trends)(50, 0, 2020)
        a1 = bel(51, "f", 2021, 9, curve.shifted(1), pv.trends)
        a0 = bel(50, "f", 2020, 10, curve, pv.trends)
        atom = 100.0 * (1.0 - a1)
        det = -100.0 * a0 + 100.0 * a1
        # a unit that divides the severity atom exactly keeps it a lattice atom
        unit = atom / 1000.0
        dist = delta_bof_distribution([pol], asset_value=0.0, coupon=0.0,
                                      curve=curve, chain=[pv], base_year=2020, unit=unit)
        # the 12-sd lattice of this very skewed compound covers k <= 2
        ks = np.arange(3)
        direct_support = det + ks * atom
        direct_probs = stats.poisson.pmf(ks, q)
        for v, p in zip(direct_support, direct_probs):
            got = dist.pmf[int(round((v - dist.offset) / unit))]
            assert got == pytest.approx(p, abs=1e-9)
        assert dist.truncation_mass == pytest.approx(float(stats.poisson.sf(2, q)), rel=1e-6)

    def test_parameter_uncertainty_adds_spread(self, rng):
        curve = DiscountCurve.flat(0.005, 25)
        policies = [
            TermPolicy(age=a, gender=g, sum_insured=1000.0, term_years=15)
            for a in (40, 50, 60) for g in "fm"
        ]
        chain = _chain_of_params(rng, 12, spread=0.08)
        with_unc = delta_bof_distribution(policies, 0.0, 0.0, curve, chain, 2020, unit=1.0)
        flat_chain = _chain_of_params(rng, 1, spread=0.0)
        without = delta_bof_distribution(policies, 0.0, 0.0, curve, flat_chain, 2020, unit=1.0)
        assert with_unc.variance() > without.variance()

    @pytest.mark.parametrize("max_samples", [200, 5])
    def test_chain_equals_same_records_as_list(self, rng, max_samples):
        curve = DiscountCurve.flat(0.005, 25)
        policies = [
            TermPolicy(age=a, gender=g, sum_insured=1000.0 + 500.0 * a, term_years=12)
            for a in (45, 55, 65) for g in "fm"
        ]
        records = _chain_of_params(rng, 12, spread=0.08)
        chain = McmcChain(
            names=_flat_names(records[0]),
            samples=np.stack([_flatten(pv) for pv in records]),
            log_posterior=np.zeros(len(records)),
            acceptance={},
            template=records[0],
        )
        args = dict(asset_value=2000.0, coupon=0.01, curve=curve, base_year=2020,
                    unit=5.0, max_samples=max_samples)
        from_chain = delta_bof_distribution(policies, chain=chain, **args)
        from_list = delta_bof_distribution(policies, chain=records, **args)
        assert tv_distance(from_chain, from_list) == 0.0
        assert scr(from_chain) == scr(from_list)

    def test_default_lattice_scr_matches_coarser_lattice(self):
        # The default 200k-point lattice on a 50-policy term book: the
        # recursion's window is almost all zeros, so this runs in blocks of
        # the smallest payment.  A 20k-point lattice gives the same SCR.
        gen = np.random.default_rng(1)
        policies = [
            TermPolicy(age=int(gen.integers(50, 76)), gender="fm"[int(gen.integers(2))],
                       sum_insured=float(s), term_years=int(gen.integers(5, 21)))
            for s in gen.uniform(20_000.0, 1_000_000.0, 50)
        ]
        curve = DiscountCurve.flat(0.01, 25)
        pv = _chain_of_params(gen, 1)[0]
        args = dict(asset_value=5e6, coupon=0.02, curve=curve, chain=[pv], base_year=2020)
        fine = scr(delta_bof_distribution(policies, **args))
        coarse = scr(delta_bof_distribution(policies, lattice_points=20_000, **args))
        assert fine == pytest.approx(coarse, rel=1e-4)

    def test_scr_quantile_semantics(self):
        point = LossDistribution.point(42.0)
        assert scr(point) == 42.0
        two = LossDistribution(unit=2.0, pmf=np.array([0.5, 0.5]), offset=-1.0)
        assert scr(two) == 1.0

    def test_scr_rejects_heavy_truncation(self):
        d = LossDistribution(unit=1.0, pmf=np.array([0.9, 0.09]), truncation_mass=0.01)
        with pytest.raises(NumericalError):
            scr(d)
