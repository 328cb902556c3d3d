import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ecrplus import aggregation
from ecrplus.aggregation import (
    LossDistribution,
    NegBinCount,
    PoissonCount,
    SectorCompound,
    aggregate_loss,
    build_sectors,
    convolve_sectors,
    loss_from_annuity,
    model_moments,
    panjer_compound,
    quantile,
    stochastic_round,
    tv_distance,
)
from ecrplus.domain import LatticeSeverity, Policyholder, Portfolio, RiskFactorSpec
from ecrplus.errors import DataError, NumericalError

from conftest import table1_portfolio


def _binomial_reference(n_max):
    pmf = stats.binom.pmf(np.arange(n_max + 1), 10_000, 0.05)
    return LossDistribution(unit=1.0, pmf=pmf, truncation_mass=max(0.0, 1 - pmf.sum()))


class TestStochasticRound:
    def test_on_lattice_atom_stays_atom(self):
        sev = stochastic_round({1.0: 1.0}, 1.0)
        assert sev.pmf == {1: 1.0}

    def test_half_split(self):
        sev = stochastic_round({1.5: 1.0}, 1.0)
        assert sev.pmf == {1: 0.5, 2: 0.5}
        assert sev.mean() == pytest.approx(1.5, abs=1e-15)

    def test_zero_payment(self):
        assert stochastic_round({0.0: 1.0}, 1.0).pmf == {0: 1.0}

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            stochastic_round({-0.5: 1.0}, 1.0)

    def test_mean_preserved(self, rng):
        for _ in range(25):
            atoms = rng.uniform(0, 50, 6)
            probs = rng.dirichlet(np.ones(6))
            unit = rng.uniform(0.3, 3.0)
            sev = stochastic_round(dict(zip(atoms, probs)), unit)
            assert sev.mean() == pytest.approx(float(atoms @ probs), rel=1e-12)


class TestBuildSectors:
    def test_pure_idiosyncratic_single_poisson(self):
        sectors = build_sectors(table1_portfolio(True), [], unit=1.0)
        assert len(sectors) == 1
        assert isinstance(sectors[0].count_law, PoissonCount)
        assert sectors[0].count_law.lam == pytest.approx(500.0, rel=1e-12)

    def test_single_factor_negative_binomial(self):
        sectors = build_sectors(
            table1_portfolio(False), [RiskFactorSpec(k=1, variance=0.1)], unit=1.0
        )
        nb = sectors[1].count_law
        assert isinstance(nb, NegBinCount)
        assert nb.r == pytest.approx(10.0, rel=1e-12)
        assert nb.p == pytest.approx(1.0 / 51.0, rel=1e-12)
        assert nb.var() == pytest.approx(25_500.0, rel=1e-12)
        # idiosyncratic sector is degenerate
        assert sectors[0].intensity == 0.0

    def test_zero_probability_degenerate(self):
        holder = Policyholder(
            id="z", age_group=0, gender="f", birth_year=0, death_prob=0.0,
            weights=np.array([0.5, 0.5]), payment=LatticeSeverity.point(1),
        )
        sectors = build_sectors(Portfolio(holders=[holder]), [RiskFactorSpec(1, 0.1)], 1.0)
        for s in sectors:
            assert s.intensity == 0.0
            assert panjer_compound(s, 5).pmf[0] == 1.0


class TestPanjerCompound:
    def test_unit_severity_poisson_identity(self):
        sec = SectorCompound(0, PoissonCount(1.0), LatticeSeverity.point(1), 1.0)
        dist = panjer_compound(sec, 12)
        expected = np.exp(-1.0) / np.array([math.factorial(n) for n in range(13)])
        np.testing.assert_allclose(dist.pmf, expected, atol=1e-15)

    def test_reference_idiosyncratic_quantiles(self):
        dist = aggregate_loss(table1_portfolio(True), [], unit=1.0)
        got = [quantile(dist, p) for p in (0.01, 0.10, 0.50, 0.90, 0.99)]
        assert got == [449, 471, 500, 529, 553]

    def test_reference_mixed_quantiles(self):
        dist = aggregate_loss(
            table1_portfolio(False), [RiskFactorSpec(k=1, variance=0.1)], unit=1.0
        )
        got = [quantile(dist, p) for p in (0.01, 0.10, 0.50, 0.90, 0.99)]
        assert got == [204, 309, 483, 712, 944]

    @pytest.mark.parametrize("lam", [0.7, 35.0, 500.0, 1500.0, 6000.0])
    def test_poisson_matches_independent_formula(self, lam):
        sec = SectorCompound(0, PoissonCount(lam), LatticeSeverity.point(1), lam)
        n_max = int(lam + 12 * math.sqrt(lam)) + 5
        dist = panjer_compound(sec, n_max)
        ref = stats.poisson.pmf(np.arange(n_max + 1), lam)
        np.testing.assert_allclose(dist.pmf, ref, atol=1e-12)

    def test_negbin_matches_independent_formula(self):
        nb = NegBinCount(r=10.0, p=1.0 / 51.0)
        sec = SectorCompound(1, nb, LatticeSeverity.point(1), 500.0)
        dist = panjer_compound(sec, 2500)
        ref = stats.nbinom.pmf(np.arange(2501), 10, 1.0 / 51.0)
        np.testing.assert_allclose(dist.pmf, ref, atol=1e-13)

    def test_general_severity_against_convolution(self, rng):
        # Multi-atom severity exercises the generic recursion loop; the
        # oracle convolves the count law with powers of the severity.
        sev = LatticeSeverity(unit=1.0, pmf={0: 0.2, 1: 0.4, 2: 0.25, 5: 0.15})
        lam = 4.0
        sec = SectorCompound(0, PoissonCount(lam), sev, lam)
        dist = panjer_compound(sec, 80)
        f = sev.as_array(81)
        acc = np.zeros(81)
        power = np.zeros(81)
        power[0] = 1.0
        for n in range(0, 60):
            acc += stats.poisson.pmf(n, lam) * power
            power = np.convolve(power, f)[:81]
        np.testing.assert_allclose(dist.pmf, acc, atol=1e-12)

    def test_zero_mass_severity_absorbed(self):
        sev = LatticeSeverity(unit=1.0, pmf={0: 0.6, 1: 0.4})
        sec = SectorCompound(0, PoissonCount(10.0), sev, 10.0)
        dist = panjer_compound(sec, 60)
        ref = stats.poisson.pmf(np.arange(61), 4.0)
        np.testing.assert_allclose(dist.pmf, ref, atol=1e-13)

    def test_severity_all_at_zero(self):
        sec = SectorCompound(0, PoissonCount(7.0), LatticeSeverity.point(0), 7.0)
        dist = panjer_compound(sec, 4)
        assert dist.pmf[0] == 1.0

    def test_no_nan_at_wide_lattice(self):
        # mean 50, lattice bound 10x the mean
        sec = SectorCompound(1, NegBinCount(r=2.0, p=2.0 / 52.0), LatticeSeverity.point(1), 50.0)
        dist = panjer_compound(sec, 500)
        assert np.all(np.isfinite(dist.pmf))
        assert np.all(dist.pmf >= 0.0)
        assert dist.pmf.sum() + dist.truncation_mass == pytest.approx(1.0, abs=1e-9)

    def test_extreme_intensity_rescaling(self):
        lam = 250_000.0
        sec = SectorCompound(0, PoissonCount(lam), LatticeSeverity.point(1), lam)
        n_max = int(lam + 12 * math.sqrt(lam))
        dist = panjer_compound(sec, n_max)
        ref = stats.poisson.pmf(np.arange(n_max + 1), lam)
        assert np.abs(dist.pmf - ref).max() < 1e-10
        # multi-atom severity through the generic loop with rescaling
        sev = LatticeSeverity(unit=1.0, pmf={1: 0.5, 2: 0.5})
        sec2 = SectorCompound(0, PoissonCount(2000.0), sev, 2000.0)
        dist2 = panjer_compound(sec2, 3800)
        mean = dist2.mean()
        assert mean == pytest.approx(3000.0, rel=1e-9)


@st.composite
def _count_laws(draw, max_nb_mean=900.0, min_r=0.5):
    # Means from 0.5 up to intensities whose recursion climbs past the
    # rescale threshold (Poisson lambda > ~580; negative binomial with
    # r log(1 + mean / r) > ~580).
    if draw(st.booleans()):
        return PoissonCount(draw(st.floats(0.5, 900.0)))
    mean = draw(st.floats(0.5, max_nb_mean))
    r = draw(st.floats(min_r, 3000.0))
    return NegBinCount(r=r, p=r / (r + mean))


def _atom_probs(min_size, max_size=30):
    return st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=min_size, max_size=max_size
    )


def _severity(p0, probs, first=1, step=1):
    """Severity with mass p0 at 0 and probs[i] at (first + i) * step."""
    pmf = {(first + i) * step: w for i, w in enumerate(probs) if w > 0.0}
    if p0 > 0.0:
        pmf[0] = p0
    total = sum(pmf.values())
    return LatticeSeverity(unit=1.0, pmf={k: w / total for k, w in pmf.items()})


class TestPanjerProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        p0=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
        first=st.floats(0.01, 1.0),
        middle=_atom_probs(0),
        last=st.floats(0.01, 1.0),
        d=st.integers(4, 12),
        count=_count_laws(),
    )
    @example(p0=0.0, first=1.0, middle=[0.0, 0.5], last=0.25, d=7, count=PoissonCount(800.0))
    @example(p0=0.2, first=0.3, middle=[], last=0.7, d=12,
             count=NegBinCount(r=2500.0, p=2500.0 / 3400.0))
    def test_dilation_identity(self, p0, first, middle, last, d, count):
        # Payments on 1..J (smallest payment 1) solve for most of each block
        # inside it; the same payments times d must give the same law on
        # every d-th point and exact zeros between.
        probs = [first, *middle, last]
        base = SectorCompound(0, count, _severity(p0, probs), count.mean())
        dilated = SectorCompound(0, count, _severity(p0, probs, step=d), count.mean())
        n = int(math.ceil(base.mean() + 4.0 * math.sqrt(base.var())))
        g = panjer_compound(base, n)
        gd = panjer_compound(dilated, d * n)
        assert gd.pmf.size == d * n + 1
        np.testing.assert_allclose(gd.pmf[::d], g.pmf, rtol=0.0, atol=1e-12)
        assert not gd.pmf[np.arange(gd.pmf.size) % d != 0].any()
        assert gd.truncation_mass == pytest.approx(g.truncation_mass, abs=1e-12)

    @pytest.mark.parametrize("step", [1, 2, 3, 6, 130])
    def test_rescale_inside_the_bulk(self, step):
        # At lambda = 581 the rescale falls where the pmf carries ~1% of the
        # mass, so a window left at its old scale shows.  Steps below the
        # block length solve the lags inside each block; step 130 has
        # none.  Reference: inverse FFT of the compound Poisson PGF
        # exp(lambda (F - 1)).
        lam, n_max = 581.0, 1400
        sev = LatticeSeverity(unit=1.0, pmf={step: 0.5, 2 * step: 0.5})
        dist = panjer_compound(SectorCompound(0, PoissonCount(lam), sev, lam), step * n_max)
        f = np.zeros(4096)
        f[[1, 2]] = 0.5
        ref = np.fft.irfft(np.exp(lam * (np.fft.rfft(f) - 1.0)), 4096)[: n_max + 1]
        np.testing.assert_allclose(dist.pmf[::step], ref, rtol=0.0, atol=1e-13)

    def test_huge_intensity_keeps_its_mass(self):
        # Poisson(2e6) takes ~3,500 rescales, so a log scale summed in
        # floating point drifts; near n = 0 each step multiplies by about
        # lambda / n, so whole blocks overflow and are recomputed at half
        # width.
        lam = 2e6
        sev = LatticeSeverity(unit=1.0, pmf={1: 0.9, 3: 0.1})
        sector = SectorCompound(0, PoissonCount(lam), sev, lam)
        dist = panjer_compound(sector, int(math.ceil(sector.mean() + 12.0 * math.sqrt(sector.var()))))
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.mean() == pytest.approx(sector.mean(), rel=1e-9)

    def test_blocks_shorter_than_the_smallest_payment(self, monkeypatch):
        # Many atoms cap the gathered block below m; any block length up
        # to m gives the same law.
        sev = LatticeSeverity(unit=1.0, pmf={j: 1.0 / 10 for j in range(8, 48, 4)})
        sector = SectorCompound(0, PoissonCount(60.0), sev, 60.0)
        whole = panjer_compound(sector, 3000)
        monkeypatch.setattr(aggregation, "_GATHER_MAX", 30)  # blocks of 3 over 10 atoms
        capped = panjer_compound(sector, 3000)
        np.testing.assert_allclose(capped.pmf, whole.pmf, rtol=0.0, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        p0=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
        m=st.integers(1, 12),
        first=st.floats(0.01, 1.0),
        rest=_atom_probs(0, max_size=10),
        count=_count_laws(max_nb_mean=300.0, min_r=2.0),
    )
    def test_mass_and_compound_mean(self, p0, m, first, rest, count):
        # Smallest payment m from 1 to 12, with lags inside every block.
        # S > n_max needs more than n_max / y_max
        # claims, so a lattice of y_max times the count's 1 - 1e-14
        # quantile leaves at most 1e-14 in the tail: the enumerated mass is
        # one and the mean E[N] E[Y].
        sev = _severity(p0, [first, *rest], first=m)
        sector = SectorCompound(0, count, sev, count.mean())
        if isinstance(count, PoissonCount):
            claims = stats.poisson.isf(1e-14, count.lam)
        else:
            claims = stats.nbinom.isf(1e-14, count.r, count.p)
        y_max = max(sev.pmf)
        dist = panjer_compound(sector, int(claims + 1) * y_max)
        assert np.all(dist.pmf >= 0.0)
        assert dist.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.mean() == pytest.approx(count.mean() * sev.mean_index(), rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        p0=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
        n_max=st.integers(0, 40),
        gap=st.integers(1, 20),
        probs=_atom_probs(1).filter(any),
        count=_count_laws(),
    )
    def test_all_payments_beyond_lattice(self, p0, n_max, gap, probs, count):
        # No payment lands on 1..n_max: only the no-claim point is
        # enumerated, with P(S = 0) = P_N(f_0), the count law's PGF at f_0.
        sev = _severity(p0, probs, first=n_max + gap)
        dist = panjer_compound(SectorCompound(0, count, sev, count.mean()), n_max)
        f0 = sev.pmf.get(0, 0.0)
        if isinstance(count, PoissonCount):
            p_zero = math.exp(count.lam * (f0 - 1.0))
        else:
            p_zero = (count.p / (1.0 - (1.0 - count.p) * f0)) ** count.r
        assert dist.pmf.size == n_max + 1
        assert dist.pmf[0] == pytest.approx(p_zero, rel=1e-12, abs=1e-300)
        assert not dist.pmf[1:].any()
        assert dist.truncation_mass == pytest.approx(1.0 - p_zero, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        p0=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
        m=st.integers(1, 140),
        first=st.floats(0.01, 1.0),
        rest=_atom_probs(0, max_size=150),
        count=_count_laws(),
        n_max=st.integers(0, 3000),
        extra=st.integers(1, 3000),
    )
    def test_prefix_does_not_depend_on_n_max(self, p0, m, first, rest, count, n_max, extra):
        # The recursion never looks ahead: on two lattices that both cover
        # the largest payment index, the shorter law is the longer one's
        # prefix, bit for bit, which is what lets aggregate_sector_sets run
        # a shared sector once.
        sev = _severity(p0, [first, *rest], first=m)
        sector = SectorCompound(0, count, sev, count.mean())
        n_max = max(n_max, sev.max_index)
        short = panjer_compound(sector, n_max)
        long = panjer_compound(sector, n_max + extra)
        assert short.pmf.tobytes() == long.pmf[: n_max + 1].tobytes()


class TestSectorSets:
    def _sectors(self):
        wide = LatticeSeverity(unit=1.0, pmf={1: 0.5, 2: 0.4999, 400: 1e-4})
        narrow = LatticeSeverity(unit=1.0, pmf={1: 0.6, 3: 0.4})
        return (SectorCompound(0, PoissonCount(3.0), wide, 3.0),
                SectorCompound(1, NegBinCount(4.0, 0.02), narrow, 196.0))

    def test_each_law_equals_its_own_aggregate(self, monkeypatch):
        # Law [wide] has a lattice shorter than wide's payment 400, so wide
        # runs once for it and once for [wide, narrow], whose lattice covers
        # 400: three runs, and each law byte-identical to its own call.
        wide, narrow = self._sectors()
        laws = [[wide], [wide, narrow], [narrow, wide]]
        calls = []
        real = aggregation.panjer_compound
        monkeypatch.setattr(aggregation, "panjer_compound",
                            lambda s, n: calls.append(n) or real(s, n))
        got = aggregation.aggregate_sector_sets(laws)
        monkeypatch.undo()
        assert len(calls) == 3
        for law, dist in zip(laws, got):
            ref = aggregation.aggregate_sectors(law)
            assert dist.pmf.tobytes() == ref.pmf.tobytes()
            assert dist.truncation_mass == ref.truncation_mass
        assert got[0].n_max < 400 <= got[1].n_max

    def test_single_law_is_aggregate_sectors(self):
        wide, narrow = self._sectors()
        (dist,) = aggregation.aggregate_sector_sets([[wide, narrow]], n_max=900)
        ref = convolve_sectors([panjer_compound(wide, 900), panjer_compound(narrow, 900)], n_max=900)
        assert dist.pmf.tobytes() == ref.pmf.tobytes()


class TestLatticeCeiling:
    def test_lattice_above_the_ceiling_is_refused(self):
        sev = LatticeSeverity.point(aggregation.MAX_LATTICE_POINTS, unit=0.5)
        sector = SectorCompound(0, PoissonCount(1.0), sev, 1.0)
        with pytest.raises(DataError, match=r"lattice needs .* points at unit 0\.5"):
            aggregation.aggregate_sectors([sector])
        with pytest.raises(DataError):
            aggregation.aggregate_sectors([sector], n_max=aggregation.MAX_LATTICE_POINTS)

    def test_largest_lattice_below_the_ceiling_runs(self):
        sector = SectorCompound(0, PoissonCount(0.0), LatticeSeverity.point(1), 0.0)
        n_max = aggregation.MAX_LATTICE_POINTS - 1
        assert aggregation.aggregate_sectors([sector], n_max=n_max).pmf.size == n_max + 1

    def test_payment_far_beyond_the_lattice_is_not_materialised(self):
        # A payment index of 10^12 would take 8 TB as a dense array.
        sev = LatticeSeverity(unit=1.0, pmf={1: 0.5, 10**12: 0.5})
        dist = panjer_compound(SectorCompound(0, PoissonCount(2.0), sev, 2.0), 50)
        assert dist.pmf[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert dist.pmf.sum() + dist.truncation_mass == pytest.approx(1.0, abs=1e-12)
        assert dist.truncation_mass == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    @pytest.mark.parametrize("far", [60, 10**12])
    def test_one_atom_inside_the_lattice_keeps_its_probability(self, far):
        # Payments 1 and ``far`` with probability 1/2 each under Poisson(2):
        # up to n_max < far, S counts the unit claims, Poisson(1), with
        # P(no far claim) = exp(-1) in front.
        sev = LatticeSeverity(unit=1.0, pmf={1: 0.5, far: 0.5})
        dist = panjer_compound(SectorCompound(0, PoissonCount(2.0), sev, 2.0), 50)
        want = math.exp(-1.0) * stats.poisson.pmf(np.arange(51), 1.0)
        np.testing.assert_allclose(dist.pmf, want, rtol=1e-12, atol=1e-300)


class TestConvolution:
    def test_identity_with_point_mass(self):
        base = aggregate_loss(table1_portfolio(True), [], unit=1.0)
        out = convolve_sectors([base, LossDistribution.point(0.0)])
        assert tv_distance(base, out.truncated(base.n_max)) < 1e-14

    def test_poisson_additivity(self):
        s1 = panjer_compound(SectorCompound(0, PoissonCount(250.0), LatticeSeverity.point(1), 250.0), 900)
        s2 = panjer_compound(SectorCompound(0, PoissonCount(250.0), LatticeSeverity.point(1), 250.0), 900)
        combined = convolve_sectors([s1, s2], n_max=900)
        single = panjer_compound(
            SectorCompound(0, PoissonCount(500.0), LatticeSeverity.point(1), 500.0), 900
        )
        assert tv_distance(combined, single) < 1e-10

    def test_poisson_additivity_long_sectors(self):
        # Both Poisson(5,000) sectors keep ~1,200 points above 1e-16 of
        # their peak, so they are convolved through the FFT.
        lam = 5_000.0
        n_max = int(2 * lam + 12 * math.sqrt(2 * lam))
        part = panjer_compound(SectorCompound(0, PoissonCount(lam), LatticeSeverity.point(1), lam), n_max)
        assert np.count_nonzero(part.pmf > part.pmf.max() * 1e-16) > 1024
        combined = convolve_sectors([part, part], n_max=n_max)
        single = panjer_compound(
            SectorCompound(0, PoissonCount(2 * lam), LatticeSeverity.point(1), 2 * lam), n_max
        )
        assert tv_distance(combined, single) < 1e-10

    @pytest.mark.parametrize(
        "sizes", [(300, 2000), (1023, 5000), (1024, 1024), (5000, 3000), (40, 70, 4000, 2500)]
    )
    def test_matches_direct_convolution(self, rng, sizes):
        # Operands on both sides of the FFT size rule, with a far tail of
        # tiny entries that the trim drops and the FFT must not turn negative.
        parts = []
        for size in sizes:
            p = rng.gamma(2.0, size=size) * np.exp(-np.linspace(0.0, 5.0, size))
            p[-size // 4 :] *= 1e-30
            parts.append(LossDistribution(unit=1.0, pmf=p / p.sum()))
        out = convolve_sectors(parts)
        direct = parts[0].pmf
        for d in parts[1:]:
            direct = np.convolve(direct, d.pmf)
        assert out.pmf.min() >= 0.0
        assert abs(out.pmf.sum() - direct.sum()) <= 1e-12
        assert tv_distance(out, LossDistribution(unit=1.0, pmf=direct)) <= 1e-13

    def test_empty_list(self):
        out = convolve_sectors([])
        assert out.pmf.tolist() == [1.0]
        assert out.offset == 0.0

    def test_unit_mismatch(self):
        a = LossDistribution(unit=1.0, pmf=np.array([1.0]))
        b = LossDistribution(unit=2.0, pmf=np.array([1.0]))
        with pytest.raises(DataError):
            convolve_sectors([a, b])


class TestAnnuityLoss:
    def test_degenerate_claims(self):
        s = LossDistribution.point(0.0)
        out = loss_from_annuity(10_000.0, s)
        assert quantile(out, 0.5) == 10_000.0

    def test_reflection_identity(self):
        pf = table1_portfolio(True)
        s = aggregate_loss(pf, [], unit=1.0)
        loss = loss_from_annuity(pf.total_survival_payment(), s)
        for p in (0.01, 0.10, 0.50, 0.90, 0.99):
            assert quantile(loss, p) == 10_000 - quantile(s, 1.0 - p + 1e-12)

    def test_all_paid(self):
        s = LossDistribution.point(10_000.0)
        out = loss_from_annuity(10_000.0, s)
        assert quantile(out, 0.5) == 0.0

    def test_random_total(self):
        x = LossDistribution(unit=1.0, pmf=np.array([0.0, 0.5, 0.5]))
        s = LossDistribution(unit=1.0, pmf=np.array([0.5, 0.5]))
        out = loss_from_annuity(x, s)
        # L = X - S with X in {1, 2}, S in {0, 1}
        values = {out.offset + n * out.unit: p for n, p in enumerate(out.pmf) if p > 0}
        assert values == {0.0: 0.25, 1.0: 0.5, 2.0: 0.25}


class TestQuantile:
    def test_point_mass(self):
        d = LossDistribution.point(7.0)
        for p in (0.01, 0.5, 0.995):
            assert quantile(d, p) == 7.0

    def test_median_of_reference(self):
        dist = aggregate_loss(table1_portfolio(True), [], unit=1.0)
        assert quantile(dist, 0.5) == 500.0

    def test_truncated_tail_rejected(self):
        d = LossDistribution(unit=1.0, pmf=np.array([0.5, 0.3]), truncation_mass=0.2)
        with pytest.raises(NumericalError):
            quantile(d, 0.95)


class TestTotalVariation:
    def test_identical(self):
        d = aggregate_loss(table1_portfolio(True), [], unit=1.0)
        assert tv_distance(d, d) == 0.0

    def test_disjoint(self):
        a = LossDistribution.point(0.0)
        b = LossDistribution.point(5.0)
        assert tv_distance(a, b) == 1.0

    def test_reference_accuracy_bound(self):
        dist = aggregate_loss(table1_portfolio(True), [], unit=1.0)
        ref = _binomial_reference(dist.n_max)
        assert tv_distance(dist, ref) <= 0.0125 + 1e-4


class TestMoments:
    def test_closed_form_matches_engine(self, rng):
        for _ in range(8):
            K = rng.integers(1, 4)
            holders = []
            for i in range(rng.integers(1, 6)):
                values = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], 3, replace=False)
                atoms = dict(zip(values, rng.dirichlet(np.ones(3))))
                holders.append(
                    Policyholder(
                        id=f"h{i}", age_group=0, gender="f", birth_year=0,
                        death_prob=float(rng.uniform(0.01, 0.3)),
                        weights=rng.dirichlet(np.ones(K + 1)),
                        payment=stochastic_round(atoms, 1.0),
                        multiplicity=int(rng.integers(1, 60)),
                    )
                )
            pf = Portfolio(holders=holders)
            rf = [RiskFactorSpec(k=k, variance=float(rng.uniform(0.02, 0.5))) for k in range(1, K + 1)]
            mean, var = model_moments(pf, rf)
            dist = aggregate_loss(pf, rf, unit=1.0, n_max=int(mean + 40 * math.sqrt(var)) + 40)
            assert dist.mean() == pytest.approx(mean, rel=1e-6)
            assert dist.variance() == pytest.approx(var, rel=1e-6)

    def test_idiosyncratic_oracle_equivalence(self, rng):
        # Small portfolio, unit severities: the aggregate equals the
        # convolution of per-head Poisson laws, computed independently.
        q = rng.uniform(0.01, 0.4, 30)
        holders = [
            Policyholder(
                id=f"h{i}", age_group=0, gender="f", birth_year=0, death_prob=float(qi),
                weights=np.array([1.0]), payment=LatticeSeverity.point(1),
            )
            for i, qi in enumerate(q)
        ]
        dist = aggregate_loss(Portfolio(holders=holders), [], unit=1.0, n_max=80)
        acc = np.array([1.0])
        for qi in q:
            acc = np.convolve(acc, stats.poisson.pmf(np.arange(81), qi))[:81]
        ref = LossDistribution(unit=1.0, pmf=acc, truncation_mass=max(0.0, 1 - acc.sum()))
        assert tv_distance(dist, ref.truncated(80)) < 1e-10
