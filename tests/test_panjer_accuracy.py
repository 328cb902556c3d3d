"""Accuracy of the multi-atom Panjer recursion against a 50-digit reference.

The reference runs the same (a, b, 0) recursion in mpmath at 50 significant
digits from the sector's own double-precision inputs, so its own rounding
lies far below the engine's.  Each case measures the engine's largest
relative error where the pmf exceeds 1e-20 and must be no worse than that
of the earlier engine, whose in-block lags went through a dense unit
triangular solve over 128-value blocks (the last column of CASES, rounded
up to two digits; the banded n g_n solve's own figure follows it in the
comment), up to ``SLACK``.

``SLACK`` is one spacing of doubles at |ln 1e-20| = 46: an entry near 1e-20
is the exp of a sum of that size, so its relative error is resolved no
finer than that.  Within it, which of two engines comes out ahead is
chance: on 34 random Poisson and negative binomial cases (smallest
payments from 1 to 99, up to 250 lattice points of severity, n up to
4,000), the banded solve came out better on 17, equal on 11 and worse on
6, by at most 2.0e-15, every figure between 1.7e-15 and 8.7e-15.  Of the
cases below only m40 comes out worse, 8.2e-15 against 6.9e-15.
"""

import math

import mpmath
import pytest

from ecrplus.aggregation import NegBinCount, PoissonCount, SectorCompound, panjer_compound
from ecrplus.domain import LatticeSeverity

FLOOR = 1e-20


def _severity(atoms: dict) -> LatticeSeverity:
    total = sum(atoms.values())
    return LatticeSeverity(unit=1.0, pmf={j: p / total for j, p in atoms.items()})


# The resolution of the final exp step at the smallest entry checked.
SLACK = 2.0**-47

# name: (count law, severity atoms, dense-solve error); banded-solve error
CASES = {
    # m = 1 with a narrow band (J = 49 < 128); 4.2e-15.
    "m1-narrow": (PoissonCount(40.0), {1: 3, 2: 1, 5: 2, 9: 1, 14: 2, 20: 1, 27: 3, 35: 1,
                                       42: 2, 49: 1}, 4.7e-15),
    # m = 1 with a wide band (J = 200 >= 128); 7.1e-15.
    "m1-wide": (PoissonCount(8.0), {1: 2, 2: 1, 60: 1, 130: 1, 200: 1}, 7.2e-15),
    # Smallest payment between 2 and 127; 8.2e-15.
    "m40": (PoissonCount(15.0), {40: 1, 47: 2, 61: 1, 90: 1, 120: 1}, 6.9e-15),
    # 3.0e-14.
    "poisson": (PoissonCount(500.0), {1: 1, 2: 1}, 3.1e-14),
    # 1.8e-14.
    "negbin-r5": (NegBinCount(5.0, 5.0 / 205.0), {1: 1, 2: 1, 4: 1, 7: 1}, 3.2e-14),
    # r < 1: b = (r - 1)(1 - p) < 0; 3.0e-14.
    "negbin-r0.5": (NegBinCount(0.5, 0.5 / 50.5), {2: 1, 3: 1, 6: 1}, 4.4e-14),
    # g_512 / g_0 is about 1e591: the first blocks overflow and are halved;
    # 4.4e-14.
    "overflow": (PoissonCount(3000.0), {1: 9, 3: 1}, 1.6e-13),
}


def _lattice(sector: SectorCompound) -> int:
    return int(math.ceil(sector.mean() + 12.0 * math.sqrt(sector.var())))


def _reference(sector: SectorCompound, n_max: int) -> list:
    """g_0 .. g_{n_max} by the recursion in mpmath (no zero-size payment)."""
    with mpmath.workdps(50):
        law = sector.count_law
        if isinstance(law, PoissonCount):
            a, b = mpmath.mpf(0), mpmath.mpf(law.lam)
            g0 = mpmath.exp(-b)
        else:
            r, p = mpmath.mpf(law.r), mpmath.mpf(law.p)
            a, b = 1 - p, (r - 1) * (1 - p)
            g0 = p**r
        atoms = sorted(sector.severity.pmf.items())
        af = [(j, a * mpmath.mpf(f)) for j, f in atoms]
        bjf = [(j, b * j * mpmath.mpf(f)) for j, f in atoms]
        g = [g0]
        for n in range(1, n_max + 1):
            s1 = mpmath.fsum(c * g[n - j] for j, c in af if j <= n)
            s2 = mpmath.fsum(c * g[n - j] for j, c in bjf if j <= n)
            g.append(s1 + s2 / n)
        return g


def _sector(name: str) -> SectorCompound:
    count, atoms, _ = CASES[name]
    return SectorCompound(0, count, _severity(atoms), count.mean())


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_less_accurate_than_the_dense_solve(name):
    sector = _sector(name)
    n_max = _lattice(sector)
    ref = _reference(sector, n_max)
    pmf = panjer_compound(sector, n_max).pmf
    worst = max(float(abs(mpmath.mpf(float(got)) / want - 1))
                for got, want in zip(pmf, ref) if want > FLOOR)
    assert worst <= CASES[name][2] + SLACK


def test_overflow_case_overflows_its_first_block():
    # The first 512-value block (B for J < 128) spans more than the double range.
    ref = _reference(_sector("overflow"), 512)
    assert ref[512] / ref[0] > mpmath.mpf("1e308")
