import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_function
from hypercube_spectra import (
    BooleanFunction,
    analyze,
    and_function,
    concentration_count,
    dictator,
    first_even_group,
    fourier_entropy,
    influence_entropy_bound,
    influence_entropy_bound_drop_one,
    influences_spectral,
    jensen_cap_bits,
    majority,
    min_entropy,
    minblock,
    parity,
    term_sum_bits,
    wht,
)

LN2 = math.log(2.0)


def spectrum_of(f):
    return wht(f)


def test_entropy_examples():
    assert fourier_entropy(wht(parity(4))) == 0.0
    assert fourier_entropy(wht(dictator(5, 2))) == 0.0
    assert fourier_entropy(wht(majority(3))) == pytest.approx(2.0, abs=1e-12)


def test_entropy_by_direct_summation():
    # independent of the integer shortcut: float weights, plain sum
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        f = random_function(rng, n)
        s = wht(f)
        weights = (s.coeffs.astype(float) / 2**n) ** 2
        expected = -sum(w * math.log2(w) for w in weights if w > 0)
        assert fourier_entropy(s) == pytest.approx(expected, abs=1e-10)


def test_first_even_group_small_is_dictator_like():
    # s=1, t=2 collapses to -x1, so its entropy vanishes
    assert fourier_entropy(wht(first_even_group(1, 2))) == 0.0


def test_min_entropy_examples():
    assert min_entropy(wht(dictator(4))) == 0.0
    assert min_entropy(wht(majority(3))) == pytest.approx(2.0)
    assert min_entropy(wht(and_function(2))) == pytest.approx(2.0)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_min_entropy_below_entropy(n, seed):
    s = wht(random_function(np.random.default_rng(seed), n))
    assert min_entropy(s) <= fourier_entropy(s) + 1e-12


def test_concentration_examples():
    assert concentration_count(wht(parity(3)), (0.5,)) == (1,)
    assert concentration_count(wht(majority(3)), (0.3, 0.2)) == (3, 4)
    # all four weights equal (1/4): need ceil(3/4 / (1/4)) = 3 of them
    assert concentration_count(wht(and_function(2)), (0.25,)) == (3,)


def test_concentration_monotone_and_validated():
    s = wht(majority(5))
    counts = concentration_count(s, (0.9, 0.5, 0.2, 0.05, 0.01))
    assert list(counts) == sorted(counts)
    with pytest.raises(ValueError):
        concentration_count(s, (0.0,))
    with pytest.raises(ValueError):
        concentration_count(s, (0.5, 1.0))


def test_concentration_tie_break_is_deterministic():
    s = wht(and_function(2))  # weights 1/4, 1/4, 1/4, 1/4
    # which of the equal weights come first cannot change the count
    assert concentration_count(s, (0.6,)) == (2,)


def test_term_sum_examples():
    assert term_sum_bits(influences_spectral(wht(parity(4)))) == 0.0
    prof = influences_spectral(wht(minblock(2, 2)))
    # four coordinates at influence 1/2
    assert term_sum_bits(prof) == pytest.approx(2.0, abs=1e-12)


def test_bound_closed_forms():
    # dictator: I = I_1 = 1, bound = (3 + ln 4)/ln 2
    prof = influences_spectral(wht(dictator(6)))
    assert influence_entropy_bound(prof) == pytest.approx((3 + math.log(4)) / LN2, rel=1e-12)
    # parity of s over n: s coordinates of influence 1
    prof = influences_spectral(wht(parity(2, 4)))
    assert influence_entropy_bound(prof) == pytest.approx(2 * (3 + math.log(4)) / LN2, rel=1e-12)
    # majority of 3: I_k = 1/2
    prof = influences_spectral(wht(majority(3)))
    expected = (3 * 1.5 + 1.5 * math.log(8)) / LN2
    assert influence_entropy_bound(prof) == pytest.approx(expected, rel=1e-12)


def test_drop_one_bound_closed_forms():
    # dictator keeps the 3I part only
    prof = influences_spectral(wht(dictator(3)))
    assert influence_entropy_bound_drop_one(prof) == pytest.approx(3 / LN2, rel=1e-12)
    # parity of 2: one of two identical terms survives
    prof = influences_spectral(wht(parity(2)))
    expected = (3 * 2 + math.log(4)) / LN2
    assert influence_entropy_bound_drop_one(prof) == pytest.approx(expected, rel=1e-12)


def test_jensen_cap_examples():
    assert jensen_cap_bits(influences_spectral(wht(parity(3)))) == pytest.approx(0.0, abs=1e-12)
    prof = influences_spectral(wht(minblock(2, 2)))
    # equality case: all influences equal
    assert jensen_cap_bits(prof) == pytest.approx(term_sum_bits(prof), abs=1e-12)
    prof = influences_spectral(wht(majority(3)))
    assert jensen_cap_bits(prof) == pytest.approx(1.5 * math.log2(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        jensen_cap_bits(influences_spectral(wht(BooleanFunction(3, 0))))


@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_jensen_cap_dominates_term_sum(n, seed):
    f = random_function(np.random.default_rng(seed), n)
    prof = influences_spectral(wht(f))
    if prof.total == 0:
        return
    assert term_sum_bits(prof) <= jensen_cap_bits(prof) + 1e-12


def test_bounds_dominate_entropy_exhaustively_n_le_3():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            s = wht(f)
            prof = influences_spectral(s)
            ent = fourier_entropy(s)
            assert ent <= influence_entropy_bound(prof) + 1e-9
            assert ent <= influence_entropy_bound_drop_one(prof) + 1e-9


def test_invariance_under_relabelling_and_negation():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = random_function(rng, n)
        perm = rng.permutation(n) + 1
        g = f.permute(perm.tolist()).negate()
        assert fourier_entropy(wht(g)) == pytest.approx(fourier_entropy(wht(f)), abs=1e-12)
        assert min_entropy(wht(g)) == pytest.approx(min_entropy(wht(f)), abs=1e-12)
        assert sorted(influences_spectral(wht(g)).per_coord) == sorted(
            influences_spectral(wht(f)).per_coord
        )


def test_analyze_report_is_consistent():
    f = majority(3)
    report = analyze(f)
    assert report.n == 3
    assert report.entropy_bits == pytest.approx(2.0)
    assert report.influence_total == sum(report.influences)
    assert report.bound_drop_one_bits <= report.bound_bits
    assert report.entropy_bits <= report.bound_bits
    assert [c for _, c in report.concentration] == [2, 3, 4, 4]
    d = report.as_dict()
    assert d["influences"] == ["1/2", "1/2", "1/2"]
    assert d["influence_total"] == "3/2"


def test_analyze_constant_has_absent_cap():
    report = analyze(BooleanFunction(2, 0))
    assert report.jensen_cap_bits is None
    assert report.entropy_bits == 0.0
    assert report.influence_total == 0
