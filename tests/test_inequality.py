from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_spectrum, influence_numerators, random_function
from hypercube_spectra import (
    ScalarGridSpec,
    analyze,
    and_function,
    dictator,
    eq27_gap,
    from_sign_bits,
    lemma24_gap,
    parity,
    q31_report,
    sweep_gap,
    sweep_gap_random,
    wht,
)
from hypercube_spectra.inequality import (
    MAX_GRID_STEPS,
    MAX_RANDOM_TRIPLES,
    SweepResult,
    _gap_grid,
    q31_numerators,
)


def test_lemma24_gap_spot_values():
    # a=0 makes both sides vanish identically
    assert lemma24_gap(0.0, 0.7, 0.3) == pytest.approx(0.0, abs=1e-15)
    # a=b=1: RHS = 3e+2e^2, LHS = (2^(2(1+e)) + 0)/2 - 2 = 2^(1+2e) - 2
    eps = 0.1
    expected = (3 * eps + 2 * eps * eps) - (2.0 ** (1 + 2 * eps) - 2.0)
    assert lemma24_gap(1.0, 1.0, eps) == pytest.approx(expected, abs=1e-12)
    assert lemma24_gap(1.0, 1.0, eps) == pytest.approx(0.32 - (2.0**1.2 - 2.0), abs=1e-12)
    # eps -> 0+: the gap closes
    assert 0.0 <= lemma24_gap(1.0, 1.0, 1e-9) < 1e-8


def test_eq27_gap_spot_values():
    assert eq27_gap(0.0, 1.0, 0.25) == pytest.approx(0.0, abs=1e-15)
    # a=b=1: lower bound is 0 and the cross terms give 2^(1+2e) - 2
    eps = 0.25
    assert eq27_gap(1.0, 1.0, eps) == pytest.approx(2.0 ** (1 + 2 * eps) - 2.0, abs=1e-12)
    assert eq27_gap(0.25, 1.0, 0.1) >= 0.0


def test_gap_domain_validation():
    with pytest.raises(ValueError):
        lemma24_gap(0.5, 0.4, 0.1)  # a > b
    with pytest.raises(ValueError):
        lemma24_gap(0.1, 1.1, 0.1)
    with pytest.raises(ValueError):
        eq27_gap(0.1, 0.9, 0.0)
    with pytest.raises(ValueError):
        eq27_gap(0.1, 0.9, 0.5)


def test_gaps_telescope_to_slack_term():
    # the two bounds sandwich the same expression, so the gaps sum to the slack
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = float(rng.random())
        b = a + (1 - a) * float(rng.random())
        eps = float(rng.uniform(1e-6, 0.4999))
        slack = (3 * eps + 2 * eps * eps) * a
        assert lemma24_gap(a, b, eps) + eq27_gap(a, b, eps) == pytest.approx(slack, abs=1e-12)


def test_grid_sweep_small():
    spec = ScalarGridSpec(steps=60, eps_list=(0.05, 0.25, 0.45))
    for kind in ("lemma24", "eq27"):
        result = sweep_gap(kind, spec)
        assert result.violations == 0
        assert result.min_gap >= -1e-12
        # pairs with a <= b, both axes including the endpoints
        assert result.evaluated == 3 * (60 * 61) // 2


def test_random_sweep_seeded_and_deterministic():
    first = sweep_gap_random("eq27", 2000, seed=5)
    second = sweep_gap_random("eq27", 2000, seed=5)
    assert first == second
    assert first.violations == 0
    assert first.min_gap >= -1e-12


def test_random_sweep_equals_per_sample_reference():
    # the sampling of sweep_gap_random, then one scalar-eps _gap_grid call per triple
    for kind, seed in (("lemma24", 4), ("eq27", 11)):
        rng = np.random.default_rng(seed)
        a = rng.random(3000)
        b = a + (1.0 - a) * rng.random(3000)
        eps = np.clip(rng.random(3000) * 0.5, 1e-9, 0.5 - 1e-9)
        gaps = np.array(
            [_gap_grid(a[i : i + 1], b[i : i + 1], float(eps[i]), kind == "lemma24")[0]
             for i in range(3000)]
        )
        low = int(np.argmin(gaps))
        expected = SweepResult(
            kind,
            3000,
            int(np.count_nonzero(gaps < -1e-12)),
            float(gaps[low]),
            (float(a[low]), float(b[low]), float(eps[low])),
        )
        assert sweep_gap_random(kind, 3000, seed) == expected  # bitwise, no tolerance


def test_scalar_gaps_are_grid_values():
    for a, b, eps in ((0.0, 0.7, 0.3), (0.25, 1.0, 0.1), (0.4, 0.9, 0.49), (1.0, 1.0, 1e-9)):
        grid = np.array([a]), np.array([b])
        assert lemma24_gap(a, b, eps) == _gap_grid(*grid, eps, upper=True)[0]
        assert eq27_gap(a, b, eps) == _gap_grid(*grid, eps, upper=False)[0]


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_gap("lemma25")
    with pytest.raises(ValueError):
        ScalarGridSpec(steps=1)
    with pytest.raises(ValueError):
        ScalarGridSpec(eps_list=(0.5,))
    with pytest.raises(ValueError):
        ScalarGridSpec(eps_list=())
    with pytest.raises(ValueError):
        ScalarGridSpec(steps=MAX_GRID_STEPS + 1)
    assert ScalarGridSpec(steps=MAX_GRID_STEPS).steps == MAX_GRID_STEPS
    with pytest.raises(ValueError):
        sweep_gap_random("eq27", 0, seed=1)
    with pytest.raises(ValueError, match="at most 2097152 triples"):
        sweep_gap_random("eq27", MAX_RANDOM_TRIPLES + 1, seed=1)  # refused before it allocates


# -- Question 3.1 reports ----------------------------------------------------


def brute_q31_numerator(f, k: int) -> Fraction:
    coeffs = brute_spectrum(f)
    n = f.n
    total = 0
    for mask in range(1 << n):
        if mask & (1 << (k - 1)):
            continue
        total += abs(coeffs[mask] * coeffs[mask | (1 << (k - 1))])
    return Fraction(total, 4**n)


def test_q31_and_function_closed_form():
    # every coordinate of the n-bit And gives exactly 2 - 2^(2-n)
    for n in range(2, 11):
        report = q31_report(and_function(n))
        expected = 2 - Fraction(4, 2**n)
        for entry in report.per_coord:
            assert entry.ratio == expected
        assert report.best == report.worst == expected


def test_q31_parity_and_dictator():
    report = q31_report(parity(3))
    # single nonzero coefficient: no cross terms at all
    for entry in report.per_coord:
        assert entry.numerator == 0
        assert entry.ratio == 0
    report = q31_report(dictator(3))
    assert report.per_coord[0].ratio == 0
    assert report.per_coord[1].ratio is None  # zero influence
    assert report.worst == 0


def test_q31_constant_has_no_defined_ratio():
    from hypercube_spectra import BooleanFunction

    report = q31_report(BooleanFunction(3, 0))
    assert report.best is None and report.worst is None


def test_q31_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        f = random_function(rng, n)
        report = q31_report(f)
        influences = analyze(f).influences
        for k in range(1, n + 1):
            expected = brute_q31_numerator(f, k)
            assert report.per_coord[k - 1].numerator == expected
            if influences[k - 1] > 0:
                assert report.per_coord[k - 1].ratio == expected / influences[k - 1]


def test_q31_int64_exact_at_am_gm_ceiling():
    # Inner-product bent function x1x2 + x3x4 + ... + x21x22 at n = 22: every
    # |c_S| = 2^11, so each numerator sum reaches the AM-GM ceiling 2^(2n-1).
    n = 22
    idx = np.arange(1 << n, dtype=np.int64)
    bits = np.bitwise_count(idx & (idx >> 1) & 0x155555) & 1
    f = from_sign_bits(bits.astype(np.uint8))
    assert (np.abs(wht(f).coeffs) == 1 << 11).all()
    report = q31_report(f)
    for entry in report.per_coord:
        assert entry.numerator == entry.influence == Fraction(1, 2)
        assert entry.ratio == 1


@pytest.mark.parametrize("n", [*range(1, 13), 16, 21])
def test_q31_report_matches_whole_table_int64_sums(n):
    # the walker's float64 |c| and per-block marginals against int64 sums
    # over the whole int64 spectrum; from n = 16 on the walk takes several
    # blocks, and n = 21 runs the narrow transform stages
    f = random_function(np.random.default_rng(300 + n), n)
    coeffs = wht(f).coeffs
    report = q31_report(f)
    numerators = q31_numerators(np.abs(coeffs)).tolist()
    influences = influence_numerators(coeffs * coeffs).tolist()
    assert [c.numerator * 4**n for c in report.per_coord] == numerators
    assert [c.influence * 4**n for c in report.per_coord] == influences


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_q31_cauchy_schwarz_cap(n, seed):
    # N_k^2 <= I_k (1 - I_k) exactly, so ratios never exceed sqrt((1-I_k)/I_k)
    f = random_function(np.random.default_rng(seed), n)
    report = q31_report(f)
    influences = analyze(f).influences
    for k in range(1, n + 1):
        ik = influences[k - 1]
        nk = report.per_coord[k - 1].numerator
        assert nk * nk <= ik * (1 - ik)

