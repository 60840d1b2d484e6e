import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    analyze_oracle,
    concentration_oracle,
    negated,
    peak_probe,
    random_function,
    relabelled,
)
from hypercube_spectra import (
    BooleanFunction,
    analyze,
    and_function,
    concentration_count,
    dictator,
    first_even_group,
    majority,
    minblock,
    parity,
    tribes,
    wht,
)
from hypercube_spectra.cli import render_json
from hypercube_spectra.spectrum import _GROUP_ENTRIES

LN2 = math.log(2.0)


def spectrum_of(f):
    return wht(f)


def test_entropy_examples():
    assert analyze(parity(4)).entropy_bits == 0.0
    assert analyze(dictator(5, 2)).entropy_bits == 0.0
    assert analyze(majority(3)).entropy_bits == pytest.approx(2.0, abs=1e-12)


def test_entropy_by_direct_summation():
    # independent of the integer shortcut: float weights, plain sum
    rng = np.random.default_rng(77)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        f = random_function(rng, n)
        s = wht(f)
        weights = (s.coeffs.astype(float) / 2**n) ** 2
        expected = -sum(w * math.log2(w) for w in weights if w > 0)
        assert analyze(f).entropy_bits == pytest.approx(expected, abs=1e-10)


def test_first_even_group_small_is_dictator_like():
    # s=1, t=2 collapses to -x1, so its entropy vanishes
    assert analyze(first_even_group(1, 2)).entropy_bits == 0.0


def test_min_entropy_examples():
    assert analyze(dictator(4)).min_entropy_bits == 0.0
    assert analyze(majority(3)).min_entropy_bits == pytest.approx(2.0)
    assert analyze(and_function(2)).min_entropy_bits == pytest.approx(2.0)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_min_entropy_below_entropy(n, seed):
    report = analyze(random_function(np.random.default_rng(seed), n))
    assert report.min_entropy_bits <= report.entropy_bits + 1e-12


def magnitudes(f):
    return np.abs(wht(f).coeffs)


def test_concentration_examples():
    assert concentration_count(magnitudes(parity(3)), (0.5,)) == (1,)
    assert concentration_count(magnitudes(majority(3)), (0.3, 0.2)) == (3, 4)
    # all four weights equal (1/4): need ceil(3/4 / (1/4)) = 3 of them
    assert concentration_count(magnitudes(and_function(2)), (0.25,)) == (3,)


def test_concentration_monotone_and_validated():
    s = magnitudes(majority(5))
    counts = concentration_count(s, (0.9, 0.5, 0.2, 0.05, 0.01))
    assert list(counts) == sorted(counts)
    with pytest.raises(ValueError):
        concentration_count(s, (0.0,))
    with pytest.raises(ValueError):
        concentration_count(s, (0.5, 1.0))


def test_concentration_tie_break_is_deterministic():
    s = magnitudes(and_function(2))  # weights 1/4, 1/4, 1/4, 1/4
    # which of the equal weights come first cannot change the count
    assert concentration_count(s, (0.6,)) == (2,)


def test_concentration_on_cumulative_boundaries():
    # 1 - delta lands exactly on a sum of whole weights: 3/4, 2/4, 1/4 of
    # and(2)'s four weights 1/4, and inside the second run of majority(3)
    # (weights 1/4 four times), and inside a run's members for tribes
    deltas = (0.25, 0.5, 0.6, 0.75)
    f = and_function(2)
    assert concentration_count(magnitudes(f), deltas) == (3, 2, 2, 1)
    for f in (f, majority(3), tribes(2, 3), minblock(2, 3)):
        squared = wht(f).coeffs ** 2
        assert concentration_count(magnitudes(f), deltas) == concentration_oracle(squared, deltas)
        assert analyze(f, deltas) == analyze_oracle(f, deltas)


# blocks of _GROUP_ENTRIES = 2^_BLOCK_BITS entries: n = _BLOCK_BITS + 1 walks
# 2 of them and n = _BLOCK_BITS + 5 walks 32, whatever the constant; n = 16
# and n = 20 walk 1 and 16 at 2^16
_BLOCK_BITS = _GROUP_ENTRIES.bit_length() - 1


@pytest.mark.parametrize("n", [*range(1, 15), 16, 20, _BLOCK_BITS + 1, _BLOCK_BITS + 5])
def test_analyze_matches_whole_table_oracle(n):
    rng = np.random.default_rng(600 + n)
    for _ in range(6):
        f = random_function(rng, n)
        assert analyze(f) == analyze_oracle(f)


@pytest.mark.parametrize("label", ["parity", "one-point", "one-point-negated", "tribes:w=4,s=6"])
def test_analyze_matches_whole_table_oracle_at_n24(label):
    # the extremes of the n = 24 spectrum: all weight on one character;
    # c_0 = 2^24 - 2 and every other c_S = -2 (and the negation); tribes'
    # 2^24 magnitudes in only 7 runs
    f = {
        "parity": lambda: parity(24),
        "one-point": lambda: BooleanFunction(24, 1),
        "one-point-negated": lambda: negated(BooleanFunction(24, 1)),
        "tribes:w=4,s=6": lambda: tribes(4, 6),
    }[label]()
    report = analyze(f)
    assert report == analyze_oracle(f)
    if label == "tribes:w=4,s=6":
        assert len(np.unique(magnitudes(f))) == 7


def test_analyze_n24_runs_in_bounded_memory():
    # the float32 coefficients, one float32 stage partner and the sign
    # bits, with no full-table entropy terms: about 194 MB.  A terms table
    # in the walk's spare array would fault in 64 MB more, as it did at
    # 256 MB; the whole-table int64 passes peaked at 423 MB
    code, lines, peak_mb = peak_probe("analyze", "--family", "tribes:w=4,s=6")
    assert (code, lines) == (0, 1)
    assert peak_mb < 212.0


def test_q31_n24_runs_in_bounded_memory():
    # the float32 coefficients, float64 |c| in the walk's spare array and
    # the sign bits: about 255 MB
    code, lines, peak_mb = peak_probe("q31", "--family", "tribes:w=4,s=6")
    assert (code, lines) == (0, 1)
    assert peak_mb < 280.0


@pytest.mark.parametrize("n", range(17, 25))
def test_numpy_sums_contiguous_runs_by_halves(n):
    # analyze adds its 2^16-entry block sums in pairs, level by level, and
    # keeps the bits of one sum over the whole 2^n terms because numpy sums
    # a contiguous float64 run of a power of two (>= 2^8) entries pairwise,
    # split at its half.  A numpy that changes the split fails here, not in
    # the last bit of a printed entropy.
    rng = np.random.default_rng(n)
    x = np.ldexp(rng.standard_normal(1 << n), rng.integers(-30, 30, 1 << n, dtype=np.int32))
    sums = [block.sum() for block in x.reshape(-1, 1 << 16)]
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    assert sums[0] == x.sum()


def test_term_sum_examples():
    assert analyze(parity(4)).term_sum_bits == 0.0
    # four coordinates at influence 1/2
    assert analyze(minblock(2, 2)).term_sum_bits == pytest.approx(2.0, abs=1e-12)


def test_bound_closed_forms():
    # dictator: I = I_1 = 1, bound = (3 + ln 4)/ln 2
    bound = analyze(dictator(6)).bound_bits
    assert bound == pytest.approx((3 + math.log(4)) / LN2, rel=1e-12)
    # parity of s over n: s coordinates of influence 1
    bound = analyze(parity(2, 4)).bound_bits
    assert bound == pytest.approx(2 * (3 + math.log(4)) / LN2, rel=1e-12)
    # majority of 3: I_k = 1/2
    expected = (3 * 1.5 + 1.5 * math.log(8)) / LN2
    assert analyze(majority(3)).bound_bits == pytest.approx(expected, rel=1e-12)


def test_drop_one_bound_closed_forms():
    # dictator keeps the 3I part only
    assert analyze(dictator(3)).bound_drop_one_bits == pytest.approx(3 / LN2, rel=1e-12)
    # parity of 2: one of two identical terms survives
    expected = (3 * 2 + math.log(4)) / LN2
    assert analyze(parity(2)).bound_drop_one_bits == pytest.approx(expected, rel=1e-12)


def test_jensen_cap_examples():
    assert analyze(parity(3)).jensen_cap_bits == pytest.approx(0.0, abs=1e-12)
    report = analyze(minblock(2, 2))
    # equality case: all influences equal
    assert report.jensen_cap_bits == pytest.approx(report.term_sum_bits, abs=1e-12)
    assert analyze(majority(3)).jensen_cap_bits == pytest.approx(1.5 * math.log2(2.0), abs=1e-12)
    # undefined for constant functions (I = 0)
    assert analyze(BooleanFunction(3, 0)).jensen_cap_bits is None


@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=60)
def test_jensen_cap_dominates_term_sum(n, seed):
    report = analyze(random_function(np.random.default_rng(seed), n))
    if report.influence_total == 0:
        return
    assert report.term_sum_bits <= report.jensen_cap_bits + 1e-12


def test_bounds_dominate_entropy_exhaustively_n_le_3():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            report = analyze(BooleanFunction(n, table))
            ent = report.entropy_bits
            assert ent <= report.bound_bits + 1e-9
            assert ent <= report.bound_drop_one_bits + 1e-9


def test_invariance_under_relabelling_and_negation():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = random_function(rng, n)
        perm = rng.permutation(n) + 1
        g = negated(relabelled(f, perm.tolist()))
        report_f, report_g = analyze(f), analyze(g)
        assert report_g.entropy_bits == pytest.approx(report_f.entropy_bits, abs=1e-12)
        assert report_g.min_entropy_bits == pytest.approx(report_f.min_entropy_bits, abs=1e-12)
        assert sorted(report_g.influences) == sorted(report_f.influences)


def test_analyze_report_is_consistent():
    f = majority(3)
    report = analyze(f)
    assert report.n == 3
    assert report.entropy_bits == pytest.approx(2.0)
    assert report.influence_total == sum(report.influences)
    assert report.bound_drop_one_bits <= report.bound_bits
    assert report.entropy_bits <= report.bound_bits
    assert [c for _, c in report.concentration] == [2, 3, 4, 4]
    assert report.concentration[0] == (0.5, 2)  # a named tuple equals the plain pair
    d = json.loads(render_json(report))
    assert d["influences"] == ["1/2", "1/2", "1/2"]
    assert d["influence_total"] == "3/2"


def test_analyze_constant_has_absent_cap():
    report = analyze(BooleanFunction(2, 0))
    assert report.jensen_cap_bits is None
    assert report.entropy_bits == 0.0
    assert report.influence_total == 0
