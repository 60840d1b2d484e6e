import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    analyze_oracle,
    brute_spectrum,
    butterfly_spectrum,
    negated,
    parseval_sums,
    random_function,
    relabelled,
    weighted_degree_sum,
)
from hypercube_spectra import (
    BooleanFunction,
    analyze,
    and_function,
    batch_stats,
    dictator,
    influences_combinatorial,
    majority,
    parity,
    wht,
)
from hypercube_spectra.spectrum import (
    _GROUP_ENTRIES,
    group_rows,
    partial_hadamard_inplace,
    sign_spectrum,
    stage_widths,
    walk_spectrum,
)


def test_wht_dictator():
    s = wht(dictator(1))
    assert s.coeffs.tolist() == [0, 2]


def test_wht_parity_concentrates_on_full_mask():
    s = wht(parity(2))
    assert s.coeffs.tolist() == [0, 0, 0, 4]


def test_wht_majority3():
    s = wht(majority(3))
    # characters: {}, {1}, {2}, {1,2}, {3}, {1,3}, {2,3}, {1,2,3}
    assert s.coeffs.tolist() == [0, 4, 4, 0, 4, 0, 0, -4]


def test_wht_and():
    s = wht(and_function(3))
    assert s.coeffs[0] == -8 + 2  # 2^n(-1 + 2^(1-n))
    assert all(c == 2 for c in s.coeffs[1:])


def test_wht_matches_brute_force():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        f = random_function(rng, n)
        assert wht(f).coeffs.tolist() == brute_spectrum(f)


@pytest.mark.parametrize("n", range(1, 13))
def test_batched_transform_matches_butterflies(n):
    # one stage up to n = 5, two up to n = 10, three at n = 11 and 12; the
    # first stage multiplies groups of whole rows (2^12 entries at most),
    # which odd row counts leave one row each, and a full search row group
    # of group_rows(n) rows holds several such groups
    rng = np.random.default_rng(100 + n)
    for count in (1, 5, 97, group_rows(n) - 1, group_rows(n)):
        bits = rng.integers(0, 2, size=(count, 1 << n), dtype=np.uint8)
        expected = butterfly_spectrum(bits)
        got = sign_spectrum(bits)
        assert got.dtype == np.int64
        assert (got == expected).all()
        # into a caller's float32 buffer, the last stage's, with the other
        # stage buffer in a caller's scratch of bits.size entries
        out = np.empty(bits.shape, dtype=np.float32)
        assert sign_spectrum(bits, out, np.empty(bits.size, dtype=np.float32)) is out
        assert (out == expected).all()


@pytest.mark.parametrize("n", range(1, 25))
def test_stage_plan_covers_every_bit_once(n):
    # a stage of d bits works at bit p, the sum of the earlier widths, and
    # leaves every other bit where it is: the stages' bit ranges must tile
    # 0..n-1, each bit transformed once, in as few balanced stages as <= 5
    # bits allow, the widest first
    widths = stage_widths(n)
    assert max(widths) <= 5
    assert len(widths) == -(-n // 5)  # no stage wasted
    assert max(widths) - min(widths) <= 1
    assert widths == sorted(widths, reverse=True)
    positions = np.cumsum([0, *widths[:-1]]).tolist()
    transformed = [p + b for p, d in zip(positions, widths) for b in range(d)]
    assert transformed == list(range(n))


@pytest.mark.parametrize("n", range(13, 25))
def test_single_table_transform_matches_butterflies(n):
    # three stages up to n = 15, four up to n = 20, five from n = 21; the
    # first stage's product spans the one row; into int64 (wht) and into
    # float32, as analyze and q31 take it: the last stage writes `out`
    # whether the stage count is odd (the +-1 table starts in the scratch
    # of f.size entries) or even (it starts in `out`)
    f = random_function(np.random.default_rng(n), n)
    expected = butterfly_spectrum(f.bits())
    assert (wht(f).coeffs == expected).all()
    out = np.empty(f.size, dtype=np.float32)
    assert sign_spectrum(f.bits(), out, np.empty(f.size, dtype=np.float32)) is out
    assert (out == expected).all()


def test_transform_is_exact_at_the_n24_ceiling():
    # |c_S| reaches 2^24, the top of the float32 exactness argument
    for f, top in ((BooleanFunction(24, 0), 0), (parity(24), (1 << 24) - 1)):
        coeffs = wht(f).coeffs
        assert coeffs.dtype == np.int64
        assert abs(int(coeffs[top])) == 1 << 24
        assert np.count_nonzero(coeffs) == 1
    # the one-point function (-1 at x = 0 only) and its negation:
    # c_empty = +-(2^24 - 2) lies in float32's top binade, where adjacent
    # floats are 1 apart, and c_S = -+2 for every other S
    for f, sign in ((BooleanFunction(24, 1), 1), (negated(BooleanFunction(24, 1)), -1)):
        coeffs = wht(f).coeffs
        assert coeffs[0] == sign * ((1 << 24) - 2)
        assert (coeffs[1:] == -2 * sign).all()


def test_parseval_all_n3_tables():
    for table in range(256):
        assert wht(BooleanFunction(3, table)).parseval_ok()


@given(st.integers(1, 10), st.integers(0, 2**64 - 1))
@settings(deadline=None, max_examples=60)
def test_parseval_random(n, seed):
    f = random_function(np.random.default_rng(seed), n)
    assert int((wht(f).coeffs ** 2).sum()) == 4**n


def test_partial_transform_composes_to_full():
    rng = np.random.default_rng(10)
    f = random_function(rng, 6)
    a = partial_hadamard_inplace(f.values(), [0, 3, 5])
    a = partial_hadamard_inplace(a, [1, 2, 4])
    assert (a == wht(f).coeffs).all()


def test_partial_transform_order_irrelevant():
    rng = np.random.default_rng(12)
    f = random_function(rng, 5)
    a = partial_hadamard_inplace(f.values(), [4, 0, 2])
    b = partial_hadamard_inplace(f.values(), [0, 2, 4])
    assert (a == b).all()


def test_influences_examples():
    assert [str(x) for x in influences_combinatorial(dictator(3)).per_coord] == ["1", "0", "0"]
    assert [str(x) for x in influences_combinatorial(and_function(2)).per_coord] == ["1/2", "1/2"]
    prof = influences_combinatorial(majority(3))
    assert prof.total == pytest.approx(1.5)


def test_influence_defs_agree_exhaustively_n_le_3():
    for n in (1, 2, 3):
        for table in range(1 << (1 << n)):
            f = BooleanFunction(n, table)
            assert influences_combinatorial(f).per_coord == analyze(f).influences


def test_influence_defs_agree_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(4, 11))
        f = random_function(rng, n)
        assert influences_combinatorial(f).per_coord == analyze(f).influences


def _walk_numerators(bits: np.ndarray) -> np.ndarray:
    return walk_spectrum(bits, lambda *_: None)[2]


@pytest.mark.parametrize("n", range(1, 13))
def test_influence_numerators_match_per_coordinate_sums(n):
    # odd n splits the index into unequal halves; row 0 is a constant function
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(5, 1 << n), dtype=np.uint8)
    bits[0] = 0
    coeffs = sign_spectrum(bits)
    squared = coeffs * coeffs
    members = np.arange(1 << n)
    brute = np.stack(
        [squared[:, (members >> k) & 1 == 1].sum(axis=1) for k in range(n)], axis=1
    )
    assert np.array_equal(_walk_numerators(bits), brute)
    assert np.array_equal(_walk_numerators(bits[2:3]), brute[2:3])  # a walk of one row
    assert brute[0].tolist() == [0] * n


def test_influence_numerators_at_the_n24_ceiling():
    # parity(24) puts all 4^24 of its weight on S = [24], which holds every k
    assert _walk_numerators(parity(24).bits()[None]).tolist() == [[4**24] * 24]


# part of and a whole search row group at n = 12; one table of one block
# (2^16 entries) and one of two
@pytest.mark.parametrize(
    "n, rows", [(12, 8), (12, group_rows(12)), (16, 1), (_GROUP_ENTRIES.bit_length(), 1)]
)
def test_walk_allocates_its_one_scratch_and_no_block_of_squares_per_block(n, rows):
    # The walk's scratch holds spare (its front half the stage partner), the
    # coefficients and the block of _GROUP_ENTRIES float64 squares; beyond it
    # a walk allocates only the marginals and small temporaries, not a block
    # of squares per block.
    bits = np.random.default_rng(n).integers(0, 2, size=(rows, 1 << n), dtype=np.uint8)
    scratch_bytes = (3 * bits.size // 2 + min(bits.size, _GROUP_ENTRIES)) * 8
    tracemalloc.start()
    try:
        got = walk_spectrum(bits, lambda *_: None)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _walk_numerators(bits))
    assert peak - scratch_bytes < _GROUP_ENTRIES * 8


def test_weighted_degree_sum_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        f = random_function(rng, n)
        s = wht(f)
        total = influences_combinatorial(f).total
        assert weighted_degree_sum(s) == 4**n * total


def test_batch_stats_matches_single_function_paths():
    from hypercube_spectra import analyze, q31_report

    rng = np.random.default_rng(8)
    # one, two unequal, two equal, three and four stages; from n = 13 on,
    # the squares and the q31 sums of |c| products pass float32's 2^24; the
    # walk takes blocks of 2^g entries: three rows of 2^(g-1) end in a short
    # block, a row of 2^(g+1) or 2^(g+2) spans several
    g = _GROUP_ENTRIES.bit_length() - 1
    for n, count in ((5, 40), (9, 12), (10, 6), (12, 4), (g - 1, 3), (g + 1, 2), (g + 2, 1)):
        fns = [random_function(rng, n) for _ in range(count)]
        bits = np.stack([f.bits() for f in fns])
        stats, numerators = batch_stats(bits), _walk_numerators(bits)
        for i, f in enumerate(fns):
            report = analyze(f)
            # and a whole-table int64 oracle, which shares no walk with either
            oracle = analyze_oracle(f)
            assert stats["entropy"][i] == oracle.entropy_bits
            assert stats["min_entropy"][i] == oracle.min_entropy_bits
            assert stats["term_sum"][i] == oracle.term_sum_bits
            assert stats["bound"][i] == oracle.bound_bits
            # one kernel serves both: a batch row equals the single-function report
            assert stats["entropy"][i] == report.entropy_bits
            assert stats["min_entropy"][i] == report.min_entropy_bits
            assert stats["term_sum"][i] == report.term_sum_bits
            assert stats["bound"][i] == report.bound_bits
            assert stats["bound_drop_one"][i] == report.bound_drop_one_bits
            assert stats["jensen_cap"][i] == report.jensen_cap_bits
            assert stats["influence_total"][i] == float(influences_combinatorial(f).total)
            assert numerators[i].tolist() == [
                ik * 4**n for ik in influences_combinatorial(f).per_coord
            ]
            # both sides are correctly rounded quotients of the same integers
            assert stats["q31_worst"][i] == float(q31_report(f).worst)
        assert parseval_sums(bits).tolist() == [4**n] * len(fns)


def test_batch_stats_invariant_under_relabelling():
    # influences are sorted before any float sum, so relabelling the
    # coordinates cannot move a single bit of these columns
    columns = ("influence_total", "term_sum", "bound", "bound_drop_one",
               "jensen_cap", "min_entropy", "q31_worst")
    rng = np.random.default_rng(12)
    for n in (3, 5, 8, 10):
        fns = [random_function(rng, n) for _ in range(30)]
        perms = [(rng.permutation(n) + 1).tolist() for _ in fns]
        stats = batch_stats(np.stack([f.bits() for f in fns]))
        moved = batch_stats(np.stack([relabelled(f, p).bits() for f, p in zip(fns, perms)]))
        for column in columns:
            assert stats[column].tolist() == moved[column].tolist(), column
