import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_moment,
    derivative_entropy_oracle,
    peak_probe,
    power_sums_oracle,
    random_function,
    relabelled,
)
from hypercube_spectra import (
    BooleanFunction,
    analyze,
    chain,
    dictator,
    entropy_from_moment_derivative,
    influences_combinatorial,
    lemma22_check,
    majority,
    minblock,
    moment_curve,
    parity,
    step_floor,
)
from hypercube_spectra.moments import _power_sums, lemma22_batch
from hypercube_spectra.spectrum import partial_hadamard_inplace

EPS7 = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49)  # the default eps set of `verify lemma31`


# eps sets that reach _power_sums: lemma31's default, the derivative's
# (h/2, h) stencils, and eps = 0, which moment_curve accepts
POWER_SUM_EPS = (EPS7, *((h / 2.0, h) for h in (1e-5, 3e-4, 1e-3)), (0.0,))


@pytest.mark.parametrize("eps_values", POWER_SUM_EPS)
def test_power_sums_read_from_the_table_bit_for_bit(eps_values):
    # real butterflies on random sign tables, so every |c| <= 2^m; compared
    # on the whole batch, on a row offset view and on picked rows
    rng = np.random.default_rng(sum(int(e * 1e6) for e in eps_values))
    for n in (*range(1, 13), 20):
        m = int(rng.integers(1, n + 1))
        rows = int(rng.integers(1, min(200, (1 << 22) >> n) + 1))
        bits = rng.integers(0, 2, size=(rows, 1 << n), dtype=np.uint8)
        work = np.subtract(1, bits << 1, dtype=np.int32)
        partial_hadamard_inplace(work, rng.choice(n, size=m, replace=False).tolist())
        k = int(rng.integers(0, rows))
        picked = np.sort(rng.choice(rows, size=int(rng.integers(1, rows + 1)), replace=False))
        for table in (work, work[k:], work[picked]):
            ours = _power_sums(table, m, n, eps_values)
            assert np.array_equal(ours, power_sums_oracle(table, m, n, eps_values))


@pytest.mark.parametrize("table", [0, (1 << (1 << 24)) - 1], ids=["plus_one", "minus_one"])
def test_moment_curve_at_the_int32_edge(table):
    # a constant at n = 24: after all 24 passes c(empty) = +-2^24, the largest
    # butterfly value and table index, and every other entry is 0
    curve = moment_curve(BooleanFunction(24, table), range(1, 25), (0.0, 0.1, 0.49))
    assert curve.values == (1.0, 1.0, 1.0)


def test_moments_n24_runs_in_bounded_memory():
    # int32 butterflies, their |c| and one float64 table of 2^24 + 1 powers;
    # a second resident 2^24 float64 table would add 128 MB
    code, lines, peak_mb = peak_probe("moments", "--family", "tribes:w=4,s=6", "--eps", "0.1")
    assert (code, lines) == (0, 1)
    assert peak_mb < 470.0


def test_moment_conventions():
    rng = np.random.default_rng(2)
    f = random_function(rng, 5)
    assert moment_curve(f, [], (0.3,)).values[0] == 1.0
    for coords in ([1, 2, 3, 4, 5], [2, 4]):
        assert moment_curve(f, coords, (0.0,)).values[0] == pytest.approx(1.0, abs=1e-12)


def test_moment_eps_domain():
    f = majority(3)
    with pytest.raises(ValueError):
        moment_curve(f, [1], (-0.1,))
    with pytest.raises(ValueError):
        moment_curve(f, [1], (0.5,))
    with pytest.raises(ValueError):
        moment_curve(f, [1, 1], (0.1,))
    with pytest.raises(ValueError):
        moment_curve(f, [0, 1], (0.1,))


def test_majority3_closed_form():
    # all four nonzero weights are 1/4, so M = 4^(-eps) for the full cube
    f = majority(3)
    for eps in (0.1, 0.25, 0.4, 0.49):
        (value,) = moment_curve(f, [1, 2, 3], (eps,)).values
        assert value == pytest.approx(4.0 ** (-eps), abs=1e-12)


def test_parity_moment_is_one_for_every_v():
    f = parity(3)
    for coords in ([1], [2, 3], [1, 2, 3], [1, 3]):
        assert moment_curve(f, coords, (0.3,)).values[0] == pytest.approx(1.0, abs=1e-12)


def test_moment_matches_restriction_by_restriction_oracle():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        f = random_function(rng, n)
        size = int(rng.integers(1, n + 1))
        coords = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
        eps = float(rng.uniform(0.0, 0.499))
        (value,) = moment_curve(f, coords, (eps,)).values
        assert value == pytest.approx(brute_moment(f, coords, eps), abs=1e-10)


def test_moment_invariant_under_relabelling_and_dummy_coordinates():
    rng = np.random.default_rng(15)
    f = random_function(rng, 4)
    # embed f in 5 coordinates; coordinate 5 is dummy
    g = BooleanFunction(5, sum(((f.table >> i) & 1) << i for i in range(16)) | (f.table << 16))
    (base,) = moment_curve(f, [1, 2], (0.2,)).values
    assert moment_curve(g, [1, 2], (0.2,)).values[0] == pytest.approx(base, abs=1e-12)
    perm = [3, 1, 2, 4]
    h = relabelled(f, perm)
    # coordinate j of h reads perm[j-1] of f
    assert moment_curve(h, [2, 3], (0.2,)).values[0] == pytest.approx(base, abs=1e-12)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
@settings(deadline=None, max_examples=40)
def test_moment_curve_non_increasing(n, seed, data):
    f = random_function(np.random.default_rng(seed), n)
    size = data.draw(st.integers(1, n))
    coords = data.draw(
        st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True)
    )
    curve = moment_curve(f, coords, [0.0, 0.1, 0.2, 0.3, 0.4, 0.49])
    for earlier, later in zip(curve.values, curve.values[1:]):
        assert later <= earlier + 1e-12


def test_moment_curve_grid_validation():
    f = majority(3)
    with pytest.raises(ValueError):
        moment_curve(f, [1], [0.2, 0.1])
    with pytest.raises(ValueError):
        moment_curve(f, [1], [0.1, 0.5])
    curve = moment_curve(f, [1, 2])
    assert len(curve.eps) == 49  # default grid 0.01..0.49
    assert curve.values[0] > curve.values[-1]


def test_lemma22_examples():
    lhs, rhs = lemma22_check(parity(2), [1], 1)
    assert lhs == rhs == 1 == influences_combinatorial(parity(2)).per_coord[0]
    lhs, rhs = lemma22_check(majority(3), [1, 2], 1)
    assert (lhs, rhs) == (rhs, rhs)
    assert rhs == pytest.approx(0.5)
    assert rhs == influences_combinatorial(majority(3)).per_coord[0]
    lhs, rhs = lemma22_check(BooleanFunction(4, 0), [2, 3], 3)
    assert lhs == rhs == 0


def test_lemma22_validation():
    with pytest.raises(ValueError):
        lemma22_check(majority(3), [1, 2], 3)


def test_lemma22_at_the_int32_edge():
    # parity at n = 24 with J = 1..24: after the 24 int32 passes the one
    # nonzero value is c([24]) = +-2^24, the largest, and its int64 square
    # 2^48 is the weight; parity changes along every edge of coordinate 1
    bits = parity(24).bits()[None]
    weights, changes = lemma22_batch(bits, np.array([(1 << 24) - 1]), np.array([1]))
    assert weights.tolist() == [1 << 48]
    assert changes.tolist() == [1 << 23]
    assert (weights == changes << 25).all()  # the identity, |J| + 1 = 25


def test_lemma22_exact_equality_random():
    rng = np.random.default_rng(6)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        f = random_function(rng, n)
        size = int(rng.integers(1, n + 1))
        j_set = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
        k = int(rng.choice(j_set))
        lhs, rhs = lemma22_check(f, j_set, k)
        assert lhs == rhs  # exact rationals, zero tolerance
        assert rhs == influences_combinatorial(f).per_coord[k - 1]


def test_chain_parity_stays_flat():
    (report,) = chain(parity(3), (0.25,))
    assert report.final == pytest.approx(1.0, abs=1e-12)
    for step in report.steps:
        assert step.delta == pytest.approx(0.0, abs=1e-12)
        assert step.floor <= 0.0


def test_chain_majority3_reaches_full_moment():
    (report,) = chain(majority(3), (0.25,))
    assert report.final == pytest.approx(4.0 ** (-0.25), abs=1e-12)
    assert [s.coord for s in report.steps] == [1, 2, 3]
    for step in report.steps:
        assert step.delta >= step.floor - 1e-12
    assert report.final >= report.telescoped_floor - 1e-12


def test_chain_respects_order_and_validates():
    f = majority(3)
    (report,) = chain(f, (0.2,), order=[3, 1, 2])
    assert [s.coord for s in report.steps] == [3, 1, 2]
    assert report.final == pytest.approx(moment_curve(f, [1, 2, 3], (0.2,)).values[0], abs=1e-12)
    with pytest.raises(ValueError):
        chain(f, (0.2,), order=[1, 2])
    with pytest.raises(ValueError):
        chain(f, (0.0,))
    with pytest.raises(ValueError):
        chain(f, (0.5,))
    with pytest.raises(ValueError):
        chain(f, (0.25, 0.5))
    with pytest.raises(ValueError):
        chain(f, ())
    with pytest.raises(ValueError, match="must not repeat"):
        chain(f, (0.1, 0.2, 0.1))  # a repeated eps would count its chain twice


def test_chain_final_matches_direct_moment():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        f = random_function(rng, n)
        eps = float(rng.uniform(0.01, 0.49))
        (report,) = chain(f, (eps,))
        (value,) = moment_curve(f, range(1, n + 1), (eps,)).values
        assert report.final == pytest.approx(value, abs=1e-12)


def test_chain_floor_holds_on_random_orders():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        f = random_function(rng, n)
        order = (rng.permutation(n) + 1).tolist()
        for report in chain(f, (0.05, 0.25, 0.45), order=order):
            for step in report.steps:
                assert step.delta >= step.floor - 1e-9
            assert report.final >= report.telescoped_floor - 1e-9


def test_chain_batch_equals_one_eps_at_a_time():
    rng = np.random.default_rng(32)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        f = random_function(rng, n)
        order = (rng.permutation(n) + 1).tolist()
        batch = chain(f, EPS7, order)
        assert [r.eps for r in batch] == list(EPS7)
        assert list(batch) == [chain(f, (e,), order)[0] for e in EPS7]  # bitwise, no tolerance


def test_chain_size_guard():
    f = parity(17)  # no size limit: the report holds n scalars
    (report,) = chain(f, (0.25,))
    assert report.final == pytest.approx(1.0, abs=1e-12)


def test_step_floor_values():
    assert step_floor(0, 0.3) == 0.0
    # influence 1, eps 0.25: -(0.75 + 0.125 + 4^0.25 - 1)
    expected = -(0.75 + 0.125 + 4**0.25 - 1.0)
    assert step_floor(1, 0.25) == pytest.approx(expected, rel=1e-12)


def test_derivative_recovers_entropy_examples():
    assert entropy_from_moment_derivative(majority(3)) == pytest.approx(2.0, rel=1e-6)
    # spectrum concentrated on one character: exactly zero, no rounding at all
    assert entropy_from_moment_derivative(parity(4)) == 0.0
    assert entropy_from_moment_derivative(dictator(5, 3)) == 0.0


def test_derivative_matches_entropy_random():
    rng = np.random.default_rng(44)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        f = random_function(rng, n)
        ent = analyze(f).entropy_bits
        approx = entropy_from_moment_derivative(f)
        assert approx == pytest.approx(ent, abs=max(1e-6, 1e-6 * ent))


@pytest.mark.parametrize("h", [1e-5, 3e-4, 1e-3])
def test_derivative_reads_the_moment_curve_bit_for_bit(h):
    # moment_curve's butterflies give sign_spectrum's integers in the same
    # order, so the derivative keeps every bit of the full-spectrum route
    rng = np.random.default_rng(int(h * 1e5))
    for n in (*range(1, 13), 16, 18):
        for f in (random_function(rng, n), random_function(rng, n)):
            assert entropy_from_moment_derivative(f, h) == derivative_entropy_oracle(f, h)


def test_derivative_step_validation():
    with pytest.raises(ValueError):
        entropy_from_moment_derivative(majority(3), h=0.0)
    with pytest.raises(ValueError):
        entropy_from_moment_derivative(majority(3), h=0.01)


def test_minblock_chain_floors_with_exact_influences():
    f = minblock(2, 3)
    prof = influences_combinatorial(f)
    (report,) = chain(f, (0.3,))
    for step in report.steps:
        assert step.floor == pytest.approx(step_floor(prof.per_coord[step.coord - 1], 0.3))
