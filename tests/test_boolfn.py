from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_influence,
    negated,
    oracle_first_even_group,
    oracle_minblock,
    oracle_tribes,
    random_function,
    relabelled,
)
from hypercube_spectra import (
    BooleanFunction,
    FamilySpec,
    analyze,
    and_function,
    dictator,
    first_even_group,
    from_sign_bits,
    influences_combinatorial,
    majority,
    make_family,
    minblock,
    parity,
    tribes,
)


@st.composite
def functions(draw, max_n: int = 6):
    n = draw(st.integers(1, max_n))
    table = draw(st.integers(0, (1 << (1 << n)) - 1))
    return BooleanFunction(n, table)


def test_index_encoding():
    f = dictator(3, k=2)
    # bit 1 of the index set <=> x_2 = -1 <=> f = -1
    values = f.values()
    assert values[0b000] == 1
    assert values[0b010] == -1
    assert values[0b101] == 1
    assert values[0b111] == -1


def test_validation():
    with pytest.raises(ValueError):
        BooleanFunction(0, 0)
    with pytest.raises(ValueError):
        BooleanFunction(25, 0)
    with pytest.raises(ValueError):
        BooleanFunction(2, 1 << 16)
    with pytest.raises(ValueError):
        BooleanFunction(2, -1)


def test_values_roundtrip():
    rng = np.random.default_rng(11)
    for n in (1, 3, 7, 10):
        f = random_function(rng, n)
        assert from_sign_bits((f.values() < 0).astype(np.uint8)) == f


def test_hex_known_vectors():
    assert parity(3).to_hex() == "69"
    assert dictator(1).to_hex() == "2"
    assert and_function(2).to_hex() == "e"
    # digit 0 carries input indexes 0..3
    f = BooleanFunction.from_hex(3, "f0")
    assert f.values().tolist() == [-1, -1, -1, -1, 1, 1, 1, 1]
    assert BooleanFunction.from_hex(3, "F0") == f


def test_hex_roundtrip():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 9):
        f = random_function(rng, n)
        assert BooleanFunction.from_hex(n, f.to_hex()) == f


def test_hex_rejects_wrong_width_and_junk():
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(3, "691")
    with pytest.raises(ValueError):
        BooleanFunction.from_hex(3, "g9")
    # int(text, 16) reads each of these: "_" and "+" as a separator and a
    # sign, the spaces as padding, and full-width digits as 6 and 9.
    for n, text in ((4, "6_96"), (4, "696+"), (4, " 96 "), (3, "\uff16\uff19")):
        with pytest.raises(ValueError, match="invalid hex digits"):
            BooleanFunction.from_hex(n, text)


# relabelled and negated (conftest) build the inputs of the invariance tests


@given(functions(max_n=5), st.data())
@settings(deadline=None)
def test_permute_preserves_multiset_and_inverts(f, data):
    perm = data.draw(st.permutations(list(range(1, f.n + 1))))
    g = relabelled(f, perm)
    assert sorted(g.values().tolist()) == sorted(f.values().tolist())
    inverse = [0] * f.n
    for j, old in enumerate(perm):
        inverse[old - 1] = j + 1
    assert relabelled(g, inverse) == f


def test_permute_moves_dictator():
    assert relabelled(dictator(3, k=1), [2, 3, 1]) == dictator(3, k=3)


@given(functions())
@settings(deadline=None)
def test_negate_is_involution(f):
    assert negated(negated(f)) == f
    assert (negated(f).values() == -f.values()).all()


# -- families ---------------------------------------------------------------


def test_parity_definitional():
    values = parity(2, 4).values()
    for i in range(16):
        x1 = 1 - 2 * (i & 1)
        x2 = 1 - 2 * ((i >> 1) & 1)
        assert values[i] == x1 * x2


def test_and_definitional():
    values = and_function(3).values()
    assert values[0] == 1
    assert all(values[i] == -1 for i in range(1, 8))


def test_majority_definitional():
    values = majority(5).values()
    for i in range(32):
        total = sum(1 - 2 * ((i >> b) & 1) for b in range(5))
        assert values[i] == (1 if total > 0 else -1)
    with pytest.raises(ValueError):
        majority(4)


BLOCK_SHAPES = ((2, 3), (1, 1), (1, 5), (5, 1), (3, 2), (1, 4), (4, 1), (2, 2))


def test_minblock_definitional():
    for s, t in BLOCK_SHAPES:
        values = minblock(s, t).values()
        for i in range(len(values)):
            sign = 1
            for p in range(t):
                block = (i >> (s * p)) & ((1 << s) - 1)
                sign *= -1 if block else 1  # min over the block
            assert values[i] == sign, (s, t, i)


def test_minblock_influences_exact():
    # every coordinate has influence 2^(1-s): checked through the spectrum side
    for s, t in ((1, 3), (2, 2), (3, 2)):
        f = minblock(s, t)
        influences = analyze(f).influences
        assert all(ik == pytest.approx(2.0 ** (1 - s)) for ik in map(float, influences))
        assert influences_combinatorial(f).per_coord == influences


def test_tribes_definitional():
    for w, s in BLOCK_SHAPES:
        values = tribes(w, s).values()
        for i in range(len(values)):
            blocks = [(i >> (w * p)) & ((1 << w) - 1) for p in range(s)]
            is_true = any(b == 0 for b in blocks)  # some AND of w TRUEs
            assert values[i] == (1 if is_true else -1), (w, s, i)


def test_first_even_group_definitional():
    for (s, t), fallback in product(BLOCK_SHAPES, ("t", "n")):
        values = first_even_group(s, t, fallback).values()
        for i in range(len(values)):
            p0 = None
            for p in range(1, t + 1):
                block = (i >> (s * (p - 1))) & ((1 << s) - 1)
                if bin(block).count("1") % 2 == 0:
                    p0 = p
                    break
            if p0 is None:
                p0 = t if fallback == "t" else s * t
            assert values[i] == (-1) ** p0, (s, t, fallback, i)


def test_block_families_match_index_oracles():
    # the outer-product builders against the index-pass definitions, up to n = 20
    shapes = [(a, b) for a in range(1, 21) for b in range(1, 21) if a * b <= 12]
    for a, b in shapes + [(4, 5)]:
        assert tribes(a, b) == oracle_tribes(a, b), (a, b)
        assert minblock(a, b) == oracle_minblock(a, b), (a, b)
    for (a, b), fallback in product(shapes + [(4, 5), (5, 4)], ("t", "n")):
        assert first_even_group(a, b, fallback) == oracle_first_even_group(a, b, fallback)


def test_first_even_group_s1_t2_table():
    # With one-bit blocks, block p is even exactly when x_p = +1; the first
    # even block is the first +1, and all-odd means both inputs are -1.
    # Either fallback gives an odd label there, so the table is -x1.
    assert first_even_group(1, 2).values().tolist() == [-1, 1, -1, 1]
    assert first_even_group(1, 2, "n").values().tolist() == [-1, 1, -1, 1]


def test_family_spec_parse_and_make():
    f = make_family(FamilySpec.parse("parity:s=3,n=5"))
    assert f == parity(3, 5)
    assert make_family(FamilySpec.parse("parity:s=3")) == parity(3)
    assert make_family(FamilySpec.parse("dictator:n=4,k=2")) == dictator(4, 2)
    assert make_family(FamilySpec.parse("first-even-group:s=1,t=2,fallback=n")) == first_even_group(1, 2, "n")
    assert FamilySpec.parse("majority:n=3").text() == "majority:n=3"


def test_family_spec_errors():
    with pytest.raises(ValueError):
        FamilySpec.parse("xor:n=3")
    with pytest.raises(ValueError):
        FamilySpec.parse("parity:s")
    with pytest.raises(ValueError):
        FamilySpec.parse("parity:s=x")
    with pytest.raises(ValueError):
        make_family(FamilySpec.parse("parity:n=3"))  # s missing
    with pytest.raises(ValueError):
        make_family(FamilySpec.parse("parity:s=2,w=9"))
    with pytest.raises(ValueError):
        make_family(FamilySpec.parse("minblock:s=5,t=5"))  # st over the cap
    with pytest.raises(ValueError):
        make_family(FamilySpec.parse("first-even-group:s=1,t=2,fallback=q"))
    with pytest.raises(ValueError, match="'n' is given twice"):
        FamilySpec.parse("majority:n=3,n=5")
    for loose in ("1_1", "+3", " 3", "3 ", "\uff13", ""):
        with pytest.raises(ValueError, match="must be an integer"):
            FamilySpec.parse(f"majority:n={loose}")
    assert FamilySpec.parse("parity:s=03,n=-1").params == {"s": 3, "n": -1}


@given(functions(max_n=4), st.data())
@settings(deadline=None)
def test_influence_matches_flip_disagreement(f, data):
    k = data.draw(st.integers(1, f.n))
    assert influences_combinatorial(f).per_coord[k - 1] == brute_influence(f, k)
