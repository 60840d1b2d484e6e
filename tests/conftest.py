"""Shared oracles: slow, definitional reimplementations used to pin the fast paths."""
from fractions import Fraction
from itertools import product

import numpy as np

from hypercube_spectra import BooleanFunction, Spectrum, from_sign_bits
from hypercube_spectra.search import chunk_stats
from hypercube_spectra.spectrum import partial_hadamard_inplace


def random_function(rng: np.random.Generator, n: int) -> BooleanFunction:
    bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    return from_sign_bits(bits)


def brute_coeff(f: BooleanFunction, mask: int) -> int:
    """sum_x f(x) X_S(x) by direct enumeration."""
    total = 0
    for i in range(f.size):
        chi = -1 if bin(i & mask).count("1") % 2 else 1
        total += f.evaluate(i) * chi
    return total


def brute_spectrum(f: BooleanFunction) -> list[int]:
    return [brute_coeff(f, mask) for mask in range(f.size)]


def brute_restrict(f: BooleanFunction, free, assignment) -> BooleanFunction:
    free_sorted = sorted(free)
    values = []
    for sub in range(1 << len(free_sorted)):
        index = 0
        for j, coord in enumerate(free_sorted):
            if (sub >> j) & 1:
                index |= 1 << (coord - 1)
        for coord, val in assignment.items():
            if val == -1:
                index |= 1 << (coord - 1)
        values.append(f.evaluate(index))
    return BooleanFunction(len(free_sorted), sum(1 << i for i, v in enumerate(values) if v == -1))


def brute_moment(f: BooleanFunction, coords, eps: float) -> float:
    """Average restricted-spectrum power sum, restriction by restriction."""
    v = sorted(coords)
    if not v:
        return 1.0
    fixed = [c for c in range(1, f.n + 1) if c not in v]
    total = 0.0
    for choice in product((1, -1), repeat=len(fixed)):
        g = brute_restrict(f, v, dict(zip(fixed, choice)))
        for c in brute_spectrum(g):
            total += ((c / g.size) ** 2) ** (1.0 + eps)
    return total / (1 << len(fixed))


def brute_influence(f: BooleanFunction, k: int) -> Fraction:
    changed = sum(
        1 for i in range(f.size) if f.evaluate(i) != f.evaluate(i ^ (1 << (k - 1)))
    )
    return Fraction(changed, f.size)


def weighted_degree_sum(spectrum: Spectrum) -> int:
    """sum_S |S| coeffs[S]^2, which equals 4^n times the total influence."""
    sizes = np.bitwise_count(np.arange(1 << spectrum.n, dtype=np.int64))
    return int((sizes * spectrum.squared()).sum())


def chunk_columns(job, chunk: int) -> tuple[np.ndarray, dict]:
    """One chunk's sign bits and batch_stats columns, its row groups joined in order."""
    groups = list(chunk_stats(job, chunk))
    bits = np.concatenate([b for b, _ in groups])
    return bits, {key: np.concatenate([s[key] for _, s in groups]) for key in groups[0][1]}


def butterfly_spectrum(bits: np.ndarray) -> np.ndarray:
    """Integer coefficients of sign-bit tables (..., 2^n) by n butterfly passes.

    The reference for the fast kernel: int64 +-1 values, no float, no BLAS.
    """
    n = bits.shape[-1].bit_length() - 1
    return partial_hadamard_inplace(1 - 2 * bits.astype(np.int64), range(n))


def parseval_sums(bits: np.ndarray) -> np.ndarray:
    """sum_S c_S^2 per row of a (rows, 2^n) sign-bit matrix; Parseval makes it 4^n."""
    coeffs = butterfly_spectrum(bits)
    return (coeffs * coeffs).sum(axis=1)


# Index-based builders of the block families: one pass over the whole 2^n
# input index per block, straight from the definitions.


def oracle_tribes(w: int, s: int) -> BooleanFunction:
    idx = np.arange(1 << (w * s), dtype=np.int64)
    mask = (1 << w) - 1
    any_true = np.zeros(len(idx), dtype=bool)
    for p in range(s):
        any_true |= ((idx >> (p * w)) & mask) == 0  # AND is TRUE iff all +1
    return from_sign_bits((~any_true).astype(np.uint8))


def oracle_minblock(s: int, t: int) -> BooleanFunction:
    idx = np.arange(1 << (s * t), dtype=np.int64)
    mask = (1 << s) - 1
    acc = np.zeros(len(idx), dtype=np.int64)
    for p in range(t):
        acc ^= ((idx >> (p * s)) & mask) != 0  # block min is -1 iff any -1
    return from_sign_bits(acc.astype(np.uint8))


def oracle_first_even_group(s: int, t: int, fallback: str = "t") -> BooleanFunction:
    idx = np.arange(1 << (s * t), dtype=np.int64)
    p0 = np.zeros(len(idx), dtype=np.int64)
    for p in range(1, t + 1):
        block = ((1 << s) - 1) << ((p - 1) * s)
        even = (np.bitwise_count(idx & block) & 1) == 0
        p0[even & (p0 == 0)] = p
    p0[p0 == 0] = t if fallback == "t" else s * t
    return from_sign_bits(((p0 & 1) == 1).astype(np.uint8))
