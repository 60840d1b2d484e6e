"""Exact Walsh-Hadamard spectra and influences.

All coefficients are kept as unnormalised integers: coeffs[S] is
sum_x f(x) X_S(x) = 2^n fhat(S), where the character index S is read as a
bit mask over coordinates (bit k-1 set means k in S).  For n <= 24 every
quantity in sight fits comfortably in int64: |coeffs| <= 2^n, squares sum
to exactly 4^n <= 2^48.  Full spectra come from sign bits through one
float32 kernel, sign_spectrum; the butterflies do partial transforms.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .boolfn import BooleanFunction


# Table entries per cache block: 512 KB per float64 array, so a block's
# arrays stay in a 2 MB L2 cache from one step of a pass to the next.
# walk_spectrum reads spectra in blocks of it, and the sweeps hand it row
# groups of as many entries (group_rows).  Not a setting.
_GROUP_ENTRIES = 1 << 16


def _halves(values: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (lo, hi) pairing each index S without `bit` with S xor 2^bit.

    The last axis is reshaped to (-1, 2, 2^bit); no copy is made.
    """
    v = values.reshape(*values.shape[:-1], -1, 2, 1 << bit)
    return v[..., 0, :], v[..., 1, :]


@cache
def _sylvester(d: int) -> np.ndarray:
    """The 2^d x 2^d Hadamard matrix H[s, t] = (-1)^|s & t|, as float32.

    Built once per d and read-only: every row group of a sweep reuses it.
    """
    i = np.arange(1 << d)
    h = (1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)).astype(np.float32)
    h.setflags(write=False)
    return h


def stage_widths(n: int) -> list[int]:
    """Bits per stage of sign_spectrum: balanced, at most 5 each, widest first."""
    # A d-bit stage costs 2^d multiply-adds per entry and one pass over the
    # table; the best WHT split depends on the machine (Johnson and
    # Pueschel, ICASSP 2000).  Medians of 9 interleaved rounds on a 2-CPU
    # host, OpenBLAS 0.3.31, widths <= 5 against <= 6: n=12 x 16 rows 0.110
    # against 0.145 ms, n = 22 18.1 against 22.3 ms, n = 24 161 against 150
    # ms (n = 10 and 20 split alike); widest first against last: n = 7 x 512
    # rows 0.086 against 0.122 ms, n = 22 17.7 against 19.6, n = 24 145
    # against 158 ms.
    stages = -(-n // 5)
    return [(n + stages - 1 - s) // stages for s in range(stages)]


def sign_spectrum(
    bits: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Integer Walsh-Hadamard coefficients of uint8 sign-bit tables (..., 2^n).

    1 marks f(x) = -1, n <= 24, and leading axes are a batch.  The result
    goes into `out` (float32, bits' shape, contiguous; it holds every
    |c| <= 2^24 exactly) or, without one, a new int64 array.  `out` is one
    of the two stage buffers and `scratch` (float32, at least bits.size
    entries) the other, ordered so that the last stage writes `out`.  The
    n index bits run through the stages of stage_widths(n), each at a
    fixed position: a stage of d bits at bit p is the product H_d @ x over
    the (2^d, 2^p) slices of each row, or x @ H_d over groups of whole
    rows when p = 0.  Nothing rotates, so the last stage leaves the index
    order as it is.
    """
    # Exact in float32.  After j transformed bits, whichever they are, each
    # entry of the +-1 table is a sum of 2^j terms +-1, so |x| <= 2^j.  A
    # stage over d more bits adds 2^d terms +-x: the products are exact, and
    # every partial sum, in whatever order, blocking, FMA use or thread
    # count BLAS picks, is an integer of magnitude <= 2^(j+d) <= 2^n <= 2^24,
    # which float32's 24-bit significand holds.  So every host gets the
    # butterflies' integers.
    size = bits.shape[-1]
    n, rows = size.bit_length() - 1, bits.size // size
    widths = stage_widths(n)
    if out is None:
        return sign_spectrum(bits, np.empty(bits.shape, dtype=np.float32), scratch).astype(np.int64)
    if scratch is None:
        scratch = np.empty(bits.size, dtype=np.float32)
    # the stages alternate buffers, so an odd count starts in scratch
    pair = out.reshape(rows, size), scratch[: bits.size].reshape(rows, size)
    src, dst = pair[::-1] if len(widths) % 2 else pair
    np.multiply(bits.reshape(rows, size), np.float32(-2), out=src)  # no uint8 temporary
    src += 1
    low = 1  # 2^p: the entries below the stage's bits
    for d in widths:
        block = 1 << d
        if low == 1:
            # One product holds at most 2^12 entries of whole rows, or one
            # row if a row is longer, so BLAS runs a search group's products
            # on the calling thread: a product over a whole row group would
            # be split over threads and then wait for a second CPU, which
            # on a loaded host makes its time spread.
            group = max(size, min(rows & -rows, 4096 >> n) * size) >> d
            np.matmul(src.reshape(-1, group, block), _sylvester(d),
                      out=dst.reshape(-1, group, block))
        else:
            np.matmul(_sylvester(d), src.reshape(-1, block, low),
                      out=dst.reshape(-1, block, low))
        low <<= d
        src, dst = dst, src
    return out


def partial_hadamard_inplace(values: np.ndarray, bit_positions) -> np.ndarray:
    """Butterfly passes on the given 0-based bit positions only, in place.

    Transforming a subset V of the coordinates turns index i into a hybrid
    label: the V-bits of i select a character S subset V, the remaining bits
    still select the assignment to the untouched coordinates.  Entry i is
    then 2^|V| times the coefficient fhat_{restriction}(S).
    """
    for b in sorted(bit_positions):
        lo, hi = _halves(values, b)
        even = lo + hi
        odd = lo - hi
        lo[...] = even
        hi[...] = odd
    return values


@dataclass(frozen=True)
class Spectrum:
    """Integer Walsh-Hadamard coefficients of one function."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != (1 << self.n,):
            raise ValueError("coefficient array has wrong length")
        self.coeffs.setflags(write=False)

    def parseval_ok(self) -> bool:
        return int((self.coeffs * self.coeffs).sum()) == 4**self.n


def wht(f: BooleanFunction) -> Spectrum:
    """Exact integer spectrum of f."""
    return Spectrum(f.n, sign_spectrum(f.bits()))


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences of one function, as exact rationals."""

    per_coord: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.per_coord, Fraction(0))


def _changes(bits: np.ndarray, bit: int) -> np.ndarray:
    """Per sign-bit table (..., 2^n): the edges along coordinate bit + 1 where f changes."""
    lo, hi = _halves(bits, bit)
    return np.count_nonzero(lo != hi, axis=(-2, -1))


def influences_combinatorial(f: BooleanFunction) -> InfluenceProfile:
    """I_k = P(f changes when coordinate k flips): the share of the 2^(n-1) edges along k."""
    bits, edges = f.bits(), f.size >> 1
    return InfluenceProfile(tuple(Fraction(int(_changes(bits, k)), edges) for k in range(f.n)))


@cache
def _bit_matrix(m: int) -> np.ndarray:
    """The 2^m x m float64 matrix whose entry [j, k] is bit k of j; read-only."""
    j = np.arange(1 << m)
    bits = ((j[:, None] >> np.arange(m)) & 1).astype(np.float64)
    bits.setflags(write=False)
    return bits


def group_rows(n: int) -> int:
    """Tables of 2^n entries in one cache block: _GROUP_ENTRIES entries' worth, or one."""
    return max(1, _GROUP_ENTRIES >> n)


def walk_spectrum(bits: np.ndarray, fill) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the float32 spectra of sign-bit tables (rows, 2^n) in L2-sized blocks.

    A block is group_rows(n) whole tables (the last may hold fewer) or a
    _GROUP_ENTRIES slice of one table.  Each block is squared in float64
    and added to its tables' influence marginals; then fill(block,
    squares, out) may use `out`, the block's slice of a spare float64
    array of the tables' length.  One scratch the walk allocates holds
    [spare | float32 coefficients | block of squares]; the transform's
    last stage writes the coefficients, and its other stage buffer is the
    front half of spare, viewed as float32 and free by the block pass.
    Spare pages that no fill writes are never touched.  Returns the
    coefficients and spare as the fills left them, both (rows, 2^n), and
    the influence numerators 4^n I_k, (rows, n).
    """
    # Exact: |c| <= 2^n <= 2^24 fits float32, c^2 <= 2^48 fits float64,
    # and the marginals, and their products with 0/1 bit matrices, are
    # sums of integers totalling 4^n <= 2^48, exact in any order.
    rows, size = bits.shape
    n = size.bit_length() - 1
    lo, entries = n // 2, bits.size
    block = min(entries, _GROUP_ENTRIES)
    # float64 entries: spare, the float32 coefficients and a block of
    # squares, 1.28 MB for a search row group of 2^16 entries (spare first:
    # coefficients first made q31_report at n = 22 about 5% slower)
    scratch = np.empty(3 * entries // 2 + block)
    spare = scratch[:entries]
    coeffs = scratch[entries : 3 * entries // 2].view(np.float32).reshape(rows, size)
    sign_spectrum(bits, coeffs, spare.view(np.float32))
    del bits  # frees a one-table caller's sign bits before the block pass
    per = min(size, block)  # entries of one table in a block
    squared, flat = scratch[3 * entries // 2 :][:block], coeffs.reshape(-1)
    by_low, by_high = np.zeros((rows, 1 << lo)), np.empty(entries >> lo)
    for start in range(0, entries, block):
        part = flat[start : start + block]
        stop = start + part.size
        table = np.square(part, out=squared[: part.size], dtype=np.float64)
        grid = table.reshape(-1, per >> lo, 1 << lo)
        by_low[start >> n : (start >> n) + len(grid)] += np.einsum("tij->tj", grid)
        by_high[start >> lo : stop >> lo] = np.einsum("tij->ti", grid).ravel()
        fill(part, table, spare[start:stop])
    # Bit k-1 of S is a column bit of the (2^(n-lo), 2^lo) grid when
    # k <= lo and a row bit otherwise, so 4^n I_k sums the half of one
    # marginal where that bit is set.
    numerators = np.empty((rows, n), dtype=np.int64)
    numerators[:, :lo] = by_low @ _bit_matrix(lo)
    numerators[:, lo:] = by_high.reshape(rows, -1) @ _bit_matrix(n - lo)
    return coeffs, spare.reshape(rows, size), numerators
