"""Restricted-spectrum moments and the coordinate-by-coordinate chain.

For a coordinate set V and exponent eps in [0, 1/2), the moment is

    M_{V,eps}(f) = E_x sum_{S subset V} |ghat_x(S)|^{2(1+eps)}

where ghat_x is the spectrum of f with the coordinates outside V fixed
to x.  M_{empty,eps} = 1 and M_{V,0} = 1 for every V (Parseval).  The
whole object is computed without materialising any restriction: butterfly
passes on V's bit positions turn the value table into 2^|V| times the
restricted coefficients, indexed by (assignment bits, character bits).

Growing V one coordinate at a time connects M to the spectral entropy:
each step k costs at most I_k (3 eps + 2 eps^2 + (I_k/4)^{-eps} - 1) and
the derivative of M_{[n],eps} at eps = 0 recovers -Ent(f) ln 2.

The chain and the restriction identity of Lemma 2.2 each have one batched
core over rows of same-dimension sign-bit tables, (rows, 2^n): a pass on
one coordinate runs once over every row that needs it, and every sum runs
along the rows' last axis.  `chain` and `lemma22_check` are batches of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .boolfn import BooleanFunction
from .spectrum import _changes, _halves, partial_hadamard_inplace

LN2 = math.log(2.0)

DEFAULT_EPS_GRID = tuple(k * 0.01 for k in range(1, 50))


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")


def check_chain_eps(eps_values: Sequence[float]) -> None:
    """Refuse an eps list the chain cannot take: empty, repeated, or a value outside (0, 1/2)."""
    if not eps_values:
        raise ValueError("the chain needs at least one eps")
    if len(set(eps_values)) != len(eps_values):  # each chain would be counted twice
        raise ValueError("the chain's eps values must not repeat")
    for eps in eps_values:
        _check_eps(eps)
        if eps == 0.0:
            raise ValueError("the chain needs eps > 0; every moment is 1 at eps = 0")


def _check_coords(coords, n: int, label: str) -> list[int]:
    given = list(coords)
    out = sorted(set(given))
    if out and (out[0] < 1 or out[-1] > n):
        raise ValueError(f"{label} must be a subset of 1..{n}")
    if len(out) != len(given):
        raise ValueError(f"{label} contains repeated coordinates")
    return out


def _power_sums(
    transformed: np.ndarray, m: int, n: int, eps_values: Iterable[float]
) -> np.ndarray:
    """Moments from tables (..., 2^n) carrying 2^m-scaled restricted coefficients.

    The result has shape (len(eps_values), ...): one moment per eps and row.
    """
    # Every entry is an integer c with |c| <= 2^m, so its term is one of the
    # 2^m + 1 powers of (k / 2^m)^2, k = 0..2^m (exact: k^2 <= 2^48).  Gathered
    # by |c|, each sits where a power of the whole table would put it, so
    # every row's sum keeps its bits; a row's sum along the last axis is
    # bitwise the sum of that row alone, whatever batch it is in.
    index = np.abs(transformed)
    sums = []
    for eps in eps_values:
        table = np.arange((1 << m) + 1, dtype=np.float64)
        table *= table
        table /= 4.0**m
        np.power(table, 1.0 + eps, out=table)
        sums.append(table[index].sum(axis=-1))  # an int32 index is not copied to intp
        del table  # one table at a time: at m = 24 it is as large as the data
    return np.array(sums) / 2.0 ** (n - m)


@dataclass(frozen=True)
class MomentCurve:
    """M_{V,eps} sampled on an increasing eps grid."""

    coords: tuple[int, ...]
    eps: tuple[float, ...]
    values: tuple[float, ...]


def moment_curve(
    f: BooleanFunction, coords: Iterable[int], eps_grid: Sequence[float] | None = None
) -> MomentCurve:
    """Sample eps -> M_{V,eps}(f); the grid must be strictly increasing."""
    grid = tuple(eps_grid) if eps_grid is not None else DEFAULT_EPS_GRID
    for e in grid:
        _check_eps(e)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly increasing")
    v = _check_coords(coords, f.n, "coordinate set")
    if not v:
        return MomentCurve((), grid, tuple(1.0 for _ in grid))
    # int32 is exact: after j passes each value is a sum of 2^j entries +-1,
    # so every value and every table index |c| is <= 2^n <= 2^24 < 2^31
    # (test_moment_curve_at_the_int32_edge reaches |c| = 2^24).
    work = partial_hadamard_inplace(np.subtract(1, f.bits() << 1, dtype=np.int32),
                                    [k - 1 for k in v])
    return MomentCurve(tuple(v), grid, tuple(_power_sums(work, len(v), f.n, grid).tolist()))


def _butterfly_rows(work: np.ndarray, picked: np.ndarray, bit: int) -> None:
    """One butterfly pass on `bit` over the rows `picked` of work, in place."""
    if picked.size == len(work):
        partial_hadamard_inplace(work, [bit])
    elif picked.size:
        work[picked] = partial_hadamard_inplace(work[picked], [bit])


def lemma22_batch(
    bits: np.ndarray, j_masks: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the restriction identity for sign-bit tables (rows, 2^n).

    Row r takes J from the bit mask j_masks[r] (bit c-1 set for c in J) and
    a coordinate k = ks[r] in J.  Returns integer columns (weights, changes):
    weights is 2^(n+|J|) times the averaged weight on {S : k in S subset J}
    and changes is 2^(n-1) I_k, so the identity holds on a row exactly when
    weights == changes << (|J| + 1).
    """
    rows, size = bits.shape
    n = size.bit_length() - 1
    # int32 is exact, as in chain_batch: after the passes on J's bits each |value|
    # <= 2^|J| <= 2^24, squared in int64 (test_lemma22_at_the_int32_edge: 2^24).
    work = np.subtract(1, bits << 1, dtype=np.int32)
    for bit in range(n):
        _butterfly_rows(work, np.flatnonzero((j_masks >> bit) & 1), bit)
    weights = np.empty(rows, dtype=np.int64)
    changes = np.empty(rows, dtype=np.int64)
    for k in set(ks.tolist()):
        share = np.flatnonzero(ks == k)
        whole = share.size == rows  # a single table is not copied
        _, hit = _halves(work if whole else work[share], k - 1)
        weights[share] = np.square(hit, dtype=np.int64).sum(axis=(-2, -1))  # <= 2^(n+|J|)
        changes[share] = _changes(bits if whole else bits[share], k - 1)
    return weights, changes


def lemma22_check(f: BooleanFunction, j_set: Iterable[int], k: int):
    """Restriction identity: averaged weight on {S : k in S subset J} vs I_k.

    Returns (lhs, rhs) as exact rationals; they are equal for every f.
    """
    j = _check_coords(j_set, f.n, "J")
    if k not in j:
        raise ValueError(f"coordinate k={k} must belong to J")
    mask = sum(1 << (c - 1) for c in j)
    (weight,), (change,) = lemma22_batch(f.bits()[None], np.array([mask]), np.array([k]))
    return Fraction(int(weight), 2 ** (f.n + len(j))), Fraction(int(change), 2 ** (f.n - 1))


def step_floor(influence: Fraction, eps: float) -> float:
    """Lower bound for the moment drop when one coordinate joins V."""
    ik = float(influence)
    if ik == 0.0:
        return 0.0
    return -ik * (3.0 * eps + 2.0 * eps * eps + (ik / 4.0) ** (-eps) - 1.0)


@dataclass(frozen=True)
class ChainBatch:
    """Moment chains of same-dimension tables: axis 0 is the table, axis 1 the eps."""

    values: np.ndarray  # (rows, eps, n): M after each step
    floors: np.ndarray  # (rows, eps, n): step_floor of each step
    telescoped: np.ndarray  # (rows, eps): 1 minus the summed floors

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.values, axis=-1, prepend=1.0)

    def margins(self) -> np.ndarray:
        """delta - floor per step, then final - telescoped floor: (rows, eps, n + 1)."""
        final = self.values[..., -1] - self.telescoped
        return np.concatenate([self.deltas - self.floors, final[..., None]], axis=-1)


def chain_batch(
    bits: np.ndarray, orders: np.ndarray, eps_values: Sequence[float]
) -> ChainBatch:
    """Moment chains of sign-bit tables (rows, 2^n), row r adding orders[r] in turn.

    orders is (rows, n), each row a permutation of 1..n, and every eps lies
    in (0, 1/2) (see check_chain_eps).  At each depth one butterfly pass runs
    per coordinate, over the rows whose order puts that coordinate there, so
    the chains of every row and every eps share one transform per row.
    """
    rows, size = bits.shape
    n = size.bit_length() - 1
    edges = np.stack([_changes(bits, bit) for bit in range(n)], axis=-1)
    counts = np.take_along_axis(edges, orders - 1, axis=1)
    # A batch meets few distinct influences: one step_floor per count and eps.
    distinct = sorted(set(counts.ravel().tolist()))
    table = [[step_floor(Fraction(c, size >> 1), eps) for eps in eps_values] for c in distinct]
    floors = np.array(table)[np.searchsorted(distinct, counts)].transpose(0, 2, 1)
    # math.fsum is correctly rounded, so each chain's floors may be summed in any order.
    telescoped = [[1.0 - math.fsum(row) for row in chain] for chain in (-floors).tolist()]
    values = np.empty((rows, len(eps_values), n))
    # int32 is exact, as in moment_curve: after depth + 1 passes every value
    # and every gather index |c| is <= 2^(depth+1) <= 2^24 < 2^31.
    work = np.subtract(1, bits << 1, dtype=np.int32)
    for depth in range(n):
        step = orders[:, depth]
        for coord in set(step.tolist()):
            _butterfly_rows(work, np.flatnonzero(step == coord), coord - 1)
        values[:, :, depth] = _power_sums(work, depth + 1, n, eps_values).T
    return ChainBatch(values, floors, np.array(telescoped))


@dataclass(frozen=True)
class ChainStep:
    coord: int
    value: float
    delta: float
    floor: float


@dataclass(frozen=True)
class ChainReport:
    """The moment chain M_empty, M_{V_1}, ..., M_{[n]} with per-step floors."""

    eps: float
    order: tuple[int, ...]
    steps: tuple[ChainStep, ...]
    final: float
    telescoped_floor: float


def chain(
    f: BooleanFunction, eps_values: Sequence[float], order: Sequence[int] | None = None
) -> tuple[ChainReport, ...]:
    """Grow V one coordinate at a time and track each moment drop, per eps.

    A chain_batch of one row: each step reuses the previous table and
    applies a single butterfly pass, so the chains for every eps share one
    full transform; only the power sums and floors depend on eps.  Reports
    follow `eps_values`.
    """
    eps_values = tuple(eps_values)
    check_chain_eps(eps_values)
    seq = list(order) if order is not None else list(range(1, f.n + 1))
    if sorted(seq) != list(range(1, f.n + 1)):
        raise ValueError(f"order must be a permutation of 1..{f.n}")
    batch = chain_batch(f.bits()[None], np.array([seq]), eps_values)
    columns = zip(
        eps_values,
        batch.values[0].tolist(),
        batch.deltas[0].tolist(),
        batch.floors[0].tolist(),
        batch.telescoped[0].tolist(),
    )
    return tuple(
        ChainReport(eps, tuple(seq), tuple(map(ChainStep, seq, values, deltas, floors)),
                    values[-1], telescoped)
        for eps, values, deltas, floors, telescoped in columns
    )


def entropy_from_moment_derivative(f: BooleanFunction, h: float = 1e-5) -> float:
    """Ent(f) recovered as -(1/ln 2) d/deps M_{[n],eps} at eps = 0.

    One-sided differences at h and h/2 plus Richardson extrapolation;
    M_{[n],0} = 1 exactly, so the stencil needs only two evaluations.
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"step h must lie in (0, 1e-3], got {h}")
    m_half, m_h = moment_curve(f, range(1, f.n + 1), (h / 2.0, h)).values
    d_h = (m_h - 1.0) / h
    d_half = (m_half - 1.0) / (h / 2.0)
    return -(2.0 * d_half - d_h) / LN2
