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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .boolfn import BooleanFunction
from .spectrum import _halves, _influence, partial_hadamard_inplace, sign_spectrum

LN2 = math.log(2.0)

DEFAULT_EPS_GRID = tuple(k * 0.01 for k in range(1, 50))


def _check_eps(eps: float) -> None:
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")


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
) -> list[float]:
    """Moments, one per eps, from a table carrying 2^m-scaled restricted coefficients."""
    squared = transformed.astype(np.float64) ** 2 / 4.0**m  # exact: |c| <= 2^m
    return [float(np.power(squared, 1.0 + eps).sum()) / 2.0 ** (n - m) for eps in eps_values]


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
    work = partial_hadamard_inplace(f.values(), [k - 1 for k in v])
    return MomentCurve(tuple(v), grid, tuple(_power_sums(work, len(v), f.n, grid)))


def moment(f: BooleanFunction, coords: Iterable[int], eps: float) -> float:
    """M_{V,eps}(f) for V given as 1-based coordinate labels."""
    return moment_curve(f, coords, (eps,)).values[0]


def lemma22_check(f: BooleanFunction, j_set: Iterable[int], k: int):
    """Restriction identity: averaged weight on {S : k in S subset J} vs I_k.

    Returns (lhs, rhs) as exact rationals; they are equal for every f.
    """
    j = _check_coords(j_set, f.n, "J")
    if k not in j:
        raise ValueError(f"coordinate k={k} must belong to J")
    work = partial_hadamard_inplace(f.values(), [c - 1 for c in j])
    _, hit = _halves(work, k - 1)
    total = int((hit**2).sum())  # <= 2^(n+|J|), exact in int64
    lhs = Fraction(total, 2 ** (f.n + len(j)))
    rhs = _influence(f.bits(), k - 1)
    return lhs, rhs


def step_floor(influence: Fraction, eps: float) -> float:
    """Lower bound for the moment drop when one coordinate joins V."""
    ik = float(influence)
    if ik == 0.0:
        return 0.0
    return -ik * (3.0 * eps + 2.0 * eps * eps + (ik / 4.0) ** (-eps) - 1.0)


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

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "order": list(self.order),
            "steps": [
                {"coord": s.coord, "value": s.value, "delta": s.delta, "floor": s.floor}
                for s in self.steps
            ],
            "final": self.final,
            "telescoped_floor": self.telescoped_floor,
        }


def chain(
    f: BooleanFunction, eps_values: Sequence[float], order: Sequence[int] | None = None
) -> tuple[ChainReport, ...]:
    """Grow V one coordinate at a time and track each moment drop, per eps.

    Each step reuses the previous table and applies a single butterfly
    pass, so the chains for every eps share one full transform; only the
    power sums and floors depend on eps.  Reports follow `eps_values`.
    """
    eps_values = tuple(eps_values)
    if not eps_values:
        raise ValueError("the chain needs at least one eps")
    for eps in eps_values:
        _check_eps(eps)
        if eps == 0.0:
            raise ValueError("the chain needs eps > 0; every moment is 1 at eps = 0")
    seq = list(order) if order is not None else list(range(1, f.n + 1))
    if sorted(seq) != list(range(1, f.n + 1)):
        raise ValueError(f"order must be a permutation of 1..{f.n}")
    bits = f.bits()
    influences = [_influence(bits, coord - 1) for coord in seq]
    work = f.values()
    rows = []  # rows[depth - 1][j]: moment after `depth` coordinates at eps_values[j]
    for depth, coord in enumerate(seq, start=1):
        partial_hadamard_inplace(work, [coord - 1])
        rows.append(_power_sums(work, depth, f.n, eps_values))
    reports = []
    for j, eps in enumerate(eps_values):
        previous = 1.0
        steps = []
        for coord, row, influence in zip(seq, rows, influences):
            floor = step_floor(influence, eps)
            steps.append(ChainStep(coord, row[j], row[j] - previous, floor))
            previous = row[j]
        telescoped = 1.0 - math.fsum(-s.floor for s in steps)
        reports.append(ChainReport(eps, tuple(seq), tuple(steps), previous, telescoped))
    return tuple(reports)


def entropy_from_moment_derivative(f: BooleanFunction, h: float = 1e-5) -> float:
    """Ent(f) recovered as -(1/ln 2) d/deps M_{[n],eps} at eps = 0.

    One-sided differences at h and h/2 plus Richardson extrapolation;
    M_{[n],0} = 1 exactly, so the stencil needs only two evaluations.
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"step h must lie in (0, 1e-3], got {h}")
    work = sign_spectrum(f.bits())
    m_h, m_half = _power_sums(work, f.n, f.n, (h, h / 2.0))
    d_h = (m_h - 1.0) / h
    d_half = (m_half - 1.0) / (h / 2.0)
    return -(2.0 * d_half - d_h) / LN2
