"""Scalar inequalities behind the chain floors, plus the q31 cross-term report.

Two scalar facts are swept numerically over [0,1]^2 x (0,1/2).  Writing
s = (sqrt(b)+sqrt(a))^2 and d = (sqrt(b)-sqrt(a))^2, the quantity

    L(a,b,eps) = (s^(1+eps) + d^(1+eps)) / 2 - a^(1+eps) - b^(1+eps)

is sandwiched, for 0 <= a <= b <= 1:

    (b^eps - a^eps) a  <=  L  <=  (3 eps + 2 eps^2) a + (b^eps - a^eps) a

The upper bound is the "lemma24" form, the lower bound the "eq27" form.
Both gap functions are oriented so a violation is a negative gap; their
sum telescopes to exactly (3 eps + 2 eps^2) a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .boolfn import BooleanFunction
from .spectrum import walk_spectrum

DEFAULT_EPS_LIST = tuple(0.01 + 0.02 * k for k in range(25))  # 0.01 .. 0.49


def _check_pair(a: float, b: float, eps: float) -> None:
    if not 0.0 <= a <= b <= 1.0:
        raise ValueError(f"need 0 <= a <= b <= 1, got a={a}, b={b}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")


def _gap_grid(a: np.ndarray, b: np.ndarray, eps, upper: bool) -> np.ndarray:
    """Upper (lemma24) or lower (eq27) gap elementwise; eps is a scalar or an array like a."""
    p = 1.0 + eps
    sa, sb = np.sqrt(a), np.sqrt(b)
    cross = ((sb + sa) ** 2) ** p / 2.0 + ((sb - sa) ** 2) ** p / 2.0 - a**p - b**p
    base = (b**eps - a**eps) * a
    if upper:
        return base + (3.0 * eps + 2.0 * eps * eps) * a - cross
    return cross - base


def lemma24_gap(a: float, b: float, eps: float) -> float:
    """(3 eps + 2 eps^2) a + (b^eps - a^eps) a - L(a,b,eps); >= 0 always."""
    _check_pair(a, b, eps)
    return float(_gap_grid(np.array([a]), np.array([b]), eps, upper=True)[0])


def eq27_gap(a: float, b: float, eps: float) -> float:
    """L(a,b,eps) - (b^eps - a^eps) a; >= 0 always (the lower half)."""
    _check_pair(a, b, eps)
    return float(_gap_grid(np.array([a]), np.array([b]), eps, upper=False)[0])


MAX_GRID_STEPS = 2048  # per axis; memory grows with its square (232 MB peak at 2048)


@dataclass(frozen=True)
class ScalarGridSpec:
    """Uniform sweep grid: a and b over [0,1] including endpoints and a=b."""

    steps: int = 200  # per axis
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError("grids need at least two steps to include 0 and 1")
        if self.steps > MAX_GRID_STEPS:
            raise ValueError(
                f"grids take at most {MAX_GRID_STEPS} steps per axis, "
                f"got {self.steps} x {self.steps}"
            )
        if not self.eps_list:
            raise ValueError("the grid needs at least one eps value")
        for e in self.eps_list:
            if not 0.0 < e < 0.5:
                raise ValueError(f"eps values must lie in (0, 1/2), got {e}")


class GapPoint(NamedTuple):
    a: float
    b: float
    eps: float


@dataclass(frozen=True)
class SweepResult:
    kind: str
    evaluated: int
    violations: int
    min_gap: float
    argmin: GapPoint


GAP_TOLERANCE = 1e-12


def _sweep_triples(kind: str, triples) -> SweepResult:
    """One gap's violations and first minimum over batches of (a, b, eps) arrays."""
    if kind not in ("lemma24", "eq27"):
        raise ValueError(f"unknown gap kind {kind!r}")
    evaluated = 0
    violations = 0
    min_gap = math.inf
    argmin = GapPoint(0.0, 0.0, 0.0)
    for a, b, eps in triples:
        gaps = _gap_grid(a, b, eps, upper=(kind == "lemma24"))
        evaluated += gaps.size
        violations += int(np.count_nonzero(gaps < -GAP_TOLERANCE))
        low = int(np.argmin(gaps))
        if gaps[low] < min_gap:
            min_gap = float(gaps[low])
            argmin = GapPoint(*map(float, (a[low], b[low], np.broadcast_to(eps, a.shape)[low])))
    return SweepResult(kind, evaluated, violations, min_gap, argmin)


def sweep_gap(kind: str, grid: ScalarGridSpec | None = None) -> SweepResult:
    """Evaluate one gap function over a full grid, one eps at a time; count violations < -1e-12."""
    grid = grid or ScalarGridSpec()
    axis = np.linspace(0.0, 1.0, grid.steps)
    aa, bb = np.meshgrid(axis, axis, indexing="ij")
    keep = aa <= bb
    a, b = aa[keep], bb[keep]
    return _sweep_triples(kind, ((a, b, eps) for eps in grid.eps_list))


MAX_RANDOM_TRIPLES = 1 << 21  # about one eps of the largest grid (198 MB peak at 2^21)


def sweep_gap_random(kind: str, count: int, seed: int) -> SweepResult:
    """Same check on seeded random triples (a, b, eps)."""
    if count < 1:
        raise ValueError("count must be positive")
    if count > MAX_RANDOM_TRIPLES:
        raise ValueError(
            f"random sweeps take at most {MAX_RANDOM_TRIPLES} triples (--random), got {count}"
        )
    rng = np.random.default_rng(seed)
    a = rng.random(count)
    b = a + (1.0 - a) * rng.random(count)
    eps = np.clip(rng.random(count) * 0.5, 1e-9, 0.5 - 1e-9)
    return _sweep_triples(kind, [(a, b, eps)])


@dataclass(frozen=True)
class Q31Coordinate:
    coord: int
    numerator: Fraction  # sum over S not containing k of |fhat(S) fhat(S+k)|
    influence: Fraction
    ratio: Fraction | None  # absent when I_k = 0


@dataclass(frozen=True)
class Q31Report:
    """Cross-term mass N_k against influence I_k, coordinate by coordinate."""

    n: int
    per_coord: tuple[Q31Coordinate, ...]
    best: Fraction | None
    worst: Fraction | None


def q31_numerators(magnitude: np.ndarray) -> np.ndarray:
    """4^n N_k = sum_{S not cont. k} |c_S c_{S+k}|, shape (n, ...).

    `magnitude` holds the integer |c_S| along its first axis, as int64 or
    float64; any trailing axes are a batch.  Both are exact for every
    n <= 24.  By AM-GM, |c_S c_{S+k}| <= (c_S^2 + c_{S+k}^2) / 2, and each
    S appears in one pair only, so every partial sum is an integer of at
    most sum_S c_S^2 / 2 = 2^(2n-1) <= 2^47 (Parseval), below both int64's
    and float64's exact range (2^53), whatever the summation order.
    """
    n, batch = len(magnitude).bit_length() - 1, magnitude.shape[1:]
    out = np.empty((n, *batch), dtype=np.int64)
    for k in range(n):  # pairs[:, 0] holds the S without bit k, pairs[:, 1] each S xor 2^k
        pairs = magnitude.reshape(-1, 2, 1 << k, *batch)
        out[k] = np.einsum("ij...,ij...->...", pairs[:, 0], pairs[:, 1])
    return out


def q31_worst(q31_num: np.ndarray, influence_num: np.ndarray) -> np.ndarray:
    """Float max_k N_k / I_k on the first axis; -inf where every I_k = 0.

    One rounding of integers below 2^53, so it equals float(Q31Report.worst).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(influence_num > 0, q31_num / np.maximum(influence_num, 1), -np.inf)
    return ratio.max(axis=0)


def q31_report(f: BooleanFunction) -> Q31Report:
    """Exact N_k = sum_{S not cont. k} |fhat(S) fhat(S+k)| and N_k / I_k.

    A walk_spectrum pass of one row fills its spare buffer with float64 |c|.
    """
    _, (magnitudes,), (influences,) = walk_spectrum(
        f.bits()[None], lambda part, _, out: np.abs(part, out=out)
    )
    numerators = q31_numerators(magnitudes)
    scale = 4**f.n
    per = []
    for k, (num, inf) in enumerate(zip(numerators.tolist(), influences.tolist()), start=1):
        ratio = Fraction(num, inf) if inf > 0 else None
        per.append(Q31Coordinate(k, Fraction(num, scale), Fraction(inf, scale), ratio))
    defined = [c.ratio for c in per if c.ratio is not None]
    return Q31Report(
        n=f.n,
        per_coord=tuple(per),
        best=min(defined) if defined else None,
        worst=max(defined) if defined else None,
    )

