"""Spectral entropy, concentration, and influence-based entropy bounds.

Weights w_S = fhat(S)^2 form a probability distribution (Parseval), so
Ent(f) = sum_S w_S log2(1/w_S) is an ordinary Shannon entropy, measured
in bits.  Zero weights contribute zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .boolfn import BooleanFunction
from .spectrum import walk_spectrum

LN2 = math.log(2.0)
LN4 = math.log(4.0)

DEFAULT_DELTAS = (0.5, 0.25, 0.1, 0.01)


def entropy_terms(squared: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c^2 log2 c^2 per squared integer coefficient, as float64 (into `out` if given).

    Every c^2 <= 2^48 is exact in a double, so the only rounding is in
    log2 and the product; c^2 in {0, 1} contributes 0 either way.
    """
    terms = np.maximum(squared, 1.0, out=out)
    np.log2(terms, out=terms)
    return np.multiply(terms, squared, out=terms)


def _entropy_bits(n: int, term_sum, top):
    """(Ent, min-entropy) in bits from sum(c^2 log2 c^2) and max c^2."""
    return 2.0 * n - term_sum / 4.0**n, 2.0 * n - np.log2(top)


def concentration_count(magnitudes: np.ndarray, deltas: Sequence[float]) -> tuple[int, ...]:
    """Smallest number of characters whose weight reaches 1 - delta, per delta.

    magnitudes holds the 2^n integer |c_S| = 2^n |fhat(S)|, and is sorted
    in place.  The count depends only on the weights in decreasing order
    (which of several equal weights comes first cannot change a
    cumulative sum), so it is read from the runs of equal magnitudes:
    whole runs from the top while their weight falls short, then as many
    members of the next run as the rest needs.
    """
    for delta in deltas:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
    size = len(magnitudes)
    magnitudes.sort()
    starts = np.append(0, np.flatnonzero(magnitudes[1:] != magnitudes[:-1]) + 1)[::-1]
    values = magnitudes[starts].astype(np.int64)  # one per run, largest first
    # Characters and weight in the runs above each run, and in all runs.
    # Exact in int64: a run's weight v^2 * count, and every sum of them,
    # is at most the total, sum c^2 = 4^n <= 2^48.
    cum_count = np.append(0, size - starts)
    cum_weight = np.append(0, np.cumsum(values * values * np.diff(cum_count)))
    thresholds = [Fraction(1) - Fraction(d) for d in deltas]  # exact binary value of delta
    # cum/4^n >= t, for integer cum, means cum >= ceil(t 4^n), with 4^n = size^2:
    need = np.array([-(-t.numerator * size**2 // t.denominator) for t in thresholds], np.int64)
    run = np.searchsorted(cum_weight, need) - 1  # the run whose members reach need
    fill = -((cum_weight[run] - need) // values[run] ** 2)  # ceil(short / v^2) of its members
    return tuple(int(c) for c in cum_count[run] + fill)


def influence_floats(influences: np.ndarray) -> dict[str, np.ndarray]:
    """Float statistics of the influences I_k on the first axis; trailing axes are a batch.

    total = I(f); term_sum = sum_k I_k log2(1/I_k); bound = (3 I(f) +
    sum_k I_k ln(4/I_k)) / ln 2; bound_drop_one drops the largest term, as
    the restriction argument may start from any coordinate; jensen_cap =
    I(f) log2(n / I(f)) >= term_sum by concavity, 0 where I = 0.  Sorting
    first fixes the order of every sum, so the results are bitwise
    invariant under relabelling; x ln(4/x) increases on [0, 1], so the
    largest term is the last.
    """
    n = len(influences)
    inf = np.sort(influences, axis=0)
    total = inf.sum(axis=0)  # exact: multiples of 4^-n summing to at most n
    with np.errstate(divide="ignore", invalid="ignore"):
        log_inf = np.log(inf)
        terms = np.where(inf > 0.0, inf * (LN4 - log_inf), 0.0)
        term_sum = np.where(inf > 0.0, -inf * log_inf, 0.0).sum(axis=0) / LN2
        cap = np.where(total > 0.0, total * np.log2(n / total), 0.0)
    return {
        "total": total,
        "term_sum": term_sum,
        "bound": (3.0 * total + terms.sum(axis=0)) / LN2,
        "bound_drop_one": (3.0 * total + terms[:-1].sum(axis=0)) / LN2,
        "jensen_cap": cap,
    }


class Concentration(NamedTuple):
    """Fewest characters whose weight reaches 1 - delta (concentration_count)."""

    delta: float
    count: int


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer computes for a single function."""

    n: int
    entropy_bits: float
    min_entropy_bits: float
    influences: tuple[Fraction, ...]
    influence_total: Fraction
    term_sum_bits: float
    bound_bits: float
    bound_drop_one_bits: float
    jensen_cap_bits: float | None
    concentration: tuple[Concentration, ...]


def analyze(f: BooleanFunction, deltas: tuple[float, ...] = DEFAULT_DELTAS) -> AnalysisReport:
    """One-stop spectral report: entropies, influences, bounds, concentration.

    A walk_spectrum pass of one row that leaves the walk's spare array
    untouched: each block's entropy terms are summed in one block-sized
    buffer, and the block is overwritten with its int32 |c| for the
    concentration sort.  numpy sums a contiguous float64 run of 2^n
    entries pairwise, split at its halves, so adding the block sums in
    pairs, level by level, gives the bits of one sum over all the terms.
    """
    terms, sums = None, []

    def fill(part, squared, _):
        nonlocal terms
        if terms is None:  # every block of one table has the first one's size
            terms = np.empty_like(squared)
        sums.append(entropy_terms(squared, terms).sum())
        part.view(np.int32)[...] = np.abs(part)  # exact: |c| <= 2^24

    (coeffs,), _, (numerators,) = walk_spectrum(f.bits()[None], fill)
    while len(sums) > 1:  # 2^(n-16) block sums from n = 17 on
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    magnitudes = coeffs.view(np.int32)
    concentration = concentration_count(magnitudes, deltas)  # sorts the magnitudes
    entropy, min_entropy = _entropy_bits(f.n, sums[0], int(magnitudes[-1]) ** 2)
    scale = 4**f.n
    floats = influence_floats(numerators / float(scale))
    total = Fraction(int(numerators.sum()), scale)
    return AnalysisReport(
        n=f.n,
        entropy_bits=float(entropy),
        min_entropy_bits=float(min_entropy),
        influences=tuple(Fraction(int(v), scale) for v in numerators),
        influence_total=total,
        term_sum_bits=float(floats["term_sum"]),
        bound_bits=float(floats["bound"]),
        bound_drop_one_bits=float(floats["bound_drop_one"]),
        jensen_cap_bits=float(floats["jensen_cap"]) if total else None,
        concentration=tuple(map(Concentration, map(float, deltas), concentration)),
    )
