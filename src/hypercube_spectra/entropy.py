"""Spectral entropy, concentration, and influence-based entropy bounds.

Weights w_S = fhat(S)^2 form a probability distribution (Parseval), so
Ent(f) = sum_S w_S log2(1/w_S) is an ordinary Shannon entropy, measured
in bits.  Zero weights contribute zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .boolfn import BooleanFunction
from .spectrum import InfluenceProfile, Spectrum, influences_spectral, wht

LN2 = math.log(2.0)

DEFAULT_DELTAS = (0.5, 0.25, 0.1, 0.01)


def fourier_entropy(spectrum: Spectrum) -> float:
    """Ent(f) in bits.

    With integer coefficients c_S = 2^n fhat(S) this is
    2n - sum(c^2 log2 c^2) / 4^n, and every c^2/4^n is an exact dyadic
    double, so the only rounding is in log2 and the final sum.
    """
    squared = spectrum.squared().astype(np.float64)
    logs = np.log2(np.maximum(squared, 1.0))  # c^2 in {0,1} contributes 0 either way
    return 2.0 * spectrum.n - float((squared * logs).sum()) / 4.0**spectrum.n


def min_entropy(spectrum: Spectrum) -> float:
    """log2(1 / max_S fhat(S)^2), always <= Ent(f)."""
    top = int(spectrum.squared().max())
    return 2.0 * spectrum.n - math.log2(top)


def concentration_count(spectrum: Spectrum, deltas: Sequence[float]) -> tuple[int, ...]:
    """Smallest number of characters whose weight reaches 1 - delta, per delta.

    The count depends only on the weights in decreasing order (which of
    several equal weights comes first cannot change a cumulative sum), so
    the weights are sorted once and every delta is a binary search.
    """
    for delta in deltas:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
    cumulative = np.cumsum(np.sort(spectrum.squared())[::-1])
    thresholds = [Fraction(1) - Fraction(d) for d in deltas]  # exact binary value of delta
    # cum/4^n >= t, for integer cum, means cum >= ceil(t 4^n):
    need = [-(-t.numerator * 4**spectrum.n // t.denominator) for t in thresholds]
    return tuple(int(i) + 1 for i in np.searchsorted(cumulative, need, side="left"))


def term_sum_bits(profile: InfluenceProfile) -> float:
    """sum_k I_k log2(1/I_k), skipping zero influences."""
    return math.fsum(
        -float(ik) * math.log2(float(ik)) for ik in profile.per_coord if ik > 0
    )


def influence_entropy_bound(profile: InfluenceProfile) -> float:
    """(3 I(f) + sum_k I_k ln(4/I_k)) / ln 2, an upper bound for Ent(f)."""
    total = float(profile.total)
    terms = math.fsum(
        float(ik) * math.log(4.0 / float(ik)) for ik in profile.per_coord if ik > 0
    )
    return (3.0 * total + terms) / LN2


def influence_entropy_bound_drop_one(profile: InfluenceProfile) -> float:
    """Same bound with the single largest I_k ln(4/I_k) term removed.

    Dropping one term is justified because the underlying restriction
    argument can start from any coordinate; the 3 I(f) part stays.
    """
    total = float(profile.total)
    terms = sorted(
        float(ik) * math.log(4.0 / float(ik)) for ik in profile.per_coord if ik > 0
    )
    return (3.0 * total + math.fsum(terms[:-1])) / LN2


def jensen_cap_bits(profile: InfluenceProfile) -> float:
    """I(f) log2(n / I(f)), an upper bound for sum_k I_k log2(1/I_k).

    Concavity of x log2(1/x) over the n coordinates gives the cap.
    Undefined for constant functions (I = 0).
    """
    total = float(profile.total)
    if total == 0.0:
        raise ValueError("jensen cap is undefined for constant functions")
    return total * math.log2(profile.n / total)


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
    concentration: tuple[tuple[float, int], ...]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "entropy_bits": self.entropy_bits,
            "min_entropy_bits": self.min_entropy_bits,
            "influences": [str(ik) for ik in self.influences],
            "influence_total": str(self.influence_total),
            "term_sum_bits": self.term_sum_bits,
            "bound_bits": self.bound_bits,
            "bound_drop_one_bits": self.bound_drop_one_bits,
            "jensen_cap_bits": self.jensen_cap_bits,
            "concentration": [
                {"delta": delta, "count": count} for delta, count in self.concentration
            ],
        }


def analyze(f: BooleanFunction, deltas: tuple[float, ...] = DEFAULT_DELTAS) -> AnalysisReport:
    """One-stop spectral report: entropies, influences, bounds, concentration."""
    spectrum = wht(f)
    profile = influences_spectral(spectrum)
    try:
        cap = jensen_cap_bits(profile)
    except ValueError:
        cap = None
    return AnalysisReport(
        n=f.n,
        entropy_bits=fourier_entropy(spectrum),
        min_entropy_bits=min_entropy(spectrum),
        influences=profile.per_coord,
        influence_total=profile.total,
        term_sum_bits=term_sum_bits(profile),
        bound_bits=influence_entropy_bound(profile),
        bound_drop_one_bits=influence_entropy_bound_drop_one(profile),
        jensen_cap_bits=cap,
        concentration=tuple(zip(map(float, deltas), concentration_count(spectrum, deltas))),
    )
