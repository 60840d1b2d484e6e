"""Shared oracles: slow, definitional reimplementations used to pin the fast paths."""
import math
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np

from hypercube_spectra import (
    AnalysisReport,
    BooleanFunction,
    Spectrum,
    chain,
    from_sign_bits,
    influences_combinatorial,
    lemma22_check,
    wht,
)
from hypercube_spectra.entropy import (
    DEFAULT_DELTAS,
    LN4,
    Concentration,
    _entropy_bits,
    entropy_terms,
    influence_floats,
)
from hypercube_spectra.search import _tables, chunk_stats
from hypercube_spectra.moments import LN2
from hypercube_spectra.spectrum import _halves, partial_hadamard_inplace, sign_spectrum


def random_function(rng: np.random.Generator, n: int) -> BooleanFunction:
    bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    return from_sign_bits(bits)


def negated(f: BooleanFunction) -> BooleanFunction:
    """-f: every sign bit of the table flipped."""
    return BooleanFunction(f.n, f.table ^ ((1 << f.size) - 1))


def relabelled(f: BooleanFunction, perm) -> BooleanFunction:
    """Coordinate j of the result reads coordinate perm[j-1] of f."""
    index = np.arange(f.size)
    source = sum(((index >> j) & 1) << (old - 1) for j, old in enumerate(perm))
    return from_sign_bits(f.bits()[source])


def brute_coeff(f: BooleanFunction, mask: int) -> int:
    """sum_x f(x) X_S(x) by direct enumeration."""
    total = 0
    for i, value in enumerate(f.values().tolist()):
        chi = -1 if bin(i & mask).count("1") % 2 else 1
        total += value * chi
    return total


def brute_spectrum(f: BooleanFunction) -> list[int]:
    return [brute_coeff(f, mask) for mask in range(f.size)]


def brute_restrict(f: BooleanFunction, free, assignment) -> BooleanFunction:
    free_sorted = sorted(free)
    table = f.values().tolist()
    values = []
    for sub in range(1 << len(free_sorted)):
        index = 0
        for j, coord in enumerate(free_sorted):
            if (sub >> j) & 1:
                index |= 1 << (coord - 1)
        for coord, val in assignment.items():
            if val == -1:
                index |= 1 << (coord - 1)
        values.append(table[index])
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
    values = f.values().tolist()
    changed = sum(1 for i in range(f.size) if values[i] != values[i ^ (1 << (k - 1))])
    return Fraction(changed, f.size)


def weighted_degree_sum(spectrum: Spectrum) -> int:
    """sum_S |S| coeffs[S]^2, which equals 4^n times the total influence."""
    sizes = np.bitwise_count(np.arange(1 << spectrum.n, dtype=np.int64))
    return int((sizes * spectrum.coeffs**2).sum())


def concentration_oracle(squared: np.ndarray, deltas) -> tuple[int, ...]:
    """Fewest characters whose weight reaches 1 - delta: one full sort, one cumulative sum."""
    cumulative = np.cumsum(np.sort(squared)[::-1])
    thresholds = [Fraction(1) - Fraction(d) for d in deltas]
    need = [-(-t.numerator * len(squared) ** 2 // t.denominator) for t in thresholds]
    return tuple(int(i) + 1 for i in np.searchsorted(cumulative, need, side="left"))


def influence_numerators(squared: np.ndarray) -> np.ndarray:
    """4^n I_k = sum over S containing k of c_S^2, one masked sum per k over (..., 2^n) squares."""
    n = squared.shape[-1].bit_length() - 1
    members = np.arange(1 << n)
    return np.stack([squared[..., (members >> k) & 1 == 1].sum(axis=-1) for k in range(n)], -1)


def spectral_entropies(squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ent, min-entropy) in bits from whole tables of squared coefficients (..., 2^n)."""
    n = squared.shape[-1].bit_length() - 1
    return _entropy_bits(n, entropy_terms(squared).sum(axis=-1), squared.max(axis=-1))


def analyze_oracle(f: BooleanFunction, deltas=DEFAULT_DELTAS) -> AnalysisReport:
    """analyze(f) from whole-table passes over the int64 squares.

    The entropies come from one spectral_entropies pass over the whole
    table, the influences from counted edges, the concentration from
    concentration_oracle.
    """
    squared = wht(f).coeffs ** 2
    entropy, min_entropy = spectral_entropies(squared)
    concentration = concentration_oracle(squared, deltas)
    del squared
    scale = 4**f.n
    influences = influences_combinatorial(f).per_coord
    numerators = np.array([int(v * scale) for v in influences], dtype=np.int64)
    floats = influence_floats(numerators / float(scale))
    total = sum(influences, Fraction(0))
    return AnalysisReport(
        n=f.n,
        entropy_bits=float(entropy),
        min_entropy_bits=float(min_entropy),
        influences=influences,
        influence_total=total,
        term_sum_bits=float(floats["term_sum"]),
        bound_bits=float(floats["bound"]),
        bound_drop_one_bits=float(floats["bound_drop_one"]),
        jensen_cap_bits=float(floats["jensen_cap"]) if total else None,
        concentration=tuple(map(Concentration, map(float, deltas), concentration)),
    )


# The row statistics as they were written before they took the entry axis
# first: each row's entries on the last axis, leading axes a batch.  The
# entries-first forms must give these bits in every layout.


def influence_floats_rows(influences: np.ndarray) -> dict[str, np.ndarray]:
    """influence_floats with the influences I_k on the last axis."""
    n = influences.shape[-1]
    inf = np.sort(influences, axis=-1)
    total = inf.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_inf = np.log(inf)
        terms = np.where(inf > 0.0, inf * (LN4 - log_inf), 0.0)
        term_sum = np.where(inf > 0.0, -inf * log_inf, 0.0).sum(axis=-1) / LN2
        cap = np.where(total > 0.0, total * np.log2(n / total), 0.0)
    return {
        "total": total,
        "term_sum": term_sum,
        "bound": (3.0 * total + terms.sum(axis=-1)) / LN2,
        "bound_drop_one": (3.0 * total + terms[..., :-1].sum(axis=-1)) / LN2,
        "jensen_cap": cap,
    }


def q31_numerators_rows(magnitude: np.ndarray) -> np.ndarray:
    """q31_numerators with |c_S| on the last axis: shape (..., n)."""
    n = magnitude.shape[-1].bit_length() - 1
    out = np.empty((*magnitude.shape[:-1], n), dtype=np.int64)
    for k in range(n):
        out[..., k] = np.einsum("...ij,...ij->...", *_halves(magnitude, k))
    return out


def q31_worst_rows(q31_num: np.ndarray, influence_num: np.ndarray) -> np.ndarray:
    """q31_worst with the coordinates on the last axis."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(influence_num > 0, q31_num / np.maximum(influence_num, 1), -np.inf)
    return ratio.max(axis=-1)


def chunk_columns(job, chunk: int) -> tuple[np.ndarray, dict]:
    """One chunk's sign bits, drawn whole by index, and its batch_stats columns."""
    start = chunk * job.chunk_size
    stop = min(start + job.chunk_size, job.total_indices)
    return _tables(job, range(start, stop)), chunk_stats(job, chunk)


def butterfly_spectrum(bits: np.ndarray) -> np.ndarray:
    """Integer coefficients of sign-bit tables (..., 2^n) by n butterfly passes.

    The reference for the fast kernel: int64 +-1 values, no float, no BLAS.
    """
    n = bits.shape[-1].bit_length() - 1
    return partial_hadamard_inplace(1 - 2 * bits.astype(np.int64), range(n))


def power_sums_oracle(
    transformed: np.ndarray, m: int, n: int, eps_values
) -> np.ndarray:
    """moments._power_sums by one np.power per eps over every entry of the table.

    transformed is (..., 2^n) with 2^m-scaled restricted coefficients; the
    result is (len(eps_values), ...).
    """
    squared = transformed.astype(np.float64) ** 2 / 4.0**m  # exact: |c| <= 2^m
    sums = [np.power(squared, 1.0 + eps).sum(axis=-1) for eps in eps_values]
    return np.array(sums) / 2.0 ** (n - m)


def derivative_entropy_oracle(f: BooleanFunction, h: float) -> float:
    """entropy_from_moment_derivative with M_{[n],eps} from the full spectrum, sign_spectrum."""
    m_h, m_half = power_sums_oracle(sign_spectrum(f.bits()), f.n, f.n, (h, h / 2.0)).tolist()
    d_h = (m_h - 1.0) / h
    d_half = (m_half - 1.0) / (h / 2.0)
    return -(2.0 * d_half - d_h) / LN2


def parseval_sums(bits: np.ndarray) -> np.ndarray:
    """sum_S c_S^2 per row of a (rows, 2^n) sign-bit matrix; Parseval makes it 4^n."""
    coeffs = butterfly_spectrum(bits)
    return (coeffs * coeffs).sum(axis=1)


# Run in a child of a fresh interpreter, so that ru_maxrss of the children
# is the peak of the command alone, not of the test process or its pools.
_PEAK_PROBE = """
import resource, subprocess, sys
done = subprocess.run(sys.argv[1:], capture_output=True, timeout=300)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(done.returncode, len(done.stdout.splitlines()), peak_mb)
"""


def peak_probe(*cli_args: str) -> tuple[int, int, float]:
    """Exit code, stdout line count and peak RSS in MB of one CLI run in a fresh process."""
    argv = [sys.executable, "-m", "hypercube_spectra.cli", *cli_args]
    probe = subprocess.run([sys.executable, "-c", _PEAK_PROBE, *argv],
                           capture_output=True, text=True, timeout=330)
    assert probe.returncode == 0, probe.stderr
    code, lines, peak_mb = probe.stdout.split()
    return int(code), int(lines), float(peak_mb)


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


# The random-trial sweeps `verify lemma22` and `verify lemma31`, one trial
# at a time: each draws a table, then its extras, and checks it alone.


def _draw_table(rng: np.random.Generator, n: int) -> BooleanFunction:
    raw = rng.integers(0, 256, size=(1 << n) // 8 or 1, dtype=np.uint8)
    return from_sign_bits(np.unpackbits(raw, bitorder="little")[: 1 << n])


def lemma22_trials(trials: int, max_n: int, seed: int):
    """(f, J, k) per trial, in the rng order of `verify lemma22`."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(1, max_n + 1))
        f = _draw_table(rng, n)
        size = int(rng.integers(1, n + 1))
        j_set = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
        yield f, j_set, int(rng.choice(j_set))


def lemma22_oracle(trials: int, max_n: int, seed: int) -> tuple[str, dict]:
    """Status and payload of `verify lemma22`, from one lemma22_check per trial."""
    failures = 0
    first = None
    for f, j_set, k in lemma22_trials(trials, max_n, seed):
        lhs, rhs = lemma22_check(f, j_set, k)
        if lhs != rhs:
            failures += 1
            if first is None:
                first = {"n": f.n, "fn": f.to_hex(), "J": j_set, "k": k,
                         "lhs": str(lhs), "rhs": str(rhs)}
    payload = {"trials": trials, "max_n": max_n, "seed": seed,
               "failures": failures, "first_failure": first}
    return ("ok" if failures == 0 else "violation"), payload


def lemma31_oracle(trials: int, max_n: int, seed: int, eps_values) -> tuple[str, dict]:
    """Status and payload of `verify lemma31`, from one chain call per trial.

    The witness is the first strict minimum in (trial, eps) order.
    """
    rng = np.random.default_rng(seed)
    checks = violations = 0
    min_margin = math.inf
    witness = None
    for _ in range(trials):
        n = int(rng.integers(1, max_n + 1))
        f = _draw_table(rng, n)
        order = (rng.permutation(n) + 1).tolist()
        for report in chain(f, eps_values, order=order):
            margins = [s.delta - s.floor for s in report.steps]
            margins.append(report.final - report.telescoped_floor)
            checks += len(margins)
            violations += sum(1 for m in margins if m < -1e-9)
            if min(margins) < min_margin:
                min_margin = min(margins)
                witness = {"n": n, "fn": f.to_hex(), "eps": report.eps, "order": order}
    payload = {"trials": trials, "max_n": max_n, "seed": seed,
               "eps": [float(e) for e in eps_values], "checks": checks,
               "violations": violations, "min_margin": min_margin,
               "witness_of_min": witness, "tolerance": 1e-9}
    return ("ok" if violations == 0 else "violation"), payload
