"""Exact Fourier analysis of boolean functions on the signed hypercube.

Truth tables are packed integers, spectra are exact int64 coefficient
arrays, influences are exact rationals, and every inequality the package
verifies is swept numerically with explicit tolerances.
"""
from .boolfn import (
    MAX_N,
    BooleanFunction,
    FamilySpec,
    and_function,
    dictator,
    first_even_group,
    from_sign_bits,
    majority,
    make_family,
    minblock,
    parity,
    tribes,
)
from .entropy import (
    AnalysisReport,
    analyze,
    concentration_count,
)
from .inequality import (
    Q31Report,
    ScalarGridSpec,
    SweepResult,
    eq27_gap,
    lemma24_gap,
    q31_report,
    sweep_gap,
    sweep_gap_random,
)
from .moments import (
    ChainReport,
    MomentCurve,
    chain,
    entropy_from_moment_derivative,
    lemma22_check,
    moment_curve,
    step_floor,
)
from .search import (
    METRICS,
    ExtremalRecord,
    SearchJob,
    batch_stats,
    metric_value,
)
from .search import resume as resume_search
from .search import run as run_search
from .spectrum import (
    InfluenceProfile,
    Spectrum,
    influences_combinatorial,
    wht,
)

__version__ = "0.1.0"
