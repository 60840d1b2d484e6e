"""Deterministic extremal search over truth-table space.

The index space (all 2^(2^n) tables for exhaustive mode, [0, count) for
sampled mode) is split into fixed-size chunks.  Chunk results merge by a
per-metric max (min for jensen_slack) with ties broken toward the smaller
table integer, so any execution order - serial, pooled, interrupted and
resumed - produces identical records.  Sampled tables are drawn by
hashing (seed, index), never from shared RNG state, so the worker count
cannot change what gets sampled.

Constant functions are skipped everywhere: every metric here divides by,
or is undefined at, zero influence.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import product, repeat

import numpy as np

from .boolfn import MAX_N, BooleanFunction
from .entropy import AnalysisReport, _entropy_bits, analyze, entropy_terms, influence_floats
from .inequality import q31_numerators, q31_worst
from .spectrum import group_rows, walk_spectrum

METRICS = ("ent_over_I", "ent_over_bound", "minent_over_I", "q31_worst", "jensen_slack")

# jensen_slack records the tightest cap, everything else the largest ratio.
_MINIMIZED = frozenset({"jensen_slack"})

CHECKPOINT_FORMAT = 3
MAX_CHUNK_SIZE = 1 << 20  # rows; a chunk's batch_stats columns take 65 B a row: 68 MB


@dataclass(frozen=True)
class SearchJob:
    """One reproducible sweep: what to enumerate and which records to keep."""

    n: int
    mode: str
    count: int | None = None
    seed: int | None = None
    metrics: tuple[str, ...] = METRICS
    checkpoint_every: int | None = None
    chunk_size: int = 4096

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"dimension n must be in [1, {MAX_N}], got {self.n}")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"mode must be 'exhaustive' or 'sample', got {self.mode!r}")
        if not self.metrics:
            raise ValueError("at least one metric is required")
        for m in self.metrics:
            if m not in METRICS:
                raise ValueError(f"unknown metric {m!r}; known: {', '.join(METRICS)}")
        if len(set(self.metrics)) != len(self.metrics):
            raise ValueError("metrics must not repeat")
        if not 1 <= self.chunk_size <= MAX_CHUNK_SIZE:
            raise ValueError(f"chunk_size must be in [1, {MAX_CHUNK_SIZE}], got {self.chunk_size}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        if self.mode == "exhaustive":
            if self.n > 4:
                raise ValueError(f"exhaustive mode supports n <= 4, got n={self.n}")
            if self.count is not None or self.seed is not None:
                raise ValueError("exhaustive mode takes neither count nor seed")
        else:
            if self.count is None or self.count < 1:
                raise ValueError("sample mode requires a positive count")
            if self.seed is None:
                raise ValueError("sample mode requires a seed")

    @property
    def total_indices(self) -> int:
        return (1 << (1 << self.n)) if self.mode == "exhaustive" else self.count

    @property
    def total_chunks(self) -> int:
        return -(-self.total_indices // self.chunk_size)

    def job_hash(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class ExtremalRecord:
    """The extremal witness found for one metric."""

    metric: str
    value: float
    n: int
    witness: str
    context: AnalysisReport

    def as_dict(self) -> dict:  # perfbench/workloads.py renders records through it
        return asdict(self)


def batch_stats(bits: np.ndarray) -> dict[str, np.ndarray]:
    """Spectral statistics for a (batch, 2^n) sign-bit matrix, vectorised.

    Each column holds one value a row: 'nonconstant' a bool, the rest
    float64.  Rows for constant functions carry zeros in the ratio columns
    and False in 'nonconstant'.  One walk_spectrum pass writes the entropy
    terms; then float64 |c| in the spare buffer gives each row's largest
    |c|, for the min-entropy, and the q31 sums.
    """
    n = bits.shape[-1].bit_length() - 1
    coeffs, spare, inf_num = walk_spectrum(bits, lambda _, sq, out: entropy_terms(sq, out))
    term_sum = spare.sum(axis=-1)
    # The row statistics take the entry axis first.  numpy reduces a row in
    # one inner-loop call, so below n = 8 |c| and the influences go to
    # contiguous columns and every max, sort and sum runs down vectors of
    # one entry per row: per group, n = 4 x 4096 rows 1.99 -> 1.21 ms, n = 7 x
    # 512 -13% (medians, 2-CPU host).  numpy sums fewer than 8 contiguous
    # float64 entries left to right, as a sum down columns does, so the bits
    # stay.  From n = 8 on, .T views keep numpy's order on contiguous rows.
    if n < 8:
        magnitudes = np.abs(coeffs.T, out=spare.reshape(-1, len(coeffs)))  # exact: |c| <= 2^24
        numerators = np.ascontiguousarray(inf_num.T)
    else:
        magnitudes, numerators = np.abs(coeffs, out=spare).T, inf_num.T
    top = magnitudes.max(axis=0)
    entropy, min_entropy = _entropy_bits(n, term_sum, top * top)
    q31 = q31_numerators(magnitudes)
    # Free the walk scratch now: an n = 4 group then peaks at 1.9 MB, not 2.45 MB.  glibc
    # trims a free heap top above twice the 1.28 MB scratch, and the next group re-faults it.
    del coeffs, spare, magnitudes
    worst = q31_worst(q31, numerators)
    influences = numerators / 4.0**n
    del numerators  # the column copy is not held through influence_floats' temporaries
    floats = influence_floats(influences)
    return {
        "nonconstant": floats["total"] > 0.0,
        "entropy": entropy,
        "min_entropy": min_entropy,
        "influence_total": floats["total"],
        "bound": floats["bound"],
        "bound_drop_one": floats["bound_drop_one"],
        "term_sum": floats["term_sum"],
        "jensen_cap": floats["jensen_cap"],
        "q31_worst": worst,
    }


def metric_columns(stats: dict) -> dict[str, np.ndarray]:
    """Assemble the five search metrics from batch_stats output."""
    total = stats["influence_total"]
    safe = np.where(total > 0.0, total, 1.0)  # constant rows: no division by zero
    bound = np.where(stats["bound"] > 0.0, stats["bound"], 1.0)
    return {
        "ent_over_I": stats["entropy"] / safe,
        "ent_over_bound": stats["entropy"] / bound,
        "minent_over_I": stats["min_entropy"] / safe,
        "q31_worst": stats["q31_worst"],
        "jensen_slack": stats["jensen_cap"] - stats["term_sum"],
    }


def metric_value(metric: str, f: BooleanFunction) -> float:
    """Recompute one metric for one function (witness round-trips)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if f.is_constant():
        raise ValueError("metrics are undefined for constant functions")
    stats = batch_stats(f.bits().reshape(1, -1))
    return float(metric_columns(stats)[metric][0])


def _tables(job: SearchJob, indices) -> np.ndarray:
    """Sign bits (len(indices), 2^n) of the job's tables at the given indices.

    An exhaustive index is the table integer.  A sampled index is hashed
    on its own with the seed, block by block, so any row can be drawn
    again; keyed BLAKE2b compresses its key block first, so copying one
    keyed state per digest gives the bytes of a fresh keyed hash.
    """
    indices = np.asarray(indices, dtype="<u8")
    size = 1 << job.n
    nbytes = max(1, size // 8)
    if job.mode == "exhaustive":
        raw = indices.view(np.uint8).reshape(-1, 8)[:, :nbytes]
    else:
        keyed = hashlib.blake2b(key=hashlib.sha256(str(job.seed).encode()).digest())
        digests = []
        for index, blk in product(indices.tolist(), range(-(-nbytes // 64))):
            state = keyed.copy()
            state.update(struct.pack("<QI", index, blk))
            digests.append(state.digest())
        raw = np.frombuffer(b"".join(digests), np.uint8).reshape(len(indices), -1)[:, :nbytes]
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :size]


def chunk_stats(job: SearchJob, chunk: int) -> dict[str, np.ndarray]:
    """batch_stats columns of one chunk, filled from its row groups in index order.

    A group of group_rows(n) tables is drawn, walked and dropped, so
    batch_stats stays in L2 cache and no array holds the chunk's tables; a
    whole 4096-row chunk at n = 12 streamed 128 MB per array through DRAM.
    chunk_size alone fixes checkpoints and job_hash.
    """
    first = chunk * job.chunk_size
    stop = min(first + job.chunk_size, job.total_indices)
    rows = group_rows(job.n)
    columns = {}  # filled in place: a join of held group columns raised a sweep's peak ~1 MB
    for start in range(first, stop, rows):
        end = min(start + rows, stop)
        for key, column in batch_stats(_tables(job, np.arange(start, end))).items():
            if key not in columns:
                columns[key] = np.empty(stop - first, column.dtype)
            columns[key][start - first : end - first] = column
    return columns


def _smallest_table(job: SearchJob, indices: np.ndarray) -> int:
    """Table integer of the smallest of the job's tables at `indices`, drawn group by group."""
    rows = group_rows(job.n)
    smallest = []
    for start in range(0, len(indices), rows):
        # byte j = table bits 8j..8j+7; lexsort's primary key is the last, highest byte
        packed = np.packbits(_tables(job, indices[start : start + rows]), axis=1, bitorder="little")
        smallest.append(int.from_bytes(packed[np.lexsort(packed.T)[0]].tobytes(), "little"))
    return min(smallest)


def _chunk_best(job: SearchJob, chunk_index: int) -> dict[str, tuple[float, int]]:
    """Each metric's best (value, smallest tied table) over one chunk; ties are drawn again."""
    stats = chunk_stats(job, chunk_index)
    keep = stats["nonconstant"]
    if not keep.any():
        return {}
    columns = metric_columns(stats)
    best = {}
    for metric in job.metrics:
        vals = columns[metric]
        target = float(vals[keep].min() if metric in _MINIMIZED else vals[keep].max())
        tied = np.flatnonzero(keep & (vals == target))
        best[metric] = (target, _smallest_table(job, chunk_index * job.chunk_size + tied))
    return best


def _keep_better(best: dict, metric: str, cand: tuple[float, int]) -> None:
    """Hold cand if it beats the metric's held record: a better value, then a smaller table."""
    held = best.get(metric)
    sign = 1.0 if metric in _MINIMIZED else -1.0
    if held is None or (sign * cand[0], cand[1]) < (sign * held[0], held[1]):
        best[metric] = cand


def _write_checkpoint(path: str, job: SearchJob, cursor: int, best: dict) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "job": asdict(job),
        "job_hash": job.job_hash(),
        "next_chunk": cursor,
        "total_chunks": job.total_chunks,
        "best": {
            m: None
            if b is None
            else {"value": b[0], "table_hex": BooleanFunction(job.n, b[1]).to_hex()}
            for m, b in best.items()
        },
        "complete": cursor >= job.total_chunks,
    }
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):  # leave no partial checkpoint beside the path
            os.remove(tmp)
        raise ValueError(f"cannot write checkpoint {path!r}: {exc.strerror}") from None


def _finalize(job: SearchJob, best: dict) -> list[ExtremalRecord]:
    records = []
    for metric in sorted(job.metrics):
        found = best.get(metric)
        if found is None:
            continue
        f = BooleanFunction(job.n, found[1])
        records.append(ExtremalRecord(metric, found[0], job.n, f.to_hex(), analyze(f)))
    return records


def _sweep(
    job: SearchJob,
    best: dict,
    first_chunk: int,
    checkpoint_path: str | None,
    workers: int,
    max_chunks: int | None,
) -> list[ExtremalRecord] | None:
    """Run chunks from first_chunk on, checkpointing after each batch.

    A batch is checkpoint_every chunks (all pending chunks if unset); a
    sweep with no chunk left still writes its checkpoint once.
    """
    stop = job.total_chunks
    if max_chunks is not None:
        stop = max(first_chunk, min(stop, first_chunk + max_chunks))
    every = job.checkpoint_every or job.total_chunks
    # The executor forks every worker it is given at its first submit, so
    # it gets no more than there are chunks to run or CPUs to run them.
    workers = min(workers, stop - first_chunk, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run_chunks = pool.map if pool else map
        for start in range(first_chunk, stop, every) or (first_chunk,):
            batch = range(start, min(start + every, stop))
            for result in run_chunks(_chunk_best, repeat(job), batch):
                for metric, cand in result.items():
                    _keep_better(best, metric, cand)
            if checkpoint_path:
                _write_checkpoint(checkpoint_path, job, batch.stop, best)
    return None if stop < job.total_chunks else _finalize(job, best)


def run(
    job: SearchJob,
    checkpoint_path: str | None = None,
    workers: int = 1,
    max_chunks: int | None = None,
) -> list[ExtremalRecord] | None:
    """Execute a job from the start.  Returns None if stopped early.

    A checkpoint path that names no file in an existing directory raises ValueError first.
    """
    folder = os.path.dirname(checkpoint_path or "") or "."
    if checkpoint_path and (os.path.isdir(checkpoint_path) or not os.path.isdir(folder)):
        raise ValueError(f"checkpoint {checkpoint_path!r} names no file in an existing directory")
    best: dict[str, tuple[float, int] | None] = {m: None for m in job.metrics}
    return _sweep(job, best, 0, checkpoint_path, workers, max_chunks)


def resume(
    checkpoint_path: str,
    workers: int = 1,
    max_chunks: int | None = None,
) -> list[ExtremalRecord] | None:
    """Continue a checkpointed job; requires a matching job hash.

    A checkpoint that is missing, unreadable, not JSON, of another format,
    lacking a field or holding a field of the wrong shape or value raises
    ValueError: best must hold every metric of the job and no other, with
    a record for all of them or none, a best value must be a finite float,
    and complete must be the bool next_chunk == total_chunks.
    """
    try:
        with open(checkpoint_path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read checkpoint {checkpoint_path!r}: {exc.strerror}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {fmt!r}")
    missing = [k for k in ("job", "job_hash", "next_chunk", "best", "complete") if k not in doc]
    if missing:
        raise ValueError(f"checkpoint {checkpoint_path!r} lacks {', '.join(missing)}")
    try:
        stored = doc["job"]
        job = SearchJob(**{**stored, "metrics": tuple(stored["metrics"])})
        if job.job_hash() != doc["job_hash"]:
            raise ValueError("checkpoint job hash does not match its job description")
        if doc["best"].keys() != set(job.metrics):  # a lost record would end a wrong sweep
            raise ValueError(f"checkpoint best must hold exactly {', '.join(job.metrics)}")
        best = {}
        for metric in job.metrics:
            entry = doc["best"][metric]
            if entry is not None:
                value = entry["value"]  # _write_checkpoint writes finite floats only
                if type(value) is not float or not math.isfinite(value):
                    raise ValueError(f"checkpoint {metric} value {value!r} is not a finite float")
                entry = (value, BooleanFunction.from_hex(job.n, entry["table_hex"]).table)
            best[metric] = entry
        if len({entry is None for entry in best.values()}) > 1:  # a table sets every record
            raise ValueError("checkpoint best has records for some metrics only")
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"checkpoint {checkpoint_path!r} is malformed: {exc!r}") from None
    cursor = doc["next_chunk"]
    if type(cursor) is not int or not 0 <= cursor <= job.total_chunks:
        raise ValueError(f"checkpoint next_chunk must be an integer in [0, {job.total_chunks}]")
    done = cursor == job.total_chunks
    if doc["complete"] is not done:  # the bool _write_checkpoint writes, nothing truthy
        raise ValueError(f"checkpoint complete must be {str(done).lower()} at next_chunk {cursor}")
    if done:
        return _finalize(job, best)
    return _sweep(job, best, cursor, checkpoint_path, workers, max_chunks)
