import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from hypercube_spectra import (
    BooleanFunction,
    SearchJob,
    analyze,
    from_sign_bits,
    metric_value,
    q31_report,
    resume_search,
    run_search,
)
from hypercube_spectra import cli, search
from hypercube_spectra.entropy import influence_floats
from hypercube_spectra.inequality import q31_numerators, q31_worst
from hypercube_spectra.search import MAX_CHUNK_SIZE, METRICS, batch_stats
from hypercube_spectra.spectrum import _GROUP_ENTRIES, group_rows, walk_spectrum

from conftest import (
    chunk_columns,
    influence_floats_rows,
    peak_probe,
    q31_numerators_rows,
    q31_worst_rows,
)


def test_job_validation():
    with pytest.raises(ValueError):
        SearchJob(n=5, mode="exhaustive")  # exhaustive mode stops at n=4
    with pytest.raises(ValueError):
        SearchJob(n=3, mode="sample", count=10)  # seed missing
    with pytest.raises(ValueError):
        SearchJob(n=3, mode="sample", seed=1)  # count missing
    with pytest.raises(ValueError):
        SearchJob(n=3, mode="exhaustive", seed=1)
    with pytest.raises(ValueError):
        SearchJob(n=2, mode="exhaustive", metrics=("entropy",))


def test_exhaustive_n2_known_extremals():
    records = run_search(SearchJob(n=2, mode="exhaustive"))
    by_metric = {r.metric: r for r in records}
    assert sorted(by_metric) == sorted(METRICS)
    # the two-bit And-like tables reach Ent = 2 with I = 1
    assert by_metric["ent_over_I"].value == pytest.approx(2.0)
    assert by_metric["ent_over_bound"].value < 1.0
    assert by_metric["q31_worst"].value == pytest.approx(1.0)  # 2 - 2^(2-n) at n=2
    assert by_metric["jensen_slack"].value == pytest.approx(0.0)  # minimized metric
    # tie-break: smallest table integer wins; table 1 is the first And-like
    assert by_metric["ent_over_I"].witness == "1"


def _metric_from_reports(metric, f):
    """A search metric rebuilt from the single-function reports."""
    if metric == "q31_worst":
        return float(q31_report(f).worst)
    report = analyze(f)
    total = float(report.influence_total)
    return {
        "ent_over_I": report.entropy_bits / total,
        "ent_over_bound": report.entropy_bits / report.bound_bits,
        "minent_over_I": report.min_entropy_bits / total,
        "jensen_slack": report.jensen_cap_bits - report.term_sum_bits,
    }[metric]


def test_records_roundtrip_through_reanalysis():
    # batch and single-function paths share one kernel, so the values
    # come back bit for bit
    jobs = [
        SearchJob(n=3, mode="exhaustive"),
        SearchJob(n=4, mode="exhaustive"),
        SearchJob(n=8, mode="sample", count=2000, seed=5, chunk_size=512),
    ]
    for job in jobs:
        for record in run_search(job):
            f = BooleanFunction.from_hex(record.n, record.witness)
            assert metric_value(record.metric, f) == record.value
            assert _metric_from_reports(record.metric, f) == record.value
            assert record.context.n == record.n


def test_sampled_runs_are_seed_deterministic():
    job = SearchJob(n=6, mode="sample", count=400, seed=7)
    first = run_search(job)
    second = run_search(job)
    assert first == second
    different = run_search(SearchJob(n=6, mode="sample", count=400, seed=8))
    assert [r.value for r in different] != [r.value for r in first]


def test_worker_count_invariance():
    job = SearchJob(n=6, mode="sample", count=512, seed=3, chunk_size=64)
    assert run_search(job, workers=1) == run_search(job, workers=2)


def test_worker_count_invariance_exhaustive():
    job = SearchJob(n=3, mode="exhaustive", chunk_size=16)
    assert run_search(job, workers=1) == run_search(job, workers=2)


def test_pool_never_outgrows_chunks_or_cpus(monkeypatch):
    # A stand-in executor records its size and maps in this process: a real
    # one would fork every worker it is given at its first submit.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        map = staticmethod(map)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    job = SearchJob(n=2, mode="exhaustive", chunk_size=4)  # 4 chunks
    serial = run_search(job, workers=1)
    for workers, cpus, max_chunks, size in (
        (100_000, 8, None, 4),  # the chunks bound it
        (100_000, 2, None, 2),  # the CPUs bound it
        (3, 8, None, 3),  # the request bounds it
        (100_000, 8, 1, None),  # one chunk to run: serial
        (100_000, None, None, None),  # CPU count unknown: serial
    ):
        sizes.clear()
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        result = run_search(job, workers=workers, max_chunks=max_chunks)
        assert sizes == ([] if size is None else [size])
        assert result == (None if max_chunks else serial)


def test_checkpoint_interrupt_resume_equals_straight_run(tmp_path):
    job = SearchJob(n=3, mode="exhaustive", chunk_size=16, checkpoint_every=2)
    path = str(tmp_path / "ckpt.json")
    partial = run_search(job, checkpoint_path=path, max_chunks=8)  # half of 16 chunks
    assert partial is None
    state = json.loads(open(path).read())
    assert state["next_chunk"] == 8
    assert not state["complete"]
    resumed = resume_search(path)
    straight = run_search(job)
    assert resumed == straight


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoint_written_once_per_batch(tmp_path, monkeypatch, workers):
    writes = []
    real_write = search._write_checkpoint

    def counting_write(path, job, cursor, best):
        writes.append(cursor)
        real_write(path, job, cursor, best)

    monkeypatch.setattr(search, "_write_checkpoint", counting_write)
    path = str(tmp_path / f"ckpt-{workers}.json")
    cases = [  # (checkpoint_every, max_chunks) -> cursors written, on 4 chunks
        (1, None, [1, 2, 3, 4]),
        (None, None, [4]),
        (2, 3, [2, 3]),
        (2, 0, [0]),  # no chunk runs, the state is still saved once
    ]
    for every, max_chunks, cursors in cases:
        writes.clear()
        job = SearchJob(n=2, mode="exhaustive", chunk_size=4, checkpoint_every=every)
        run_search(job, checkpoint_path=path, workers=workers, max_chunks=max_chunks)
        assert writes == cursors
    # the interrupted (2, 3) state does not depend on the worker count
    job = SearchJob(n=2, mode="exhaustive", chunk_size=4, checkpoint_every=2)
    run_search(job, checkpoint_path=path, workers=workers, max_chunks=3)
    other = str(tmp_path / "ckpt-serial.json")
    run_search(job, checkpoint_path=other, workers=1, max_chunks=3)
    assert open(path, "rb").read() == open(other, "rb").read()


def test_resume_of_completed_job_returns_records(tmp_path):
    job = SearchJob(n=2, mode="exhaustive", chunk_size=8)
    path = str(tmp_path / "done.json")
    records = run_search(job, checkpoint_path=path)
    state = json.loads(open(path).read())
    assert state["complete"]
    for record in records:  # witnesses are stored in the package's hex form
        assert state["best"][record.metric]["table_hex"] == record.witness
    assert resume_search(path) == records


def test_resume_rejects_tampered_job(tmp_path):
    job = SearchJob(n=2, mode="exhaustive", chunk_size=8)
    path = str(tmp_path / "bad.json")
    run_search(job, checkpoint_path=path, max_chunks=1)
    state = json.loads(open(path).read())
    state["job"]["n"] = 3
    open(path, "w").write(json.dumps(state))
    with pytest.raises(ValueError, match="hash"):
        resume_search(path)


def test_sample_mode_ignores_chunk_partitioning():
    base = SearchJob(n=5, mode="sample", count=300, seed=11)
    small = SearchJob(n=5, mode="sample", count=300, seed=11, chunk_size=7)
    a = run_search(base)
    b = run_search(small)
    assert [(r.metric, r.value, r.witness) for r in a] == [
        (r.metric, r.value, r.witness) for r in b
    ]


@pytest.mark.parametrize(
    "job",
    [SearchJob(n=n, mode="exhaustive") for n in (1, 2, 3, 4)]
    # tables shorter than a byte, one hash block, and the 128 blocks of an n = 16 table
    + [SearchJob(n=n, mode="sample", count=64, seed=5) for n in (1, 2, 3, 10, 16)],
    ids=lambda job: f"{job.mode}-n{job.n}",
)
def test_a_table_drawn_again_is_the_same_table(job):
    total = job.total_indices
    whole = search._tables(job, range(total))
    picks = [total - 1, 0, total // 2, 0, total - 1, 1]  # unsorted, with repeats
    assert np.array_equal(search._tables(job, picks), whole[picks])
    if job.mode == "exhaustive":  # an exhaustive index is the table integer
        assert [from_sign_bits(row).table for row in whole[picks]] == picks


def test_smallest_tied_table_reads_every_row_group(monkeypatch):
    job = SearchJob(n=3, mode="sample", count=600, seed=4)
    smallest = min(from_sign_bits(row).table for row in search._tables(job, range(600)))
    monkeypatch.setattr(search, "group_rows", lambda n: 7)  # 86 row groups
    assert search._smallest_table(job, np.arange(600)) == smallest
    assert search._smallest_table(job, np.arange(7)) > smallest  # not in the first group


def test_sampled_tables_keep_their_stream():
    # sha256 of the sign bits that one fresh keyed blake2b per digest drew
    bits = search._tables(SearchJob(n=10, mode="sample", count=64, seed=5), range(64))
    assert bits.shape == (64, 1024)
    digest = hashlib.sha256(bits.tobytes()).hexdigest()
    assert digest == "29e40ad7d58cc6306c588021816d308080520b56a96d6a9e5865b8140583d13b"


@pytest.mark.parametrize(
    "job",
    [
        SearchJob(n=2, mode="sample", count=500, seed=1, chunk_size=97),
        SearchJob(n=3, mode="sample", count=3000, seed=4, chunk_size=700),
        SearchJob(n=1, mode="exhaustive", chunk_size=3),
        SearchJob(n=2, mode="exhaustive", chunk_size=5),
        SearchJob(n=3, mode="exhaustive", chunk_size=7),
        # two packed bytes per row: the high byte must decide
        SearchJob(n=4, mode="sample", count=3000, seed=2, chunk_size=1000),
        SearchJob(n=4, mode="exhaustive"),
        # chunks of several row groups, tables in random order: a later
        # group can hold a smaller tied table than the first one that ties
        pytest.param(SearchJob(n=4, mode="sample", count=6000, seed=2, chunk_size=5000),
                     id="sample-n4-groups"),
    ],
    ids=lambda job: f"{job.mode}-n{job.n}",
)
def test_chunk_witness_is_smallest_tied_table(job):
    rows = group_rows(job.n)
    ties = across = later = 0
    for chunk in range(job.total_chunks):
        bits, stats = chunk_columns(job, chunk)
        keep = stats["nonconstant"]
        columns = search.metric_columns(stats) if keep.any() else {}
        expected = {}
        for metric, vals in columns.items():
            pick = np.min if metric in search._MINIMIZED else np.max
            tied = np.flatnonzero(keep & (vals == pick(vals[keep])))
            ties += len(tied) - 1
            tables = [from_sign_bits(bits[i]).table for i in tied]
            expected[metric] = (float(vals[tied[0]]), min(tables))
            groups = tied // rows
            across += len(set(groups.tolist())) > 1
            later += groups[int(np.argmin(tables))] > groups[0]
        assert search._chunk_best(job, chunk) == expected
    assert ties > 0  # the reference compared real ties, not single rows
    if job.chunk_size > rows:
        assert across > 0  # and ties that the group fold had to merge
    if job.mode == "sample" and job.chunk_size > rows:
        assert later > 0  # where the first tied group did not hold the witness


def _groups(tables: int, rows: int) -> list[int]:
    """Row groups of a chunk of `tables` tables, `rows` to a full group."""
    return [rows] * (tables // rows) + ([tables % rows] if tables % rows else [])


_N1, _N4, _N8 = group_rows(1), group_rows(4), group_rows(8)
_N4_CHUNK = _N4 + 952  # a full group and a short one
_N4_LAST = (1 << 16) // _N4_CHUNK  # the last chunk of the 2^16 n = 4 tables


@pytest.mark.parametrize(
    "job, chunk, sizes",
    [
        pytest.param(SearchJob(n=1, mode="exhaustive"), 0, [4], id="n1-exhaustive"),
        pytest.param(SearchJob(n=1, mode="sample", count=_N1 + 3616, seed=3,
                               chunk_size=_N1 + 3616), 0, [_N1, 3616], id="n1-sample"),
        pytest.param(SearchJob(n=4, mode="exhaustive", chunk_size=_N4_CHUNK), 0, [_N4, 952],
                     id="n4-first"),
        pytest.param(SearchJob(n=4, mode="exhaustive", chunk_size=_N4_CHUNK), _N4_LAST,
                     _groups((1 << 16) - _N4_LAST * _N4_CHUNK, _N4), id="n4-last"),
        pytest.param(SearchJob(n=8, mode="sample", count=2 * _N8 + 44, seed=5), 0,
                     [_N8, _N8, 44], id="n8"),
        pytest.param(SearchJob(n=10, mode="sample", count=4100, seed=5), 0,
                     _groups(4096, group_rows(10)), id="n10-full"),
        pytest.param(SearchJob(n=10, mode="sample", count=4100, seed=5), 1, [4],
                     id="n10-short"),
        pytest.param(SearchJob(n=12, mode="sample", count=300, seed=5), 0,
                     _groups(300, group_rows(12)), id="n12"),
    ],
)
def test_grouped_chunk_equals_one_whole_chunk_call(monkeypatch, job, chunk, sizes):
    groups = []

    def spy(bits):
        groups.append(len(bits))
        return batch_stats(bits)

    monkeypatch.setattr(search, "batch_stats", spy)
    joined = search.chunk_stats(job, chunk)
    assert groups == sizes
    start = chunk * job.chunk_size
    whole = batch_stats(search._tables(job, range(start, start + sum(sizes))))
    assert joined.keys() == whole.keys()
    for key, column in whole.items():
        assert joined[key].dtype == column.dtype, key
        assert np.array_equal(joined[key], column), key
    if job.n <= 4:
        assert not whole["nonconstant"].all()  # constant rows went through the groups too


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["search", "--mode", "exhaustive", "--n", "4", "--workers", "1"],
                     id="search-n4"),
        pytest.param(["verify", "theorem", "--max-n", "4"], id="theorem-n4"),
        pytest.param(["search", "--mode", "sample", "--n", "12", "--count", "100", "--seed", "3",
                      "--workers", "1"], id="search-n12"),
        pytest.param(["verify", "theorem", "--random", "100", "--n", "12", "--seed", "3"],
                     id="theorem-n12"),
        # a row longer than a group is a group of its own
        pytest.param(["search", "--mode", "sample", "--n", "16", "--count", "3", "--seed", "3",
                      "--workers", "1"], id="search-n16"),
    ],
)
def test_batch_stats_never_sees_more_than_one_group(monkeypatch, capsys, argv):
    shapes = []

    def spy(bits):
        shapes.append(bits.shape)
        return batch_stats(bits)

    monkeypatch.setattr(search, "batch_stats", spy)
    assert cli.main(argv) == 0
    capsys.readouterr()
    size = shapes[0][1]
    limit = group_rows(size.bit_length() - 1) * size
    assert all(rows * cols <= limit for rows, cols in shapes)
    assert max(rows * cols for rows, cols in shapes) == limit  # full groups, not single rows


def test_sampled_n16_sweep_runs_in_bounded_memory():
    # A whole 512-row chunk at n = 16 held 838 MB at its peak; row groups
    # keep the working set to one row's arrays plus the interpreter.
    code, lines, peak_mb = peak_probe("search", "--mode", "sample", "--n", "16", "--count", "512",
                                      "--seed", "1", "--workers", "1")
    assert (code, lines) == (0, len(METRICS))
    assert peak_mb < 200.0


def test_chunk_size_is_capped():
    assert SearchJob(n=1, mode="sample", count=1, seed=1, chunk_size=MAX_CHUNK_SIZE).chunk_size
    for size in (0, MAX_CHUNK_SIZE + 1):
        with pytest.raises(ValueError, match="chunk_size must be in"):
            SearchJob(n=1, mode="sample", count=1, seed=1, chunk_size=size)


def test_search_cli_refuses_an_oversized_chunk_before_any_chunk_runs(monkeypatch, capsys):
    # chunk_stats would ask for 10^12 rows of columns at once (931 GiB)
    monkeypatch.setattr(search, "_chunk_best", lambda *args: pytest.fail("a chunk ran"))
    code = cli.main(["search", "--mode", "sample", "--n", "1", "--count", str(10**12),
                     "--seed", "1", "--chunk-size", str(10**12), "--workers", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert f"chunk_size must be in [1, {MAX_CHUNK_SIZE}]" in doc["payload"]["message"]
    assert "Traceback" not in err


def test_resume_refuses_a_checkpoint_with_an_oversized_chunk(tmp_path):
    path = tmp_path / "ckpt.json"
    job = SearchJob(n=2, mode="exhaustive", chunk_size=8)
    assert run_search(job, checkpoint_path=str(path), max_chunks=1) is None
    doc = json.loads(path.read_text())
    doc["job"]["chunk_size"] = MAX_CHUNK_SIZE + 1  # with a job hash that matches it
    canon = json.dumps(doc["job"], sort_keys=True, separators=(",", ":"))
    doc["job_hash"] = hashlib.sha256(canon.encode()).hexdigest()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="chunk_size must be in"):
        resume_search(str(path))


# The layout rule of batch_stats: the row statistics take the entry axis
# first, and below n = 8 they run on contiguous columns, from n = 8 on on
# .T views of row-major arrays.  Both, and 1-D tables, give the bits of the
# row forms in conftest.


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _row_group(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign bits, float64 |c| and influence numerators of one row group.

    Rows draw their bits with a bias of their own, so influences run from
    0 up; the first row is constant and the second a dictator.
    """
    rows, size = group_rows(n), 1 << n
    rng = np.random.default_rng(7000 + n)
    bits = (rng.random((rows, size)) < rng.random((rows, 1)) ** 3).astype(np.uint8)
    bits[0] = 0
    if rows > 1:
        bits[1] = np.arange(size) & 1
    _, magnitudes, numerators = walk_spectrum(bits, lambda part, _, out: np.abs(part, out=out))
    return bits, magnitudes, numerators


@pytest.mark.parametrize("n", range(1, 25))
def test_entries_first_row_statistics_match_the_row_forms_bit_for_bit(n):
    bits, magnitudes, numerators = _row_group(n)
    scale = 4.0**n
    q31_rows = q31_numerators_rows(magnitudes)
    worst_rows = q31_worst_rows(q31_rows, numerators)
    floats_rows = influence_floats_rows(numerators / scale)
    layouts = {"views": (magnitudes.T, numerators.T)}
    if n < 8:
        layouts["columns"] = (np.ascontiguousarray(magnitudes.T),
                              np.ascontiguousarray(numerators.T))
    for layout, (columns, influences) in layouts.items():
        q31 = q31_numerators(columns)
        assert _same_bits(q31, np.ascontiguousarray(q31_rows.T)), layout
        assert _same_bits(q31_worst(q31, influences), worst_rows), layout
        for key, column in influence_floats(influences / scale).items():
            assert _same_bits(column, floats_rows[key]), (layout, key)
    for row in range(min(len(bits), 4)):  # 1-D tables, as analyze and q31_report pass them
        q31 = q31_numerators(magnitudes[row])
        assert _same_bits(q31, q31_rows[row])
        assert _same_bits(q31_worst(q31, numerators[row]), worst_rows[row])
        for key, column in influence_floats(numerators[row] / scale).items():
            assert _same_bits(column, floats_rows[key][row]), key
    if n <= 10:  # batch_stats on either side of the rule
        stats = batch_stats(bits)
        assert _same_bits(stats["q31_worst"], worst_rows)
        for key, column in floats_rows.items():
            name = "influence_total" if key == "total" else key
            assert _same_bits(stats[name], column), key


@pytest.mark.parametrize("m", range(1, 9))
def test_numpy_sums_rows_shorter_than_8_left_to_right(m):
    # The layout rule keeps the printed bits because numpy sums a float64
    # row of fewer than 8 contiguous entries left to right, as a sum down
    # the contiguous columns of its transpose does.  From 8 entries on, numpy
    # sums rows pairwise in 8 lanes and the orders part; a numpy that
    # changes either fails here, not in the last bit of a printed float.
    rng = np.random.default_rng(m)
    x = rng.standard_normal((4096, m)) * np.exp2(rng.integers(-30, 30, (4096, m)))
    along_rows = x.sum(axis=-1)
    down_columns = np.ascontiguousarray(x.T).sum(axis=0)
    assert _same_bits(along_rows, down_columns) == (m < 8)


def test_batch_stats_allocates_no_array_of_a_groups_entries(monkeypatch):
    # At n = 4 a full group is 4096 rows of 16 entries.  |c| goes into the
    # walk's spare buffer, so while q31_numerators runs the walk's scratch
    # is the one live array of 2^16 entries or more; a fresh transposed
    # copy of |c| would be a second, and cost a sweep about 10^4 page
    # faults per operation.  The scratch is freed before q31_worst and
    # influence_floats run: held through their temporaries, it put a
    # group's peak at 2.45 MB, next to the 2.5 MB of free heap top above
    # which glibc trims after each 1.28 MB scratch, and a sweep that
    # crossed it re-faulted about 9,000 pages per operation.
    n, rows = 4, group_rows(4)
    bits = np.random.default_rng(4).integers(0, 2, size=(rows, 1 << n), dtype=np.uint8)
    scratch_bytes = (3 * bits.size // 2 + min(bits.size, _GROUP_ENTRIES)) * 8
    numpy_blocks = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    large = {}

    def spying(name, fn):
        def spy(*args):
            traces = tracemalloc.take_snapshot().filter_traces(numpy_blocks).traces
            large[name] = [t.size for t in traces if t.size >= _GROUP_ENTRIES * 4]
            return fn(*args)
        return spy

    for name, fn in (("q31_numerators", q31_numerators), ("q31_worst", q31_worst),
                     ("influence_floats", influence_floats)):
        monkeypatch.setattr(search, name, spying(name, fn))
    tracemalloc.start()
    try:
        batch_stats(bits)
    finally:
        tracemalloc.stop()
    assert large == {"q31_numerators": [scratch_bytes], "q31_worst": [], "influence_floats": []}
