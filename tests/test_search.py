import json

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
    wht,
)
from hypercube_spectra import search
from hypercube_spectra.search import METRICS


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
    assert by_metric["ent_over_I"].witness_hex == "1"


def _metric_from_reports(metric, f):
    """A search metric rebuilt from the single-function reports."""
    if metric == "q31_worst":
        return float(q31_report(wht(f)).worst)
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
            f = BooleanFunction.from_hex(record.n, record.witness_hex)
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
        assert state["best"][record.metric]["table_hex"] == record.witness_hex
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
    assert [(r.metric, r.value, r.witness_hex) for r in a] == [
        (r.metric, r.value, r.witness_hex) for r in b
    ]


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
    ],
    ids=lambda job: f"{job.mode}-n{job.n}",
)
def test_chunk_witness_is_smallest_tied_table(job):
    ties = 0
    for chunk in range(job.total_chunks):
        bits, stats = search.chunk_stats(job, chunk)
        keep = stats["nonconstant"]
        columns = search.metric_columns(stats) if keep.any() else {}
        expected = {}
        for metric, vals in columns.items():
            pick = np.min if metric in search._MINIMIZED else np.max
            tied = np.flatnonzero(keep & (vals == pick(vals[keep])))
            ties += len(tied) - 1
            tables = [from_sign_bits(bits[i]).table for i in tied]
            expected[metric] = (float(vals[tied[0]]), min(tables))
        assert search._chunk_best(job, chunk) == expected
    assert ties > 0  # the reference compared real ties, not single rows
