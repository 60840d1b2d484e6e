import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypercube_spectra import (
    BooleanFunction,
    SearchJob,
    cli,
    from_sign_bits,
    lemma22_check,
    run_search,
    search,
)
from hypercube_spectra.inequality import SweepResult

from conftest import lemma22_oracle, lemma22_trials, lemma31_oracle, peak_probe


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_family_parity(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "parity:s=3,n=3")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["version"]
    assert doc["input"]["n"] == 3
    assert doc["payload"]["entropy_bits"] == 0.0
    assert doc["payload"]["influence_total"] == "3"


def test_analyze_hex_and_family_agree(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "majority:n=3", "--emit-hex")
    assert code == 0
    hex_table = json.loads(out)["payload"]["hex"]
    code, via_hex, _ = run_cli(capsys, "analyze", "--fn", hex_table, "--n", "3")
    assert code == 0
    code, via_family, _ = run_cli(capsys, "analyze", "--family", "majority:n=3")
    assert code == 0
    assert json.loads(via_hex)["payload"] == json.loads(via_family)["payload"]
    assert json.loads(via_hex)["input"] == json.loads(via_family)["input"]


def test_byte_identical_reruns(capsys):
    _, first, _ = run_cli(capsys, "analyze", "--family", "tribes:w=2,s=2")
    _, second, _ = run_cli(capsys, "analyze", "--family", "tribes:w=2,s=2")
    assert first == second


def test_dimension_cap_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--fn", "ff", "--n", "50")
    assert code == 1
    assert json.loads(out)["status"] == "error"
    assert "error" in err


def test_mutually_exclusive_inputs(capsys):
    code, _, err = run_cli(capsys, "analyze", "--fn", "69", "--n", "3", "--family", "parity:s=2")
    assert code == 1
    assert "not both" in err


@pytest.mark.parametrize("cmd", [("analyze",), ("spectrum",), ("moments",),
                                 ("chain", "--eps", "0.1"), ("q31",)])
def test_family_refuses_stray_n(capsys, cmd):
    code, out, _ = run_cli(capsys, *cmd, "--family", "parity:s=3", "--n", "5")
    _assert_error_envelope(code, out, "--n needs --fn; drop --n")
    # an empty --fn is still given: not ignored, nor hashed as the input
    code, out, _ = run_cli(capsys, *cmd, "--family", "parity:s=3", "--fn", "")
    _assert_error_envelope(code, out, "give either --fn or --family, not both")
    # alone, an empty --fn reaches the hex parser and gets its real error
    code, out, _ = run_cli(capsys, *cmd, "--fn", "", "--n", "3")
    _assert_error_envelope(code, out, "hex for n=3 must have exactly 2 digits, got 0")
    code, out, _ = run_cli(capsys, *cmd)
    _assert_error_envelope(code, out, "an input function is required")


def test_unknown_flag_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "analyze", "--wat")
    assert code == 1
    assert err
    _assert_error_envelope(code, out, "unrecognized arguments: --wat")


@pytest.mark.parametrize("family", ["parity:s=3", "nosuch:s=3"])
def test_closed_stdout_exits_one_without_a_traceback(family):
    # a reader that goes away before the output, as `| head` may: the
    # report and the error envelope alike end in exit code 1, quietly
    argv = [sys.executable, "-m", "hypercube_spectra.cli", "analyze", "--family", family]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_spectrum_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "majority:n=3")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["coeffs"] == [0, 4, 4, 0, 4, 0, 0, -4]
    assert payload["parseval_ok"] is True
    code, out, _ = run_cli(capsys, "spectrum", "--family", "majority:n=3", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "mask,coeff"
    assert lines[1] == "0,0"
    assert len(lines) == 9


def test_moments_json_and_csv(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--family", "majority:n=3", "--eps", "0.1,0.25", "--coords", "1,2,3"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["coords"] == [1, 2, 3]
    assert payload["values"][1] == pytest.approx(4.0 ** (-0.25))
    code, out, _ = run_cli(
        capsys, "moments", "--family", "majority:n=3", "--eps", "0.1:0.3:0.1", "--format", "csv"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "eps,value"
    assert len(lines) == 4  # 0.1, 0.2, 0.3


def test_chain_report(capsys):
    code, out, _ = run_cli(capsys, "chain", "--family", "majority:n=3", "--eps", "0.25")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    payload = doc["payload"]
    assert payload["order"] == [1, 2, 3]
    assert payload["final"] == pytest.approx(4.0 ** (-0.25))
    assert len(payload["steps"]) == 3
    for step in payload["steps"]:
        assert step["delta"] >= step["floor"] - 1e-9


def test_chain_refuses_an_empty_order(capsys):
    # --order '' is an empty order, not the default one, as --coords '' is the empty set
    code, out, _ = run_cli(capsys, "chain", "--family", "majority:n=3", "--eps", "0.25",
                           "--order", "")
    _assert_error_envelope(code, out, "order must be a permutation of 1..3")


def test_q31_report(capsys):
    code, out, _ = run_cli(capsys, "q31", "--family", "and:n=4")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["worst"] == "7/4"
    assert payload["per_coord"][0]["ratio"] == "7/4"


@pytest.mark.parametrize("n, text", [(1, "2"), (2, "B"), (5, "DEADBEEF"), (5, "dEaDbEeF")])
def test_fn_fingerprint_hashes_the_table_in_either_case(capsys, n, text):
    # from_hex reads either case and to_hex writes lower case, so the
    # hash of the lower-cased --fn text is the hash of the table
    expected = hashlib.sha256(BooleanFunction.from_hex(n, text).to_hex().encode()).hexdigest()
    code, out, _ = run_cli(capsys, "analyze", "--n", str(n), "--fn", text)
    assert code == 0
    assert json.loads(out)["input"] == {"n": n, "table_sha256": expected}


def test_fn_fingerprint_at_n0_is_never_taken(capsys):
    # n = 0 is not a dimension: refused before any table is hashed
    code, out, _ = run_cli(capsys, "analyze", "--n", "0", "--fn", "A")
    _assert_error_envelope(code, out, "dimension n must be in [1, 24], got 0")
    assert json.loads(out)["input"] is None


def test_verify_lemma24_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma24", "--grid", "40", "--eps", "0.1,0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["payload"]["grid"]["violations"] == 0


def test_verify_eq27_with_random(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "eq27", "--grid", "30", "--eps", "0.2", "--random", "500", "--seed", "1"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["random"]["violations"] == 0


def test_verify_violation_exits_two(capsys, monkeypatch):
    forged = SweepResult("lemma24", 10, 1, -1.0, (0.5, 0.5, 0.1))
    monkeypatch.setattr(cli, "sweep_gap", lambda kind, grid: forged)
    code, out, _ = run_cli(capsys, "verify", "lemma24", "--grid", "10", "--eps", "0.1")
    assert code == 2
    assert json.loads(out)["status"] == "violation"


def test_verify_lemma22_and_lemma31(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma22", "--trials", "40", "--max-n", "6")
    assert code == 0
    assert json.loads(out)["payload"]["failures"] == 0
    code, out, _ = run_cli(
        capsys, "verify", "lemma31", "--trials", "6", "--max-n", "5", "--eps", "0.1,0.4"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["violations"] == 0
    assert payload["min_margin"] >= -1e-9


LEMMA31_EPS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49)  # `verify lemma31` without --eps


# The first case of each command is its small_verify benchmark run: the trial
# count, --max-n and seed that perfbench draws at its default seed.
@pytest.mark.parametrize(
    "kind, trials, max_n, seed, eps",
    [
        pytest.param("lemma31", 2000, 8, 1381391840, None, id="lemma31-bench"),
        pytest.param("lemma31", 1, 8, 3, None, id="lemma31-one-trial"),
        pytest.param("lemma31", 60, 6, 11, "0.1,0.4", id="lemma31-custom-eps"),
        # the four tables of n = 1 tie on their margins all the time
        pytest.param("lemma31", 200, 1, 5, None, id="lemma31-max-n-1"),
        pytest.param("lemma31", 1500, 3, 2, None, id="lemma31-two-blocks"),
        pytest.param("lemma22", 5000, 10, 962964187, None, id="lemma22-bench"),
        pytest.param("lemma22", 1, 10, 3, None, id="lemma22-one-trial"),
        pytest.param("lemma22", 100, 1, 5, None, id="lemma22-max-n-1"),
        pytest.param("lemma22", 300, 14, 8, None, id="lemma22-max-n-14"),
    ],
)
def test_verify_lemma_sweeps_match_one_trial_at_a_time(capsys, kind, trials, max_n, seed, eps):
    argv = ["verify", kind, "--trials", str(trials), "--max-n", str(max_n), "--seed", str(seed)]
    if kind == "lemma22":
        status, payload = lemma22_oracle(trials, max_n, seed)
    else:
        eps_values = LEMMA31_EPS if eps is None else tuple(map(float, eps.split(",")))
        status, payload = lemma31_oracle(trials, max_n, seed, eps_values)
    if eps is not None:
        argv += ["--eps", eps]
    code, out, _ = run_cli(capsys, *argv)
    # equal text means bitwise-equal floats: %.16e tells every double apart
    assert out == cli._envelope(argv, None, status, payload) + "\n"
    assert code == (0 if status == "ok" else 2)


_BOUNDARIES = [
    (cli, "group_rows", lambda n: 1),  # one row per batch
    (cli, "group_rows", lambda n: 3),  # batches of several dimensions interleave
]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lemma31", "--trials", "200", "--max-n", "6", "--seed", "4"),
        ("verify", "lemma31", "--trials", "50", "--max-n", "1", "--seed", "6"),
        ("verify", "lemma22", "--trials", "300", "--max-n", "8", "--seed", "4"),
    ],
)
def test_trial_blocks_and_batches_do_not_leak(monkeypatch, capsys, argv):
    expected = run_cli(capsys, *argv)
    for owner, name, value in _BOUNDARIES:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, value)
            assert run_cli(capsys, *argv) == expected, (name, value)


def test_lemma22_reports_its_first_failure_in_trial_order(monkeypatch, capsys):
    real = cli.lemma22_batch

    def forged(bits, j_masks, ks):
        weights, changes = real(bits, j_masks, ks)
        return weights + (ks == 2), changes  # every trial with k = 2 fails

    monkeypatch.setattr(cli, "lemma22_batch", forged)
    argv = ("verify", "lemma22", "--trials", "300", "--max-n", "6", "--seed", "4")
    code, out, _ = run_cli(capsys, *argv)
    trials = list(lemma22_trials(300, 6, 4))
    failing = [(f, j_set) for f, j_set, k in trials if k == 2]
    f, j_set = failing[0]
    # With three rows per batch, trials 1, 3 and 5 (n = 4, two of them
    # failing) fill a batch, which is checked before the batch of trial 0.
    assert [(g.n, k == 2) for g, _, k in trials[:6]] == [
        (5, True), (4, False), (6, False), (4, True), (6, False), (4, True)
    ]
    lhs, rhs = lemma22_check(f, j_set, 2)
    payload = json.loads(out)["payload"]
    assert code == 2
    assert payload["failures"] == len(failing)
    assert payload["first_failure"] == {
        "n": f.n, "fn": f.to_hex(), "J": j_set, "k": 2, "lhs": str(lhs), "rhs": str(rhs)
    }
    for owner, name, value in _BOUNDARIES:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, value)
            assert run_cli(capsys, *argv)[:2] == (code, out), (name, value)


def test_lemma_batches_fill_to_group_rows(monkeypatch, capsys):
    sizes = {}  # n -> rows of each batch, in the order they are checked
    real = cli.lemma22_batch

    def spy(bits, j_masks, ks):
        sizes.setdefault(bits.shape[-1].bit_length() - 1, []).append(len(bits))
        return real(bits, j_masks, ks)

    monkeypatch.setattr(cli, "lemma22_batch", spy)
    monkeypatch.setattr(cli, "group_rows", lambda n: 3)
    assert run_cli(capsys, "verify", "lemma22", "--trials", "300", "--max-n", "6", "--seed", "4")[0] == 0
    drawn = {}
    for f, _, _ in lemma22_trials(300, 6, 4):
        drawn[f.n] = drawn.get(f.n, 0) + 1
    # every batch is full but each dimension's last, which holds the rest
    assert sizes == {n: [3] * (count // 3) + ([count % 3] if count % 3 else [])
                     for n, count in drawn.items()}


@pytest.mark.parametrize("eps", ["0", "0.5", "-0.1", "0.1,0.1"])
def test_verify_lemma31_refuses_bad_eps_before_drawing(monkeypatch, capsys, eps):
    monkeypatch.setattr(cli, "_trial_batches", lambda *args: pytest.fail("a trial was drawn"))
    code, out, _ = run_cli(capsys, "verify", "lemma31", "--trials", "5", "--eps", eps)
    _assert_error_envelope(code, out, "eps")


def test_lemma22_sweep_runs_in_bounded_memory():
    # 600 trials up to n = 18 fill a first block of 581 trials (2^24 table
    # entries), 22 of them at n = 18.  One batch of those 22 tables peaked at
    # 154 MB; capped at _GROUP_ENTRIES = 2^16 entries, a batch is one such
    # table and the run peaks near 45 MB, as the one-trial-at-a-time loop
    # did (43 MB).
    code, lines, peak_mb = peak_probe("verify", "lemma22", "--trials", "600", "--max-n", "18",
                                      "--seed", "1")
    assert (code, lines) == (0, 1)
    assert peak_mb < 100.0


def test_verify_theorem_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem", "--max-n", "3")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["checked"] == 270
    assert payload["violations"] == 0
    assert payload["max_entropy_over_bound"] < 1.0


def test_verify_theorem_sampled(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "theorem", "--random", "200", "--n", "7", "--seed", "9"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["checked"] == 200
    assert payload["violations"] == 0


def test_verify_theorem_with_only_constant_draws(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem", "--random", "1", "--n", "1", "--seed", "0")
    doc = json.loads(out)
    assert (code, doc["status"]) == (0, "ok")
    assert doc["payload"]["checked"] == 0
    assert doc["payload"]["max_entropy_over_bound"] is None
    assert doc["payload"]["witness_of_max"] is None


@pytest.mark.parametrize(
    "argv, jobs, ties",
    [
        # the maximum (at n = 4) ties 32 tables in 10 of the 16 chunks
        pytest.param(("--max-n", "4"), [SearchJob(n=n, mode="exhaustive") for n in range(1, 5)],
                     (32, 10, 0), id="max-n-4"),
        # at most 254 distinct nonconstant tables: the maximum ties many rows
        pytest.param(("--random", "3000", "--n", "3", "--seed", "1"),
                     [SearchJob(n=3, mode="sample", count=3000, seed=1)], (194, 1, 0),
                     id="random-n3"),
        # one maximum, in the second chunk
        pytest.param(("--random", "12000", "--n", "5", "--seed", "2"),
                     [SearchJob(n=5, mode="sample", count=12000, seed=2)], (1, 1, 1),
                     id="random-n5"),
    ],
)
def test_verify_theorem_witness_is_first_strict_maximum(capsys, argv, jobs, ties):
    best = -np.inf
    for job in jobs:  # one batch_stats call over each job's whole index range
        bits = search._tables(job, range(job.total_indices))
        stats = search.batch_stats(bits)
        ratio = np.where(stats["nonconstant"], search.metric_columns(stats)["ent_over_bound"],
                         -np.inf)
        top = int(np.argmax(ratio))
        if ratio[top] > best:
            best = ratio[top]
            witness = {"n": job.n, "fn": from_sign_bits(bits[top]).to_hex()}
            chunks = np.flatnonzero(ratio == best) // job.chunk_size
            found = (len(chunks), len(set(chunks.tolist())), top // job.chunk_size)
    assert found == ties  # (tied rows, chunks they span, the witness's chunk)
    code, out, _ = run_cli(capsys, "verify", "theorem", *argv)
    payload = json.loads(out)["payload"]
    assert code == 0
    assert (payload["max_entropy_over_bound"], payload["witness_of_max"]) == (best, witness)


def test_verify_theorem_is_bounded(capsys):
    # exhaustive n=5 would sweep 2^32 tables; the search job guards refuse it
    code, out, _ = run_cli(capsys, "verify", "theorem", "--max-n", "5")
    _assert_error_envelope(code, out, "exhaustive mode supports n <= 4")
    code, out, _ = run_cli(
        capsys, "verify", "theorem", "--random", "-3", "--n", "4", "--seed", "1"
    )
    _assert_error_envelope(code, out, "positive count")
    code, out, _ = run_cli(capsys, "verify", "theorem", "--max-n", "0")
    _assert_error_envelope(code, out, "--max-n")


def test_verify_theorem_refuses_other_mode_flags(capsys):
    for argv, needle in (
        (("--max-n", "2", "--n", "7", "--seed", "3"), "drop --n --seed"),
        (("--n", "3"), "drop --n"),
        (("--seed", "3"), "drop --seed"),
        (("--random", "10", "--n", "3", "--seed", "1", "--max-n", "0"), "drop --max-n"),
        (("--random", "10", "--n", "3", "--seed", "1", "--max-n", "4"), "drop --max-n"),
    ):
        code, out, _ = run_cli(capsys, "verify", "theorem", *argv)
        _assert_error_envelope(code, out, needle)
    # exhaustive mode still defaults to n <= 4 when --max-n is not given
    code, out, _ = run_cli(capsys, "verify", "theorem")
    assert code == 0
    assert json.loads(out)["payload"]["max_n"] == 4


def test_verify_scalar_refuses_seed_without_random(capsys):
    for kind in ("lemma24", "eq27"):
        code, out, _ = run_cli(capsys, "verify", kind, "--grid", "5", "--seed", "3")
        _assert_error_envelope(code, out, "--seed needs --random; drop --seed")


def test_verify_scalar_random_must_be_positive(capsys):
    for kind in ("lemma24", "eq27"):
        for count in ("0", "-2"):
            code, out, _ = run_cli(
                capsys, "verify", kind, "--grid", "5", "--random", count, "--seed", "1"
            )
            _assert_error_envelope(code, out, "--random must be positive")
        code, out, _ = run_cli(capsys, "verify", kind, "--grid", "5", "--random", "0")
        _assert_error_envelope(code, out, "--random must be positive")


def test_verify_scalar_random_is_bounded(monkeypatch, capsys):
    # refused before a triple is drawn; 10^12 triples ended in numpy's
    # MemoryError traceback, outside the envelope
    monkeypatch.setattr(np.random, "default_rng", lambda *_: pytest.fail("triples were drawn"))
    for kind in ("lemma24", "eq27"):
        code, out, _ = run_cli(capsys, "verify", kind, "--grid", "2", "--eps", "0.1",
                               "--random", "1000000000000", "--seed", "1")
        _assert_error_envelope(code, out, "at most 2097152 triples (--random)")


@pytest.mark.parametrize("eps", ["", ",", "0.3:0.1:0.1"])
def test_empty_eps_list_is_refused(capsys, eps):
    for argv in (
        ("verify", "lemma31", "--trials", "2", "--max-n", "3"),
        ("verify", "lemma24", "--grid", "5"),
        ("verify", "eq27", "--grid", "5"),
        ("moments", "--family", "majority:n=3"),
    ):
        code, out, _ = run_cli(capsys, *argv, "--eps", eps)
        _assert_error_envelope(code, out, "--eps")


def test_eps_range_length_is_bounded(capsys):
    # 48,001 values: refused before the list is built
    code, out, _ = run_cli(capsys, "moments", "--family", "majority:n=3", "--eps", "0.01:0.49:1e-5")
    _assert_error_envelope(code, out, "--eps range")
    assert len(cli._parse_eps_values("0:0.9999:0.0001")) == cli.MAX_EPS_VALUES
    with pytest.raises(ValueError, match="--eps range"):
        cli._parse_eps_values("0:1:0.0001")
    code, out, _ = run_cli(capsys, "moments", "--family", "majority:n=3", "--eps", "0:inf:0.1")
    _assert_error_envelope(code, out, "finite")


def test_scalar_grid_is_bounded(capsys):
    for kind in ("lemma24", "eq27"):
        code, out, _ = run_cli(capsys, "verify", kind, "--grid", "2049", "--eps", "0.25")
        _assert_error_envelope(code, out, "at most 2048 steps")


def test_verify_lemma_max_n_must_be_positive(capsys):
    for kind in ("lemma22", "lemma31"):
        for max_n in ("0", "-1"):
            code, out, _ = run_cli(capsys, "verify", kind, "--max-n", max_n)
            _assert_error_envelope(code, out, "--max-n must be positive")


def test_verify_lemma_max_n_is_capped(capsys):
    # refused before the first trial: n = 25 has no truth table to draw
    for kind in ("lemma22", "lemma31"):
        code, out, _ = run_cli(capsys, "verify", kind, "--max-n", "25", "--trials", "1")
        _assert_error_envelope(code, out, "--max-n must be at most 24, got 25")


def test_search_cli_json_lines(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--mode", "exhaustive", "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    records = [json.loads(line) for line in lines]
    assert [r["metric"] for r in records] == sorted(r["metric"] for r in records)
    assert all("context" in r for r in records)


def test_search_cli_prints_nothing_when_every_table_is_constant(capsys):
    # the one sampled n = 1 table at seed 0 is constant: no record, no line, no envelope
    code, out, err = run_cli(capsys, "search", "--mode", "sample", "--n", "1", "--count", "1",
                             "--seed", "0", "--workers", "1")
    assert (code, out, err) == (0, "", "")


def test_search_cli_worker_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCUBE_SPECTRA_WORKERS", "2")
    code, out_env, _ = run_cli(
        capsys, "search", "--n", "6", "--mode", "sample", "--count", "128", "--seed", "5"
    )
    assert code == 0
    monkeypatch.delenv("HYPERCUBE_SPECTRA_WORKERS")
    code, out_one, _ = run_cli(
        capsys,
        "search", "--n", "6", "--mode", "sample", "--count", "128", "--seed", "5",
        "--workers", "1",
    )
    assert code == 0
    assert out_env == out_one


def test_search_cli_resume(capsys, tmp_path):
    path = str(tmp_path / "cli-ckpt.json")
    code, straight, _ = run_cli(
        capsys, "search", "--n", "3", "--mode", "exhaustive", "--workers", "1"
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        "search", "--n", "3", "--mode", "exhaustive", "--checkpoint", path,
        "--workers", "1",
    )
    assert code == 0
    assert out == straight
    code, resumed, _ = run_cli(capsys, "search", "--resume", "--checkpoint", path)
    assert code == 0
    assert resumed == straight


@pytest.mark.parametrize("where", ["missing-dir/out.json", "."])
def test_search_cli_refuses_unusable_checkpoint_before_sweeping(monkeypatch, capsys, tmp_path, where):
    monkeypatch.setattr(search, "_chunk_best", lambda *args: pytest.fail("a chunk ran"))
    path = str(tmp_path / where)
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--workers", "1", "--checkpoint", path)
    _assert_error_envelope(code, out, "names no file in an existing directory")
    assert list(tmp_path.iterdir()) == []


def test_search_cli_failed_checkpoint_write_is_an_error(monkeypatch, capsys, tmp_path):
    def full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(search.os, "fsync", full)
    path = str(tmp_path / "sweep.json")
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--workers", "1", "--checkpoint", path)
    _assert_error_envelope(code, out, "cannot write checkpoint")
    assert "No space left on device" in json.loads(out)["payload"]["message"]
    assert list(tmp_path.iterdir()) == []  # no partial .tmp file is left


def test_search_cli_usage_errors(capsys):
    code, _, err = run_cli(capsys, "search", "--n", "3", "--mode", "sample", "--count", "5")
    assert code == 1
    assert "seed" in err
    code, _, err = run_cli(capsys, "search", "--resume")
    assert code == 1
    assert "checkpoint" in err


def _assert_error_envelope(code, out, needle):
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert needle in doc["payload"]["message"]


def test_search_cli_resume_refuses_job_flags(capsys, tmp_path):
    path = str(tmp_path / "ckpt.json")
    code, straight, _ = run_cli(capsys, "search", "--n", "2", "--checkpoint", path, "--workers", "1")
    assert code == 0
    job_flags = [
        ("--n", "2"), ("--mode", "exhaustive"), ("--count", "5"), ("--seed", "1"),
        ("--metrics", "q31_worst"), ("--checkpoint-every", "1"), ("--chunk-size", "8"),
    ]
    for flag, value in job_flags:
        code, out, _ = run_cli(capsys, "search", "--resume", "--checkpoint", path, flag, value)
        _assert_error_envelope(code, out, f"drop {flag}")
    code, resumed, _ = run_cli(capsys, "search", "--resume", "--checkpoint", path, "--workers", "2")
    assert code == 0
    assert resumed == straight


def test_search_cli_rejects_nonpositive_workers(capsys):
    for value in ("0", "-2"):
        code, out, _ = run_cli(
            capsys, "search", "--n", "2", "--mode", "exhaustive", "--workers", value
        )
        _assert_error_envelope(code, out, "--workers")


def test_search_cli_rejects_nonpositive_worker_env(capsys, monkeypatch):
    for value in ("0", "-2"):
        monkeypatch.setenv("HYPERCUBE_SPECTRA_WORKERS", value)
        code, out, _ = run_cli(capsys, "search", "--n", "2", "--mode", "exhaustive")
        _assert_error_envelope(code, out, "HYPERCUBE_SPECTRA_WORKERS must be positive")


_LOOSE_INTEGERS = {
    "family-parameter": (["analyze", "--family", "majority:n=1_1"],
                         "family parameter 'n' must be an integer, got '1_1'"),
    "seed-flag": (["verify", "lemma22", "--seed", "1_0"],
                  "argument --seed: invalid parse_int value: '1_0'"),
    "signed-order": (["chain", "--family", "majority:n=3", "--eps", "0.25", "--order", "+3,2,1"],
                     "malformed coordinate list '+3,2,1'"),
    "empty-coords-piece": (["moments", "--family", "majority:n=3", "--coords", ",,1",
                            "--eps", "0.1"], "malformed coordinate list ',,1'"),
    "spaced-dimension": (["analyze", "--fn", "69", "--n", " 3"],
                         "argument --n: invalid parse_int value: ' 3'"),
    "non-ascii-workers": (["search", "--n", "2", "--workers", "\uff11"],
                          "argument --workers: invalid parse_int value"),
}


@pytest.mark.parametrize("case", _LOOSE_INTEGERS)
def test_cli_refuses_loose_integers(capsys, case):
    # int() would read these as 11, 10, 3, [1], 3 and 1 and run with exit 0
    argv, needle = _LOOSE_INTEGERS[case]
    code, out, _ = run_cli(capsys, *argv)
    _assert_error_envelope(code, out, needle)


_NEGATIVE_SEEDS = {
    "search-sample": ["search", "--n", "3", "--mode", "sample", "--count", "5", "--seed", "-7"],
    "verify-theorem": ["verify", "theorem", "--random", "5", "--n", "3", "--seed", "-1"],
    "verify-lemma22": ["verify", "lemma22", "--trials", "3", "--seed", "-3"],
    "verify-lemma31": ["verify", "lemma31", "--trials", "3", "--seed", "-1"],
    "verify-lemma24": ["verify", "lemma24", "--random", "3", "--seed", "-1"],
    "verify-eq27": ["verify", "eq27", "--random", "3", "--seed", "-2"],
}


@pytest.mark.parametrize("case", _NEGATIVE_SEEDS)
def test_cli_refuses_negative_seed(capsys, case):
    # numpy's generators take no negative seed; every command refuses one
    # by the flag's name, before it draws anything
    argv = _NEGATIVE_SEEDS[case]
    code, out, _ = run_cli(capsys, *argv)
    _assert_error_envelope(code, out, f"--seed must be non-negative, got {argv[-1]}")


def test_cli_refuses_loose_worker_env(capsys, monkeypatch):
    monkeypatch.setenv("HYPERCUBE_SPECTRA_WORKERS", "1_0")
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--mode", "exhaustive")
    _assert_error_envelope(code, out, "HYPERCUBE_SPECTRA_WORKERS must be an integer")


def test_cli_strict_integers_keep_signs_and_empty_coords(capsys):
    code, out, _ = run_cli(capsys, "moments", "--family", "majority:n=3", "--coords", "",
                           "--eps", "0.1")
    assert code == 0
    assert json.loads(out)["payload"]["coords"] == []
    code, out, _ = run_cli(capsys, "chain", "--family", "majority:n=3", "--eps", "0.25",
                           "--order", "3,2,1")
    assert code == 0
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--workers", "-1")
    _assert_error_envelope(code, out, "--workers must be positive, got -1")


def test_search_cli_resume_refuses_format_1_checkpoint(capsys, tmp_path):
    path = tmp_path / "old.json"
    job = {"n": 2, "mode": "exhaustive", "count": None, "seed": None,
           "metrics": ["q31_worst"], "checkpoint_every": None, "chunk_size": 8,
           "symmetry": False, "max_tables": 65536}
    path.write_text(json.dumps({"format": 1, "job": job, "job_hash": "0",
                                "next_chunk": 0, "total_chunks": 2,
                                "best": {"q31_worst": None}, "complete": False}))
    code, out, _ = run_cli(capsys, "search", "--resume", "--checkpoint", str(path))
    _assert_error_envelope(code, out, "unsupported checkpoint format 1")


@pytest.mark.parametrize(
    "content, needle",
    [
        (None, "cannot read checkpoint"),
        ('{"format": 3, "job": {"n": 2', "Expecting"),  # truncated JSON
        ('{"format": 3, "job": {}, "job_hash": "0"}', "lacks next_chunk, best, complete"),
        # edits of a real checkpoint:
        (lambda doc: doc["job"].update(extra=1), "is malformed"),
        (lambda doc: doc["job"].pop("metrics"), "is malformed"),
        (lambda doc: doc.update(next_chunk="2"), "next_chunk"),
        (lambda doc: doc.update(best=[]), "is malformed"),
        (lambda doc: doc.update(next_chunk=-3), "next_chunk"),
        (lambda doc: doc.update(format=2), "unsupported checkpoint format 2"),
        # job_hash covers neither best nor complete:
        (lambda doc: doc["best"].pop("q31_worst"), "best must hold exactly"),
        (lambda doc: doc["best"].update(extra=None), "best must hold exactly"),
        (lambda doc: doc["best"].update(q31_worst=None), "records for some metrics only"),
        (lambda doc: doc["best"]["ent_over_I"].update(value="abc"), "is not a finite float"),
        (lambda doc: doc["best"]["jensen_slack"].update(value=[1]), "is not a finite float"),
        (lambda doc: doc["best"]["q31_worst"].update(value=float("nan")), "is not a finite float"),
        (lambda doc: doc.update(complete="no"), "complete must be false at next_chunk 1"),
        (lambda doc: doc.update(complete=True), "complete must be false at next_chunk 1"),
    ],
    ids=[
        "missing", "truncated", "incomplete", "extra-job-key", "no-metrics",
        "string-cursor", "best-list", "negative-cursor", "format-2",
        "lost-metric", "extra-metric", "lost-record", "string-value", "list-value", "nan-value",
        "string-complete", "complete-too-early",
    ],
)
def test_search_cli_resume_bad_checkpoint(capsys, tmp_path, content, needle):
    path = tmp_path / "ckpt.json"
    if callable(content):  # spoil a real checkpoint stopped after one of two chunks
        job = SearchJob(n=2, mode="exhaustive", chunk_size=8)
        assert run_search(job, checkpoint_path=str(path), max_chunks=1) is None
        doc = json.loads(path.read_text())
        content(doc)
        content = json.dumps(doc)
    if content is not None:
        path.write_text(content)
    code, out, _ = run_cli(capsys, "search", "--resume", "--checkpoint", str(path))
    _assert_error_envelope(code, out, needle)


def test_search_cli_resume_refuses_loose_table_hex(capsys, tmp_path):
    # int(..., 16) would read "6_96" as the 3-digit table 0x696.
    path = tmp_path / "ckpt.json"
    job = SearchJob(n=4, mode="sample", count=16, seed=1, chunk_size=8)
    assert run_search(job, checkpoint_path=str(path), max_chunks=1) is None
    doc = json.loads(path.read_text())
    for entry in doc["best"].values():
        entry["table_hex"] = "6_96"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "search", "--resume", "--checkpoint", str(path))
    _assert_error_envelope(code, out, "invalid hex digits")


def test_search_cli_refuses_empty_metrics(capsys):
    code, out, _ = run_cli(capsys, "search", "--n", "2", "--metrics", "", "--workers", "1")
    _assert_error_envelope(code, out, "at least one metric is required")


def test_search_cli_refuses_checkpoint_every_without_checkpoint(monkeypatch, capsys):
    monkeypatch.setattr(search, "_chunk_best", lambda *args: pytest.fail("a chunk ran"))
    code, out, _ = run_cli(capsys, "search", "--n", "3", "--checkpoint-every", "2",
                           "--workers", "1")
    _assert_error_envelope(code, out, "--checkpoint-every needs --checkpoint")


def test_cli_refuses_loose_hex_and_repeated_family_parameter(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--fn", "6_96", "--n", "4")
    _assert_error_envelope(code, out, "invalid hex digits")
    code, out, _ = run_cli(capsys, "analyze", "--family", "majority:n=3,n=5")
    _assert_error_envelope(code, out, "'n' is given twice")


def test_family_first_even_group_report(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--family", "first-even-group:s=1,t=4", "--emit-hex"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["n"] == 4
    limits = payload["limits"]
    assert limits["deviation_bound"] == 0.125
    assert limits["deviations_ok"] is True
    assert "term_sum_limit" in payload
    assert len(payload["influences"]) == 4


def test_family_targets_filter(capsys):
    code, out, _ = run_cli(
        capsys, "family", "--family", "minblock:s=2,t=2", "--targets", "influences"
    )
    assert code == 0
    payload = json.loads(out)["payload"]
    assert "influences" in payload
    assert "limits" not in payload
    code, _, err = run_cli(
        capsys, "family", "--family", "minblock:s=2,t=2", "--targets", "nope"
    )
    assert code == 1
    assert "unknown targets" in err


def test_family_refuses_empty_targets(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "minblock:s=2,t=2", "--targets", "")
    _assert_error_envelope(code, out, "--targets lists no sections")


def test_family_refuses_repeated_targets(capsys):
    code, out, _ = run_cli(capsys, "family", "--family", "minblock:s=2,t=2",
                           "--targets", "limits,limits")
    _assert_error_envelope(code, out, "--targets must not repeat a section")


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "hypercube_spectra.cli", "analyze", "--family", "dictator:n=2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["payload"]["entropy_bits"] == 0.0


def _help_flags(capsys, argv):
    """The --flags in argv's --help output and in that of every subcommand under it."""
    with pytest.raises(SystemExit) as stop:
        cli.main([*argv, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    subcommands = re.search(r"positional arguments:\n\s+\{([a-z0-9,]+)\}", text)
    for sub in subcommands.group(1).split(",") if subcommands else ():
        flags |= _help_flags(capsys, [*argv, sub])
    return flags


def test_readme_names_every_flag_the_parser_takes(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", readme))
    assert _help_flags(capsys, []) - {"--help"} == documented - {"--help"}
