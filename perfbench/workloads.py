"""The benchmark's workloads: inputs drawn from a seed, operations, oracles.

Every input comes from the workload seed.  Random truth tables are drawn
here and handed to the CLI as little-endian hex, and every ``--seed`` given
to ``search`` or ``verify`` is drawn from the same generator, so the program
only ever sees generated inputs.

All three workloads are closed loops: one caller runs one operation at a
time in this process.  The one exception is the pooled search leg, which
runs with ``workers`` processes (``nproc``, or 1 in a traced run, because
pool children are not traced).

End-to-end slots.  The metric names in BENCHMARK.json are shared by every
workload, so each workload fills four operation slots with its own
headline operations (``SLOTS``).  The named metrics of the workload, such
as ``analyze_n24_s`` or ``search_n10_tables_per_s``, are derived from the
same medians and printed on standard error (``named_metrics``).
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("large_single", "search_sampled", "small_verify")

DEFAULT_SEED = 1
HELD_OUT_SEED = 9973

# Floats are compared with this tolerance, everything else exactly.  The
# package renders floats with 17 significant digits, so an unchanged
# computation matches to the last digit; the tolerance leaves room for a
# change of summation order (about 1e-15 relative per operation) while
# still catching a wrong formula.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12

_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)

SEARCH_N10_COUNT = 16384
SEARCH_N12_COUNT = 4096
LEMMA31_TRIALS = 2000
LEMMA22_TRIALS = 5000
N20_FAMILIES = ("tribes:w=4,s=5", "minblock:s=4,t=5", "first-even-group:s=4,t=5")


@dataclass
class Op:
    """One operation: a CLI argv, or a library call that prints its result."""

    label: str
    argv: list[str] | None = None
    call: Callable[[object], int] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict


def random_table_hex(rng: np.random.Generator, n: int) -> str:
    """2^n uniform truth-table bits in the package's little-endian hex form.

    Byte j carries table bits 8j..8j+7, so its low nibble is hex digit 2j
    and its high nibble digit 2j+1.
    """
    raw = rng.integers(0, 256, size=(1 << n) // 8, dtype=np.uint8)
    digits = np.empty(2 * raw.size, dtype=np.uint8)
    digits[0::2] = _HEX[raw & 15]
    digits[1::2] = _HEX[raw >> 4]
    return digits.tobytes().decode("ascii")


def _seed_value(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a workload feeds the program, drawn from the seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "large_single":
        return {"hex22": random_table_hex(rng, 22), "hex20": random_table_hex(rng, 20)}
    if workload == "search_sampled":
        return {"seed_n10": _seed_value(rng), "seed_n12": _seed_value(rng)}
    if workload == "small_verify":
        return {"seed_lemma31": _seed_value(rng), "seed_lemma22": _seed_value(rng)}
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, tmpdir: str, workers: int) -> Workload:
    """The workload's operations, in the order one pass runs them."""
    inp = make_inputs(workload, seed)
    # Operations well under a second long (analyze at n=20, verify theorem,
    # the exhaustive n=4 search) appear three times in a pass, spread between
    # the long ones: the machine's speed drifts over seconds, so samples taken
    # back to back would all see the same drift.
    if workload == "large_single":
        n20 = [Op(f"analyze_n20_{f.split(':')[0]}", ["analyze", "--family", f]) for f in N20_FAMILIES]
        n20.append(Op("analyze_n20_rand", ["analyze", "--n", "20", "--fn", inp["hex20"]]))
        ops = n20 + [Op("analyze_n24_tribes", ["analyze", "--family", "tribes:w=4,s=6"])] + n20 + [
            Op("analyze_n22_rand", ["analyze", "--n", "22", "--fn", inp["hex22"]]),
            Op("q31_n22_rand", ["q31", "--n", "22", "--fn", inp["hex22"]]),
        ] + n20 + [Op("q31_n20_rand", ["q31", "--n", "20", "--fn", inp["hex20"]])]
    elif workload == "search_sampled":
        def sweep(n, count, seed_value, path, extra):
            return ["search", "--mode", "sample", "--n", str(n), "--count", str(count),
                    "--seed", seed_value, "--checkpoint", os.path.join(tmpdir, path)] + extra
        n10 = sweep(10, SEARCH_N10_COUNT, inp["seed_n10"], "n10.json",
                    ["--workers", "1", "--checkpoint-every", "1"])
        n12 = sweep(12, SEARCH_N12_COUNT, inp["seed_n12"], "n12.json",
                    ["--workers", "1", "--checkpoint-every", "1"])
        # Without --checkpoint-every the pool gets all four chunks at once;
        # checkpointing every chunk would hand it one chunk at a time.
        pool = sweep(10, SEARCH_N10_COUNT, inp["seed_n10"], "pool.json",
                     ["--workers", str(workers)])
        resume_job = {"n": 10, "mode": "sample", "count": SEARCH_N10_COUNT,
                      "seed": int(inp["seed_n10"]), "checkpoint_every": 1}
        ops = [
            Op("search_n10_w1", n10),
            Op("search_n12_w1", n12),
            Op("search_n10_pool", pool),
            Op("search_run_resume",
               call=lambda api: _run_then_resume(api, resume_job, os.path.join(tmpdir, "lib.json"))),
        ]
    elif workload == "small_verify":
        short = [
            Op("verify_theorem", ["verify", "theorem", "--max-n", "4"]),
            Op("search_exhaustive_n4", ["search", "--mode", "exhaustive", "--n", "4", "--workers", "1"]),
        ]
        ops = [
            Op("verify_lemma31", ["verify", "lemma31", "--trials", str(LEMMA31_TRIALS),
                                  "--max-n", "8", "--seed", inp["seed_lemma31"]]),
            *short,
            Op("verify_lemma22", ["verify", "lemma22", "--trials", str(LEMMA22_TRIALS),
                                  "--max-n", "10", "--seed", inp["seed_lemma22"]]),
            *short,
            Op("verify_lemma24", ["verify", "lemma24"]),
            Op("verify_eq27", ["verify", "eq27"]),
            *short,
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Workload(workload, ops, inp)


def _run_then_resume(api, job_fields: dict, path: str) -> int:
    """Library leg: stop a checkpointed job after two chunks, then resume it."""
    if os.path.exists(path):
        os.remove(path)
    hs = api.package
    job = hs.SearchJob(**job_fields)
    if hs.run_search(job, path, max_chunks=2) is not None:
        print("run_search(max_chunks=2) finished a four-chunk job")
        return 1
    for record in hs.resume_search(path):
        print(api.cli.render_json(record.as_dict()))
    return 0


# Which operations fill the shared end-to-end slots; a slot with several
# labels takes their median within a pass.
SLOTS = {
    "large_single": {
        "op1_s": ["analyze_n24_tribes"],
        "op2_s": ["analyze_n22_rand"],
        "op3_s": [f"analyze_n20_{f.split(':')[0]}" for f in N20_FAMILIES] + ["analyze_n20_rand"],
        "op4_s": ["q31_n22_rand"],
    },
    "search_sampled": {
        "op1_s": ["search_n10_w1"],
        "op2_s": ["search_n12_w1"],
        "op3_s": ["search_n10_pool"],
        "op4_s": ["search_run_resume"],
    },
    "small_verify": {
        "op1_s": ["verify_lemma31"],
        "op2_s": ["verify_lemma22"],
        "op3_s": ["verify_theorem"],
        "op4_s": ["search_exhaustive_n4"],
    },
}


def named_metrics(workload: str, slots: dict, outputs: dict, workers: int) -> list[tuple]:
    """The workload's own metrics, (name, value, unit), from the slot medians."""
    if workload == "large_single":
        return [
            ("analyze_n24_s", slots["op1_s"], "s"),
            ("analyze_n22_rand_s", slots["op2_s"], "s"),
            ("analyze_n20_p50_s", slots["op3_s"], "s"),
            ("q31_n22_s", slots["op4_s"], "s"),
        ]
    if workload == "search_sampled":
        n10 = SEARCH_N10_COUNT / slots["op1_s"]
        pool = SEARCH_N10_COUNT / slots["op3_s"]
        return [
            ("search_n10_tables_per_s", n10, "tables/s"),
            ("search_n12_tables_per_s", SEARCH_N12_COUNT / slots["op2_s"], "tables/s"),
            ("search_pool_tables_per_s", pool, "tables/s"),
            (f"pool_efficiency_{workers}_workers", pool / (workers * n10), "ratio"),
            ("search_run_resume_s", slots["op4_s"], "s"),
        ]
    checks = _payload(outputs["verify_lemma31"])["checks"]
    checked = _payload(outputs["verify_theorem"])["checked"]
    return [
        ("lemma31_checks_per_s", checks / slots["op1_s"], "checks/s"),
        ("lemma22_trials_per_s", LEMMA22_TRIALS / slots["op2_s"], "trials/s"),
        ("theorem_tables_per_s", checked / slots["op3_s"], "tables/s"),
        ("exhaustive_n4_s", slots["op4_s"], "s"),
    ]


# ---------------------------------------------------------------- checking

def normalize(stdout: str) -> list:
    """Parsed output lines, without the envelope's echo of the command line.

    The echo repeats the argv (megabytes of --fn hex, temporary paths);
    the input fingerprint in the envelope already pins the function.
    """
    docs = []
    for line in stdout.splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if isinstance(doc, dict) and "payload" in doc:
            doc.pop("command", None)
        docs.append(doc)
    return docs


def _payload(docs: list) -> dict:
    return docs[0]["payload"]


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between two parsed outputs: floats within tolerance, rest exact."""
    if isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) <= FLOAT_ABS_TOL + FLOAT_REL_TOL * max(abs(expected), abs(actual)):
            return []
        return [f"{where}: {actual!r} != reference {expected!r}"]
    if type(expected) is not type(actual):
        return [f"{where}: type {type(actual).__name__} != reference {type(expected).__name__}"]
    if isinstance(expected, dict):
        if list(expected) != list(actual):
            return [f"{where}: keys {list(actual)} != reference {list(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != reference {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in compare(e, a, f"{where}[{i}]")]
    return [] if expected == actual else [f"{where}: {actual!r} != reference {expected!r}"]


def status_problems(docs: list) -> list[str]:
    """An envelope must say ok; search prints bare records and has none."""
    if not docs:
        return ["no output"]
    return [f"status {d['status']!r}" for d in docs if "status" in d and d["status"] != "ok"]


def oracles(workload: Workload, outputs: dict, api) -> dict[str, list[str]]:
    """In-run checks that need no stored reference, per operation label."""
    found: dict[str, list[str]] = {label: [] for label in outputs}
    check = {
        "large_single": _check_large,
        "search_sampled": _check_search,
        "small_verify": _check_small,
    }[workload.name]
    check(workload, outputs, api, found)
    return found


def _check_large(workload, outputs, api, found):
    """Parseval and influences_spectral == influences_combinatorial, per input."""
    hs = api.package
    functions = {"analyze_n24_tribes": hs.make_family(hs.FamilySpec.parse("tribes:w=4,s=6"))}
    for fam in N20_FAMILIES:
        functions[f"analyze_n20_{fam.split(':')[0]}"] = hs.make_family(hs.FamilySpec.parse(fam))
    for label, n, key in (("analyze_n22_rand", 22, "hex22"), ("analyze_n20_rand", 20, "hex20")):
        text = workload.inputs[key]
        functions[label] = hs.BooleanFunction.from_hex(n, text)
        if outputs[label][0]["input"]["table_sha256"] != hashlib.sha256(text.encode()).hexdigest():
            found[label].append("input fingerprint does not hash the --fn hex")
    exact = {}
    for label, f in functions.items():
        coeffs = hs.wht(f).coeffs
        if int(np.dot(coeffs, coeffs)) != 4**f.n:
            found[label].append("Parseval: sum of squared coefficients != 4^n")
        exact[label] = [str(ik) for ik in hs.influences_combinatorial(f).per_coord]
        if _payload(outputs[label])["influences"] != exact[label]:
            found[label].append("influences differ from influences_combinatorial")
    for label, source in (("q31_n22_rand", "analyze_n22_rand"), ("q31_n20_rand", "analyze_n20_rand")):
        if [c["influence"] for c in _payload(outputs[label])["per_coord"]] != exact[source]:
            found[label].append("q31 influences differ from influences_combinatorial")


def _check_witnesses(label, docs, api, found):
    """Each record's value, recomputed from its witness with metric_value."""
    hs = api.package
    if [d["metric"] for d in docs] != sorted(hs.METRICS):
        found[label].append(f"records for {[d['metric'] for d in docs]}, expected every metric")
    for d in docs:
        f = hs.BooleanFunction.from_hex(d["n"], d["witness"])
        value = hs.metric_value(d["metric"], f)
        found[label] += compare(d["value"], value, f"{d['metric']} recomputed from witness")


def _check_search(workload, outputs, api, found):
    """Witness values; pooled and resumed sweeps equal to the one-worker sweep."""
    for label in ("search_n10_w1", "search_n12_w1"):
        _check_witnesses(label, outputs[label], api, found)
    for label in ("search_n10_pool", "search_run_resume"):
        if outputs[label] != outputs["search_n10_w1"]:
            found[label].append("records differ from the uninterrupted one-worker sweep")


def _check_small(workload, outputs, api, found):
    """Violation counts are zero and the theorem sweep covers every table."""
    p = _payload(outputs["verify_theorem"])
    nonconstant = sum((1 << (1 << n)) - 2 for n in range(1, 5))
    if p["checked"] != nonconstant or p["violations"] != 0:
        found["verify_theorem"].append(f"checked {p['checked']} (want {nonconstant}), violations {p['violations']}")
    p = _payload(outputs["verify_lemma31"])
    if p["violations"] != 0 or p["checks"] <= 0:
        found["verify_lemma31"].append(f"checks {p['checks']}, violations {p['violations']}")
    p = _payload(outputs["verify_lemma22"])
    if p["failures"] != 0 or p["trials"] != LEMMA22_TRIALS:
        found["verify_lemma22"].append(f"trials {p['trials']}, failures {p['failures']}")
    for label in ("verify_lemma24", "verify_eq27"):
        if _payload(outputs[label])["grid"]["violations"] != 0:
            found[label].append("grid violations")
    _check_witnesses("search_exhaustive_n4", outputs["search_exhaustive_n4"], api, found)

