"""Benchmark of hypercube-spectra, driven from outside the package.

    python3 perfbench/run.py --workload large_single --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The package is imported from
``./src`` (never from an installed copy); the script exits with code 2,
printing no result, when that source tree is missing.

The workload's operations (``workloads.py``) run in this process, one at
a time, through the CLI entry point ``hypercube_spectra.cli.main(argv)``
with standard output captured, or through the public library API.  Passes
over the operation list repeat until ``--seconds`` is used up; the next
pass is skipped when the last one says it would overrun.  At least one
pass always runs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over passes, and ``setup_s``, the median of several fresh processes that
start, import the package and generate the workload inputs.
``--trace 1`` runs two traced passes, with one search worker because pool
children are not traced, and reports the per-layer metrics; their exact
counts must be identical in the two passes.  Spans are written to
``.perfbench_out/``.

Every operation is checked: exit code and status, byte-identical output
in every pass, in-run oracles, and the output recorded in
``perfbench/reference`` when the benchmark was defined.  For a seed with
no recorded reference, the operations whose argv does not depend on the
seed are compared with the default seed's reference.  A failed check
counts in ``failed``; timings are reported either way.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a table of every metric goes
to standard error.

``--record-reference`` runs one pass and stores its checked outputs as the
reference for the seed.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_package():
    """Import the package from ./src, or exit 2 if this checkout lacks it."""
    if not (SRC / "hypercube_spectra" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hypercube_spectra
    from hypercube_spectra import cli

    if Path(hypercube_spectra.__file__).resolve().parent != SRC / "hypercube_spectra":
        print(f"error: imported {hypercube_spectra.__file__}, not the checkout's source", file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(package=hypercube_spectra, cli=cli)


def setup_probe(workload: str, seed: int) -> int:
    """Child process body for setup_s: import the package, make the inputs."""
    load_package()
    wl.make_inputs(workload, seed)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes doing setup_probe."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return median(times)


def execute(op: wl.Op, api) -> SimpleNamespace:
    """Run one operation with its output captured; a raised error is a result."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = api.cli.main(op.argv) if op.argv is not None else op.call(api)
    except Exception as exc:  # the operation failed; the benchmark goes on
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return SimpleNamespace(label=op.label, wall=wall, code=code, stdout=out.getvalue(),
                           stderr=err.getvalue(), error=error)


def run_pass(workload: wl.Workload, api, tracer: Tracer | None = None) -> list:
    results = []
    for op in workload.ops:
        if tracer is None:
            results.append(execute(op, api))
        else:
            with tracer.operation(op.label):
                results.append(execute(op, api))
    return results


def run_timed(workload: wl.Workload, api, seconds: float) -> list[list]:
    """Passes until the time budget would be overrun; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, api))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            return passes


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / workload / f"seed-{seed}.json"


def load_reference(workload: wl.Workload, seed: int, tmpdir: str, workers: int) -> dict:
    """Reference outputs by label: the seed's own, or else the default seed's
    for every operation whose argv does not depend on the seed."""
    own = reference_path(workload.name, seed)
    if own.is_file():
        return json.loads(own.read_text())["outputs"]
    base = reference_path(workload.name, wl.DEFAULT_SEED)
    if not base.is_file():
        return {}
    default = wl.build(workload.name, wl.DEFAULT_SEED, tmpdir, workers)
    shared = {op.label for op, d in zip(workload.ops, default.ops) if op.argv is not None and op.argv == d.argv}
    print(f"note: no stored reference for seed {seed}; {len(shared)} seed-independent operations are "
          "checked against the default seed's, the rest by oracles and run-to-run identity", file=sys.stderr)
    return {k: v for k, v in json.loads(base.read_text())["outputs"].items() if k in shared}


def check(workload: wl.Workload, passes: list[list], api, reference: dict) -> tuple[int, int, dict]:
    """Count attempted and failed operations; problems by label for the report.

    The first run of each operation is checked in full: exit code, status,
    oracles and reference.  Every later run must print the same bytes.
    """
    first = {}
    for r in passes[0]:
        first.setdefault(r.label, r)
    outputs, problems = {}, {label: [] for label in first}
    for label, r in first.items():
        if r.error is not None or r.code != 0:
            continue
        try:
            outputs[label] = wl.normalize(r.stdout)
            problems[label] += wl.status_problems(outputs[label])
        except json.JSONDecodeError as exc:
            problems[label].append(f"unparseable output: {exc}")
    if len(outputs) == len(first) and not any(problems.values()):
        try:
            for label, found in wl.oracles(workload, outputs, api).items():
                problems[label] += found
        except Exception as exc:  # an oracle that cannot run is a failed check
            problems[workload.ops[0].label].append(f"oracle error {type(exc).__name__}: {exc}")
    for label, docs in outputs.items():
        if label in reference:
            problems[label] += wl.compare(reference[label], docs, label)[:5]
    digests = {label: hashlib.sha256(r.stdout.encode()).digest() for label, r in first.items()}
    attempted = failed = 0
    for i, results in enumerate(passes):
        for r in results:
            attempted += 1
            if r.error is not None or r.code != 0:
                problems[r.label].append(r.error or f"exit code {r.code}: {r.stderr.strip()[:200]}")
                bad = True
            elif r is first[r.label]:
                bad = bool(problems[r.label])
            else:
                bad = hashlib.sha256(r.stdout.encode()).digest() != digests[r.label]
                if bad:
                    problems[r.label].append(f"pass {i + 1}: output differs from the first run")
            failed += bad
    return attempted, failed, {k: v for k, v in problems.items() if v}


def slot_medians(workload: str, passes: list[list]) -> dict[str, float]:
    values = {}
    for slot, labels in wl.SLOTS[workload].items():
        per_pass = [median(r.wall for r in results if r.label in labels) for results in passes]
        values[slot] = median(per_pass)
    return values


def end_to_end(workload: wl.Workload, passes, outputs_ok, setup_s, peak_rss_mb, workers) -> tuple[dict, list]:
    slots = slot_medians(workload.name, passes)
    values = {
        "setup_s": setup_s,
        "wall_s": median(sum(r.wall for r in results) for results in passes),
        "peak_rss_mb": peak_rss_mb,
        **slots,
    }
    named = wl.named_metrics(workload.name, slots, outputs_ok, workers) if outputs_ok else []
    for slot, labels in wl.SLOTS[workload.name].items():
        samples = [r.wall for results in passes for r in results if r.label in labels]
        named += [(f"{slot} max", max(samples), "s"), (f"{slot} samples", len(samples), "count")]
    return values, named


def per_layer(tracer: Tracer, marks: list, traced_walls: list) -> tuple[dict, bool]:
    """Per-layer metrics: times are the mean of the traced passes, counts exact.

    Also returns whether the two traced passes gave identical counts.
    ``trace.overhead_ratio`` is the traced wall over that wall less the
    spans' own cost, measured per span on a wrapped no-op in this process.
    It leaves out the tracer's effect on caches and garbage collection; an
    untraced comparison pass would measure those, but a third ~45 s pass
    of large_single does not fit the run's 180 s limit.
    """
    summaries = [tracer.summarize(*m) for m in marks]
    same_counts = len({json.dumps(_exact(s), sort_keys=True) for s in summaries}) == 1
    stats, counts = summaries[0]

    def mean(name, field):
        return sum(s.get(name, {}).get(field, 0.0) for s, _ in summaries) / len(summaries)

    values = dict(counts)
    for name in {n for s, _ in summaries for n in s if not n.startswith("op.")}:
        layer_self = f"{name.split('.')[0]}.self_s"
        values[f"{name}.calls"] = stats.get(name, {}).get("calls", 0)
        values[f"{name}.self_s"] = mean(name, "self_s")
        values[layer_self] = values.get(layer_self, 0.0) + values[f"{name}.self_s"]
    rows = counts.get("search.batch_stats.rows", 0)
    values["search.useful_ratio"] = counts.get("search.useful_rows", 0) / rows if rows else 0.0
    values["search.resume.total_s"] = mean("search.resume", "total_s")
    wall = sum(traced_walls) / len(traced_walls)
    spans = sum(s[name]["calls"] for s, _ in summaries for name in s) / len(summaries)
    values["trace.overhead_ratio"] = wall / (wall - spans * Tracer.span_cost())
    return values, same_counts


def _exact(summary) -> dict:
    stats, counts = summary
    return {"calls": {k: v["calls"] for k, v in stats.items()}, "counts": dict(counts)}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def emit(spec_metrics: list, values: dict, correct: bool, attempted: int, failed: int) -> None:
    metrics = {}
    for m in spec_metrics:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def report(title: str, rows: list, problems: dict, attempted: int, failed: int) -> None:
    err = sys.stderr
    print(f"== {title}", file=err)
    for name, value, unit in rows:
        print(f"  {name:44s} {value:>16.6g} {unit}", file=err)
    print(f"  {'failed_ratio':44s} {failed / attempted:>16.6g} ratio ({failed} failed of {attempted} attempted)",
          file=err)
    for label, found in problems.items():
        for p in found[:5]:
            print(f"  FAILED {label}: {p}", file=err)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    api = load_package()
    spec = load_spec()
    nproc = len(os.sched_getaffinity(0))  # what `nproc` reports: the CPUs this process may use
    workers = 1 if args.trace else nproc
    setup_s = None if args.trace or args.record_reference else measure_setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = wl.build(args.workload, args.seed, tmpdir, workers)
        if args.record_reference:
            ref_file = reference_path(args.workload, args.seed)
            passes = [run_pass(workload, api)]
            attempted, failed, problems = check(workload, passes, api, {})
            report(f"{args.workload} seed {args.seed}: reference", [], problems, attempted, failed)
            if failed:
                return 1
            ref_file.parent.mkdir(parents=True, exist_ok=True)
            outputs = {}
            for r in passes[0]:  # an output equal to an earlier one is left to the oracles
                docs = wl.normalize(r.stdout)
                if docs not in outputs.values():
                    outputs[r.label] = docs
            doc = {"workload": args.workload, "seed": args.seed,
                   "float_tolerance": {"rel": wl.FLOAT_REL_TOL, "abs": wl.FLOAT_ABS_TOL},
                   "outputs": outputs}
            ref_file.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            return 0

        reference = load_reference(workload, args.seed, tmpdir, workers)
        if not args.trace:
            passes = run_timed(workload, api, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the oracles run
            attempted, failed, problems = check(workload, passes, api, reference)
            ok = {r.label: wl.normalize(r.stdout) for r in passes[0]} if not problems else None
            values, named = end_to_end(workload, passes, ok, setup_s, peak_rss_mb, workers)
            rows = [(m["name"], values[m["name"]], m["unit"]) for m in spec["end_to_end"]] + named
            report(f"{args.workload} seed {args.seed}: {len(passes)} passes, {workers} pool workers",
                   rows, problems, attempted, failed)
            emit(spec["end_to_end"], values, failed == 0, attempted, failed)
            return 0

        tracer = Tracer()
        passes, marks = [], []
        for _ in range(2):
            begin = tracer.mark()
            with tracer.installed():
                passes.append(run_pass(workload, api, tracer))
            marks.append((begin, tracer.mark()))
        attempted, failed, problems = check(workload, passes, api, reference)
        walls = [sum(r.wall for r in results) for results in passes]
        values, same_counts = per_layer(tracer, marks, walls)
        attempted += 1
        if not same_counts:
            failed += 1
            problems["trace"] = ["exact counts differ between the two traced passes"]
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"))
        rows = [(m["name"], values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]]
        report(f"{args.workload} seed {args.seed}: traced, {len(tracer.spans)} spans", rows,
               problems, attempted, failed)
        emit(spec["per_layer"], values, failed == 0, attempted, failed)
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
