"""Command-line front end.

One binary, subcommand style.  Reports go to standard output as a JSON
envelope (or CSV where curves are more useful to plotters); diagnostics
go to standard error.  Exit codes: 0 = ok, 1 = usage or runtime error,
2 = a verified inequality was violated somewhere (a research event, not
a crash).

Every float is rendered as fixed 17-significant-digit scientific
notation, so identical inputs and flags produce byte-identical output.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .boolfn import MAX_N, BooleanFunction, FamilySpec, from_sign_bits, make_family, parse_int
from .entropy import analyze
from .inequality import (
    DEFAULT_EPS_LIST,
    GAP_TOLERANCE,
    ScalarGridSpec,
    q31_report,
    sweep_gap,
    sweep_gap_random,
)
from .moments import (
    chain,
    chain_batch,
    check_chain_eps,
    lemma22_batch,
    lemma22_check,
    moment_curve,
)
from . import search
from .spectrum import group_rows, wht

_VIOLATION_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit(2), and 2 means violation here: a usage error
        # ends in the error envelope, exit 1, like any other bad input.
        raise ValueError(message)


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float in report: {x}")
    return format(x, ".16e")


def render_json(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, %.16e floats.

    Dataclasses and named tuples render as objects of their fields in
    declaration order; a Fraction renders as its quoted string.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if dataclasses.is_dataclass(obj):
        return render_json({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return render_json(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{render_json(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _envelope(argv, fingerprint, status: str, payload) -> str:
    return render_json(
        {
            "version": __version__,
            "command": list(argv),
            "input": fingerprint,
            "status": status,
            "payload": payload,
        }
    )


def _fingerprint(f: BooleanFunction, text: str | None = None) -> dict:
    # Any --fn `text` that from_hex accepts is f.to_hex() up to case.
    text = f.to_hex() if text is None else text.lower()
    return {"n": f.n, "table_sha256": hashlib.sha256(text.encode()).hexdigest()}


def _add_fn_args(p: _Parser) -> None:
    p.add_argument("--fn", help="truth table as little-endian hex (needs --n)")
    p.add_argument("--n", type=parse_int, help="dimension for --fn")
    p.add_argument("--family", help="family spec, e.g. parity:s=3,n=3")


def _load_function(args) -> BooleanFunction:
    if args.family and args.fn is not None:
        raise ValueError("give either --fn or --family, not both")
    if args.family:
        if args.n is not None:
            raise ValueError("--n needs --fn; drop --n")
        return make_family(FamilySpec.parse(args.family))
    if args.fn is not None:
        if args.n is None:
            raise ValueError("--fn requires --n")
        return BooleanFunction.from_hex(args.n, args.fn)
    raise ValueError("an input function is required: --fn HEX --n N or --family SPEC")


def _parse_coords(text: str | None, n: int) -> list[int]:
    if text is None or text == "all":
        return list(range(1, n + 1))
    try:
        return [parse_int(p) for p in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"malformed coordinate list {text!r}") from None


MAX_EPS_VALUES = 10_000  # longest START:STOP:STEP range, checked before it is built


def _parse_eps_values(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_EPS_LIST
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"eps range must be START:STOP:STEP, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"eps range needs finite START:STOP:STEP, got {text!r}")
        if step <= 0:
            raise ValueError("eps range step must be positive")
        count = max(0, math.floor((stop + 1e-12 - start) / step) + 1)
        if count > MAX_EPS_VALUES:
            raise ValueError(
                f"--eps range {text!r} holds {count} values; the limit is {MAX_EPS_VALUES}"
            )
        values = tuple(round(start + i * step, 12) for i in range(count))
    else:
        values = tuple(float(p) for p in text.split(",") if p)
    if not values:
        raise ValueError(f"--eps {text!r} lists no values")
    return values


def _metric_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()  # SearchJob refuses the empty list


def _text(lines) -> str:
    """A bare text payload: each line ends in a newline; one join, no second list of lines."""
    return "\n".join([*lines, ""])


def _cmd_analyze(args):
    f = _load_function(args)
    return _fingerprint(f, args.fn), "ok", analyze(f)


def _cmd_spectrum(args):
    f = _load_function(args)
    spectrum = wht(f)
    if args.format == "csv":
        lines = ["mask,coeff"]
        lines += [f"{mask},{int(c)}" for mask, c in enumerate(spectrum.coeffs)]
        return None, "ok", _text(lines)
    payload = {
        "n": spectrum.n,
        "coeffs": [int(c) for c in spectrum.coeffs],
        "parseval_ok": spectrum.parseval_ok(),
    }
    return _fingerprint(f, args.fn), "ok", payload


def _cmd_moments(args):
    f = _load_function(args)
    coords = _parse_coords(args.coords, f.n)
    grid = None if args.eps is None else _parse_eps_values(args.eps)
    curve = moment_curve(f, coords, grid)
    if args.format == "csv":
        lines = ["eps,value"]
        lines += [f"{_fmt_float(e)},{_fmt_float(v)}" for e, v in zip(curve.eps, curve.values)]
        return None, "ok", _text(lines)
    return _fingerprint(f, args.fn), "ok", curve


def _cmd_chain(args):
    f = _load_function(args)
    order = None if args.order is None else _parse_coords(args.order, f.n)
    (report,) = chain(f, (args.eps,), order=order)
    ok = all(s.delta >= s.floor - _VIOLATION_TOL for s in report.steps)
    ok = ok and report.final >= report.telescoped_floor - _VIOLATION_TOL
    return _fingerprint(f, args.fn), ("ok" if ok else "violation"), report


def _cmd_q31(args):
    f = _load_function(args)
    return _fingerprint(f, args.fn), "ok", q31_report(f)


def _verify_scalar(kind: str, args):
    if args.random is not None:
        if args.random < 1:
            raise ValueError(f"--random must be positive, got {args.random}")
        if args.seed is None:
            raise ValueError("--random needs --seed")
    elif args.seed is not None:
        raise ValueError("--seed needs --random; drop --seed")
    grid = ScalarGridSpec(args.grid, _parse_eps_values(args.eps))
    # the random sweep first: an oversized --random is refused before the grid runs
    rand = None if args.random is None else sweep_gap_random(kind, args.random, args.seed)
    result = sweep_gap(kind, grid)
    payload = {"grid": result, "tolerance": GAP_TOLERANCE}
    violations = result.violations
    if rand is not None:
        payload["random"] = rand
        violations += rand.violations
    return None, ("ok" if violations == 0 else "violation"), payload


def _check_max_n(max_n: int) -> None:
    if max_n < 1:
        raise ValueError(f"--max-n must be positive, got {max_n}")


def _check_trials(args) -> None:
    """Refuse a random-function sweep before its first trial draws a table."""
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    _check_max_n(args.max_n)
    if args.max_n > MAX_N:
        raise ValueError(f"--max-n must be at most {MAX_N}, got {args.max_n}")


def _trial_batches(args, draw_extra):
    """The random trials of a lemma sweep, as batches of same-dimension tables.

    Trials are drawn in the order a one-at-a-time loop draws them: n, the
    table's bytes, then draw_extra(rng, n).  A dimension's batch is yielded
    once it holds group_rows(n) trials, the rest at the end, as (n, trial
    indices, sign bits (rows, 2^n), extras) with rows in trial order.
    Callers check the sweep flags first (_check_trials).
    """
    rng = np.random.default_rng(args.seed)
    pending: dict[int, list] = {}

    def batch(n):
        indices, tables, extras = zip(*pending.pop(n))
        bits = np.unpackbits(np.stack(tables), axis=-1, bitorder="little")
        return n, indices, bits[:, : 1 << n], extras

    for trial in range(args.trials):
        n = int(rng.integers(1, args.max_n + 1))
        table = rng.integers(0, 256, size=(1 << n) // 8 or 1, dtype=np.uint8)
        pending.setdefault(n, []).append((trial, table, draw_extra(rng, n)))
        if len(pending[n]) == group_rows(n):
            yield batch(n)
    yield from map(batch, list(pending))


def _draw_restriction(rng: np.random.Generator, n: int) -> tuple[list[int], int]:
    # the stream of rng.choice over np.arange(1, n + 1), then over j_set
    size = int(rng.integers(1, n + 1))
    j_set = sorted((rng.choice(n, size=size, replace=False) + 1).tolist())
    return j_set, j_set[int(rng.integers(size))]


def _verify_lemma22(args):
    _check_trials(args)
    failures = 0
    first = None  # (trial, sign bits, J, k) of the first failing trial
    for _, indices, bits, drawn in _trial_batches(args, _draw_restriction):
        masks = np.array([sum(1 << (c - 1) for c in j_set) for j_set, _ in drawn])
        weights, changes = lemma22_batch(bits, masks, np.array([k for _, k in drawn]))
        bad = np.flatnonzero(weights != changes << (np.bitwise_count(masks) + 1))
        failures += bad.size
        if bad.size and (first is None or indices[bad[0]] < first[0]):
            first = (indices[bad[0]], bits[bad[0]], *drawn[bad[0]])
    first_failure = None
    if first is not None:
        _, row, j_set, k = first
        f = from_sign_bits(row)
        lhs, rhs = lemma22_check(f, j_set, k)
        first_failure = {
            "n": f.n,
            "fn": f.to_hex(),
            "J": j_set,
            "k": k,
            "lhs": lhs,
            "rhs": rhs,
        }
    payload = {
        "trials": args.trials,
        "max_n": args.max_n,
        "seed": args.seed,
        "failures": failures,
        "first_failure": first_failure,
    }
    return None, ("ok" if failures == 0 else "violation"), payload


def _verify_lemma31(args):
    _check_trials(args)
    eps_values = (
        _parse_eps_values(args.eps)
        if args.eps is not None
        else (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49)
    )
    check_chain_eps(eps_values)  # before the first trial is drawn
    checks = 0
    violations = 0
    # The witness is the first strict minimum in (trial, eps) order.  Each
    # batch's rows are in trial order, so its flat argmin is its first
    # minimum; batches interleave trials, and the (margin, trial, eps) key
    # orders ties across them.
    best = (math.inf, math.inf, 0)  # (margin, trial, eps index)
    witness = None
    for n, indices, bits, orders in _trial_batches(
        args, lambda rng, n: rng.permutation(n) + 1
    ):
        margins = chain_batch(bits, np.array(orders), eps_values).margins()
        checks += margins.size
        violations += int(np.count_nonzero(margins < -_VIOLATION_TOL))
        lows = margins.min(axis=-1)  # no margin is -0.0, so this is Python's min
        row, j = np.unravel_index(int(lows.argmin()), lows.shape)
        candidate = (float(lows[row, j]), indices[row], int(j))
        if candidate < best:
            best = candidate
            witness = {
                "n": n,
                "fn": from_sign_bits(bits[row]).to_hex(),
                "eps": eps_values[j],
                "order": orders[row].tolist(),
            }
    payload = {
        "trials": args.trials,
        "max_n": args.max_n,
        "seed": args.seed,
        "eps": [float(e) for e in eps_values],
        "checks": checks,
        "violations": violations,
        "min_margin": best[0],
        "witness_of_min": witness,
        "tolerance": _VIOLATION_TOL,
    }
    return None, ("ok" if violations == 0 else "violation"), payload


def _verify_theorem(args):
    if args.random is not None:
        if args.max_n is not None:
            raise ValueError("--random samples at --n; drop --max-n")
        if args.n is None or args.seed is None:
            raise ValueError("--random needs --n and --seed")
        jobs = [search.SearchJob(n=args.n, mode="sample", count=args.random, seed=args.seed)]
        mode = {"mode": "sample", "n": args.n, "count": args.random, "seed": args.seed}
    else:
        stray = [flag for flag, v in (("--n", args.n), ("--seed", args.seed)) if v is not None]
        if stray:
            raise ValueError(f"--n and --seed need --random; drop {' '.join(stray)}")
        max_n = 4 if args.max_n is None else args.max_n
        _check_max_n(max_n)
        jobs = [search.SearchJob(n=n, mode="exhaustive") for n in range(1, max_n + 1)]
        mode = {"mode": "exhaustive", "max_n": max_n}
    checked = 0
    violations = 0
    max_ratio = -math.inf
    witness = None
    for job in jobs:
        for chunk in range(job.total_chunks):
            stats = search.chunk_stats(job, chunk)
            keep = stats["nonconstant"]
            checked += int(np.count_nonzero(keep))
            ent, bound, drop = stats["entropy"], stats["bound"], stats["bound_drop_one"]
            bad = keep & ((ent > bound + _VIOLATION_TOL) | (ent > drop + _VIOLATION_TOL))
            violations += int(np.count_nonzero(bad))
            ratio = np.where(keep, search.metric_columns(stats)["ent_over_bound"], -np.inf)
            top = int(np.argmax(ratio))
            if ratio[top] > max_ratio:  # chunks come in index order
                max_ratio = float(ratio[top])
                row = search._tables(job, [chunk * job.chunk_size + top])[0]
                witness = {"n": job.n, "fn": from_sign_bits(row).to_hex()}
    payload = {
        **mode,
        "checked": checked,
        "violations": violations,
        "max_entropy_over_bound": None if witness is None else max_ratio,  # all tables constant
        "witness_of_max": witness,
        "tolerance": _VIOLATION_TOL,
    }
    return None, ("ok" if violations == 0 else "violation"), payload


def _family_payload(spec: FamilySpec, f: BooleanFunction, targets: set[str], emit_hex: bool):
    report = analyze(f)
    influences = report.influences
    payload: dict = {
        "family": spec.text(),
        "n": f.n,
        "entropy_bits": report.entropy_bits,
        "influence_total": report.influence_total,
        "term_sum_bits": report.term_sum_bits,
    }
    if emit_hex:
        payload["hex"] = f.to_hex()
    if "influences" in targets:
        payload["influences"] = [str(ik) for ik in influences]
    name = spec.name
    if "limits" in targets and name == "first-even-group":
        s = int(spec.params["s"])
        t = int(spec.params["t"])
        limits = [2.0 ** (2 - p) / 3.0 for p in range(1, t + 1)]  # limit of I_k in block p
        rows = []
        max_dev = 0.0
        for k in range(1, f.n + 1):
            p = (k - 1) // s + 1
            dev = abs(float(influences[k - 1]) - limits[p - 1])
            max_dev = max(max_dev, dev)
            rows.append(
                {
                    "coord": k,
                    "block": p,
                    "influence": str(influences[k - 1]),
                    "block_limit": limits[p - 1],
                    "deviation": dev,
                }
            )
        total = float(report.influence_total)
        total_limit = 4.0 * s / 3.0
        payload["limits"] = {
            "per_coord": rows,
            "deviation_bound": 2.0 ** (1 - t),
            "max_deviation": max_dev,
            "deviations_ok": max_dev <= 2.0 ** (1 - t),
            "influence_total_limit": total_limit,
            "influence_total_rel_dev": abs(total - total_limit) / total_limit,
        }
        # (4/3)(2 - log2(4/3)) s simplifies to (4/3) log2(3) s; both printed.
        form_a = 4.0 / 3.0 * math.log2(3.0) * s
        form_b = 4.0 / 3.0 * (2.0 - math.log2(4.0 / 3.0)) * s
        payload["term_sum_limit"] = {
            "four_thirds_log2_3_s": form_a,
            "four_thirds_2_minus_log2_4_3_s": form_b,
            "rel_dev": abs(report.term_sum_bits - form_a) / form_a,
        }
    if "limits" in targets and name == "minblock":
        s = int(spec.params["s"])
        expected = Fraction(1, 1 << (s - 1))
        cap = report.jensen_cap_bits
        payload["limits"] = {
            "expected_influence": str(expected),
            "influences_ok": all(ik == expected for ik in influences),
            "jensen_cap_bits": cap,
            "term_sum_abs_dev": abs(report.term_sum_bits - cap),
        }
    if "limits" in targets and name == "parity":
        payload["limits"] = {
            "influence_total_expected": str(spec.params.get("s", f.n)),
            "term_sum_expected": 0.0,
        }
    return payload


def _cmd_family(args):
    spec = FamilySpec.parse(args.family)
    f = make_family(spec)
    known = {"influences", "limits"}
    if args.targets == "":
        raise ValueError(f"--targets lists no sections; known: {sorted(known)}")
    sections = (args.targets or "influences,limits").split(",")
    targets = set(sections)
    if len(targets) != len(sections):
        raise ValueError("--targets must not repeat a section")
    if not targets <= known:
        raise ValueError(f"unknown targets {sorted(targets - known)}; known: {sorted(known)}")
    payload = _family_payload(spec, f, targets, args.emit_hex)
    return _fingerprint(f), "ok", payload


def _resolve_workers(value: int | None) -> int:
    name, env = "--workers", os.environ.get("HYPERCUBE_SPECTRA_WORKERS")
    if value is None:
        if not env:
            return os.cpu_count() or 1
        name = "HYPERCUBE_SPECTRA_WORKERS"
        try:
            value = parse_int(env)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {env!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _cmd_search(args):
    workers = _resolve_workers(args.workers)
    fields = [field.name for field in dataclasses.fields(search.SearchJob)]
    given = {name: getattr(args, name) for name in fields if name in args}
    if args.resume:
        if not args.checkpoint:
            raise ValueError("--resume requires --checkpoint PATH")
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ValueError(f"--resume takes the job from the checkpoint; drop {flags}")
        records = search.resume(args.checkpoint, workers=workers)
    else:
        if "n" not in given:
            raise ValueError("search requires --n")
        if "checkpoint_every" in given and not args.checkpoint:
            raise ValueError("--checkpoint-every needs --checkpoint")
        job = search.SearchJob(**{"mode": "exhaustive", **given})
        records = search.run(job, checkpoint_path=args.checkpoint, workers=workers)
    bad = any(r.metric == "ent_over_bound" and r.value > 1.0 + _VIOLATION_TOL for r in records)
    # bare JSON lines, no envelope; a sweep of constant tables prints nothing
    return None, ("violation" if bad else "ok"), _text(map(render_json, records))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _Parser(prog="hypercube-spectra", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="entropy, influences, bounds, concentration")
    p.set_defaults(handler=_cmd_analyze)
    _add_fn_args(p)

    p = sub.add_parser("spectrum", help="integer Walsh-Hadamard coefficients")
    p.set_defaults(handler=_cmd_spectrum)
    _add_fn_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("moments", help="restriction-moment curve over eps")
    p.set_defaults(handler=_cmd_moments)
    _add_fn_args(p)
    p.add_argument("--coords", help="comma-separated coordinate set (default: all)")
    p.add_argument("--eps", help="eps grid: START:STOP:STEP or comma list")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("chain", help="coordinate-by-coordinate moment chain")
    p.set_defaults(handler=_cmd_chain)
    _add_fn_args(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--order", help="comma-separated coordinate order")

    p = sub.add_parser("verify", help="numerical verification sweeps")
    vsub = p.add_subparsers(dest="what", required=True)
    for kind in ("lemma24", "eq27"):
        vp = vsub.add_parser(kind)
        vp.set_defaults(handler=functools.partial(_verify_scalar, kind))
        vp.add_argument("--grid", type=parse_int, default=200)
        vp.add_argument("--eps", help="eps values: START:STOP:STEP or comma list")
        vp.add_argument("--random", type=parse_int, help="additional random triples")
        vp.add_argument("--seed", type=parse_int)
    vp = vsub.add_parser("lemma22")
    vp.set_defaults(handler=_verify_lemma22)
    vp.add_argument("--trials", type=parse_int, default=1000)
    vp.add_argument("--max-n", type=parse_int, default=10)
    vp.add_argument("--seed", type=parse_int, default=0)
    vp = vsub.add_parser("lemma31")
    vp.set_defaults(handler=_verify_lemma31)
    vp.add_argument("--trials", type=parse_int, default=500)
    vp.add_argument("--max-n", type=parse_int, default=8)
    vp.add_argument("--seed", type=parse_int, default=0)
    vp.add_argument("--eps", help="eps values: START:STOP:STEP or comma list")
    vp = vsub.add_parser("theorem")
    vp.set_defaults(handler=_verify_theorem)
    vp.add_argument("--max-n", type=parse_int, help="exhaustive mode: largest n (default 4)")
    vp.add_argument("--random", type=parse_int, help="sampled mode: number of functions")
    vp.add_argument("--n", type=parse_int, help="dimension for --random")
    vp.add_argument("--seed", type=parse_int)

    p = sub.add_parser("q31", help="cross-term mass over influence, per coordinate")
    p.set_defaults(handler=_cmd_q31)
    _add_fn_args(p)

    p = sub.add_parser("search", help="extremal sweep over truth tables")
    p.set_defaults(handler=_cmd_search)
    job = {"default": argparse.SUPPRESS}  # only given job flags reach args
    p.add_argument("--n", type=parse_int, **job)
    p.add_argument("--mode", choices=("exhaustive", "sample"), **job)
    p.add_argument("--count", type=parse_int, **job)
    p.add_argument("--seed", type=parse_int, **job)
    p.add_argument("--metrics", type=_metric_list, help="comma list; default: all", **job)
    p.add_argument("--checkpoint")
    p.add_argument("--resume", action="store_true", help="continue --checkpoint; no job flags")
    p.add_argument("--checkpoint-every", type=parse_int, **job)
    p.add_argument("--chunk-size", type=parse_int, **job)
    p.add_argument("--workers", type=parse_int)

    p = sub.add_parser("family", help="named family instance report")
    p.set_defaults(handler=_cmd_family)
    p.add_argument("--family", required=True)
    p.add_argument("--emit-hex", action="store_true")
    p.add_argument("--targets", help="comma list of report sections")

    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        fingerprint, status, payload = args.handler(args)
        if isinstance(payload, str):  # CSV, or search's JSON lines: no envelope
            text = payload
        else:
            text = _envelope(argv, fingerprint, status, payload) + "\n"
        code = 2 if status == "violation" else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        text, code = _envelope(argv, None, "error", {"message": str(exc)}) + "\n", 1
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout (`| head`); devnull takes the exit flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
