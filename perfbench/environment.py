"""Machine facts that a benchmark figure depends on, as one JSON object.

    python3 perfbench/environment.py

Prints nproc, CPU model, cache and memory sizes, Python and numpy
versions, the BLAS library with its thread setting, and the worker count
the pooled search leg uses.  perfbench/environment.json records the
output for the machine the committed figures come from, with the seeds
and the workload notes.
"""
from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    found = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            found[f"L{level}"] = size
    return found


def _ram_gib() -> float | None:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return round(int(line.split()[1]) / 2**20, 1)
    except OSError:
        pass
    return None


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        name = version = None
    threads = {var: os.environ[var] for var in THREAD_VARS if var in os.environ}
    return {"name": name, "version": version,
            "threads": threads or "unset (OpenBLAS then uses one thread per CPU)"}


def describe() -> dict:
    nproc = len(os.sched_getaffinity(0))  # what `nproc` reports: the CPUs this process may use
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "cpu0_caches": _caches(),
        "ram_gib": _ram_gib(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "search_pool_workers": nproc,
    }


if __name__ == "__main__":
    print(json.dumps(describe(), indent=2))
