"""The names that the benchmark harness in perfbench/ reads from the package.

The harness drives the package from outside: its oracles call the library
by name and its tracer wraps functions and methods by name.  A rename or a
deletion under src/ would break a benchmark run without failing any other
test.  These tests only read perfbench/; they change nothing there.
"""
import ast
import sys
from pathlib import Path
from types import SimpleNamespace

import hypercube_spectra as hs
from hypercube_spectra import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _chains(path: Path) -> set[tuple[str, ...]]:
    """Attribute chains rooted at `hs` (the package) or `api` in one harness file."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in ("hs", "api"):
            chains.add((node.id, *reversed(attrs)))
    return chains


def test_harness_names_exist_on_the_package():
    chains = _chains(PERFBENCH / "workloads.py") | _chains(PERFBENCH / "run.py")
    assert {("hs", "wht"), ("hs", "run_search"), ("api", "cli", "main")} <= chains
    roots = {"hs": hs, "api": SimpleNamespace(package=hs, cli=cli)}
    for root, *attrs in sorted(chains):
        obj = roots[root]
        for attr in attrs:
            assert hasattr(obj, attr), ".".join((root, *attrs))
            obj = getattr(obj, attr)
    # read off results: spectrum coefficients, influences, search records
    f = hs.parity(2)
    assert hs.wht(f).coeffs.tolist() == [0, 0, 0, 4]
    assert hs.influences_combinatorial(f).per_coord == (1, 1)
    assert callable(hs.ExtremalRecord.as_dict)


def _bindings() -> dict:
    """Every attribute of the package's modules and of BooleanFunction."""
    modules = [(name, m) for name, m in sys.modules.items()
               if name == "hypercube_spectra" or name.startswith("hypercube_spectra.")]
    found = {(name, attr): value for name, m in modules for attr, value in vars(m).items()}
    found.update({("BooleanFunction", attr): v for attr, v in vars(hs.BooleanFunction).items()})
    return found


def test_tracer_install_and_uninstall_restore_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        wrapped = {key for key, value in before.items() if during[key] is not value}
        assert {("hypercube_spectra.cli", "analyze"), ("hypercube_spectra.entropy", "analyze"),
                ("BooleanFunction", "values"), ("BooleanFunction", "from_hex")} <= wrapped
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
