"""The benchmark reads library names at run time: the tracer rebinds traced
functions by name, and the workloads and the path recount call the library
through module attributes and ``from zsgdual... import`` lists. A refactor
that renames or deletes one of these names must fail here instead of at
``perfbench/run.py``."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"zsgdual.{layer}"), name, None))
    ]
    assert tracing.TRACED and not missing


def library_names(source: str) -> list[tuple[str, str, str | None]]:
    """Every ``(module, name, keyword)`` a benchmark file reads from zsgdual:
    the names of its ``from zsgdual... import`` lists, each attribute it
    reads from a zsgdual module bound by such an import, and each keyword
    argument it passes to such an attribute (``keyword`` is None for the
    name itself)."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zsgdual"):
            for alias in node.names:
                names.append((node.module, alias.name, None))
                if node.module == "zsgdual":
                    modules[alias.asname or alias.name] = f"zsgdual.{alias.name}"

    def library_attribute(node) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    for node in ast.walk(tree):
        if library_attribute(node):
            names.append((modules[node.value.id], node.attr, None))
        if isinstance(node, ast.Call) and library_attribute(node.func):
            module = modules[node.func.value.id]
            names.extend((module, node.func.attr, kw.arg) for kw in node.keywords if kw.arg)
    return names


def resolves(module: str, name: str, keyword: str | None) -> bool:
    obj = getattr(importlib.import_module(module), name, None)
    if obj is None or keyword is None:
        return obj is not None
    params = inspect.signature(obj).parameters
    return keyword in params or any(p.kind is p.VAR_KEYWORD for p in params.values())


def test_every_library_name_the_benchmark_reads_resolves():
    read = {
        (path.name, *entry)
        for path in sorted(PERFBENCH.glob("*.py"))
        for entry in library_names(path.read_text())
    }
    missing = [
        f"{file}: {module}.{name}" + (f"({keyword}=...)" if keyword else "")
        for file, module, name, keyword in sorted(read, key=str)
        if not resolves(module, name, keyword)
    ]
    modules = {module for _, module, _, _ in read}
    recount = {("tracing.py", "zsgdual.duality", name, None)
               for name in ("scenario_rng", "inverse_cdf_transition", "simulate_q_path")}
    assert {"zsgdual.duality", "zsgdual.games", "zsgdual.cli"} <= modules
    assert recount <= read
    assert ("workloads.py", "zsgdual.solvers", "solve_view", "tol") in read
    assert not missing
