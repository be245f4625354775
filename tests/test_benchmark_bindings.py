"""The benchmark under perfbench/ reaches into ogrlab by name: its tracer
wraps functions and methods by dotted path, and its workloads clear
lru_caches, patch functions and pass keywords to dims_report.  These tests
read those files with ast, without running them, and check that every such
name still resolves, so that a change to the package that would break a
benchmark run fails here first."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

from ogrlab import orthopositroids

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def parse(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def assigned(tree: ast.Module, name: str) -> ast.expr:
    """The value of the module-level assignment to name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no module-level assignment to {name}")


def resolve(path: str):
    """The object at a dotted path 'module.attr...' under ogrlab."""
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"ogrlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def tracer_paths() -> list[str]:
    """The traced attributes of every entry of tracer.py's SPECS."""
    specs = assigned(parse("tracer.py"), "SPECS")
    return [path for spec in specs.elts for path in ast.literal_eval(spec.elts[1])]


def ogrlab_reads(name: str) -> list[str]:
    """Each attribute the file reads off a name it imports from ogrlab, as
    a dotted path under ogrlab."""
    tree = parse(name)
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ogrlab":
            package = node.module.split(".")[1:]
            for alias in node.names:
                roots[alias.asname or alias.name] = ".".join(package + [alias.name])
    return [f"{roots[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in roots]


@pytest.mark.parametrize("path", tracer_paths())
def test_tracer_paths_resolve(path):
    owner_path, _, name = path.rpartition(".")
    owner = resolve(owner_path)
    if isinstance(owner, type):
        # the tracer patches a method on the class that defines it
        assert name in vars(owner)
    assert callable(getattr(owner, name))


@pytest.mark.parametrize("path", sorted(set(ogrlab_reads("workloads.py"))
                                        | set(ogrlab_reads("check_benchmark.py"))))
def test_benchmark_reads_resolve(path):
    resolve(path)


def test_workload_caches_can_be_cleared():
    caches = assigned(parse("workloads.py"), "CACHES").elts
    assert caches
    for node in caches:
        cache = resolve(ast.unparse(node))
        assert callable(cache.cache_clear) and callable(cache.cache_info)


def test_time_each_targets_resolve():
    calls = [node for node in ast.walk(parse("workloads.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "_time_each"]
    assert calls
    for call in calls:
        owner, name = call.args[:2]
        assert callable(getattr(resolve(ast.unparse(owner)), ast.literal_eval(name)))


def test_dims_report_accepts_the_pinned_keywords():
    cell_dims = assigned(parse("workloads.py"), "CELL_DIMS")
    keywords = {kw.arg: ast.literal_eval(kw.value) for kw in cell_dims.keywords}
    assert keywords
    inspect.signature(orthopositroids.dims_report).bind(2, 6, seed=0, **keywords)
