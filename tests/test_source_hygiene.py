"""The package's sources, read with ast: every name a module imports is
used in that module, every module-level private function or class is
referenced somewhere in the package besides its definition, and every
public one is read by the package or the benchmark.  The package neither
names nor loads scipy."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ogrlab"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
BENCH_TREES = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]

# public names that no code reads yet, each with the reason it stays
UNREAD_PUBLIC = {
    "orthopositroids.tau_solution":
        "the exact (a, c) of the n = 2k + 1 bridge family; ROADMAP item 6 "
        "builds the exact cell points on it",
}


def quoted(tree: ast.Module):
    """The expressions written as strings: string annotations and the
    entries of __all__."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a]
            notes = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            notes = getattr(node.value, "elts", [])
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield ast.parse(note.value, mode="eval")


def names_read(tree: ast.Module) -> set[str]:
    """The names the module reads: loaded names and attribute names, in
    its code and in its quoted expressions."""
    out = set()
    for root in [tree, *quoted(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def imported_names(tree: ast.Module):
    """(bound name, line) of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = names_read(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_definition_is_referenced(module):
    # a name imported from another module counts as a reference
    referenced = set().union(*(names_read(tree) for tree in TREES.values()))
    referenced |= {name for tree in TREES.values() for name, _ in imported_names(tree)}
    private = [node.name for node in TREES[module].body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    unreferenced = [name for name in private if name not in referenced]
    assert not unreferenced, f"{module} defines private names nothing reads: {unreferenced}"


def dotted_parts(tree: ast.Module):
    """Each part of the dotted names written as strings, as the tracer's
    "ideal_gens.TermOrder.leading_monomial": these are read by getattr."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) > 1 and all(p.isidentifier() for p in parts):
                yield from parts


def public_definitions():
    """(module name, name) of each module-level public function or class."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield module.removesuffix(".py"), node.name


def test_every_public_definition_is_read():
    trees = [*TREES.values(), *BENCH_TREES]
    read = set().union(*(names_read(tree) for tree in trees))
    read |= {part for tree in trees for part in dotted_parts(tree)}
    unread = sorted(f"{module}.{name}" for module, name in public_definitions()
                    if name not in read and f"{module}.{name}" not in UNREAD_PUBLIC)
    assert not unread, f"public names that neither src/ nor perfbench/ reads: {unread}"


def test_unread_allowlist_is_current():
    # each entry names a definition that exists, so a deleted or renamed one
    # leaves the list
    defined = {f"{module}.{name}" for module, name in public_definitions()}
    assert set(UNREAD_PUBLIC) <= defined


def test_no_source_names_scipy():
    files = [*sorted(SRC.glob("*.py")), ROOT / "pyproject.toml"]
    assert [path.name for path in files if "scipy" in path.read_text()] == []


def test_import_and_a_sweep_leave_scipy_unloaded():
    # scipy may be installed (the benchmark prints its version), but the
    # package, its CLI and a cell solve run on numpy alone
    code = ("import sys, ogrlab, ogrlab.cli\n"
            "from ogrlab.orthopositroids import dims_report\n"
            "assert dims_report(2, 4)['resolved'] == 3\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
