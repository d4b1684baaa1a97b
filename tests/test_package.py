"""Package-level contracts: no dead imports in ``src/chns`` or ``tests``,
and the names the benchmark harness in ``perfbench/`` looks up on the
package."""

import ast
import importlib
import importlib.util
from pathlib import Path

import chns
from chns.chd import nonlocal_potential
from chns.cli import parse_config
from chns.grid import GridSpec, ScalarField

PACKAGE_DIR = Path(chns.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
TRACING = TESTS_DIR.parent / "perfbench" / "tracing.py"


def unused_imports(path):
    """``(line, name)`` of each name ``path`` imports and never references.

    Names listed in ``__all__`` count as used, and so do imports on a
    statement carrying ``# noqa: F401``.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used | exported
    )


def test_no_unused_imports():
    found = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for directory in (PACKAGE_DIR, TESTS_DIR)
        for path in sorted(directory.glob("*.py"))
        for line, name in unused_imports(path)
    ]
    assert not found, "imported but never used: " + ", ".join(found)


def test_benchmark_import_contract():
    # perfbench/tracing.py patches each WRAPS entry by name, and
    # perfbench/child.py recomputes the stationary residual with
    # nonlocal_potential(phi, cfg.solver)[0]
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"chns.{module}.{attr}"
        for module, attr, _, _ in tracing.WRAPS
        if not hasattr(importlib.import_module(f"chns.{module}"), attr)
    ]
    assert not missing, "names the benchmark tracer patches are gone: " + ", ".join(missing)

    solver = parse_config(None).solver
    spec = GridSpec(4, 4)
    phi = ScalarField(spec, spec.cell_centers()[0])
    assert isinstance(nonlocal_potential(phi, solver)[0], ScalarField)
    assert solver.rel_tol > 0.0
