"""Package-level contracts: no dead imports in ``src/chns`` or ``tests``, no
unread parameters in ``src/chns``, no top-level name without a caller, no
``scipy`` in any command, no ``numpy.random`` outside ``chns check``, and
the names the benchmark harness in
``perfbench/`` looks up on the package and counts its steps by."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import chns
from chns import coupled, stationary
from chns.chd import nonlocal_potential
from chns.cli import main, parse_config
from chns.grid import GridSpec, ScalarField

PACKAGE_DIR = Path(chns.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
BENCH_DIR = TESTS_DIR.parent / "perfbench"
TRACING = BENCH_DIR / "tracing.py"


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


def unread_parameters(path):
    """``(function, parameter)`` for each parameter of a function in ``path``
    that the function body, nested functions included, never reads.

    Names starting with ``_`` are exempt.
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
        read = {
            n.id
            for statement in node.body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (node.name, arg.arg)
            for arg in params
            if arg.arg not in read and not arg.arg.startswith("_")
        ]
    return found


# perfbench/child.py passes a SolverConfig to nonlocal_potential; ROADMAP
# item 1 drops the parameter together with the benchmark's use of it
PINNED_UNREAD = {("chd", "nonlocal_potential", "cfg")}


def test_no_unread_parameters():
    found = [
        f"{path.stem}.{function}({param})"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for function, param in unread_parameters(path)
        if (path.stem, function, param) not in PINNED_UNREAD
    ]
    assert not found, "parameters never read: " + ", ".join(found)


def references(tree, skip=None):
    """The identifiers ``tree`` reads as a bare name or an attribute,
    leaving out those inside the node ``skip``."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in inside
    }


def definition(tree, name):
    """The top-level statement of ``tree`` that defines ``name``, if any."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


def top_level_names(tree):
    """The names ``tree`` defines at module level by ``def``, ``class`` or
    assignment, leaving out dunders such as ``__all__``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_public_name_has_a_caller():
    # every top-level name of a module, private ones included, is used by
    # src/chns outside its own definition, or by the benchmark harness,
    # which pins some by name
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    bench = "\n".join(path.read_text() for path in sorted(BENCH_DIR.glob("*.py")))
    found = []
    for stem, tree in trees.items():
        for name in top_level_names(tree):
            own = definition(tree, name)
            used = any(
                name in references(other, own if other is tree else None)
                for other in trees.values()
            )
            if not used and not re.search(rf"\b{re.escape(name)}\b", bench):
                found.append(f"{stem}.{name}")
    assert not found, "top-level names nothing in src/chns or perfbench/ uses: " + ", ".join(found)


def modules_after(prefix, code, *args):
    """The modules named ``prefix`` or below it (``prefix.*``) that are
    loaded once ``code`` ran in a fresh interpreter with ``args`` as
    ``sys.argv[1:]``."""
    code += (
        "\nprint(sorted(name for name, module in sys.modules.items()\n"
        f"             if module is not None and (name + '.').startswith({prefix + '.'!r})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.stdout.splitlines()[-1]


def test_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, every
    # command still runs to completion
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        "from chns.cli import main\n"
        "out = sys.argv[1]\n"
        "grid = ['--set', 'grid.nx=16', '--set', 'grid.ny=16']\n"
        "march = ['--set', 'time.t_end=0.02', '--set', 'output.cadence=4', '--out', out]\n"
        "assert main(['run', *grid, *march]) == 0\n"
        "assert main(['stationary', *grid, '--seed-snapshot', out + '/final.bin']) == 0\n"
        "assert main(['ratefit', '--snapshots', out, '--equilibrium', out + '/equilibrium.bin']) == 0\n"
        "assert main(['check', *grid]) == 0\n"
    )
    assert modules_after("scipy", code, str(tmp_path / "out")) == "[]"
    assert (tmp_path / "out" / "ledger.csv").exists()
    assert (tmp_path / "out" / "equilibrium.bin").exists()


def test_tracer_does_not_import_scipy():
    # the tracer looks up every WRAPS name, the placeholders included
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('perfbench_tracing', sys.argv[1])\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracing.Tracer().install()\n"
    )
    assert modules_after("scipy", code, str(TRACING)) == "[]"


def test_commands_run_without_numpy_random(tmp_path):
    # the seeded noise comes from coupled._Pcg64, so with numpy.random
    # unimportable run (noise-seeded and droplet), stationary and ratefit
    # still finish; chns check is the one command allowed to load
    # numpy.random, for its standard-normal probe arrays, and is left out
    code = (
        "import sys\n"
        "sys.modules['numpy.random'] = None  # any numpy.random import now raises ImportError\n"
        "from chns.cli import main\n"
        "out, drop = sys.argv[1:3]\n"
        "grid = ['--set', 'grid.nx=16', '--set', 'grid.ny=16']\n"
        "march = ['--set', 'time.t_end=0.02', '--set', 'output.cadence=4']\n"
        "assert main(['run', *grid, *march, '--out', out]) == 0\n"
        "assert main(['run', *grid, *march, '--set', 'scenario.name=droplet', '--out', drop]) == 0\n"
        "assert main(['stationary', *grid, '--seed-snapshot', out + '/final.bin']) == 0\n"
        "assert main(['ratefit', '--snapshots', out, '--equilibrium', out + '/equilibrium.bin']) == 0\n"
    )
    out, drop = tmp_path / "out", tmp_path / "droplet"
    assert modules_after("numpy.random", code, str(out), str(drop)) == "[]"
    assert (out / "equilibrium.bin").exists()
    assert (drop / "final.bin").exists()


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


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` with a call counter, the way the benchmark's
    step clocks do (perfbench/child.py), and return the count's list."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_benchmark_step_clocks_see_every_step(tmp_path, monkeypatch, capsys):
    # the benchmark counts one step per coupled_step call and one
    # pseudo-step per _newton_solve call, each looked up on its module; a
    # run that bypassed either name would read 0 steps per second
    steps = count_calls(monkeypatch, coupled, "coupled_step")
    newton = count_calls(monkeypatch, stationary, "_newton_solve")
    grid = ["--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "time.dt=0.02"]
    out = tmp_path / "out"
    assert main(["run", *grid, "--set", "time.t_end=0.1", "--out", str(out)]) == 0
    assert len(steps) == 5

    seed = tmp_path / "seed"
    assert main(["run", *grid, "--set", "time.t_end=0.0", "--out", str(seed)]) == 0
    capsys.readouterr()
    argv = ["stationary", *grid, "--seed-snapshot", str(seed / "final.bin")]
    assert main(argv) == 0
    iterations = int(re.search(r"after (\d+) iterations", capsys.readouterr().out)[1])
    assert iterations > 0 and len(newton) == iterations
