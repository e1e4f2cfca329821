"""Rules on the source text of src/eurnoise."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eurnoise"
WORKLOADS = SRC.parents[1] / "bench" / "workloads.py"
MAX_LINE = 99
ORACLES = "eurnoise.oracles"
# the closed forms an oracle checks, besides every name containing "xstate_"
CLOSED_FORMS = {
    "amplitude_damping_factors",
    "check_bd",
    "is_valid",
    "evolve_bd_flip",
    "evolve_bd_amplitude",
    "minimal_missing_info_bd",
    "minimal_missing_info_ad",
    "discord_bd",
    "uncertainty_U_bd",
    "lower_bound_Ub_bd",
    "bell_eigenvalues",
}

# names that live in eurnoise.oracles only, by the runtime module that once held them
MOVED = {
    "linalg": (
        "PAULI", "IDENTITY_2", "HERMITICITY_TOL", "EIGENVALUE_CLAMP", "PositivityError",
        "_as_matrix", "is_hermitian", "hermitian_eigenvalues", "von_neumann_entropy",
        "tensor_product", "partial_trace",
    ),
    "channels": (
        "ChannelError", "KrausChannel", "make_flip_channel", "make_phase_damping",
        "make_amplitude_damping", "is_unital", "apply_local_A",
    ),
    "metrics": (
        "post_measurement_state", "conditional_entropy", "uncertainty_U", "lower_bound_Ub",
        "concurrence", "discord",
    ),
}
# bench/workloads.py binds `ch, me, sc, st = _mods()` to these runtime modules
BENCH_ALIASES = {"ch": "channels", "me": "metrics", "sc": "scenarios", "st": "states"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(tree):
    """Every module an import statement in tree names, relative ones resolved
    against the eurnoise package; `from eurnoise import x` names eurnoise.x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "eurnoise" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def enclosing_defs(tree, name):
    """The innermost function around each use of the bare name in tree,
    "<module>" for a use outside every function."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == name:
                yield scope
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_def else scope)

    yield from visit(tree, "<module>")


def test_source_lines_fit_the_limit():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    long = [
        f"{path.name}:{n}"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, f"lines longer than {MAX_LINE} characters: {long}"


def test_gc_is_paused_only_by_the_surface_builder():
    # each pause of the cyclic GC is a measured case; a second site needs its own
    imports, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = parse(path)
        imports += [f"{path.name}: {m}" for m in imported_modules(tree) if m.split(".")[0] == "gc"]
        uses += [f"{path.stem}.{scope}" for scope in enclosing_defs(tree, "gc")]
    assert imports == ["scenarios.py: gc"], f"gc imported outside scenarios.py: {imports}"
    assert uses, "sample_spmc_surface no longer pauses the GC"
    assert set(uses) == {"scenarios.sample_spmc_surface"}, f"gc used elsewhere: {uses}"


def test_runtime_never_imports_the_oracles():
    runtime = sorted(p for p in SRC.glob("*.py") if p.name != "oracles.py")
    assert len(runtime) >= 7, f"runtime modules missing under {SRC}"
    offenders = [
        f"{path.name}: {module}"
        for path in runtime
        for module in imported_modules(parse(path))
        if module == ORACLES or module.startswith(ORACLES + ".")
    ]
    assert not offenders, f"runtime modules import the oracles: {offenders}"


def test_oracles_never_call_the_closed_forms():
    names = set(referenced_names(parse(SRC / "oracles.py")))
    assert "minimal_missing_info_bruteforce" in names  # the walk sees imports and calls
    used = sorted(n for n in names if "xstate_" in n or n in CLOSED_FORMS)
    assert not used, f"oracles.py references closed forms: {used}"


def test_cli_import_leaves_the_oracles_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = (
        "import sys, eurnoise.cli; print(eurnoise.__file__); "
        "print(*sorted(m for m in sys.modules if m.startswith('eurnoise')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    origin, modules = proc.stdout.splitlines()
    assert pathlib.Path(origin).resolve() == SRC / "__init__.py"
    assert "eurnoise.cli" in modules.split()
    assert ORACLES not in modules.split()


def test_moved_names_live_in_the_oracles_only():
    oracles = importlib.import_module(ORACLES)
    package = importlib.import_module("eurnoise")
    misplaced = [
        f"{module}.{name}"
        for module, names in MOVED.items()
        for name in names
        if not hasattr(oracles, name)
        or hasattr(importlib.import_module(f"eurnoise.{module}"), name)
        or hasattr(package, name)
    ]
    assert not misplaced, f"names not moved to {ORACLES}: {misplaced}"


def test_names_the_bench_reads_still_resolve():
    paths = {
        (BENCH_ALIASES[node.value.id], node.attr)
        for node in ast.walk(parse(WORKLOADS))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in BENCH_ALIASES
    }
    assert ("metrics", "minimal_missing_info_bruteforce") in paths
    missing = [
        f"{module}.{name}"
        for module, name in sorted(paths)
        if not hasattr(importlib.import_module(f"eurnoise.{module}"), name)
    ]
    assert not missing, f"names bench/workloads.py reads are gone: {missing}"
