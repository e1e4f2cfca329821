"""Rules on the source text of src/eurnoise."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "eurnoise"
WORKLOADS = SRC.parents[1] / "bench" / "workloads.py"
README = SRC.parents[1] / "README.md"
MAX_LINE = 99
ORACLES = "eurnoise.oracles"
# the closed forms an oracle checks, besides every name containing "xstate_";
# "factors" is ChannelSpec.factors, the one closed-form channel map
CLOSED_FORMS = {
    "factors",
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
    "x_state_density",
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
        "concurrence", "discord", "complementarity",
    ),
    "states": ("bd_to_density",),
}
# names deleted outright: a Pauli pair is two axis integers, c = 1/2 a constant;
# U, U_b, D, E and M are the columns of metrics.xstate_columns (no writer into a caller's
# table, no second checked route to E, no U method on the entropies), and
# metrics.check_pair is the pair rule;
# the brute force is one real Bloch-form route, not kets and 2x2 eigenvalues;
# ChannelSpec.factors is the one closed-form channel map; rho_AB's spectrum is
# built in xstate_lower_bound_Ub alone, and the Bell weights are written out; the damping
# factors are one exp over a (..., 3) block, so no helper stacks columns, and pd's factors
# take no detour through a phase-flip eta; check_bd's Python-float test is linalg._within
DELETED = (
    "PauliObservable", "pauli_observable", "_EIGENBASES",
    "uncertainty_U_bd", "lower_bound_Ub_bd", "minimal_missing_info_bd", "discord_bd",
    "xstate_uncertainty_U", "xstate_minimal_missing_info", "_check_pair",
    "_measurement_kets", "_avg_conditional_entropy",
    "amplitude_damping_factors", "unchecked_map", "_joint_spectrum", "_SIGNS", "_stack_last",
    "_xstate_columns", "xstate_concurrence", "uncertainty", "_pd_eta", "_few_inside",
)
# the brute-force route for M, in metrics until the benchmark is repointed at the oracles
BRUTE_FORCE = (
    "_check_density", "_pauli_correlations", "_conditional_entropy", "_fold_angles",
    "minimal_missing_info_bruteforce",
)
# the only runtime names eurnoise.oracles may import
ORACLE_IMPORTS = {
    "DomainError", "shannon_entropy", "ChannelSpec", "ObservablePair",
    "minimal_missing_info_bruteforce",
}
# the two checked entropy kernels, and the only modules that may name them
ENTROPY_KERNELS = ("binary_entropy", "shannon_entropy")
ENTROPY_CALLERS = {"linalg", "metrics", "oracles"}
# the closed-form channel map, ChannelSpec.factors, without the checks of evolve
CHANNEL_MAP = "factors"
# its callers: evolve after its checks, a sweep whose config checked its inputs, and
# the scenarios' module constants, each built from strengths that went through check
CHANNEL_MAP_SITES = {"channels.evolve", "scenarios.run_time_sweep", "scenarios.<module>"}
# the real-input rule: caller input becomes float in linalg.as_real only, and the one
# "must be a scalar" message is its scalar form's; the oracles keep their own conversions
FLOAT_CONVERSION_SITES = ["linalg.as_real"]
SCALAR_RULE_SITES = ["linalg._as_scalar"]
FLOAT_NAMES = {"float", "float64", "double", "float_", "f8", "<f8", "d"}
# a caller's density becomes complex in metrics._check_density only, after its kind check;
# states.x_state_density converts the diagonal it has just computed from r and t, where
# the arithmetic already raised on text or None
COMPLEX_CONVERSION_SITES = ["metrics._check_density", "states.x_state_density"]
COMPLEX_NAMES = {"complex", "complex128", "cdouble", "complex_", "c16", "<c16", "D"}
# the steps of a checked entropy, in linalg: each kernel's checks and p log2 p
PASS_STEPS = ("_check_binary", "_check_distribution", "_plogp")
# np.errstate hides a floating-point warning: only the ordered sum of
# linalg.shannon_entropy, which lets an overflow read inf and names it, and the
# sweep grid of SweepConfig, which rejects an overflow, may use it
ERRSTATE_SITES = ["linalg._sum_last", "scenarios.__post_init__"]
# the 12-decimal CSV format is written once, in the writer's module-level constant
# scenarios._CELL; the one-line classify report is the one other place
FIXED12_SITES = ["cli._cmd_classify", "scenarios.<module>"]
SCRIPTS = SRC.parents[1] / "scripts"
# the functions that carry a sweep, a surface or a classification as arrays, by module stem
TABLE_PATHS = {
    "scenarios": {"run_time_sweep", "sample_spmc_surface", "emit_csv", "classify_longtime_ad"},
    "cli": {"_cmd_surface"},
    "longtime_geometry": {"run"},
}
# the calls that turn a table into per-point Python objects, or back
RECORD_BUILDERS = ("tolist", "fromiter", "_make")
# the one place that builds records: the two readers of scenarios.Rows
RECORD_MAKERS = {("scenarios", "__getitem__"), ("scenarios", "__iter__")}
# the runtime modules that may name the state record: its home, and the two that hand
# records to the benchmark (channels.evolve_bd_flip; a surface's rows and the unital
# report's counterexample_state); a state is otherwise a (3,) sequence or array
RECORD_MODULES = {"states", "channels", "scenarios"}
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
    for scope, node in scoped_nodes(tree):
        if isinstance(node, ast.Name) and node.id == name:
            yield scope


def scoped_nodes(tree):
    """(innermost enclosing function name or "<module>", node) for every node."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
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


def test_gc_is_imported_nowhere():
    # sweeps and surfaces build no per-point objects, so no code pauses or tunes
    # the cyclic GC for them
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 8, f"sources missing under {SRC}"
    imports = [
        f"{path.name}: {m}"
        for path in paths
        for m in imported_modules(parse(path))
        if m.split(".")[0] == "gc"
    ]
    assert not imports, f"gc imported in {imports}"


def test_the_sweep_and_surface_paths_build_no_records():
    # a sweep or a surface goes to its CSV as one float table, and a classification
    # comes back as numpy columns; only scenarios.Rows builds per-point records,
    # when a caller reads them
    found, sites = set(), []
    for path in sorted(SRC.glob("*.py")) + [SCRIPTS / "longtime_geometry.py"]:
        table_paths = TABLE_PATHS.get(path.stem, set())
        for scope, node in scoped_nodes(parse(path)):
            if isinstance(node, ast.FunctionDef) and node.name in table_paths:
                found.add(f"{path.stem}.{node.name}")
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if scope in table_paths and name in RECORD_BUILDERS:
                sites.append(f"{path.stem}.{scope}: {name}")
            if name == "_make" and (path.stem, scope) not in RECORD_MAKERS:
                sites.append(f"{path.stem}.{scope}: _make")
    want = {f"{stem}.{scope}" for stem, scopes in TABLE_PATHS.items() for scope in scopes}
    assert found == want, f"table paths not found: {sorted(want - found)}"
    assert not sites, f"records built outside Rows: {sites}"


def test_only_the_record_modules_name_the_state_record():
    runtime = sorted(p for p in SRC.glob("*.py") if p.name != "oracles.py")
    users = {p.stem for p in runtime if "BellDiagonalState" in set(referenced_names(parse(p)))}
    assert "channels" in users  # the walk sees the imports
    assert users <= RECORD_MODULES, f"BellDiagonalState named in {sorted(users - RECORD_MODULES)}"


def test_a_dataclass_only_where_construction_checks():
    # a type that checks nothing when it is made is a typing.NamedTuple
    classes, unchecked = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in set(referenced_names(d)) for d in node.decorator_list
            ):
                classes.append(f"{path.stem}.{node.name}")
                if not any(getattr(n, "name", None) == "__post_init__" for n in node.body):
                    unchecked.append(classes[-1])
    assert "scenarios.SweepConfig" in classes  # the walk sees the decorators
    assert not unchecked, f"dataclasses that check nothing when made: {unchecked}"


def test_the_axis_rule_is_written_once():
    # `x in (1, 2, 3)` belongs to linalg.is_axis; every other caller calls it
    sites = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(parse(path))
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        and any(
            isinstance(c, (ast.Tuple, ast.Set, ast.List))
            and {getattr(e, "value", None) for e in c.elts} == {1, 2, 3}
            for c in node.comparators
        )
    ]
    assert sites == ["linalg.is_axis"], f"the axis rule is written out at {sites}"


def test_the_pair_rule_is_written_once():
    # `isinstance(pair, ObservablePair)` belongs to metrics.check_pair; every
    # other entry point that takes a pair calls it
    sites = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(parse(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "isinstance"
        and any("ObservablePair" in set(referenced_names(arg)) for arg in node.args[1:])
    ]
    assert sites == ["metrics.check_pair"], f"the pair rule is written out at {sites}"


def test_only_checked_inputs_reach_the_channel_map():
    # ChannelSpec.factors skips the strength check and never sees a state: evolve
    # runs both checks, a sweep's config ran them at construction, and the module
    # constants of scenarios pass each grid through ChannelSpec.check
    sites = {
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(parse(path))
        if CHANNEL_MAP in {getattr(node, "attr", None), getattr(node, "id", None)}
    }
    assert sites == CHANNEL_MAP_SITES, sorted(sites)


def test_the_damping_channels_share_one_exp():
    # pd is amplitude damping's formula with f3 = e^0 = 1, not the phase flip at an eta;
    # pd_equivalent_eta keeps its own exp for the callers of that eta
    sites = sorted(
        scope
        for scope, node in scoped_nodes(parse(SRC / "channels.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "exp"
    )
    assert sites == ["factors", "pd_equivalent_eta"], sites


def test_errstate_only_in_the_ordered_sum_and_the_sweep_grid():
    # the fast tests of the entropy kernels bound every entry by 1, so no sum
    # they take can overflow and none needs errstate
    sites = sorted(
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(parse(path))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and "errstate" in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "name", None))
    )
    assert sites == ERRSTATE_SITES, sites


def test_the_12_decimal_format_is_written_once():
    # every CSV goes through scenarios.csv_body: a second "%.12f" or ":.12f" in the
    # package or the scripts is a second writer; docstrings may name the format
    paths = sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len(paths) >= 9, f"sources missing under {SRC} or {SCRIPTS}"
    sites = []
    for path in paths:
        tree = parse(path)
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
        }
        sites += [
            f"{path.stem}.{scope}"
            for scope, node in scoped_nodes(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
            and (".12f" in node.value if isinstance(node.value, str) else b".12f" in node.value)
            and id(node) not in docstrings
        ]
    assert sites.count("scenarios.<module>") == 1, sites
    assert sorted(set(sites)) == FIXED12_SITES, sites


def test_entropy_kernels_are_named_only_in_metrics_linalg_and_oracles():
    users = {
        path.stem
        for path in sorted(SRC.glob("*.py"))
        if set(ENTROPY_KERNELS) & set(referenced_names(parse(path)))
    }
    assert "metrics" in users  # the walk sees the calls
    assert users <= ENTROPY_CALLERS, f"entropy kernels named outside {ENTROPY_CALLERS}: {users}"


def dtype_spelled(node):
    """The dtype name node spells: "float" for float, "float64" for np.float64, "f8"."""
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "value", None)
    return name if isinstance(name, str) else None


def conversion_to(node, names) -> bool:
    """Whether node is a dtype= keyword or an astype call naming a dtype in names."""
    if isinstance(node, ast.keyword) and node.arg == "dtype":
        return dtype_spelled(node.value) in names
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype"
            and any(dtype_spelled(a) in names for a in node.args))


def test_the_real_input_rule_is_written_once():
    # a dtype=float or astype(float) conversion reads numeric text as numbers and drops
    # imaginary parts, and a complex one reads numeric text too; linalg.as_real is the one
    # place input becomes float, metrics._check_density the one place a density becomes
    # complex, and as_real's scalar form the one place that asks for one number
    runtime = sorted(p for p in SRC.glob("*.py") if p.name != "oracles.py")
    conversions, complex_conversions, scalar_checks = [], [], []
    for path in runtime:
        for scope, node in scoped_nodes(parse(path)):
            if conversion_to(node, FLOAT_NAMES):
                conversions.append(f"{path.stem}.{scope}")
            elif conversion_to(node, COMPLEX_NAMES):
                complex_conversions.append(f"{path.stem}.{scope}")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "must be a scalar" in node.value):
                scalar_checks.append(f"{path.stem}.{scope}")
    assert conversions == FLOAT_CONVERSION_SITES, f"float conversions at {conversions}"
    assert complex_conversions == COMPLEX_CONVERSION_SITES, complex_conversions
    assert scalar_checks == SCALAR_RULE_SITES, f"scalar checks written out at {scalar_checks}"


def test_the_cli_builds_a_sweep_at_one_site():
    # a preset is a sweep whose arguments are parser defaults, so _cmd_sweep alone
    # builds a SweepConfig, runs it and writes its CSV
    sites = sorted(
        f"{scope}: {node.id}"
        for scope, node in scoped_nodes(parse(SRC / "cli.py"))
        if isinstance(node, ast.Name) and node.id in ("SweepConfig", "run_time_sweep", "emit_csv")
    )
    assert sites == [
        "_cmd_sweep: SweepConfig", "_cmd_sweep: emit_csv", "_cmd_sweep: run_time_sweep"
    ], sites


def test_the_boundary_band_is_written_once():
    # both verdicts on U_b, classify's and the unital check's, read one band
    tree = parse(SRC / "scenarios.py")
    bands = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9
    ]
    assert [ast.unparse(node) for node in bands] == ["1e-09"]
    lines = [line for line in (SRC / "scenarios.py").read_text().splitlines() if "1e-9" in line]
    assert len(lines) == 1 and lines[0].startswith("BOUNDARY_BAND = 1e-9"), lines
    users = set(enclosing_defs(tree, "BOUNDARY_BAND"))
    assert users == {"<module>", "classify_longtime_ad", "property_check_unital"}, users


def test_the_cli_spells_no_column_name():
    # the column names live in metrics.COLUMNS, which scenarios.ALL_COLUMNS is; the CLI's
    # defaults and help join it.
    # A column name alone, or two or more joined by commas, is a column list written out
    # (check-unital's "Ub" label inside its report line is not)
    columns = importlib.import_module("eurnoise.scenarios").ALL_COLUMNS
    name = "(?:" + "|".join(columns) + ")"
    column_list = re.compile(rf"^{name}$|(?<![\w,]){name}(?:,{name})+(?![\w,])")
    spelled = [
        node.value for node in ast.walk(parse(SRC / "cli.py"))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and column_list.search(node.value)
    ]
    assert not spelled, f"column names spelled in cli.py: {spelled}"


# a module-qualified name in the README: `cli.main`, `eurnoise.oracles.concurrence`,
# `scenarios.Rows.table`; not a file name such as `scenarios.py`
README_NAME = re.compile(
    r"(?<![\w./])(?:eurnoise\.)?(linalg|states|channels|metrics|scenarios|cli|oracles)"
    r"\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
)


def test_the_names_the_readme_qualifies_resolve():
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    names = {
        match.groups()
        for span in re.findall(r"`([^`]+)`", text)
        for match in README_NAME.finditer(span)
        if match.group(2) != "py"
    }
    assert ("scenarios", "FIG_STATE") in names  # the scan sees the names
    missing, absent = [], object()
    for module, path in sorted(names):
        obj = importlib.import_module(f"eurnoise.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(f"{module}.{path}")
    assert not missing, f"README names that resolve nowhere: {missing}"


def test_metrics_takes_the_sweep_entropies_in_one_pass():
    # the X core's one pass takes every entropy of a sweep or of xstate_entropies in one
    # p log2 p call, under the kernels' own checks, and calls no kernel; U_b keeps its one
    # Shannon call for a batch classify and the unital check, and its Python-float form,
    # _ub_floats, the one _entropy_floats call; the witness's H_bin of the initial state
    # keeps its own call, and so does the brute-force oracle, which stays in metrics
    # until the benchmark is repointed
    tree = parse(SRC / "metrics.py")
    called = (*ENTROPY_KERNELS, "xstate_lower_bound_Ub", "_xstate_pass", *PASS_STEPS,
              "_entropy_floats", "_ub_floats")
    calls = sorted(
        (scope, node.func.id)
        for scope, node in scoped_nodes(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in called
    )
    assert calls == [
        ("_conditional_entropy", "binary_entropy"),
        ("_ub_floats", "_entropy_floats"),
        ("_xstate_pass", "_check_binary"),
        ("_xstate_pass", "_check_distribution"),
        ("_xstate_pass", "_plogp"),
        ("witness_discord_from_U", "binary_entropy"),
        ("xstate_columns", "_xstate_pass"),
        ("xstate_entropies", "_xstate_pass"),
        ("xstate_lower_bound_Ub", "_ub_floats"),
        ("xstate_lower_bound_Ub", "shannon_entropy"),
    ], calls


def test_each_kernel_check_is_written_once():
    # the fast tests, ordered checks and p log2 p live in linalg; each kernel and the
    # X core's pass call them, so the messages and clamps cannot drift apart. One range
    # test, with its Python-float path for tiny arrays and lists, serves the unit test, the
    # ordered checks' search and the float U_b's one test; the pass decides its block with
    # one unit test, and only the Shannon kernel's fast test sums rows; check_bd decides
    # its Python-float weights and its array of weights with the same range test
    sites = sorted(
        f"{path.stem}.{scope}: {node.func.id}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(parse(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("_within", "_in_unit", "_sums_near_one", *PASS_STEPS)
    )
    assert sites == [
        "linalg._check_binary: _in_unit",
        "linalg._check_distribution: _in_unit",
        "linalg._check_distribution: _sums_near_one",
        "linalg._entropy_floats: _within",
        "linalg._first_outside: _within",
        "linalg._in_unit: _within",
        "linalg.binary_entropy: _check_binary",
        "linalg.binary_entropy: _plogp",
        "linalg.binary_entropy: _plogp",
        "linalg.shannon_entropy: _check_distribution",
        "linalg.shannon_entropy: _plogp",
        "metrics._xstate_pass: _check_binary",
        "metrics._xstate_pass: _check_distribution",
        "metrics._xstate_pass: _in_unit",
        "metrics._xstate_pass: _plogp",
        "states.check_bd: _within",
        "states.check_bd: _within",
    ], sites


def _forms_u(node) -> bool:
    """Whether node adds the entries at pair.q - 1 and pair.r - 1: U = S(sigma_q|B) +
    S(sigma_r|B), as a + or as np.add. spmc_holds multiplies two such entries, and the
    surface writes its axes at them; neither forms U."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        operands = [node.left, node.right]
    elif isinstance(node, ast.Call) and ast.unparse(node.func) == "np.add":
        operands = node.args[:2]
    else:
        return False
    slices = [ast.unparse(a.slice) for a in operands if isinstance(a, ast.Subscript)]
    return slices == ["pair.q - 1", "pair.r - 1"]


def test_each_column_is_formed_once():
    # M = min(M_x, M_z) belongs to XStateEntropies.m; U for a pair and D = M - (U_b - 1) to
    # metrics.xstate_columns, which reads M from .m; the five column names are one literal,
    # metrics.COLUMNS, which the sweep's CSV and the CLI read
    names = set(importlib.import_module("eurnoise.metrics").COLUMNS)
    assert names == {"U", "Ub", "D", "E", "M"}
    sites = {"min": [], "U": [], "D": [], "names": []}
    for path in sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        for scope, node in scoped_nodes(parse(path)):
            site = f"{path.stem}.{scope}"
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.minimum"
                    and [ast.unparse(a).rsplit(".", 1)[-1] for a in node.args[:2]]
                    == ["m_x", "m_z"]):
                sites["min"].append(site)
            if _forms_u(node):
                sites["U"].append(site)
            if isinstance(node, ast.BinOp) and ast.unparse(node) == "u_b - 1.0":
                sites["D"].append(site)
            if isinstance(node, ast.Constant) and node.value in names:
                sites["names"].append(f"{site}: {node.value}")
    assert sites == {
        "min": ["metrics.m"],
        "U": ["metrics.xstate_columns"],
        "D": ["metrics.xstate_columns"],
        "names": [f"metrics.<module>: {name}" for name in ("U", "Ub", "D", "E", "M")],
    }, sites


def _sum_terms(node) -> list[str]:
    """The terms of a chain of + and -, as source text."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _sum_terms(node.left) + _sum_terms(node.right)
    return [ast.unparse(node)]


def test_the_bell_weights_are_written_once():
    # 1 +- c1 +- c2 +- c3 belongs to states._weights; check_bd's Python-float fast test
    # and the array path (check_bd's naming of a bad state, is_valid, bell_eigenvalues)
    # call it, so the two paths cannot drift apart
    tree = parse(SRC / "states.py")
    written = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(parse(path))
        if isinstance(node, ast.BinOp) and sorted(_sum_terms(node)) == ["1", "c1", "c2", "c3"]
    ]
    assert written == ["states._weights"] * 4, written
    calls = sorted(
        scope
        for scope, node in scoped_nodes(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_weights"
    )
    assert calls == ["_four_weights", "check_bd"], calls


def test_the_correlation_shape_rule_is_written_once():
    # (..., 3) belongs to states._correlations: the states and the X core's T take it there,
    # each under its own name, so the two messages cannot drift apart
    sites = [
        f"{path.stem}.{scope}"
        for path in sorted(SRC.glob("*.py"))
        for scope, node in scoped_nodes(parse(path))
        if isinstance(node, ast.Compare) and ast.unparse(node).endswith("shape[-1:] != (3,)")
    ]
    assert sites == ["states._correlations"], sites


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


def test_the_brute_force_in_metrics_names_no_closed_form():
    # the brute force is the oracle for every closed-form M: its functions name no
    # closed form and call no other function of metrics
    tree = parse(SRC / "metrics.py")
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert set(BRUTE_FORCE) <= set(defs), sorted(set(BRUTE_FORCE) - set(defs))
    names = {name for f in BRUTE_FORCE for name in referenced_names(defs[f])}
    assert "_conditional_entropy" in names  # the walk sees the calls
    used = sorted(
        n for n in names
        if "xstate_" in n or n in CLOSED_FORMS or (n in defs and n not in BRUTE_FORCE)
    )
    assert not used, f"the brute force names closed forms or other metrics functions: {used}"


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


def test_deleted_names_resolve_nowhere():
    modules = [importlib.import_module("eurnoise")] + [
        importlib.import_module(f"eurnoise.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem not in ("__init__", "oracles")
    ]
    assert len(modules) >= 7, f"runtime modules missing under {SRC}"
    # the classes each module defines, so that a deleted method cannot come back either
    owners = modules + [
        v for m in modules for v in vars(m).values()
        if isinstance(v, type) and v.__module__ == m.__name__
    ]
    assert any(getattr(o, "__name__", None) == "ChannelSpec" for o in owners)
    left = [f"{o.__name__}.{name}" for o in owners for name in DELETED if hasattr(o, name)]
    assert not left, f"deleted names still resolve: {left}"


def test_oracles_import_only_the_allowed_runtime_names():
    imported = set()
    for node in ast.walk(parse(SRC / "oracles.py")):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "eurnoise"}
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "eurnoise"
        ):
            imported |= {alias.name for alias in node.names}
    assert "minimal_missing_info_bruteforce" in imported  # the walk sees the imports
    extra = sorted(imported - ORACLE_IMPORTS)
    assert not extra, f"oracles.py imports runtime names beyond the allow-list: {extra}"


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
