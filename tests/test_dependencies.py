"""The package runs on numpy and the standard library alone, and builds and
draws from its random streams in one place each."""

import ast
import re
import sys
from pathlib import Path

import pytest

from readout_rebalance.rebalance import STRATEGIES

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "readout_rebalance").glob("*.py"))


def imported_roots(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    assert MODULES
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = {
        f"{path.name}: {root}"
        for path in MODULES for root in imported_roots(path) if root not in allowed
    }
    assert not outside


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    # each entry is a PEP 508 requirement: a distribution name, then its versions
    assert [re.match(r"[A-Za-z0-9._-]+", d).group() for d in dependencies] == ["numpy"]


# what building a numpy stream takes; core.py is the one module that does,
# seeding each PCG64 with state words of its own seed hash, _state_words
STREAM_NAMES = {"default_rng", "SeedSequence", "Generator", "PCG64", "ISeedSequence"}
# numpy's own seeding, which would be a second seed hash: no module uses it
NUMPY_SEEDING = {"default_rng", "SeedSequence"}


def named(source):
    """Every name and attribute the code of one source file, or of one parsed
    node, uses; docstrings and comments are not code and do not count."""
    if not isinstance(source, ast.AST):
        source = ast.parse(source.read_text(), filename=str(source))
    for node in ast.walk(source):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def test_only_core_builds_random_streams():
    core = ROOT / "src" / "readout_rebalance" / "core.py"
    assert STREAM_NAMES & set(named(core))
    outside = {
        f"{path.name}: {name}"
        for path in MODULES if path != core for name in named(path) if name in STREAM_NAMES
    }
    assert not outside


def test_only_noise_draws_multinomial_counts():
    # the analytics and the harness compute what they report, and sample nothing
    noise = ROOT / "src" / "readout_rebalance" / "noise.py"
    drawing = {path.name for path in MODULES if "multinomial" in set(named(path))}
    assert drawing == {noise.name}


def test_no_module_seeds_through_numpys_seed_sequence():
    used = {
        f"{path.name}: {name}"
        for path in MODULES for name in named(path) if name in NUMPY_SEEDING
    }
    assert not used


# A ResponseMatrix holds its Kronecker factors from construction, and
# noise._kron_apply is the one function that applies R: the engine and the
# harness that drives it take whatever tuple kron_factors holds, and a tensor
# model forms no dense matrix for them
NOISE = ROOT / "src" / "readout_rebalance" / "noise.py"
ENGINE = [NOISE.with_name(name) for name in ("unfold.py", "rebalance.py", "harness.py")]
TESTS = sorted((ROOT / "tests").glob("*.py"))


def compared_with_none(path):
    """Every name and attribute one source file compares with ``None``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Constant) and o.value is None for o in operands):
                for o in operands:
                    if isinstance(o, ast.Attribute):
                        yield o.attr
                    elif isinstance(o, ast.Name):
                        yield o.id


def test_unfold_reads_no_dense_entries():
    # nor do the rebalancing engine and the harness that drive the unfolders
    assert set(ENGINE) <= set(MODULES)
    assert not {path.name for path in ENGINE if "entries" in set(named(path))}


def functions(path):
    """``(name, node)`` of every function one source file defines."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node


def test_r_is_applied_in_one_place():
    defined = [path.name for path in MODULES for name, _ in functions(path) if name == "_kron_apply"]
    assert defined == [NOISE.name]
    # sampling folds through the factors, never through a dense matrix
    (sample,) = [node for name, node in functions(NOISE) if name == "sample_measured"]
    assert "entries" not in {name for stmt in sample.body for name in named(stmt)}


def test_inversion_multiplies_by_kept_inverse_factors():
    # unfold solves nothing itself, and R's factors are inverted in one place:
    # ResponseMatrix.inverse_factors, found once per matrix
    unfold = ROOT / "src" / "readout_rebalance" / "unfold.py"
    assert not {name for name in named(unfold) if "solve" in name}
    uses = {path.name: list(named(path)).count("inv") for path in MODULES}
    assert uses == {path.name: int(path == NOISE) for path in MODULES}
    (inverse,) = [node for name, node in functions(NOISE) if name == "inverse_factors"]
    assert "inv" in set(named(inverse))


def test_only_build_tensor_response_reads_the_factoring_threshold():
    # a tensor model's factors are chosen where it is built, and nowhere else
    threshold = "_MIN_FACTORED_QUBITS"
    (builder,) = [node for name, node in functions(NOISE) if name == "build_tensor_response"]
    reads = list(named(builder)).count(threshold)
    assert reads
    # noise.py names it once more, where it is set
    uses = {path.name: list(named(path)).count(threshold) for path in MODULES}
    assert uses == {path.name: (1 + reads) * (path == NOISE) for path in MODULES}


def test_no_module_tests_the_factors_against_none():
    assert TESTS
    found = {
        path.name for path in MODULES + TESTS if "kron_factors" in set(compared_with_none(path))
    }
    assert not found


# a tensor model's factors and entries are built from its qubit_params and
# skip the dense checks, so only the builder that checks each pair sets them
def qubit_params_writers(path):
    """The function around each place one source file sets ``qubit_params``:
    an attribute store, a ``qubit_params=`` keyword, or the name as a string,
    as ``setattr`` and ``object.__setattr__`` take it."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Attribute) and child.attr == "qubit_params"
                and isinstance(child.ctx, ast.Store)
                or isinstance(child, ast.keyword) and child.arg == "qubit_params"
                or isinstance(child, ast.Constant) and child.value == "qubit_params"
            ):
                yield function
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            yield from walk(child, getattr(child, "name", "<lambda>") if inner else function)

    yield from walk(ast.parse(path.read_text(), filename=str(path)), None)


def test_only_build_tensor_response_sets_qubit_params():
    writers = {(path.name, f) for path in MODULES for f in qubit_params_writers(path)}
    assert writers == {("noise.py", "build_tensor_response")}


# called from outside the package's code: numpy calls a seed source's
# generate_state, argparse calls its parser's error
CALLED_FROM_OUTSIDE = {"_StateWords.generate_state", "_Parser.error"}


def definitions(node, scope=""):
    """Qualified name of every function and class one parsed source defines."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield scope + child.name
            yield from definitions(child, f"{scope}{child.name}.")
        else:
            yield from definitions(child, scope)


def test_every_function_has_a_caller():
    # a function or class that no module calls, exports or names is dead code
    used = {name for path in MODULES for name in named(path)}
    uncalled = {
        f"{path.name}: {qualified}"
        for path in MODULES
        for qualified in definitions(ast.parse(path.read_text(), filename=str(path)))
        if qualified.split(".")[-1] not in used
        and not qualified.split(".")[-1].startswith("__")
        and qualified not in CALLED_FROM_OUTSIDE
    }
    assert not uncalled


# a plan states its own split into readout streams, MeasurementPlan.stream_shots,
# and every other layer reads the split from there: the harness through the
# public API, run_plan branching on the strategy only where a pilot chooses masks
REBALANCE = NOISE.with_name("rebalance.py")
HARNESS = NOISE.with_name("harness.py")


def test_the_harness_imports_no_private_name_of_rebalance():
    tree = ast.parse(HARNESS.read_text(), filename=str(HARNESS))
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "rebalance"
        for alias in node.names
    }
    assert "MeasurementPlan" in imported
    assert not {name for name in imported if name.startswith("_")}


def strategy_strings(node):
    """Every string constant under one parsed node that is a strategy's name;
    a docstring is never just a name, so none is counted."""
    return [c for c in ast.walk(node) if isinstance(c, ast.Constant) and c.value in STRATEGIES]


def test_only_the_split_and_the_pilot_name_a_strategy():
    # and the table of names and the plan's default, which state no rule
    tree = ast.parse(REBALANCE.read_text(), filename=str(REBALANCE))
    (table,) = [
        node for node in tree.body if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["STRATEGIES"]
    ]
    (plan,) = [node for node in tree.body if getattr(node, "name", None) == "MeasurementPlan"]
    fields = [node for node in plan.body if isinstance(node, ast.AnnAssign)]
    (split,) = [node for node in plan.body if getattr(node, "name", None) == "stream_shots"]
    (engine,) = [node for node in tree.body if getattr(node, "name", None) == "run_plan"]
    branches = [node for node in ast.walk(engine)
                if isinstance(node, ast.If) and strategy_strings(node.test)]
    allowed = {*strategy_strings(table), *strategy_strings(split)}
    allowed.update(c for node in fields + [b.test for b in branches] for c in strategy_strings(node))
    elsewhere = [f"line {c.lineno}: {c.value}" for c in strategy_strings(tree) if c not in allowed]
    assert not elsewhere
    # run_plan's one strategy branch is the pilot's, which chooses the masks
    assert [[c.value for c in strategy_strings(b.test)] for b in branches] == [["rebalanced"]]
    assert "choose_flip_mask" in {name for stmt in branches[0].body for name in named(stmt)}


# a run's streams have one owner: rebalance.cell_streams seeds the cells and
# sizes the blocks of their stream words, and the harness only runs the cells
ANALYTICS = NOISE.with_name("analytics.py")


def strategy_index_uses(node):
    """Every ``STRATEGIES.index`` under one parsed node."""
    return [
        n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "index"
        and isinstance(n.value, ast.Name) and n.value.id == "STRATEGIES"
    ]


def test_only_cell_streams_derives_a_runs_streams():
    assert not {"_seed_states", "_MAX_CELL_BYTES"} & set(named(HARNESS))
    (owner,) = [node for name, node in functions(REBALANCE) if name == "cell_streams"]
    inside = len(strategy_index_uses(owner))
    assert inside
    uses = {
        path.name: len(strategy_index_uses(ast.parse(path.read_text(), filename=str(path))))
        for path in MODULES
    }
    assert uses == {path.name: inside * (path == REBALANCE) for path in MODULES}


def assigned_names(path):
    """Every name one source file binds by an assignment, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_rebalance_owns_a_runs_batch():
    # the engine that spends the cell's memory holds its bounds, and the
    # statistics derive no seed or stream
    for bound in ("_MAX_CELL_BYTES", "_MAX_CELL_REPETITIONS"):
        assert {path.name for path in MODULES if bound in set(assigned_names(path))} == {
            REBALANCE.name}
    streams = {"_seed_states", "stream_words", "_generators", "cell_streams"}
    assert not streams & set(named(ANALYTICS))
    imported = [
        alias.name for node in ast.walk(ast.parse(ANALYTICS.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "rebalance" for alias in node.names
    ]
    assert sorted(imported) == ["_MAX_CELL_REPETITIONS", "run_plan"]
