"""The benchmark tracer's spans still find the functions they time.

``perfbench/tracer.py`` wraps package functions by name (its ``SPANS``) and
its hooks read arguments by position.  A span whose function is renamed or
moved reads 0 and the benchmark carries on, so this suite reads ``SPANS``
and the hooks from the tracer's source, without importing the benchmark,
and checks them against the package.  It reads the cell log of
``perfbench/workloads.py`` the same way: that wrapper of
``harness.ensemble_run`` reads its arguments by position and, when a cell
fails, builds an ``EnsembleResult`` from positional fields.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")
PACKAGE = "readout_rebalance"


def _tracer_tree():
    return ast.parse(TRACER.read_text())


def _spans():
    for node in _tracer_tree().body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SPANS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


def _hook_reads():
    """``{span name: [(index, parameter name), ...]}`` of the hooks' ``arg`` calls."""
    tree = _tracer_tree()
    methods = {
        node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    hooks = {}
    for node in ast.walk(methods["__init__"]):
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "attr", None) == "_hooks":
            hooks = {k.value: v.attr for k, v in zip(node.value.keys, node.value.values)}
    reads = {}
    for span, method in hooks.items():
        reads[span] = [
            (call.args[2].value, call.args[3].value)
            for call in ast.walk(methods[method])
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "arg"
        ]
    return reads


SPANS = _spans()
FUNCTIONS = [(name, home, fname) for name, home, fnames, _ in SPANS for fname in fnames]


@pytest.mark.parametrize(
    "span, home, fname", FUNCTIONS, ids=[f"{home}.{fname}" for _, home, fname in FUNCTIONS]
)
def test_span_function_resolves(span, home, fname):
    module = importlib.import_module(f"{PACKAGE}.{home}")
    fn = getattr(module, fname, None)
    assert callable(fn), f"span {span} times {home}.{fname}, which does not exist"
    # every argument a hook of this span reads sits where the hook reads it
    params = list(inspect.signature(fn).parameters)
    for index, pname in _hook_reads().get(span, []):
        assert params[index:index + 1] == [pname], (
            f"{home}.{fname} parameter {index} is not {pname!r}: {params}"
        )


def test_tracer_hooks_were_found():
    # guards the source reading above: these hooks read arguments by position
    reads = _hook_reads()
    assert (0, "true_dist") in reads["noise.sample_measured"]
    assert (4, "repetitions") in reads["analytics.ensemble_run"]


def _cell_log_install():
    """``CellLog.install`` of the benchmark's workloads."""
    tree = ast.parse(WORKLOADS.read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CellLog")
    return next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "install")


def _cell_log_calls():
    return [node for node in ast.walk(_cell_log_install()) if isinstance(node, ast.Call)]


def _called(call, name):
    """Whether ``call`` calls the bare name or the method ``name``."""
    func = call.func
    return getattr(func, "id", None) == name or getattr(func, "attr", None) == name


def test_cell_log_reads_ensemble_run_arguments_where_they_are():
    harness = importlib.import_module(f"{PACKAGE}.harness")
    analytics = importlib.import_module(f"{PACKAGE}.analytics")
    assert harness.ensemble_run is analytics.ensemble_run
    params = list(inspect.signature(harness.ensemble_run).parameters)
    calls = _cell_log_calls()
    reads = [(c.args[2].value, c.args[3].value) for c in calls if _called(c, "arg")]
    # guards the source reading: the cell log reads these two by position
    assert reads == [(2, "plan"), (4, "repetitions")]
    for index, pname in reads:
        assert params[index:index + 1] == [pname], params
    keywords = [
        c.args[0].value for c in calls
        if _called(c, "get") and getattr(c.func.value, "id", None) == "kwargs"
    ]
    assert keywords == ["observable_label"]
    assert set(keywords) <= set(params)


def test_cell_log_failure_result_fields_keep_their_order():
    # a failed cell's result is EnsembleResult(repetitions, nan, nan, nan,
    # plan.strategy, label); the fields after those six need defaults
    analytics = importlib.import_module(f"{PACKAGE}.analytics")
    types = [
        node.value.attr for node in ast.walk(_cell_log_install())
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "result_type"
    ]
    assert types == ["EnsembleResult"]
    built = [c for c in _cell_log_calls() if _called(c, "result_type")]
    assert len(built) == 1 and not built[0].keywords
    given = len(built[0].args)
    fields = dataclasses.fields(analytics.EnsembleResult)
    assert [f.name for f in fields[:given]] == [
        "repetitions", "mean", "std", "std_err_of_std", "strategy", "observable",
    ]
    assert all(f.default is not dataclasses.MISSING for f in fields[given:])
