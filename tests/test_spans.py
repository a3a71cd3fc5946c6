"""The benchmark tracer's spans still find the functions they time.

``perfbench/tracer.py`` wraps package functions by name (its ``SPANS``) and
its hooks read arguments by position.  A span whose function is renamed or
moved reads 0 and the benchmark carries on, so this suite reads ``SPANS``
and the hooks from the tracer's source, without importing the benchmark,
and checks them against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
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
