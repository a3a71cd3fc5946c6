"""Span tracer that wraps the public names each package layer is reached through.

The tracer patches module attributes from outside the package: for every
span below it finds the function in its defining module and replaces each
binding of that same function object in the layer modules (``core``,
``noise``, ``states``, ``unfold``, ``rebalance``, ``analytics``,
``harness``) with a timing wrapper.  Calls a module makes through its own
globals and calls made through an imported name are both caught, because
Python resolves either at call time.

Spans are aggregated per name as they close instead of being stored, so a
long traced run stays small in memory.  A span's self time is its duration
minus the time covered by the spans it caused (and minus the tracer's own
per-span bookkeeping for those children), so the self times of one call tree
add up to its root span.

A span whose function no longer exists, or that is never called, is listed
in :meth:`Tracer.absent`; its metrics read 0 and the run carries on.
"""

import functools
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("core", "noise", "states", "unfold", "rebalance", "analytics", "harness")

# (span name, defining layer, function names, layers whose bindings get
# wrapped; None means every layer that holds the same function object)
SPANS = (
    ("core.rng_stream", "core", ("rng_stream",), None),
    ("core.xor_permute", "core", ("xor_permute",), None),
    ("core.observable", "core", ("observable_base10", "counts_in_state"), ("harness",)),
    ("noise.sample_measured", "noise", ("sample_measured",), None),
    ("noise.save_response", "noise", ("save_response",), None),
    ("noise.load_response", "noise", ("load_response",), None),
    ("states.build", "states", ("inverted_w_dist", "grover_dist", "gaussian_dist"), ("harness",)),
    ("unfold.apply_unfold", "unfold", ("apply_unfold",), None),
    ("unfold.matrix_inverse_unfold", "unfold", ("matrix_inverse_unfold",), None),
    ("unfold.ibu_unfold", "unfold", ("ibu_unfold",), None),
    ("unfold.condition_report", "unfold", ("condition_report",), None),
    ("rebalance.run_plan", "rebalance", ("run_plan",), None),
    ("rebalance.choose_flip_mask", "rebalance", ("choose_flip_mask",), None),
    ("analytics.ensemble_run", "analytics", ("ensemble_run",), None),
    ("harness.run_experiment", "harness", ("run_experiment",), None),
    ("harness.write_run_outputs", "harness", ("write_run_outputs",), None),
)


def arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class _Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = array("d")


class Tracer:
    """Per-name call counts, total and self times, and layer counters."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats = {}
        self.missing = []
        self.self_total = 0.0
        self._stack = []
        self._patched = []
        # layer counters filled by the hooks below
        self.flops = Counter()
        self.bytes = Counter()
        self.reps = 0
        self.negative_runs = 0
        self.output_bytes = 0
        self.calibration_bytes = []
        self.fold_inputs = {}
        self.matrices = {}
        self.conditioned = Counter()
        self.cell_masks = []
        self._masks = Counter()
        self._hooks = {
            "noise.sample_measured": self._on_sample,
            "noise.load_response": self._on_load,
            "unfold.matrix_inverse_unfold": self._on_inverse,
            "unfold.ibu_unfold": self._on_ibu,
            "unfold.condition_report": self._on_condition,
            "rebalance.choose_flip_mask": self._on_mask,
            "analytics.ensemble_run": self._on_cell,
            "harness.write_run_outputs": self._on_write,
        }

    # -- spans ---------------------------------------------------------
    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        stat = self.stats.setdefault(name, _Stat())
        hook = self._hooks.get(name)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - children[0]
                stat.calls += 1
                stat.total += duration
                stat.self_time += own
                stat.durations.append(duration)
                self.self_total += own
                if hook is not None:
                    try:
                        hook(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, OSError):
                        pass
                if stack:
                    # the parent excludes this span and the hook above
                    stack[-1][0] += clock() - start

        return span

    def install(self, package):
        """Wrap every binding named in :data:`SPANS` in the given modules.

        ``package`` maps layer names to imported modules.
        """
        for name, home, functions, where in SPANS:
            self.stats.setdefault(name, _Stat())
            for fname in functions:
                original = getattr(package.get(home), fname, None)
                if original is None:
                    self.missing.append(f"{home}.{fname}")
                    continue
                wrapped = self.wrap(name, original)
                for layer in where or LAYERS:
                    module = package.get(layer)
                    if module is not None and getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)
                        self._patched.append((module, fname, original))

    def uninstall(self):
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def absent(self):
        """Span names never entered, plus functions that no longer exist."""
        idle = [name for name, stat in self.stats.items() if stat.calls == 0]
        return sorted(set(idle) | set(self.missing))

    # -- hooks -----------------------------------------------------------
    def _on_sample(self, args, kwargs, result):
        dist = arg(args, kwargs, 0, "true_dist")
        response = arg(args, kwargs, 1, "response")
        self.matrices[id(response)] = response  # keeps ids unique
        key = (id(response), dist.probs.tobytes())
        self.fold_inputs[key] = self.fold_inputs.get(key, 0) + 1

    def _on_load(self, args, kwargs, result):
        self.calibration_bytes.append(os.path.getsize(arg(args, kwargs, 0, "path")))

    def _on_inverse(self, args, kwargs, result):
        # LU solve of one right-hand side; the condition check is its own span
        d = arg(args, kwargs, 1, "response").dim
        self.flops["unfold.matrix_inverse_unfold"] += 2 * d**3 / 3 + 2 * d**2

    def _on_ibu(self, args, kwargs, result):
        # per iteration R @ t and R.T @ ratio: 4 d^2 flops, R read twice
        d = arg(args, kwargs, 1, "response").dim
        iterations = args[2] if len(args) > 2 else kwargs.get("iterations", 100)
        self.flops["unfold.ibu_unfold"] += 4 * d**2 * int(iterations)
        self.bytes["unfold.ibu_unfold"] += 16 * d**2 * int(iterations)

    def _on_condition(self, args, kwargs, result):
        response = arg(args, kwargs, 0, "response")
        self.matrices[id(response)] = response
        self.conditioned[id(response)] += 1

    def _on_mask(self, args, kwargs, result):
        self._masks[int(result.mask)] += 1

    def _on_cell(self, args, kwargs, result):
        self.reps += int(arg(args, kwargs, 4, "repetitions"))
        if self._masks:
            self.cell_masks.append(self._masks)
            self._masks = Counter()
        if result is not None:
            self.negative_runs += int(result.negative_runs)

    def _on_write(self, args, kwargs, result):
        self.output_bytes += sum(os.path.getsize(path) for path in result)

    # -- report ----------------------------------------------------------
    def metrics(self, passes):
        """Per-layer metric values; counts are per harness pass."""
        passes = max(int(passes), 1)

        def calls(name):
            return self.stats[name].calls / passes

        def self_us(name):
            stat = self.stats[name]
            return stat.self_time / stat.calls * 1e6 if stat.calls else 0.0

        def mean_s(name):
            stat = self.stats[name]
            return stat.total / stat.calls if stat.calls else 0.0

        def per_call(counter, name):
            n = self.stats[name].calls
            return counter[name] / n if n else 0.0

        out = {}
        for name in (
            "core.rng_stream", "core.xor_permute", "core.observable",
            "noise.sample_measured", "unfold.apply_unfold",
            "unfold.condition_report", "unfold.ibu_unfold",
            "unfold.matrix_inverse_unfold", "rebalance.run_plan",
            "rebalance.choose_flip_mask",
        ):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_us"] = self_us(name)

        fold_calls = sum(self.fold_inputs.values())
        out["noise.sample_measured.calls_per_distinct_input"] = (
            fold_calls / len(self.fold_inputs) if self.fold_inputs else 0.0
        )
        out["noise.save_response.s"] = mean_s("noise.save_response")
        out["noise.load_response.s"] = mean_s("noise.load_response")
        out["noise.calibration_bytes"] = (
            float(np.mean(self.calibration_bytes)) if self.calibration_bytes else 0.0
        )
        out["states.build_ms"] = mean_s("states.build") * 1e3

        out["unfold.condition_report.calls_per_matrix"] = (
            sum(self.conditioned.values()) / len(self.conditioned) if self.conditioned else 0.0
        )
        for name in ("unfold.ibu_unfold", "unfold.matrix_inverse_unfold"):
            out[f"{name}.flops_computed"] = per_call(self.flops, name)
        out["unfold.ibu_unfold.bytes_computed"] = per_call(self.bytes, "unfold.ibu_unfold")

        latencies = self.stats["rebalance.run_plan"].durations
        out["rebalance.run_plan.latency_samples"] = len(latencies)
        out["rebalance.run_plan.us_p50"] = (
            float(np.percentile(latencies, 50)) * 1e6 if latencies else 0.0
        )
        out["rebalance.run_plan.us_p99"] = (
            float(np.percentile(latencies, 99)) * 1e6 if latencies else 0.0
        )
        shares = [max(c.values()) / sum(c.values()) for c in self.cell_masks]
        out["rebalance.distinct_masks"] = (
            float(np.mean([len(c) for c in self.cell_masks])) if self.cell_masks else 0.0
        )
        out["rebalance.mask_mode_share"] = float(np.mean(shares)) if shares else 0.0

        cell = self.stats["analytics.ensemble_run"]
        out["analytics.ensemble_run.self_us_per_rep"] = (
            cell.self_time / self.reps * 1e6 if self.reps else 0.0
        )
        out["analytics.negative_runs"] = self.negative_runs / passes

        run = self.stats["harness.run_experiment"]
        out["harness.run_experiment.self_s"] = run.self_time / run.calls if run.calls else 0.0
        out["harness.write_run_outputs.s"] = mean_s("harness.write_run_outputs")
        out["harness.output_bytes"] = self.output_bytes / passes
        return out
