"""Span recorder that wraps qexpander's public functions from outside.

`Tracer.install` replaces each traced function with a recording wrapper in
every loaded qexpander module that holds it, so a name imported by value
(`from .spectrum import eigen_spectrum` in cli and edgex,
`query_from_traces` in sdengine.parse and sdengine.engine) is traced
where its caller looks it up. `uninstall` restores the originals.

A span is (name, start, end, parent index, op id, raised). Spans stay in
memory until the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (layer, function) pairs; the layer is the qexpander module that defines
# or re-exports the function.
TRACED = (
    ("matrixcore", "haar_unitary"),
    ("matrixcore", "haar_unitaries"),
    ("channel", "build_hermitian_random"),
    ("channel", "build_nonhermitian_random"),
    ("channel", "build_weighted"),
    ("channel", "apply"),
    ("spectrum", "superoperator"),
    ("spectrum", "eigen_spectrum"),
    ("spectrum", "moment_trace"),
    ("spectrum", "frobenius_moment"),
    ("spectrum", "estimate_lambda2_from_moments"),
    ("spectrum", "write_spectrum_csv"),
    ("cayley", "walk_counts"),
    ("cayley", "alon_boppana_lower_bound"),
    ("sdengine", "parse_trace_expr"),
    ("sdengine", "query_from_traces"),
    ("sdengine", "evaluate_exact"),
    ("sdengine", "evaluate_series"),
    ("sdengine", "monte_carlo_expectation"),
    ("edgex", "random_projector"),
    ("edgex", "converse_check"),
    ("edgex", "tanner_chain_check"),
    ("cli", "main"),
    ("cli", "build_channel"),
    ("cli", "run_sweep"),
    ("cli", "write_sweep_csv"),
    ("cli", "emit_collapse"),
)
# work units per call, read from an argument: (span name, parameter, rate metric)
RATES = (
    ("sdengine.monte_carlo_expectation", "samples", "sdengine.monte_carlo_expectation.samples_per_s"),
    ("matrixcore.haar_unitaries", "count", "matrixcore.haar_unitaries.unitaries_per_s"),
)
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn in TRACED)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.work: defaultdict[str, int] = defaultdict(int)
        self.op_id: int = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, work = self.spans, self._stack, self.work
        work_param = next((param for span, param, _ in RATES if span == name), None)
        signature = inspect.signature(fn) if work_param else None

        def traced(*args, **kwargs):
            if signature is not None:
                work[name] += signature.bind(*args, **kwargs).arguments[work_param]
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, raised)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "qexpander" or key.startswith("qexpander.")]
        self.missing = []
        for layer, fn_name in TRACED:
            original = getattr(importlib.import_module(f"qexpander.{layer}"), fn_name, None)
            if original is None:
                self.missing.append(f"{layer}.{fn_name}")
                continue
            wrapper = self._wrap(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """calls, self_s and errors per traced function, per traced pass,
        plus the work rates."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _raised in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        total_s: defaultdict[str, float] = defaultdict(float)
        errors: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent, _op, raised) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            total_s[name] += end - start
            errors[name] += raised
        per = 1.0 / max(passes, 1)
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = calls[name] * per
            metrics[f"{name}.self_s"] = self_s[name] * per
            metrics[f"{name}.errors"] = errors[name] * per
        for span, _param, metric in RATES:
            metrics[metric] = self.work[span] / total_s[span] if total_s[span] > 0 else 0.0
        return metrics

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, raised in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, raised]) + "\n")
