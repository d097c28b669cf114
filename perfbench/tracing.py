"""Per-layer timings, measured from outside the program.

A traced round replaces selected socialgrad functions, at the module or
class where their callers look them up, with wrappers that time each call
as a span. Spans fold into per-layer totals as they close: calls, total
time, and self time (the span's time minus that of its traced children).
No per-call list is kept, so a traced round's memory stays flat.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute where callers look it up, layer). A name that a later
# refactor removes is reported as not traced; the round still runs.
PATCH_POINTS = (
    ("socialgrad.solvers", "ResponseOracle.response", "oracle"),
    ("socialgrad.solvers", "solve_response", "solve"),
    ("socialgrad.flow", "solve_response", "solve"),
    ("socialgrad.experiments", "solve_response", "solve"),
    ("socialgrad.ttsa", "solve_response", "solve"),
    ("socialgrad.solvers", "solve_response_potential", "newton"),
    ("socialgrad.experiments", "run_ttsa", "ttsa_loop"),
    ("socialgrad.experiments", "integrate_social_gradient_flow", "flow_loop"),
    ("socialgrad.flow", "compute_c_star", "c_star"),
    ("socialgrad.flow", "in_sublevel_set", "membership"),
    ("socialgrad.experiments", "in_sublevel_set", "membership"),
    ("socialgrad.records", "TtsaRecord.append", "append"),
    ("socialgrad.records", "FlowRecord.append", "append"),
    ("socialgrad.records", "TtsaRecord.write_csv", "write"),
    ("socialgrad.records", "TtsaRecord.write_json", "write"),
    ("socialgrad.records", "FlowRecord.write_csv", "write"),
    ("socialgrad.records", "FlowRecord.write_json", "write"),
    ("socialgrad.records", "write_json", "write"),
    ("socialgrad.experiments", "write_json", "write"),
    ("socialgrad.experiments", "certify_strong_monotonicity", "certify"),
    ("socialgrad.experiments", "sample_initial_conditions", "sample_ic"),
    ("socialgrad.cli", "run_ttsa_batch", "batch"),
    ("socialgrad.cli", "run_flow_batch", "batch"),
    ("socialgrad.cli", "run_timescale_sweep", "batch"),
    ("socialgrad.cli", "run_verify", "verify"),
)


class Tracer:
    """Installs the wrappers, accumulates per-layer totals, restores on exit."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.newton_iters = 0
        self.certify_points = 0
        self.not_traced = []
        self._stack = []          # open spans: [layer, time of traced children]
        self._patches = []

    def __enter__(self):
        for module_name, attr, layer in PATCH_POINTS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.not_traced.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, self._wrap(layer, original))
            self._patches.append((owner, name, original))
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, layer, fn):
        if layer == "newton":
            return self._count_newton(fn)
        span = self._span(layer, fn)
        if layer == "solve":
            return self._direct_only(span, fn)
        if layer == "certify":
            return self._count_points(span)
        return span

    def _span(self, layer, fn):
        stack, clock = self._stack, time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[layer] += 1
                total_s[layer] += elapsed
                self_s[layer] += elapsed - frame[1]
        return span

    def _direct_only(self, span, fn):
        """A solve made by the response oracle belongs to the oracle's span."""
        stack = self._stack

        def solve(*args, **kwargs):
            if stack and stack[-1][0] == "oracle":
                return fn(*args, **kwargs)
            return span(*args, **kwargs)
        return solve

    def _count_newton(self, fn):
        def newton(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls["newton"] += 1
            self.newton_iters += result.iterations
            return result
        return newton

    def _count_points(self, span):
        def certify(*args, **kwargs):
            report = span(*args, **kwargs)
            self.certify_points += report.grid_density ** len(report.grid_worst_point)
            return report
        return certify


def layer_metrics(tracer: Tracer, result) -> dict:
    """Per-layer figures of one traced round, by metric name."""
    calls, total_s, self_s = tracer.calls, tracer.total_s, tracer.self_s

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    return {
        "solvers.oracle_calls": calls["oracle"],
        "solvers.oracle_self_s": self_s["oracle"],
        "solvers.oracle_us_per_call": per(self_s["oracle"], calls["oracle"], 1e6),
        "solvers.solve_calls": calls["solve"],
        "solvers.solve_self_s": self_s["solve"],
        "solvers.newton_iters_per_solve": per(tracer.newton_iters, calls["newton"]),
        "ttsa.steps": result.ttsa_steps,
        "ttsa.loop_self_s": self_s["ttsa_loop"],
        "ttsa.us_per_step": per(self_s["ttsa_loop"], result.ttsa_steps, 1e6),
        "ttsa.gate_accept_ratio": per(result.ttsa_accepted, result.ttsa_steps),
        "flow.steps": result.flow_steps,
        "flow.loop_self_s": self_s["flow_loop"],
        "flow.us_per_step": per(self_s["flow_loop"], result.flow_steps, 1e6),
        "flow.c_star_s": total_s["c_star"],
        "flow.membership_calls": calls["membership"],
        "records.append_calls": calls["append"],
        "records.append_self_s": self_s["append"],
        "records.write_self_s": self_s["write"],
        "records.bytes_written": result.bytes_written,
        "games.certify_s": total_s["certify"],
        "games.certify_points": tracer.certify_points,
        "experiments.sample_ic_s": total_s["sample_ic"],
        "experiments.batch_self_s": self_s["batch"],
        "experiments.verify_self_s": self_s["verify"],
    }
