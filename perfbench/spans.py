"""Spans and per-call counters recorded around assortopt's public functions.

Used only by the traced run. ``Tracer.install`` swaps wrappers into every
``assortopt`` module namespace that holds a traced function (names imported
by name into ``cli.py`` and ``bench.py`` are wrapped where they are looked
up) and onto the oracle classes and ``Assortment``; ``uninstall`` puts the
originals back, so untraced rounds run the program unchanged.

Op-level calls become spans (name, start, end, parent, op id, thread). Calls
that fire 10^4-10^5 times per op (oracle ``evaluate`` methods, ``Assortment``
construction, ``top_margin_set``, the margin/revenue comparison) are only
counted and timed, with their time charged to the enclosing span as
``agg_s``. A span's self time is its duration less the spans directly under
it on the same thread and its ``agg_s``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from collections import defaultdict
from math import comb
from time import perf_counter

from assortopt import analysis, bench, cli, generate, greedy, instance, io, oracles, reference, transform


class _ThreadState:
    __slots__ = ("stack", "agg", "counters", "oracle_depth", "distinct", "oracles")

    def __init__(self):
        self.stack: list[list] = []  # frames: [span id or None, child time, aggregated child time]
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, float] = defaultdict(float)
        self.oracle_depth = 0
        self.distinct: set[tuple[int, tuple[int, ...]]] = set()
        self.oracles: dict[int, object] = {}  # keeps ids in ``distinct`` unique within an op


def _greedy_steps(tracer, _token, _args, _kwargs, report):
    """Passes, additions and exchanges, counted from the trace records."""
    if report.traces is None:
        return
    for _seed, records in report.traces:
        for record in records:
            if record.action == "terminate":
                # the loop ran one more, unproductive pass unless the pool ran dry
                tracer.count("greedy.passes", 1 if record.pool_before else 0)
            else:
                tracer.count("greedy.passes", 1)
                tracer.count(f"greedy.{record.action}s", 1)


def _brute_force_size(tracer, _token, args, kwargs, _result):
    universe = args[1] if len(args) > 1 else kwargs["universe"]
    capacity = max(0, args[2] if len(args) > 2 else kwargs["capacity"])
    n = len(set(universe))
    tracer.count("reference.brute_force_assortments", sum(comb(n, k) for k in range(capacity + 1)))


def _collection_size(tracer, _token, _args, _kwargs, result):
    tracer.count("reference.candidate_sets", len(result))


def _report_bytes(tracer, _token, _args, _kwargs, result):
    tracer.count("io.serialize_report.calls", 1)
    tracer.count("io.report_bytes", len(result.encode("utf-8")))


def _cpu_start(_args, _kwargs):
    return os.times()


def _cpu_share(tracer, start, _args, _kwargs, _result):
    end = os.times()
    cpu = sum(getattr(end, f) - getattr(start, f)
              for f in ("user", "system", "children_user", "children_system"))
    tracer.count("bench.cpu_s", cpu)
    tracer.count("bench.wall_s", end.elapsed - start.elapsed)


#: (module, function, span name, before hook, after hook)
SPANNED = [
    (cli, "main", "cli.main", None, None),
    (greedy, "greedy_opt", "greedy.greedy_opt", None, _greedy_steps),
    (reference, "candidate_set_opt", "reference.candidate_set_opt", None, None),
    (reference, "candidate_set_collection", "reference.candidate_set_collection", None, _collection_size),
    (reference, "brute_force_opt", "reference.brute_force_opt", None, _brute_force_size),
    (transform, "margin_breakpoints", "transform.margin_breakpoints", None, None),
    (analysis, "check_trace_invariants", "analysis.check_trace_invariants", None, None),
    (analysis, "max_slack_set_size", "analysis.max_slack_set_size", None, None),
    (analysis, "compute_bounds", "analysis.compute_bounds", None, None),
    (io, "load_instance", "io.load_instance", None, None),
    (io, "load_report", "io.load_report", None, None),
    (io, "serialize_report", "io.serialize_report", None, _report_bytes),
    (generate, "generate_instance", "generate.generate_instance", None, None),
    (bench, "run_bench", "bench.run_bench", _cpu_start, _cpu_share),
]

#: (module, function, counter name); called too often for one span each
AGGREGATED = [
    (transform, "top_margin_set", "transform.top_margin_set"),
    (analysis, "check_margin_revenue_equivalence", "analysis.margin_equivalence"),
]

#: (class, method, counter name)
AGGREGATED_METHODS = [
    (oracles.ExactMnlOracle, "evaluate", "oracles.exact"),
    (oracles.NoisyOracle, "evaluate", "oracles.noisy"),
    (oracles.CountingOracle, "evaluate", "oracles.counting"),
    (instance.Assortment, "__init__", "instance.assortment"),
]

ORACLE_COUNTERS = {"oracles.exact", "oracles.noisy", "oracles.counting"}


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "assortopt" or name.startswith("assortopt."))]


class Tracer:
    """Records spans and counters for the ops run between ``begin_op`` and ``end_op``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.ops = 0
        self._op: str | None = None
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main = threading.get_ident()
        self._main_open: list[int] = []  # open span ids on the main thread
        self._counters: dict[str, float] = defaultdict(float)
        self._agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- installation ------------------------------------------------------

    def _build_patches(self) -> None:
        modules = _package_modules()
        for module, fname, span_name, before, after in SPANNED:
            original = getattr(module, fname)
            wrapper = self._span_wrapper(span_name, original, before, after)
            self._patch_everywhere(modules, original, wrapper)
        for module, fname, name in AGGREGATED:
            original = getattr(module, fname)
            self._patch_everywhere(modules, original, self._agg_wrapper(name, original))
        for cls, method, name in AGGREGATED_METHODS:
            original = cls.__dict__[method]
            self._patches.append((cls, method, original, self._agg_wrapper(name, original)))

    def _patch_everywhere(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float) -> None:
        self._state().counters[name] += amount

    def _span_wrapper(self, name, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            main = threading.get_ident() == tracer._main
            if state.stack:
                parent = next((f[0] for f in reversed(state.stack) if f[0] is not None), None)
            else:  # a bench worker thread: its cause is the open main-thread span
                parent = tracer._main_open[-1] if tracer._main_open and not main else None
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span_id, 0.0, 0.0]
            state.stack.append(frame)
            if main:
                tracer._main_open.append(span_id)
            token = before(args, kwargs) if before else None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                state.stack.pop()
                if main:
                    tracer._main_open.pop()
                if state.stack:
                    state.stack[-1][1] += end - start
                span = {"op": tracer._op, "id": span_id, "parent": parent,
                        "thread": threading.get_ident(), "name": name,
                        "start": start, "end": end, "agg_s": frame[2]}
                if name == "cli.main":
                    argv = args[0] if args else kwargs.get("argv")
                    span["command"] = argv[0] if argv else None
                with tracer._lock:
                    tracer.spans.append(span)
            if after:
                after(tracer, token, args, kwargs, result)
            return result

        return wrapper

    def _agg_wrapper(self, name, fn):
        tracer = self
        is_oracle = name in ORACLE_COUNTERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            if is_oracle:
                state.oracle_depth += 1
                if state.oracle_depth == 1:  # the outermost evaluate of a call chain
                    oracle = args[0]
                    state.oracles[id(oracle)] = oracle
                    state.distinct.add((id(oracle), args[1].ids))
                    state.counters["oracles.calls"] += 1
            frame = [None, 0.0, 0.0]
            state.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state.stack.pop()
                if is_oracle:
                    state.oracle_depth -= 1
                record = state.agg.get(name)
                if record is None:
                    record = state.agg[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if state.stack:
                    parent = state.stack[-1]
                    parent[1] += elapsed
                    if parent[0] is not None:
                        parent[2] += elapsed

        return wrapper

    def begin_op(self, op: str) -> None:
        self._op = op

    def end_op(self) -> None:
        """Fold every thread's counters into the run totals (the op's workers have ended)."""
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.agg.items():
                record = self._agg[name]
                record[0] += calls
                record[1] += total
                record[2] += own
            for name, value in state.counters.items():
                self._counters[name] += value
            self._counters["oracles.distinct"] += len(state.distinct)
            state.agg.clear()
            state.counters.clear()
            state.distinct.clear()
            state.oracles.clear()
        self.ops += 1
        self._op = None

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every span: duration less same-thread child spans and aggregated calls."""
        by_id = {s["id"]: s for s in self.spans}
        own = {s["id"]: s["end"] - s["start"] - s["agg_s"] for s in self.spans}
        for span in self.spans:
            parent = by_id.get(span["parent"])
            if parent is not None and parent["thread"] == span["thread"]:
                own[parent["id"]] -= span["end"] - span["start"]
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer values keyed by the names in BENCHMARK.json's ``per_layer``."""
        ops = max(1, self.ops)
        total = defaultdict(float)
        own_total = defaultdict(float)
        own = self.self_times()
        for span in self.spans:
            total[span["name"]] += span["end"] - span["start"]
            own_total[span["name"]] += own[span["id"]]
        c = self._counters

        def per_op_ms(name):
            return 1000.0 * total[name] / ops

        def agg_ms(name):
            return 1000.0 * self._agg[name][1] / ops

        def per_call_us(name, which):
            calls = self._agg[name][0]
            return 1e6 * self._agg[name][which] / calls if calls else 0.0

        calls = c["oracles.calls"]
        return {
            "greedy.greedy_opt_ms": per_op_ms("greedy.greedy_opt"),
            "greedy.self_ms": 1000.0 * own_total["greedy.greedy_opt"] / ops,
            "greedy.passes_per_op": c["greedy.passes"] / ops,
            "greedy.adds_per_op": c["greedy.adds"] / ops,
            "greedy.exchanges_per_op": c["greedy.exchanges"] / ops,
            "oracles.calls_per_op": calls / ops,
            "oracles.distinct_ratio": c["oracles.distinct"] / calls if calls else 0.0,
            "oracles.exact_us": per_call_us("oracles.exact", 1),
            "oracles.noise_self_us": per_call_us("oracles.noisy", 2),
            "oracles.counting_self_us": per_call_us("oracles.counting", 2),
            "instance.assortments_per_op": self._agg["instance.assortment"][0] / ops,
            "instance.assortment_build_us": per_call_us("instance.assortment", 1),
            "transform.top_margin_set_calls_per_op": self._agg["transform.top_margin_set"][0] / ops,
            "transform.top_margin_set_ms": agg_ms("transform.top_margin_set"),
            "transform.margin_breakpoints_ms": per_op_ms("transform.margin_breakpoints"),
            "reference.candidate_set_opt_ms": per_op_ms("reference.candidate_set_opt"),
            "reference.candidate_sets_per_op": c["reference.candidate_sets"] / ops,
            "reference.brute_force_ms": per_op_ms("reference.brute_force_opt"),
            "reference.brute_force_assortments_per_op": c["reference.brute_force_assortments"] / ops,
            "analysis.check_trace_invariants_ms": per_op_ms("analysis.check_trace_invariants"),
            "analysis.margin_equivalence_ms": agg_ms("analysis.margin_equivalence"),
            "analysis.max_slack_set_size_ms": per_op_ms("analysis.max_slack_set_size"),
            "analysis.compute_bounds_ms": per_op_ms("analysis.compute_bounds"),
            "io.report_bytes": (c["io.report_bytes"] / c["io.serialize_report.calls"]
                                if c["io.serialize_report.calls"] else 0.0),
            "io.serialize_report_ms": per_op_ms("io.serialize_report"),
            "io.load_report_ms": per_op_ms("io.load_report"),
            "generate.generate_instance_ms": per_op_ms("generate.generate_instance"),
            "bench.run_bench_ms": per_op_ms("bench.run_bench"),
            "bench.cpu_per_wall": c["bench.cpu_s"] / c["bench.wall_s"] if c["bench.wall_s"] else 0.0,
            "cli.self_ms": 1000.0 * own_total["cli.main"] / ops,
            "trace.spans_per_op": len(self.spans) / ops,
        }

    def write(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

