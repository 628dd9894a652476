"""The benchmark's workloads: inputs, ops and the checks made on every op's output.

Each workload is a closed loop run from one process, one op at a time. Its
inputs depend only on the run seed; every round runs the same op list.
``prepare`` and one warm-up of each distinct op make up set-up time;
``reference`` computes, untimed, what every op is checked against
(``independent.py``); ``round_ops`` gives the ops of one round;
``determinism`` runs once per run, untimed.

An op's ``run`` is the timed part. It raises ``OpError`` when the program
fails (an exception or a nonzero exit); its ``check`` returns the problems
found in an output the program did produce.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
from math import comb
from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np

import independent
from independent import REL_TOL, close

from assortopt import cli, reference
from assortopt import io as assortopt_io


class OpError(Exception):
    """The program failed to produce an output."""


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]  # the timed part
    check: Callable[[Any], list[str]]  # problems found in run's output


def mean(values: list[float]) -> float:
    """Mean of the values, 0 when every op failed before giving one."""
    return statistics.fmean(values) if values else 0.0


def derive(seed: int, *parts: object) -> int:
    """A 31-bit input seed for one item of a run with seed ``seed``."""
    text = "/".join(str(p) for p in (seed,) + parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "little") >> 1


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``assortopt.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)  # looked up on each call, so a traced run sees its wrapper
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def gen_instance(n: int, seed: int, path: str) -> None:
    code, _out, err = call_cli(["gen", "--N", str(n), "--seed", str(seed), "-o", path])
    if code != 0:
        raise OpError(f"gen --N {n} --seed {seed} exited {code}: {err.strip()}")


class Instance:
    """One generated instance file and what the benchmark knows of it independently."""

    def __init__(self, path: str, n: int, capacity: int, gen_seed: int):
        self.path = path
        self.n = n
        self.capacity = capacity
        self.gen_seed = gen_seed
        self.position: dict[int, int] = {}
        self.prices = self.weights = None
        self.optima: list[float] = []
        self.opt_members = None

    def solve_reference(self) -> None:
        ids, self.prices, self.weights = independent.read_instance(self.path)
        self.position = {int(pid): index for index, pid in enumerate(ids)}
        self.optima = independent.optima(self.prices, self.weights, self.capacity)
        self.opt_members = independent.optimum(self.prices, self.weights, self.capacity)[1]

    def positions(self, ids: list[int], cap: int, what: str, problems: list[str]) -> np.ndarray:
        """Index positions of an assortment the program returned, validated."""
        if len(set(ids)) != len(ids) or any(pid not in self.position for pid in ids):
            problems.append(f"{what}: {ids} is not a set of this instance's products")
            return np.zeros(0, dtype=np.int64)
        if len(ids) > cap:
            problems.append(f"{what}: {len(ids)} products exceed the size cap {cap}")
        return np.array([self.position[pid] for pid in ids], dtype=np.int64)


class SolveLarge:
    """solve + verify through the CLI at N in the hundreds, exact and noisy oracles."""

    name = "solve-large"
    SIZES = ((100, 10), (150, 12), (200, 15))
    INSTANCES_PER_SIZE = 16
    EPS = 0.001

    def __init__(self, workdir: str, seed: int):
        # sizes interleave, so a drift of the host's speed during a round touches all of them
        self.instances = [
            Instance(os.path.join(workdir, f"inst-{n}-{j}.json"), n, c, derive(seed, self.name, n, j))
            for j in range(self.INSTANCES_PER_SIZE)
            for n, c in self.SIZES
        ]
        self.ops: list[Op] = []
        self.report_of: dict[str, str] = {}
        for inst in self.instances:
            for noisy in (False, True):
                self.ops.append(self._op(workdir, inst, noisy, derive(seed, self.name, "noise", inst.gen_seed)))
        self.calls: list[int] = []
        self.first_payload: dict[str, str] = {}

    def _op(self, workdir: str, inst: Instance, noisy: bool, noise_seed: int) -> Op:
        name = f"solve N={inst.n} C={inst.capacity} {'noisy' if noisy else 'exact'} {os.path.basename(inst.path)}"
        report = os.path.join(workdir, f"report-{inst.n}-{len(self.ops)}.json")
        self.report_of[name] = report
        c = inst.capacity
        argv = ["solve", inst.path, "--S", "0", "--C", str(c), "--b", str(c + 1), "--trace", "-o", report]
        if noisy:
            argv += ["--noise-mode", "seeded-uniform", "--eps", repr(self.EPS), "--seed", str(noise_seed)]

        def run():
            code, _out, err = call_cli(argv)
            if code != 0:
                raise OpError(f"solve exited {code}: {err.strip()}")
            return call_cli(["verify", report])

        def check(verified):
            return self._check(name, inst, noisy, report, verified)

        return Op(name, run, check)

    def _check(self, name, inst, noisy, report, verified) -> list[str]:
        problems = []
        code, out, err = verified
        if code != 0 or not out.startswith("verify PASS"):
            problems.append(f"verify exited {code}: {(out + err).strip()[:300]}")
        with open(report, encoding="utf-8") as handle:
            doc = json.load(handle)
        n, c = inst.n, inst.capacity
        config = doc["config"]
        if (config["S"], config["C"], config["b"]) != (0, c, c + 1):
            problems.append(f"report config {config} is not S=0 C={c} b={c + 1}")
        result = doc["result"]
        members = inst.positions(result["best_assortment"], c, "best assortment", problems)
        true_rev = independent.revenue(inst.prices, inst.weights, members)
        recorded = float(result["best_oracle_revenue"])
        optimum = inst.optima[c]
        calls = result["oracle_calls"]
        s, b = 0, c + 1
        bound = (c - s) * comb(n, s) * (n * b + 1) * (c * n + n)
        if not 1 <= calls <= bound:
            problems.append(f"oracle_calls {calls} outside [1, {bound}]")
        if noisy:
            heaviest = 1.0 + float(np.sort(inst.weights)[::-1][:c].sum())
            opt_weight = 1.0 + float(inst.weights[inst.opt_members].sum())
            f = (heaviest / opt_weight) * 4.0 * c * self.EPS / (1.0 - self.EPS)
            gap = (optimum - true_rev) / optimum
            if not f < 1.0:
                problems.append(f"gap bound f={f!r} is vacuous")
            if not -REL_TOL <= gap <= f:
                problems.append(f"realised gap {gap!r} outside [0, f={f!r}]")
            if not (1.0 - self.EPS) * true_rev * (1 - REL_TOL) <= recorded <= true_rev * (1 + REL_TOL):
                problems.append(f"noisy revenue {recorded!r} not within eps below the true {true_rev!r}")
        else:
            if not (close(recorded, optimum) and close(true_rev, optimum)):
                problems.append(
                    f"revenue {recorded!r} (recomputed {true_rev!r}) is not the optimum {optimum!r}"
                )
        if (doc.get("analysis") or {}).get("trace_violations") != 0:
            problems.append(f"report analysis {doc.get('analysis')} has trace violations")
        problems += self._same_as_before(name, doc)
        self.calls.append(calls)
        return problems

    def _same_as_before(self, name: str, doc: dict) -> list[str]:
        """Compare a report, less timing_ms, with the first one this op wrote."""
        doc = {key: value for key, value in doc.items() if key != "timing_ms"}
        payload = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
        if self.first_payload.setdefault(name, payload) != payload:
            return [f"{name}: report differs from the first round's in more than timing_ms"]
        return []

    def prepare(self) -> None:
        for inst in self.instances:
            gen_instance(inst.n, inst.gen_seed, inst.path)

    def warmup_ops(self) -> list[Op]:
        # one of each distinct (size, oracle) op: the first instance of each size
        return [op for op in self.ops if op.name.endswith("-0.json")]

    def reference(self) -> None:
        for inst in self.instances:
            inst.solve_reference()

    def round_ops(self, _index: int) -> list[Op]:
        return self.ops

    def determinism(self) -> list[str]:
        """Rerun one op of each kind; each report must repeat the first round's."""
        problems = []
        for op in self.warmup_ops():
            op.run()
            with open(self.report_of[op.name], encoding="utf-8") as handle:
                problems += self._same_as_before(op.name, json.load(handle))
        return problems

    def oracle_calls_per_op(self) -> float:
        return mean(self.calls)


class ReferenceMnl:
    """The library's candidate-set reference solver on mid-sized instances."""

    name = "reference-mnl"
    SIZES = (30, 45, 60)
    INSTANCES_PER_SIZE = 8
    CAPACITY = 8

    def __init__(self, workdir: str, seed: int):
        self.instances = [
            Instance(os.path.join(workdir, f"inst-{n}-{j}.json"), n, self.CAPACITY, derive(seed, self.name, n, j))
            for j in range(self.INSTANCES_PER_SIZE)
            for n in self.SIZES
        ]
        self.loaded: dict[str, Any] = {}
        self.ops = [self._op(inst) for inst in self.instances]
        self.collection_sizes: list[int] = []

    def _op(self, inst: Instance) -> Op:
        name = f"candidate_set_opt N={inst.n} C={self.CAPACITY} {os.path.basename(inst.path)}"

        def run():
            return reference.candidate_set_opt(self.loaded[inst.path], self.CAPACITY)

        def check(solution):
            return self._check(inst, solution)

        return Op(name, run, check)

    def _check(self, inst: Instance, solution) -> list[str]:
        problems = []
        per_size = solution.per_size_optima
        if sorted(per_size) != list(range(self.CAPACITY + 1)):
            return [f"per_size_optima has capacities {sorted(per_size)}"]
        previous = 0.0
        for k in range(self.CAPACITY + 1):
            assortment, rev = per_size[k]
            members = inst.positions(list(assortment.ids), k, f"k={k} optimum", problems)
            own = independent.revenue(inst.prices, inst.weights, members)
            if not close(rev, own):
                problems.append(f"k={k}: stated revenue {rev!r}, recomputed {own!r}")
            if not close(rev, inst.optima[k]):
                problems.append(f"k={k}: revenue {rev!r} is not the optimum {inst.optima[k]!r}")
            if rev < previous * (1 - REL_TOL):
                problems.append(f"k={k}: revenue {rev!r} below k={k - 1}'s {previous!r}")
            previous = rev
        if (solution.assortment, solution.revenue) != per_size[self.CAPACITY]:
            problems.append("the returned optimum is not per_size_optima at the capacity")
        self.collection_sizes.append(solution.candidate_collection_size)
        return problems

    def prepare(self) -> None:
        for inst in self.instances:
            gen_instance(inst.n, inst.gen_seed, inst.path)
            self.loaded[inst.path] = assortopt_io.load_instance(inst.path)[0]

    def warmup_ops(self) -> list[Op]:
        return [op for op in self.ops if op.name.endswith("-0.json")]

    def reference(self) -> None:
        for inst in self.instances:
            inst.solve_reference()

    def round_ops(self, _index: int) -> list[Op]:
        return self.ops

    def determinism(self) -> list[str]:
        return []

    def oracle_calls_per_op(self) -> float:
        # the reference solver evaluates each candidate set once instead of calling an oracle
        return mean(self.collection_sizes)


class SweepDesk:
    """``bench --suite full`` over the desk grid with every b rule, on two jobs."""

    name = "sweep-desk"
    NS = (6, 8, 10)
    CS = (2, 3, 4)
    B_RULES = ("C", "C+1", "2C", "auto")
    EPSS = (0.0, 0.001, 0.01)
    SEEDS = 3

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.calls: list[float] = []
        self.first: tuple[int, bytes, str] | None = None  # base seed, bench.json, table
        self.jobs1_s: float | None = None

    def _argv(self, base_seed: int, jobs: int, path: str) -> list[str]:
        return ["bench", "--suite", "full", "--b", *self.B_RULES, "--seeds", str(self.SEEDS),
                "--base-seed", str(base_seed), "--jobs", str(jobs), "-o", path]

    def _op(self, label: str, base_seed: int) -> Op:
        path = os.path.join(self.workdir, "bench.json")
        argv = self._argv(base_seed, 2, path)
        name = f"bench --base-seed {base_seed} ({label})"

        def run():
            code, out, err = call_cli(argv)
            if code != 0:
                raise OpError(f"bench exited {code}: {err.strip()[:300]}")
            return out

        def check(out):
            with open(path, "rb") as handle:
                raw = handle.read()
            if self.first is None:
                self.first = (base_seed, raw, out)
            return self._check(json.loads(raw))

        return Op(name, run, check)

    @staticmethod
    def _budget(rule: str, c: int) -> int | None:
        return {"C": c, "C+1": c + 1, "2C": 2 * c}.get(rule)

    def _check(self, doc: dict) -> list[str]:
        problems = []
        expected = [(n, c, rule, eps) for n in self.NS for c in self.CS
                    for rule in self.B_RULES for eps in self.EPSS]
        cells = doc["cells"]
        got = [(cell["N"], cell["C"], cell["b"], float(cell["eps"])) for cell in cells]
        if got != expected:
            return [f"bench.json has {len(cells)} cells, not the {len(expected)}-cell grid in order"]
        for cell, (n, c, rule, eps) in zip(cells, expected):
            where = f"cell N={n} C={c} b={rule} eps={eps}"
            budget = self._budget(rule, c)
            # call bound with S = 0; the auto rule picks b >= C + 1 per instance
            bound = c * (n * (budget or c + 1) + 1) * (c * n + n)
            if cell["seeds"] != self.SEEDS:
                problems.append(f"{where}: {cell['seeds']} seeds")
            if cell["call_violations"] != 0 or not cell["max_calls"] <= cell["call_bound"]:
                problems.append(f"{where}: max_calls {cell['max_calls']} over bound {cell['call_bound']}")
            if (cell["call_bound"] != bound) if budget else (cell["call_bound"] < bound):
                problems.append(f"{where}: call_bound {cell['call_bound']}, expected {bound}")
            if eps == 0.0:
                if not float(cell["max_gap"]) <= 1e-9:
                    problems.append(f"{where}: max_gap {cell['max_gap']} with an exact oracle")
                want = self.SEEDS if rule in ("C+1", "2C") else None
                if cell["exact_passes"] != want:
                    problems.append(f"{where}: exact_passes {cell['exact_passes']}, expected {want}")
            elif cell["gap_bound_violations"] != 0:
                problems.append(f"{where}: {cell['gap_bound_violations']} gap-bound violations")
        summary = doc["summary"]
        applicable = self.SEEDS * len(self.NS) * len(self.CS) * 2  # eps = 0 with b = C+1 or 2C
        if summary["cells"] != len(expected) or summary["call_violations"] != 0 \
                or summary["gap_bound_violations"] != 0 \
                or summary["exact_recovery_passed"] != summary["exact_recovery_applicable"] \
                or summary["exact_recovery_applicable"] != applicable:
            problems.append(f"summary {summary} reports violations or missed recoveries")
        self.calls.append(statistics.fmean(cell["max_calls"] for cell in cells))
        return problems

    def prepare(self) -> None:
        pass  # bench draws its own instances from --base-seed

    def warmup_ops(self) -> list[Op]:
        return [self._op("warm-up", derive(self.seed, self.name, "warm-up"))]

    def reference(self) -> None:
        pass

    def round_ops(self, index: int) -> list[Op]:
        return [self._op(f"round {index}", derive(self.seed, self.name, index))]

    def determinism(self) -> list[str]:
        """The first timed op's bench.json and table, rerun at --jobs 1, must be byte-equal."""
        if self.first is None:
            return []
        base_seed, raw, out = self.first
        path = os.path.join(self.workdir, "bench-jobs1.json")
        start = perf_counter()
        code, out1, err = call_cli(self._argv(base_seed, 1, path))
        self.jobs1_s = perf_counter() - start
        if code != 0:
            return [f"bench --jobs 1 exited {code}: {err.strip()[:300]}"]
        with open(path, "rb") as handle:
            raw1 = handle.read()
        problems = []
        if raw1 != raw:
            problems.append("bench.json differs between --jobs 2 and --jobs 1")
        if out1 != out:
            problems.append("bench table differs between --jobs 2 and --jobs 1")
        return problems

    def oracle_calls_per_op(self) -> float:
        # bench.json records each cell's largest greedy call count
        return mean(self.calls)


WORKLOADS = {w.name: w for w in (SolveLarge, ReferenceMnl, SweepDesk)}
