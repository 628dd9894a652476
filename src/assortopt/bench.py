"""Benchmark harness sweeping a grid of solver settings over seeded instances.

This module is the one home of the grid: ``DEFAULT_GRID`` holds the
default values of its four axes (``N``, ``C``, ``b`` and ``eps``, named as
the CLI flags and the bench.json cells name them), and ``SUITES`` holds
the axes each suite sets itself. ``run_bench`` refuses a given axis that
its suite sets, rather than ignoring it.

Each grid cell (N, C, b-rule, eps) runs a batch of seeded random
instances, solving each with the greedy search and with the exact MNL
fixed point (``reference.mnl_opt``, polynomial in N), and aggregates the
realized optimality gaps, oracle-call counts versus the analytic bound,
and the exact-recovery pass rate into the cell's bench.json document.
Instance seeds derive from (N, C, eps) and the seed index, not from the
b rule, so the rows of every b rule at one (N, C, eps) read the same
instances: each is generated, solved exactly and bounded once. A greedy
run stands for every other budget that ``greedy.same_run_under_budget``
certifies it never reached, so only the budgets that change a run are
solved again. Cells run one after another. The CLI's ``--jobs`` option
and the ASSORTOPT_JOBS environment variable have no effect: the cells are
pure Python, which threads cannot run in parallel.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

from .analysis import compute_bounds, max_slack_set_size, realized_gap
from .errors import ValidationError
from .generate import GeneratorSpec, derive_seed, generate_instance
from .greedy import (
    GreedyConfig,
    SolveReport,
    call_count_bound,
    greedy_opt,
    same_run_under_budget,
)
from .oracles import NoiseSpec, make_oracle
from .reference import mnl_opt, revenues_agree

#: Each grid axis and the values it takes unless given.
DEFAULT_GRID = {
    "N": (6, 8, 10), "C": (2, 3, 4), "b": ("C", "C+1", "2C"), "eps": (0.0, 0.001, 0.01),
}
#: The axes each suite sets itself; theorem2 also drops eps = 0 from the eps it is given
#: and refuses a list with no positive eps.
SUITES = {
    "full": {},
    "theorem1": {"b": ("C+1",), "eps": (0.0,)},
    "theorem2": {"N": (8,), "C": (3,), "b": ("auto",)},
}
DEFAULT_SEEDS_PER_CELL = 50


def resolve_b_rule(rule: str, capacity: int) -> int | None:
    """Map a b-rule token to a concrete budget; None means per-instance."""
    if rule == "C":
        budget = capacity
    elif rule == "C+1":
        budget = capacity + 1
    elif rule == "2C":
        budget = 2 * capacity
    elif rule == "auto":
        return None
    else:
        raise ValidationError(f"unknown b rule {rule!r}", code="bad-config")
    if budget < 1:
        raise ValidationError(
            f"b rule {rule!r} gives b = {budget} at C = {capacity}", code="bad-config"
        )
    return budget


class _Run(NamedTuple):
    """One instance's greedy run under one b rule."""

    gap: float
    calls: int
    call_bound: int
    recovered: bool  # the exact MNL optimum's revenue was reached
    gap_bound_holds: bool | None  # None when the bound is vacuous


def _noise(eps: float, seed: int) -> NoiseSpec:
    """The oracle noise at ``eps`` for the instance drawn from ``seed``."""
    if eps == 0.0:
        return NoiseSpec()
    return NoiseSpec(mode="seeded-uniform", eps=eps, seed=derive_seed("noise", seed))


def _run_group(
    n: int,
    capacity: int,
    eps: float,
    budgets: list[int | None],
    seeds_per_cell: int,
    base_seed: int,
) -> list[list[_Run]]:
    """The runs of every b rule at one (N, C, eps), per rule, on the same instances.

    ``budgets`` are the rules' resolved budgets (None for ``auto``). Each
    instance is generated, solved exactly and bounded once; a greedy run
    stands for every other budget ``same_run_under_budget`` certifies.
    """
    runs: list[list[_Run]] = [[] for _ in budgets]
    for k in range(seeds_per_cell):
        seed = derive_seed("bench", base_seed, n, capacity, repr(eps), k)
        instance = generate_instance(GeneratorSpec(n, seed=seed))
        opt = mnl_opt(instance, capacity)
        noise = _noise(eps, seed)
        bound = compute_bounds(instance, capacity, noise.eps, opt)
        oracle = make_oracle(instance, noise)
        auto = None
        if None in budgets:
            slack_size = max_slack_set_size(instance, capacity, 2.0 * bound.delta_cap)
            auto = max(capacity + 1, slack_size + 1)

        solved: list[tuple[int, SolveReport]] = []
        for rule_runs, fixed in zip(runs, budgets):
            budget = auto if fixed is None else fixed
            config = GreedyConfig(seed_size=0, capacity=capacity, exchange_budget=budget)
            report = next(
                (done for b, done in solved if same_run_under_budget(done, b, budget)), None
            )
            if report is None:
                report = greedy_opt(config, instance.ids(), oracle)
                solved.append((budget, report))
            gap = realized_gap(instance, report.best_assortment, opt)
            rule_runs.append(
                _Run(
                    gap=gap,
                    calls=report.oracle_calls,
                    call_bound=call_count_bound(n, config),
                    recovered=revenues_agree(report.best_oracle_revenue, opt.revenue),
                    gap_bound_holds=bound.holds(gap),
                )
            )
    return runs


def _cell_outcome(n: int, capacity: int, b_rule: str, eps: float, runs: list[_Run]) -> dict:
    """One cell's bench.json document; floats are kept as their ``repr``."""
    exact = eps == 0.0 and b_rule in ("C+1", "2C")
    noisy = eps > 0.0
    return {
        "N": n,
        "C": capacity,
        "b": b_rule,
        "eps": repr(eps),
        "seeds": len(runs),
        "max_gap": repr(max([0.0, *(run.gap for run in runs)])),
        "max_calls": max(run.calls for run in runs),
        "call_bound": max(run.call_bound for run in runs),
        "call_violations": sum(run.calls > run.call_bound for run in runs),
        # None where the cell is not an exact-recovery cell, or is not noisy
        "exact_passes": sum(run.recovered for run in runs) if exact else None,
        "gap_bound_violations": (
            sum(run.gap_bound_holds is False for run in runs) if noisy else None
        ),
        "vacuous_bounds": sum(run.gap_bound_holds is None for run in runs) if noisy else None,
    }


def _suite_grid(suite: str, grid: Mapping[str, tuple]) -> dict[str, tuple]:
    """The grid ``suite`` runs: the given axes over ``DEFAULT_GRID``, then the suite's own.

    An unknown suite or axis, a given axis the suite sets itself, and a
    theorem2 eps list with no positive value are refused.
    """
    if suite not in SUITES:
        raise ValidationError(f"unknown suite {suite!r}", code="bad-config")
    unknown = sorted(set(grid) - set(DEFAULT_GRID))
    if unknown:
        raise ValidationError(f"unknown grid axes {unknown}", code="bad-config")
    given = [f"--{axis}" for axis in SUITES[suite] if axis in grid]
    if given:
        message = f"--suite {suite} sets {' and '.join(given)} itself; drop the flag"
        raise ValidationError(message, code="bad-config")
    grid = {**DEFAULT_GRID, **grid, **SUITES[suite]}
    if suite == "theorem2":
        if not any(eps > 0.0 for eps in grid["eps"]):
            message = f"--suite theorem2 needs a positive --eps, got {list(grid['eps'])}"
            raise ValidationError(message, code="bad-config")
        grid["eps"] = tuple(eps for eps in grid["eps"] if eps != 0.0)
    return grid


def run_bench(
    suite: str = "full",
    grid: Mapping[str, tuple] | None = None,
    seeds_per_cell: int = DEFAULT_SEEDS_PER_CELL,
    base_seed: int = 0,
) -> tuple[list[dict], dict]:
    """Run a sweep and return (bench.json cell documents in grid order, summary dict).

    ``grid`` gives some of the ``DEFAULT_GRID`` axes; the others keep
    their defaults. The suite, the seed count, every b rule, every (N, C)
    pair and every eps are checked before the first solve.
    """
    grid = _suite_grid(suite, grid or {})
    if seeds_per_cell < 1:
        raise ValidationError(f"need >= 1 seed per cell, got {seeds_per_cell}", code="bad-config")
    budgets = {c: [resolve_b_rule(rule, c) for rule in grid["b"]] for c in grid["C"]}
    for n in grid["N"]:
        for c in grid["C"]:  # sizes first: b = C+1 is a valid budget once 0 <= C
            GreedyConfig(seed_size=0, capacity=c, exchange_budget=c + 1).validate(n)
    for eps in grid["eps"]:
        _noise(eps, base_seed)  # refuses an eps outside [0, 1)

    cells = []
    for n in grid["N"]:
        for c in grid["C"]:
            groups = [
                _run_group(n, c, eps, budgets[c], seeds_per_cell, base_seed)
                for eps in grid["eps"]
            ]
            cells += [
                _cell_outcome(n, c, rule, eps, runs[r])
                for r, rule in enumerate(grid["b"])
                for eps, runs in zip(grid["eps"], groups)
            ]

    exact = [cell for cell in cells if cell["exact_passes"] is not None]
    noisy = [cell for cell in cells if cell["gap_bound_violations"] is not None]
    summary = {
        "suite": suite,
        "cells": len(cells),
        "call_violations": sum(cell["call_violations"] for cell in cells),
        "exact_recovery_passed": sum(cell["exact_passes"] for cell in exact),
        "exact_recovery_applicable": sum(cell["seeds"] for cell in exact),
        "gap_bound_violations": sum(cell["gap_bound_violations"] for cell in noisy),
        "vacuous_bounds": sum(cell["vacuous_bounds"] for cell in noisy),
    }
    return cells, summary


def format_table(cells: list[dict], summary: dict) -> str:
    """Fixed-width summary table; deterministic byte-for-byte."""
    header = (
        f"{'N':>4} {'C':>3} {'b':>5} {'eps':>7} {'seeds':>6} "
        f"{'max_gap':>12} {'max_calls':>10} {'call_bound':>11} {'exact':>8} {'gap_viol':>9}"
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        passes, violations = cell["exact_passes"], cell["gap_bound_violations"]
        exact = "-" if passes is None else f"{passes}/{cell['seeds']}"
        gap_viol = "-" if violations is None else str(violations)
        lines.append(
            f"{cell['N']:>4} {cell['C']:>3} {cell['b']:>5} {float(cell['eps']):>7g} "
            f"{cell['seeds']:>6} {float(cell['max_gap']):>12.3e} {cell['max_calls']:>10} "
            f"{cell['call_bound']:>11} {exact:>8} {gap_viol:>9}"
        )
    lines.append("")
    lines.append(f"call-count violations: {summary['call_violations']}")
    if summary["exact_recovery_applicable"]:
        rate = 100.0 * summary["exact_recovery_passed"] / summary["exact_recovery_applicable"]
        lines.append(
            f"exact recovery pass rate: {rate:.2f}% "
            f"({summary['exact_recovery_passed']}/{summary['exact_recovery_applicable']})"
        )
    if summary["suite"] != "theorem1":
        lines.append(
            f"gap-bound violations: {summary['gap_bound_violations']} "
            f"(vacuous bounds skipped: {summary['vacuous_bounds']})"
        )
    return "\n".join(lines) + "\n"


def assertion_failures(summary: dict) -> list[str]:
    """Violated guarantees that should make the CLI exit nonzero."""
    failures = []
    if summary["call_violations"]:
        failures.append(f"{summary['call_violations']} runs exceeded the oracle-call bound")
    if summary["suite"] == "theorem1" and summary["exact_recovery_applicable"]:
        missed = summary["exact_recovery_applicable"] - summary["exact_recovery_passed"]
        if missed:
            failures.append(f"{missed} exact-recovery runs missed the exact MNL optimum")
    if summary["gap_bound_violations"]:
        failures.append(
            f"{summary['gap_bound_violations']} noisy runs exceeded the gap bound"
        )
    return failures
