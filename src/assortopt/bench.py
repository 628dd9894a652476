"""Benchmark harness sweeping a grid of solver settings over seeded instances.

Each grid cell (N, C, b-rule, eps) runs a batch of seeded random
instances, solving each with the greedy search and with the exact MNL
fixed point (``reference.mnl_opt``, polynomial in N), and aggregates the
realized optimality gaps, oracle-call counts versus the analytic bound,
and the exact-recovery pass rate. Instance seeds derive from (N, C, eps)
and the seed index, not from the b rule, so the rows of every b rule at
one (N, C, eps) read the same instances: each is generated, solved
exactly and bounded once. A greedy run stands for every other budget
that ``greedy.same_run_under_budget`` certifies it never reached, so only
the budgets that change a run are solved again. Cells run one after
another. The CLI's ``--jobs`` option and the ASSORTOPT_JOBS environment
variable have no effect: the cells are pure Python, which threads cannot
run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
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

DEFAULT_NS = (6, 8, 10)
DEFAULT_CS = (2, 3, 4)
DEFAULT_B_RULES = ("C", "C+1", "2C")
DEFAULT_EPSS = (0.0, 0.001, 0.01)
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


@dataclass(frozen=True)
class CellOutcome:
    n: int
    capacity: int
    b_rule: str
    eps: float
    seeds: int
    max_gap: float
    max_calls: int
    call_bound: int
    call_violations: int
    exact_passes: int | None  # None when the cell is not an exact-recovery cell
    gap_bound_violations: int | None  # None when eps == 0
    vacuous_bounds: int | None


class _Run(NamedTuple):
    """One instance's greedy run under one b rule."""

    gap: float
    calls: int
    call_bound: int
    recovered: bool  # the exact MNL optimum's revenue was reached
    gap_bound_holds: bool | None  # None when the bound is vacuous


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
        noise = NoiseSpec() if eps == 0.0 else NoiseSpec(
            mode="seeded-uniform", eps_max=eps, seed=derive_seed("noise", seed)
        )
        bound = compute_bounds(instance, capacity, noise.eps_bound, opt)
        oracle = make_oracle(instance, noise)
        auto = None
        if None in budgets:
            slack_size = max_slack_set_size(instance, capacity, 2.0 * bound.inputs.delta_cap)
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


def _cell_outcome(n: int, capacity: int, b_rule: str, eps: float, runs: list[_Run]) -> CellOutcome:
    exact = eps == 0.0 and b_rule in ("C+1", "2C")
    noisy = eps > 0.0
    return CellOutcome(
        n=n,
        capacity=capacity,
        b_rule=b_rule,
        eps=eps,
        seeds=len(runs),
        max_gap=max([0.0, *(run.gap for run in runs)]),
        max_calls=max(run.calls for run in runs),
        call_bound=max(run.call_bound for run in runs),
        call_violations=sum(run.calls > run.call_bound for run in runs),
        exact_passes=sum(run.recovered for run in runs) if exact else None,
        gap_bound_violations=sum(run.gap_bound_holds is False for run in runs) if noisy else None,
        vacuous_bounds=sum(run.gap_bound_holds is None for run in runs) if noisy else None,
    )


def run_bench(
    suite: str = "full",
    ns: tuple[int, ...] = DEFAULT_NS,
    cs: tuple[int, ...] = DEFAULT_CS,
    b_rules: tuple[str, ...] = DEFAULT_B_RULES,
    epss: tuple[float, ...] = DEFAULT_EPSS,
    seeds_per_cell: int = DEFAULT_SEEDS_PER_CELL,
    base_seed: int = 0,
) -> tuple[list[CellOutcome], dict]:
    """Run a sweep and return (cell outcomes in grid order, summary dict)."""
    if seeds_per_cell < 1:
        raise ValidationError(f"need >= 1 seed per cell, got {seeds_per_cell}", code="bad-config")
    if suite == "theorem1":
        b_rules = ("C+1",)
        epss = (0.0,)
    elif suite == "theorem2":
        ns = (8,)
        cs = (3,)
        b_rules = ("auto",)
        epss = tuple(e for e in epss if e > 0.0) or (0.001, 0.01)
    elif suite != "full":
        raise ValidationError(f"unknown suite {suite!r}", code="bad-config")
    # every rule is resolved and checked before the first solve
    budgets = {c: [resolve_b_rule(rule, c) for rule in b_rules] for c in cs}

    outcomes = []
    for n in ns:
        for c in cs:
            groups = [
                _run_group(n, c, eps, budgets[c], seeds_per_cell, base_seed)
                for eps in epss
            ]
            outcomes += [
                _cell_outcome(n, c, rule, eps, runs[r])
                for r, rule in enumerate(b_rules)
                for eps, runs in zip(epss, groups)
            ]

    exact_applicable = sum(o.seeds for o in outcomes if o.exact_passes is not None)
    exact_passed = sum(o.exact_passes for o in outcomes if o.exact_passes is not None)
    summary = {
        "suite": suite,
        "cells": len(outcomes),
        "call_violations": sum(o.call_violations for o in outcomes),
        "exact_recovery_passed": exact_passed,
        "exact_recovery_applicable": exact_applicable,
        "gap_bound_violations": sum(
            o.gap_bound_violations for o in outcomes if o.gap_bound_violations is not None
        ),
        "vacuous_bounds": sum(o.vacuous_bounds for o in outcomes if o.vacuous_bounds is not None),
    }
    return outcomes, summary


def outcome_to_document(outcome: CellOutcome) -> dict:
    return {
        "N": outcome.n,
        "C": outcome.capacity,
        "b": outcome.b_rule,
        "eps": repr(outcome.eps),
        "seeds": outcome.seeds,
        "max_gap": repr(outcome.max_gap),
        "max_calls": outcome.max_calls,
        "call_bound": outcome.call_bound,
        "call_violations": outcome.call_violations,
        "exact_passes": outcome.exact_passes,
        "gap_bound_violations": outcome.gap_bound_violations,
        "vacuous_bounds": outcome.vacuous_bounds,
    }


def format_table(outcomes: list[CellOutcome], summary: dict) -> str:
    """Fixed-width summary table; deterministic byte-for-byte."""
    header = (
        f"{'N':>4} {'C':>3} {'b':>5} {'eps':>7} {'seeds':>6} "
        f"{'max_gap':>12} {'max_calls':>10} {'call_bound':>11} {'exact':>8} {'gap_viol':>9}"
    )
    lines = [header, "-" * len(header)]
    for o in outcomes:
        exact = "-" if o.exact_passes is None else f"{o.exact_passes}/{o.seeds}"
        gap_viol = "-" if o.gap_bound_violations is None else str(o.gap_bound_violations)
        lines.append(
            f"{o.n:>4} {o.capacity:>3} {o.b_rule:>5} {o.eps:>7g} {o.seeds:>6} "
            f"{o.max_gap:>12.3e} {o.max_calls:>10} {o.call_bound:>11} {exact:>8} {gap_viol:>9}"
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


def assertion_failures(outcomes: list[CellOutcome], summary: dict) -> list[str]:
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
