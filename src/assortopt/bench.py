"""Benchmark harness sweeping a grid of solver settings over seeded instances.

Each grid cell (N, C, b-rule, eps) runs a batch of seeded random
instances, solving each with the greedy search and with the exact MNL
fixed point (``reference.mnl_opt``, polynomial in N), and aggregates the
realized optimality gaps, oracle-call counts versus the analytic bound,
and the exact-recovery pass rate. Cells derive their seeds from the cell
coordinates and run one after another. The CLI's ``--jobs`` option and
the ASSORTOPT_JOBS environment variable have no effect: the cells are
pure Python, which threads cannot run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import compute_bounds, max_slack_set_size, realized_gap
from .errors import ValidationError
from .generate import GeneratorSpec, derive_seed, generate_instance
from .greedy import GreedyConfig, call_count_bound, greedy_opt
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
        return capacity
    if rule == "C+1":
        return capacity + 1
    if rule == "2C":
        return 2 * capacity
    if rule == "auto":
        return None
    raise ValidationError(f"unknown b rule {rule!r}", code="bad-config")


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


def _run_cell(
    n: int,
    capacity: int,
    b_rule: str,
    eps: float,
    seeds_per_cell: int,
    base_seed: int,
) -> CellOutcome:
    max_gap = 0.0
    max_calls = 0
    worst_bound = 0
    call_violations = 0
    exact_passes: int | None = 0 if eps == 0.0 and b_rule in ("C+1", "2C") else None
    gap_violations: int | None = 0 if eps > 0.0 else None
    vacuous: int | None = 0 if eps > 0.0 else None

    for k in range(seeds_per_cell):
        seed = derive_seed("bench", base_seed, n, capacity, b_rule, repr(eps), k)
        instance = generate_instance(GeneratorSpec(n, seed=seed))
        ids = instance.ids()
        opt = mnl_opt(instance, capacity)
        noise = NoiseSpec() if eps == 0.0 else NoiseSpec(
            mode="seeded-uniform", eps_max=eps, seed=derive_seed("noise", seed)
        )

        bound = compute_bounds(instance, capacity, noise.eps_bound, opt)
        budget = resolve_b_rule(b_rule, capacity)
        if budget is None:
            slack_size = max_slack_set_size(instance, capacity, 2.0 * bound.inputs.delta_cap)
            budget = max(capacity + 1, slack_size + 1)
        config = GreedyConfig(seed_size=0, capacity=capacity, exchange_budget=budget)

        report = greedy_opt(config, ids, make_oracle(instance, noise))
        gap = realized_gap(instance, report.best_assortment, opt)
        max_gap = max(max_gap, gap)
        max_calls = max(max_calls, report.oracle_calls)
        cell_bound = call_count_bound(n, config)
        worst_bound = max(worst_bound, cell_bound)
        if report.oracle_calls > cell_bound:
            call_violations += 1
        if exact_passes is not None and revenues_agree(report.best_oracle_revenue, opt.revenue):
            exact_passes += 1
        if gap_violations is not None:
            holds = bound.holds(gap)
            vacuous += holds is None
            gap_violations += holds is False

    return CellOutcome(
        n=n,
        capacity=capacity,
        b_rule=b_rule,
        eps=eps,
        seeds=seeds_per_cell,
        max_gap=max_gap,
        max_calls=max_calls,
        call_bound=worst_bound,
        call_violations=call_violations,
        exact_passes=exact_passes,
        gap_bound_violations=gap_violations,
        vacuous_bounds=vacuous,
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

    outcomes = [
        _run_cell(n, c, rule, eps, seeds_per_cell, base_seed)
        for n in ns
        for c in cs
        for rule in b_rules
        for eps in epss
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
