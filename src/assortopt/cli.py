"""Command-line interface.

Subcommands: gen (write a random instance), solve (greedy search, write a
run report), exact (cross-checked reference solvers), bench (grid sweep),
verify (replay a run report's trace and invariant checks with no other
inputs: each seed's pool and budget bookkeeping is replayed from the seed,
and its exact, gap, bounds and analysis sections are recomputed the way
solve writes them). Exit codes: 0 ok, 2 usage, 3 validation, 4 assertion
failure, 5 I/O; errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
import time
from math import comb

from . import bench as bench_mod
from . import io as io_mod
from .analysis import (
    GapBound,
    TraceViolation,
    check_margin_revenue_equivalence,
    check_trace_invariants,
    compute_bounds,
    realized_gap,
    slack_cap,
    trace_bookkeeping_problems,
)
from .errors import ConfigError, ValidationError, VerificationFailure
from .generate import (
    DEFAULT_PRICE_RANGE, DEFAULT_WEIGHT_RANGE, GeneratorSpec, derive_seed, generate_instance,
)
from .greedy import GreedyConfig, SolveReport, call_count_bound, greedy_opt
from .instance import Assortment, Instance
from .oracles import NOISE_MODES, ExactMnlOracle, NoiseSpec, make_oracle
from .reference import ExactSolution, brute_force_opt, candidate_set_opt, mnl_opt, revenues_agree

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_ASSERTION = 4
EXIT_IO = 5


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _error_json(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"code": code, "message": message}}) + "\n")


def _capacity(args: argparse.Namespace, instance: Instance) -> int:
    """``--C``, or else the capacity stored in the instance file."""
    capacity = args.C if args.C is not None else instance.capacity_default
    if capacity is None:
        raise ValidationError("no --C given and the instance has no capacity", code="bad-config")
    return capacity


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        n=args.N,
        weight_lo=args.w_lo,
        weight_hi=args.w_hi,
        price_lo=args.p_lo,
        price_hi=args.p_hi,
        seed=args.seed,
    )
    instance = generate_instance(spec)
    if args.capacity is not None:
        instance = Instance(instance.products, args.capacity)
    metadata = {
        "generator": {
            "n": spec.n,
            "weight_lo": repr(spec.weight_lo),
            "weight_hi": repr(spec.weight_hi),
            "price_lo": repr(spec.price_lo),
            "price_hi": repr(spec.price_hi),
            "seed": spec.seed,
        }
    }
    _emit(io_mod.serialize_instance(instance, metadata), args.output)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    instance, _meta = io_mod.load_instance(args.instance)
    capacity = _capacity(args, instance)
    budget = args.b if args.b is not None else capacity + 1
    config = GreedyConfig(seed_size=args.S, capacity=capacity, exchange_budget=budget)
    # the noise seed is read only by seeded-uniform noise; mode none writes it as 0
    noise = NoiseSpec(args.noise_mode, args.eps, args.seed if args.noise_mode != "none" else 0)
    oracle = make_oracle(instance, noise)

    start = time.perf_counter()
    result = greedy_opt(config, instance.ids(), oracle, trace=args.trace)
    elapsed_ms = 1000.0 * (time.perf_counter() - start)

    sections, *_ = _derived_sections(instance, capacity, noise, result, args.exact)
    document = io_mod.run_report_document(
        instance, config, noise, result, sections, timing_ms=round(elapsed_ms, 3)
    )
    _emit(io_mod.serialize_report(document), args.output)
    return EXIT_OK


def _derived_sections(
    instance: Instance, capacity: int, noise: NoiseSpec, result: SolveReport, exact: bool
) -> tuple[
    dict, ExactSolution | None, float | None, GapBound | None, list[TraceViolation]
]:
    """What a run report derives from its run: (its ``io.derived_sections_to_document``
    sections, optimum, realized gap, gap bound, trace violations).

    The optimum, gap and bound are None unless ``exact`` is set; with no
    traces there are no violations and the ``analysis`` section is None.
    """
    opt = gap = bound = delta_cap = None
    violations: list[TraceViolation] = []
    if result.traces is not None:
        delta_cap = slack_cap(instance, capacity, noise.eps)
        for _seed, records in result.traces:
            violations.extend(check_trace_invariants(instance, records, delta_cap))
    if exact:
        opt = mnl_opt(instance, capacity)
        gap = realized_gap(instance, result.best_assortment, opt)
        bound = compute_bounds(instance, capacity, noise.eps, opt)
    sections = io_mod.derived_sections_to_document(opt, gap, bound, len(violations), delta_cap)
    return sections, opt, gap, bound, violations


def _optimum_claim_problems(
    config: GreedyConfig,
    noise: NoiseSpec,
    result: SolveReport,
    opt: ExactSolution,
    gap: float,
    bound: GapBound,
) -> list[str]:
    """Where a run misses what is claimed for it, judged as ``bench`` judges it.

    Both claims are for S = 0; a seed of S > 0 products cannot reach an
    optimum of fewer. Under noise the realized gap stays within a
    non-vacuous bound. With an exact oracle and b >= C + 1 the search
    recovers the optimum's revenue to ``revenues_agree``'s tolerance:
    tied optima can differ by an ulp. A smaller budget claims no recovery.
    """
    if config.seed_size != 0:
        return []
    if noise.eps > 0.0:
        if bound.holds(gap) is False:
            return [f"realized gap {gap!r} exceeds the gap bound {bound.f_value!r}"]
    elif config.exchange_budget > config.capacity and not revenues_agree(
        result.best_oracle_revenue, opt.revenue
    ):
        return [
            f"best revenue {result.best_oracle_revenue!r} misses the optimum {opt.revenue!r} "
            "with an exact oracle and b >= C + 1"
        ]
    return []


def cmd_exact(args: argparse.Namespace) -> int:
    instance, _meta = io_mod.load_instance(args.instance)
    capacity = _capacity(args, instance)
    if not 0 <= capacity <= instance.n:
        raise ConfigError(f"need 0 <= C <= N, got C={capacity} N={instance.n}")
    brute = brute_force_opt(ExactMnlOracle(instance), instance.ids(), capacity)
    candidate = candidate_set_opt(instance, capacity)
    fixed_point = mnl_opt(instance, capacity)
    agree = all(revenues_agree(s.revenue, brute.revenue) for s in (candidate, fixed_point))
    document = {
        "schema_version": io_mod.SCHEMA_VERSION,
        "instance_digest": io_mod.instance_digest(instance),
        "capacity": capacity,
        "brute_force": io_mod.exact_solution_to_document(brute),
        "candidate_set": io_mod.exact_solution_to_document(candidate),
        "fixed_point": io_mod.exact_solution_to_document(fixed_point),
        "solvers_agree": agree,
    }
    _emit(io_mod.serialize_report(document), args.output)
    if not agree:
        raise VerificationFailure(
            f"reference solvers disagree: brute={brute.revenue!r} "
            f"candidate={candidate.revenue!r} fixed_point={fixed_point.revenue!r}"
        )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    grid = {
        axis: tuple(values)
        for axis in bench_mod.DEFAULT_GRID
        if (values := getattr(args, axis)) is not None
    }
    cells, summary = bench_mod.run_bench(args.suite, grid, args.seeds, args.base_seed)
    sys.stdout.write(bench_mod.format_table(cells, summary))
    if args.output:
        document = {
            "schema_version": io_mod.SCHEMA_VERSION,
            "suite": summary["suite"],
            "base_seed": args.base_seed,
            "cells": cells,
            "summary": summary,
        }
        _emit(io_mod.serialize_report(document), args.output)
    failures = bench_mod.assertion_failures(summary)
    if failures:
        raise VerificationFailure("; ".join(failures))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    document = io_mod.load_report(args.report)
    instance, _meta = io_mod.parse_instance(document.get("instance"))
    config, noise = io_mod.config_from_document(document)
    config.validate(instance.n)
    result = io_mod.solve_report_from_document(document.get("result"))
    oracle = make_oracle(instance, noise)
    problems: list[str] = []

    digest = io_mod.instance_digest(instance)
    if digest != document.get("instance_digest"):
        problems.append("instance digest mismatch")

    if oracle.evaluate(result.best_assortment) != result.best_oracle_revenue:
        problems.append("recorded best revenue does not match a fresh oracle evaluation")
    problems.extend(_result_config_problems(instance.n, config, result))

    trace_steps = 0
    if result.traces:
        seeds = itertools.combinations(instance.ids(), config.seed_size)
        for (seed, records), seed_ids in zip(result.traces, seeds):
            if seed.ids != seed_ids:
                problems.append(f"trace seed {list(seed.ids)}, expected {list(seed_ids)}")
            problems.extend(
                trace_bookkeeping_problems(instance.ids(), config, Assortment(seed_ids), records)
            )
            for record in records:
                if record.action != "terminate":
                    trace_steps += 1
                    if oracle.evaluate(record.assortment_after) != record.revenue_after:
                        problems.append(
                            f"step {record.step_index}: recorded revenue is not reproducible"
                        )
    sections, opt, gap, bound, violations = _derived_sections(
        instance, config.capacity, noise, result, document.get("exact") is not None
    )
    problems.extend(v.describe() for v in violations)
    problems.extend(
        f"{key} does not match its recomputation from the instance, config and result"
        for key, value in sections.items()
        if document.get(key) != value
    )
    if opt is not None:
        problems.extend(_optimum_claim_problems(config, noise, result, opt, gap, bound))

    rng = random.Random(derive_seed("verify", document.get("instance_digest", ""), noise.seed))
    ids = list(instance.ids())
    pair_checks = 0
    if ids:
        for _ in range(100):
            size1 = rng.randint(0, min(config.capacity, len(ids)))
            size2 = rng.randint(0, min(config.capacity, len(ids)))
            m1 = Assortment.of(rng.sample(ids, size1))
            m2 = Assortment.of(rng.sample(ids, size2))
            report = check_margin_revenue_equivalence(instance, m1, m2)
            pair_checks += 1
            if not report.agree:
                problems.append(
                    f"margin/revenue comparison disagreed on {m1.ids} vs {m2.ids}"
                )

    status = "FAIL" if problems else "PASS"
    sys.stdout.write(
        f"verify {status}: digest ok={digest == document.get('instance_digest')}, "
        f"trace steps checked={trace_steps}, comparison pairs checked={pair_checks}\n"
    )
    for problem in problems:
        sys.stdout.write(f"  violation: {problem}\n")
    if problems:
        raise VerificationFailure(f"{len(problems)} verification problems")
    return EXIT_OK


def _result_config_problems(n: int, config: GreedyConfig, result: SolveReport) -> list[str]:
    """What a report's result claims that its config rules out."""
    problems = []
    seeds = comb(n, config.seed_size)
    if len(result.best_assortment) > config.capacity:
        problems.append(
            f"best assortment has {len(result.best_assortment)} products, above C={config.capacity}"
        )
    if result.seeds_explored != seeds:
        problems.append(f"seeds_explored={result.seeds_explored}, expected binom(N, S)={seeds}")
    if result.traces is not None and len(result.traces) != seeds:
        problems.append(f"{len(result.traces)} traces, expected one per seed: binom(N, S)={seeds}")
    bound = call_count_bound(n, config)
    # at S = C each seed is scored once, and the bound is that count
    low = bound if config.seed_size == config.capacity else 1
    if not low <= result.oracle_calls <= bound:
        problems.append(f"oracle_calls={result.oracle_calls} outside [{low}, {bound}]")
    return problems


# Built once per process: a run of ``main`` in process reuses the parser,
# and ``set_defaults(func=...)`` binds the ``cmd_*`` functions at that first
# build. ``parse_args`` leaves the parser as it found it, so calls share no state.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assortopt",
        description="Capacitated assortment optimization via greedy add-exchange search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("--N", type=int, required=True, help="number of products")
    gen.add_argument("--seed", type=int, required=True)
    w_lo, w_hi = DEFAULT_WEIGHT_RANGE
    p_lo, p_hi = DEFAULT_PRICE_RANGE
    gen.add_argument("--w-lo", type=float, default=w_lo, help="weight range low (log-uniform)")
    gen.add_argument("--w-hi", type=float, default=w_hi, help="weight range high")
    gen.add_argument("--p-lo", type=float, default=p_lo, help="price range low (uniform)")
    gen.add_argument("--p-hi", type=float, default=p_hi, help="price range high")
    gen.add_argument("--capacity", type=int, default=None, help="default capacity stored in the file")
    gen.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run the greedy solver on an instance file")
    solve.add_argument("instance", help="instance JSON path")
    solve.add_argument("--S", type=int, default=0, help="seed subset size")
    solve.add_argument("--C", type=int, default=None, help="capacity (default: instance file)")
    solve.add_argument("--b", type=int, default=None, help="exchange-out budget (default C+1)")
    solve.add_argument("--noise-mode", choices=NOISE_MODES, default="none")
    solve.add_argument(
        "--eps", type=float, default=0.0,
        help="noise level: the factor of fixed mode, the largest factor of seeded-uniform",
    )
    solve.add_argument("--seed", type=int, default=0, help="noise seed")
    solve.add_argument("--trace", action="store_true", help="record per-step trace")
    solve.add_argument(
        "--exact", action="store_true",
        help="embed the exact MNL optimum (mnl_opt), realized gap and gap bound",
    )
    solve.add_argument("-o", "--output", default=None)
    solve.set_defaults(func=cmd_solve)

    exact = sub.add_parser("exact", help="run and cross-check all three reference solvers")
    exact.add_argument("instance")
    exact.add_argument("--C", type=int, default=None)
    exact.add_argument("-o", "--output", default=None)
    exact.set_defaults(func=cmd_exact)

    bench = sub.add_parser("bench", help="sweep a grid of (N, C, b, eps) cells")
    bench.add_argument("--suite", choices=list(bench_mod.SUITES), default="full")
    bench.add_argument("--N", type=int, nargs="+", default=None)
    bench.add_argument("--C", type=int, nargs="+", default=None)
    bench.add_argument("--b", nargs="+", default=None, help="b rules: C, C+1, 2C, auto")
    bench.add_argument("--eps", type=float, nargs="+", default=None)
    bench.add_argument("--seeds", type=int, default=bench_mod.DEFAULT_SEEDS_PER_CELL)
    bench.add_argument("--base-seed", type=int, default=0)
    bench.add_argument(
        "--jobs", type=int, default=None,
        help="accepted for compatibility; cells run serially",
    )
    bench.add_argument("-o", "--output", default=None)
    bench.set_defaults(func=cmd_bench)

    verify = sub.add_parser("verify", help="replay a run report's checks from the report alone")
    verify.add_argument("report")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _error_json(exc.code, str(exc))
        return EXIT_VALIDATION
    except VerificationFailure as exc:
        _error_json("assertion-failure", str(exc))
        return EXIT_ASSERTION
    except OSError as exc:
        _error_json("io", str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
