"""Acceptance suite: every shipped guarantee, exercised end to end.

Each test prints one PASS/FAIL line. Criteria:
  1. exact-oracle runs recover the brute-force optimum (200/200)
  2. oracle-call counts stay under the analytic bound on those runs
  3. noisy runs respect the relative-gap guarantee whenever it binds
  4. the candidate-set solver agrees with brute force; collection sizes
     stay within N*C + 1
  5. a committed nesting-failure witness defeats the addition-only greedy
  6. margin/revenue comparison equivalence and per-step trace invariants
  7. transform identity, fixed point, and top-set size bounds
  8. CLI outputs are byte-identical across reruns and parallelism levels
"""

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

import assortopt
from assortopt import (
    Assortment,
    GeneratorSpec,
    GreedyConfig,
    Instance,
    NoiseSpec,
    assortment_margin,
    brute_force_opt,
    call_count_bound,
    candidate_set_opt,
    check_margin_revenue_equivalence,
    check_trace_invariants,
    compute_bounds,
    generate_instance,
    greedy_opt,
    make_exact_oracle,
    make_noisy_oracle,
    max_slack_set_size,
    mnl_revenue,
    naive_greedy,
    top_margin_set,
    total_weight,
)
from assortopt.generate import derive_seed
from references import find_nesting_witness

REL_TOL = 1e-9


def report(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion} {label}: {status}{suffix}", flush=True)


@dataclass(frozen=True)
class ExactRun:
    instance: Instance
    config: GreedyConfig
    solve: object
    brute: object


@pytest.fixture(scope="module")
def exact_runs():
    """200 seeded exact-oracle runs over the (N, C) grid, with traces."""
    grid = [(n, c) for n in (6, 8, 10) for c in (2, 3, 4)]
    runs = []
    for index in range(200):
        n, c = grid[index % len(grid)]
        instance = generate_instance(GeneratorSpec(n, seed=derive_seed("acceptance-exact", index)))
        config = GreedyConfig(seed_size=0, capacity=c, exchange_budget=c + 1)
        oracle = make_exact_oracle(instance)
        solve = greedy_opt(config, instance.ids(), oracle, trace=True)
        brute = brute_force_opt(oracle, instance.ids(), c)
        runs.append(ExactRun(instance, config, solve, brute))
    return runs


@dataclass(frozen=True)
class NoisyRun:
    instance: Instance
    config: GreedyConfig
    eps_max: float
    delta_cap: float
    f_value: float
    gap: float
    solve: object


@pytest.fixture(scope="module")
def noisy_runs():
    """100 seeded instances x eps in {0.001, 0.01}, budget from the slack-set size."""
    runs = []
    for index in range(100):
        instance = generate_instance(GeneratorSpec(8, seed=derive_seed("acceptance-noisy", index)))
        brute = brute_force_opt(make_exact_oracle(instance), instance.ids(), 3)
        for eps_max in (0.001, 0.01):
            noise = NoiseSpec(
                mode="seeded-uniform", eps=eps_max, seed=derive_seed("noise", index, eps_max)
            )
            bound = compute_bounds(instance, 3, eps_max, brute)
            slack_size = max_slack_set_size(instance, 3, 2.0 * bound.inputs.delta_cap)
            config = GreedyConfig(0, 3, max(4, slack_size + 1))
            oracle = make_noisy_oracle(make_exact_oracle(instance), noise)
            solve = greedy_opt(config, instance.ids(), oracle, trace=True)
            realized = mnl_revenue(instance, solve.best_assortment)
            gap = (brute.revenue - realized) / brute.revenue
            runs.append(
                NoisyRun(
                    instance=instance,
                    config=config,
                    eps_max=eps_max,
                    delta_cap=bound.inputs.delta_cap,
                    f_value=bound.f_value,
                    gap=gap,
                    solve=solve,
                )
            )
    return runs


def test_criterion_1_exact_recovery(exact_runs):
    misses = [
        run
        for run in exact_runs
        if abs(run.solve.best_oracle_revenue - run.brute.revenue)
        > REL_TOL * abs(run.brute.revenue)
    ]
    ok = not misses
    report(1, "exact-oracle recovery", ok, f"{len(exact_runs) - len(misses)}/{len(exact_runs)}")
    assert ok, f"{len(misses)} runs missed the optimum"


def test_criterion_2_call_count_bound(exact_runs):
    violations = [
        run
        for run in exact_runs
        if run.solve.oracle_calls > call_count_bound(run.instance.n, run.config)
    ]
    worst = max(
        run.solve.oracle_calls / call_count_bound(run.instance.n, run.config)
        for run in exact_runs
    )
    ok = not violations
    report(2, "oracle-call bound", ok, f"worst usage {worst:.1%} of bound")
    assert ok, f"{len(violations)} runs exceeded the analytic call bound"


def test_criterion_3_noise_gap_bound(noisy_runs):
    vacuous = [run for run in noisy_runs if run.f_value >= 1.0]
    binding = [run for run in noisy_runs if run.f_value < 1.0]
    violations = [run for run in binding if run.gap > run.f_value]
    for run in vacuous:
        print(
            f"[acceptance]   criterion 3 vacuous case: eps={run.eps_max} "
            f"f={run.f_value:.3f} gap={run.gap:.2e}"
        )
    ok = not violations and binding
    report(
        3,
        "noisy-oracle gap bound",
        bool(ok),
        f"{len(binding)} binding, {len(vacuous)} vacuous, worst gap "
        f"{max((r.gap for r in noisy_runs), default=0.0):.2e}",
    )
    assert binding, "every case was vacuous; the criterion never bound"
    assert not violations, f"{len(violations)} noisy runs exceeded their gap bound"


def test_criterion_4_reference_solver_equivalence():
    mismatches = []
    oversized = []
    rng = random.Random(derive_seed("acceptance-reference"))
    for index in range(200):
        n = rng.randint(2, 10)
        c = rng.randint(1, min(4, n))
        instance = generate_instance(
            GeneratorSpec(n, seed=derive_seed("acceptance-reference", index))
        )
        brute = brute_force_opt(make_exact_oracle(instance), instance.ids(), c)
        candidate = candidate_set_opt(instance, c)
        if abs(candidate.revenue - brute.revenue) > REL_TOL * abs(brute.revenue):
            mismatches.append((instance, c))
        if candidate.candidate_collection_size > n * c + 1:
            oversized.append((instance, c, candidate.candidate_collection_size))
    ok = not mismatches and not oversized
    report(4, "reference-solver equivalence", ok, "200 instances")
    assert not mismatches, f"{len(mismatches)} revenue disagreements"
    assert not oversized, f"{len(oversized)} collections above N*C+1"


def test_criterion_5_nesting_failure_witness(nesting_fixture):
    instance, meta = nesting_fixture
    capacity = meta["capacity"]

    witness = find_nesting_witness(seed=meta["search_seed"], n=6, capacity=capacity, attempts=500)
    found_matches_fixture = (
        witness is not None
        and witness.instance == instance
        and list(witness.opt_c1.ids) == meta["opt_c1"]
        and list(witness.opt_c2.ids) == meta["opt_c2"]
    )

    oracle = make_exact_oracle(instance)
    brute = brute_force_opt(oracle, instance.ids(), capacity)
    not_nested = not set(meta["opt_c1"]) <= set(meta["opt_c2"])
    opts_verified = (
        brute.per_size_optima[meta["c1"]][0] == Assortment.of(meta["opt_c1"])
        and brute.per_size_optima[meta["c2"]][0] == Assortment.of(meta["opt_c2"])
    )

    naive = naive_greedy(capacity, instance.ids(), oracle)
    naive_rev = mnl_revenue(instance, naive)
    solve = greedy_opt(GreedyConfig(0, capacity, capacity + 1), instance.ids(), oracle)
    greedy_exact = abs(solve.best_oracle_revenue - brute.revenue) <= REL_TOL * brute.revenue
    naive_strictly_worse = naive_rev < brute.revenue * (1.0 - REL_TOL)

    ok = all([found_matches_fixture, not_nested, opts_verified, greedy_exact, naive_strictly_worse])
    report(
        5,
        "nesting-failure witness",
        ok,
        f"naive {naive_rev:.4f} < optimum {brute.revenue:.4f}",
    )
    assert found_matches_fixture, "search did not reproduce the committed fixture"
    assert not_nested and opts_verified
    assert greedy_exact, "add-exchange search missed the optimum on the witness"
    assert naive_strictly_worse, "naive greedy unexpectedly matched the optimum"


def test_criterion_6_comparison_and_trace_checks(exact_runs, noisy_runs):
    rng = random.Random(derive_seed("acceptance-pairs"))
    disagreements = 0
    for index in range(500):
        instance = generate_instance(
            GeneratorSpec(rng.randint(1, 10), seed=derive_seed("acceptance-pairs", index))
        )
        ids = list(instance.ids())
        m1 = Assortment.of(rng.sample(ids, rng.randint(0, len(ids))))
        m2 = Assortment.of(rng.sample(ids, rng.randint(0, len(ids))))
        if not check_margin_revenue_equivalence(instance, m1, m2).agree:
            disagreements += 1

    exact_violations = 0
    exact_steps = 0
    for run in exact_runs:
        for _seed, records in run.solve.traces:
            exact_steps += sum(1 for r in records if r.action != "terminate")
            exact_violations += len(check_trace_invariants(run.instance, records, 0.0))

    noisy_violations = 0
    noisy_steps = 0
    for run in noisy_runs:
        for _seed, records in run.solve.traces:
            noisy_steps += sum(1 for r in records if r.action != "terminate")
            noisy_violations += len(
                check_trace_invariants(run.instance, records, run.delta_cap)
            )

    ok = disagreements == 0 and exact_violations == 0 and noisy_violations == 0
    report(
        6,
        "comparison equivalence + trace invariants",
        ok,
        f"500 pairs, {exact_steps} exact steps, {noisy_steps} noisy steps",
    )
    assert disagreements == 0
    assert exact_violations == 0
    assert noisy_violations == 0


def test_criterion_7_transform_identities():
    rng = random.Random(derive_seed("acceptance-transform"))
    identity_failures = 0
    fixed_point_failures = 0
    for index in range(500):
        instance = generate_instance(
            GeneratorSpec(rng.randint(1, 10), seed=derive_seed("acceptance-transform", index))
        )
        ids = list(instance.ids())
        top_price = max(p.price for p in instance.products)
        for _ in range(20):
            m = Assortment.of(rng.sample(ids, rng.randint(0, len(ids))))
            u = rng.uniform(0.0, 1.2 * top_price)
            lhs = assortment_margin(instance, m, u)
            rhs = u + total_weight(instance, m) * (mnl_revenue(instance, m) - u)
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(u)):
                identity_failures += 1
            rev = mnl_revenue(instance, m)
            if abs(assortment_margin(instance, m, rev) - rev) > 1e-12:
                fixed_point_failures += 1

    size_failures = 0
    samples = 0
    for index in range(100):
        instance = generate_instance(
            GeneratorSpec(rng.randint(2, 10), seed=derive_seed("acceptance-topset", index))
        )
        size = rng.randint(1, instance.n)
        opt = candidate_set_opt(instance, size)
        top_price = max(p.price for p in instance.products)
        for _ in range(10):
            a, b = sorted((rng.uniform(0, 1.2 * top_price), rng.uniform(0, 1.2 * top_price)))
            sizes = [len(top_margin_set(instance, size, u)) for u in (a, b)]
            samples += 1
            monotone = sizes[0] >= sizes[1]
            bounded = all(
                len(opt.assortment) <= top_size <= size
                for u, top_size in zip((a, b), sizes)
                if u <= opt.revenue
            )
            if not (monotone and bounded):
                size_failures += 1

    ok = identity_failures == 0 and fixed_point_failures == 0 and size_failures == 0
    report(
        7,
        "transform identity + top-set bounds",
        ok,
        f"10000 identity samples, {samples} size samples",
    )
    assert identity_failures == 0
    assert fixed_point_failures == 0
    assert size_failures == 0


# --- criterion 8: CLI determinism -------------------------------------------


# The child must run the package this process is testing. A relative
# PYTHONPATH entry (e.g. ``src``) would resolve against the child's temporary
# working directory, so the absolute directory holding the imported package
# goes first and any inherited entries follow it.
PACKAGE_FILE = Path(assortopt.__file__).resolve()
PACKAGE_ROOT = PACKAGE_FILE.parent.parent


def cli_env(env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    merged["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), merged.get("PYTHONPATH")])
    )
    return merged


def child_failure(what, proc):
    """One-line summary (ending in stderr's last line), then the full stderr."""
    stderr = proc.stderr.decode().strip()
    last = stderr.splitlines()[-1] if stderr else "no stderr"
    return f"{what} exited {proc.returncode}: {last}\n{stderr}"


def assert_child_imports_this_package(cwd):
    proc = subprocess.run(
        [sys.executable, "-c", "import assortopt; print(assortopt.__file__)"],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, child_failure("`import assortopt` in the child", proc)
    child = Path(proc.stdout.decode().strip()).resolve()
    assert child == PACKAGE_FILE, (
        f"child imports assortopt from {child}, tests import {PACKAGE_FILE}"
    )


def run_cli_bytes(args, cwd, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "assortopt.cli", *args],
        cwd=cwd,
        env=cli_env(env),
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, child_failure(f"`assortopt {' '.join(args)}`", proc)
    return proc.stdout


def scrub_timing(raw: bytes) -> bytes:
    doc = json.loads(raw)
    doc.pop("timing_ms", None)
    return json.dumps(doc).encode()


def check_cli_determinism(tmp_path):
    cwd = str(tmp_path)
    assert_child_imports_this_package(cwd)
    inst = run_cli_bytes(["gen", "--N", "6", "--seed", "11"], cwd)
    assert inst == run_cli_bytes(["gen", "--N", "6", "--seed", "11"], cwd), (
        "gen output differs between reruns"
    )
    (tmp_path / "inst.json").write_bytes(inst)

    solve_args = [
        "solve", "inst.json", "--C", "3", "--trace", "--exact",
        "--noise-mode", "seeded-uniform", "--eps", "0.01", "--seed", "3",
    ]
    first = run_cli_bytes(solve_args, cwd)
    second = run_cli_bytes(solve_args, cwd)
    assert scrub_timing(first) == scrub_timing(second), (
        "solve report differs between reruns outside timing_ms"
    )
    (tmp_path / "report.json").write_bytes(first)

    exact_first = run_cli_bytes(["exact", "inst.json", "--C", "3"], cwd)
    exact_second = run_cli_bytes(["exact", "inst.json", "--C", "3"], cwd)
    assert exact_first == exact_second, "exact output differs between reruns"

    verify_first = run_cli_bytes(["verify", "report.json"], cwd)
    verify_second = run_cli_bytes(["verify", "report.json"], cwd)
    assert verify_first == verify_second, "verify output differs between reruns"

    bench_args = [
        "bench", "--N", "5", "6", "--C", "2", "--eps", "0.0", "0.01",
        "--seeds", "2", "-o", "bench.json",
    ]
    serial = run_cli_bytes([*bench_args, "--jobs", "1"], cwd)
    serial_doc = (tmp_path / "bench.json").read_bytes()
    parallel = run_cli_bytes([*bench_args, "--jobs", "8"], cwd)
    parallel_doc = (tmp_path / "bench.json").read_bytes()
    env_run = run_cli_bytes(bench_args, cwd, env={"ASSORTOPT_JOBS": "4"})
    env_doc = (tmp_path / "bench.json").read_bytes()

    assert serial == parallel == env_run and serial_doc == parallel_doc == env_doc, (
        "bench output differs across --jobs 1, --jobs 8 and ASSORTOPT_JOBS=4"
    )


def test_criterion_8_cli_determinism(tmp_path):
    try:
        check_cli_determinism(tmp_path)
    except AssertionError as exc:
        report(8, "CLI determinism", False, str(exc).splitlines()[0])
        raise
    report(8, "CLI determinism", True, "serial == parallel == env-configured")
