"""Mutants of the source that tier-1 must kill, and a runner for them.

Each mutant names a file under ``src/``, a text that occurs there exactly
once, its replacement, and the test node ids that must fail once the text
is replaced. Run from the root of a checkout:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones
    python tests/mutants.py --list       # their names

The runner first runs every named node id on the unchanged ``src/``, where
each must pass. Then, for each mutant, it copies ``src/`` to a temporary
directory, replaces the text there and runs the mutant's node ids with that
copy first on ``PYTHONPATH``. It exits 1 when a text does not occur exactly
once, or when a listed node id passes on its mutant (the mutant survives in
that test). pytest does not collect this file: its name does not start
with ``test_``.

A mutant that survives is a finding: add a test that kills it, never
delete or weaken the mutant. When a refactor removes a mutant's text,
replace it with its counterpart in the new code.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    killers: tuple[str, ...]  # node ids, each of which must fail on the mutant


MUTANTS = [
    Mutant(
        "skip-band-confirmation",
        "assortopt/oracles.py",
        "            values[i] = oracle.evaluate(current.after_move(*move))\n",
        "            pass\n",
        ("tests/test_oracles.py::TestScoreMoves::test_band_is_exact_and_the_rest_is_close",
         "tests/test_oracles.py::TestScoreMoves::test_near_tie_is_ranked_by_evaluate"),
    ),
    Mutant(
        "beat-ties-accepted",
        "assortopt/oracles.py",
        "if values[best] > beat else None",
        "if values[best] >= beat else None",
        ("tests/test_oracles.py::TestMoveCandidates::test_candidates_give_the_full_pass_answer",
         "tests/test_greedy.py::TestSolverExamples::test_identical_products_tie_break_to_lowest_ids"),
    ),
    Mutant(
        "no-candidate-tolerance",
        "assortopt/oracles.py",
        "need = beat - math.fsum(member_margins.values()) - tolerance",
        "need = beat - math.fsum(member_margins.values())",
        ("tests/test_oracles.py::TestMoveCandidates::test_candidates_give_the_full_pass_answer",),
    ),
    Mutant(
        "rank-last-best",
        "assortopt/oracles.py",
        "best = values.index(max(values))",
        "best = len(values) - 1 - values[::-1].index(max(values))",
        ("tests/test_oracles.py::TestScoreMoves::test_best_move_is_the_first_largest_score",
         "tests/test_greedy.py::test_batched_scoring_matches_evaluate_fallback[none]"),
    ),
    Mutant(
        "skip-record-moves",
        "assortopt/oracles.py",
        "oracle.stats.record_moves(current, moves)",
        "pass",
        ("tests/test_oracles.py::TestCountingOracle::test_score_moves_counts_one_call_per_move",
         "tests/test_cli.py::TestGenSolveExactFlow::test_solve_estimates_only_the_moves_that_can_win[exact]"),
    ),
    Mutant(
        "fixed-noise-as-a-difference",
        "assortopt/oracles.py",
        "[(1.0 - spec.eps) * value for value in values]",
        "[value - spec.eps * value for value in values]",
        ("tests/test_oracles.py::TestScoreMoves::test_fixed_mode_scales_every_exact_score_bit_for_bit",
         "tests/test_greedy.py::test_move_pass_scores_match_the_references_bit_for_bit"),
    ),
    Mutant(
        "pruning-cut-without-noise",
        "assortopt/oracles.py",
        "cut = (1.0 - spec.eps) * top * (1.0 - 4 * CONFIRM_BAND)",
        "cut = top * (1.0 - 4 * CONFIRM_BAND)",
        ("tests/test_oracles.py::TestScoreMoves::test_seeded_uniform_band_is_exact_and_the_rest_bounds_it[0.2]",),
    ),
    Mutant(
        "seeded-noise-unscaled",
        "assortopt/oracles.py",
        "spec.epsilon(current.after_move(*move))",
        "0.0",
        ("tests/test_oracles.py::TestScoreMoves::test_seeded_uniform_band_is_exact_and_the_rest_bounds_it[0.2]",
         "tests/test_greedy.py::test_batched_scoring_matches_evaluate_fallback[seeded-uniform-0.2]"),
    ),
    Mutant(
        "fixed-noise-builds-the-moves",
        "assortopt/oracles.py",
        "[(1.0 - spec.eps) * value for value in values]",
        "[(1.0 - spec.epsilon(current.after_move(*move))) * value"
        " for move, value in zip(moves.at(picked), values)]",
        ("tests/test_oracles.py::TestScoreMoves::test_fixed_mode_builds_no_move_of_its_own",),
    ),
    Mutant(
        "noise-stop-ignores-the-band",
        "assortopt/oracles.py",
        "values[i] < best * (1.0 - 4 * CONFIRM_BAND)",
        "values[i] < best",
        ("tests/test_oracles.py::TestScoreMoves::test_seeded_uniform_hashes_every_move_that_can_reach_the_band",),
    ),
    Mutant(
        "noise-stops-at-any-sign",
        "assortopt/oracles.py",
        "if top > 0 and values[i] < best",
        "if values[i] < best",
        ("tests/test_oracles.py::TestScoreMoves::test_seeded_uniform_over_negative_and_mixed_estimates[0.5--1.0]",
         "tests/test_oracles.py::TestScoreMoves::test_seeded_uniform_over_negative_and_mixed_estimates[0.9--0.5]"),
    ),
    Mutant(
        "noise-seed-takes-a-bool",
        "assortopt/oracles.py",
        "if type(self.seed) is not int:",
        "if not isinstance(self.seed, int):",
        ("tests/test_oracles.py::TestNoisyOracle::test_seed_must_be_an_integer[True-fixed]",
         "tests/test_oracles.py::TestNoisyOracle::test_seed_must_be_an_integer[True-seeded-uniform]"),
    ),
    Mutant(
        "assortment-compares-a-copied-tuple",
        "assortopt/instance.py",
        "if canonical != self.ids:",
        "if canonical != tuple(self.ids):",
        ("tests/test_instance_io.py::TestAssortment::test_any_iterable_of_ids_is_stored_as_its_tuple[[1, 3]]",
         "tests/test_instance_io.py::TestAssortment::test_any_iterable_of_ids_is_stored_as_its_tuple[range(1, 3)]"),
    ),
    Mutant(
        "event-walk-gap-on-the-band-certifies",
        "assortopt/transform.py",
        "state.narrowest > base + per_unit * state.u",
        "state.narrowest >= base + per_unit * state.u",
        ("tests/test_reference.py::TestEventSweep::test_a_least_gap_on_the_band_opens_a_window",),
    ),
    Mutant(
        "event-walk-last-gap-on-the-band-certifies",
        "assortopt/transform.py",
        "and after.narrowest > base + per_unit * after.u",
        "and after.narrowest >= base + per_unit * after.u",
        ("tests/test_reference.py::TestEventSweep::test_a_gap_on_the_band_never_joins_the_walks_end",),
    ),
    Mutant(
        "event-walk-least-gap-drops-a-nan",
        "assortopt/transform.py",
        "return min(gaps, default=math.inf) if total == total else math.nan",
        "return min(gaps, default=math.inf)",
        ("tests/test_reference.py::TestEventSweep::test_a_nan_gap_never_joins[nan-last]",),
    ),
    Mutant(
        "event-walk-skips-the-window",
        "assortopt/transform.py",
        "points = margin_breakpoints(self.instance, self.delta or 0.0, lo, hi)",
        "return []",
        ("tests/test_reference.py::TestCandidateSweep::test_collection_equals_the_per_cap_probe_loop_at_every_cap[integer_grid]",
         "tests/test_reference.py::TestSlackSweep::test_equals_the_per_probe_definition[0.0-duplicated_products]",
         "tests/test_reference.py::TestEventSweep::test_window_fallback_ranks_only_inside_its_window"),
    ),
    Mutant(
        "event-window-drops-its-tail-probe",
        "assortopt/transform.py",
        "hi == math.inf",
        "False",
        ("tests/test_reference.py::TestEventSweep::test_each_window_probe_is_ranked_once[weights_one_ulp_apart]",
         "tests/test_reference.py::TestEventSweep::test_each_window_probe_is_ranked_once[duplicated_products]"),
    ),
    Mutant(
        "event-window-skips-its-breakpoints",
        "assortopt/transform.py",
        "*points, *probes])",
        "*probes])",
        ("tests/test_reference.py::TestEventSweep::test_top_lists_equal_the_reference_runs_at_every_size[duplicated_products]",
         "tests/test_reference.py::TestEventSweep::test_with_subnormal_weights",
         "tests/test_reference.py::TestEventSweep::test_window_fallback_ranks_only_inside_its_window"),
    ),
    Mutant(
        "event-walk-scans-the-first-outsider-only",
        "assortopt/transform.py",
        "for weight_o, value_o, other in self.by_weight[: bisect_left(self.by_weight, (weight_w,))]:",
        "for weight_o, value_o, other in [entry for entry in self.by_weight if entry[0] < weight_w"
        " and entry[2] in {o for _, o in state.ranked[len(top) : len(top) + 1]}]:",
        ("tests/test_reference.py::TestCandidateSweep::test_candidate_set_opt_ranks_under_a_third_of_its_probes",
         "tests/test_reference.py::TestEventSweep::test_top_lists_rank_once_per_run[45]"),
    ),
    Mutant(
        "event-walk-takes-the-second-event",
        "assortopt/transform.py",
        "return min(events, key=itemgetter(0))",
        "return (sorted(events, key=itemgetter(0))[1:2] or events)[0]",
        ("tests/test_reference.py::TestCandidateSweep::test_probe_count_pins",
         "tests/test_reference.py::TestSlackSweep::test_probe_count_pins[600-498-629]"),
    ),
    Mutant(
        "event-walk-leaves-its-end-unseen",
        "assortopt/transform.py",
        "                state.seen = True\n",
        "",
        ("tests/test_reference.py::TestCandidateSweep::test_probe_count_pins",
         "tests/test_reference.py::TestEventSweep::test_top_lists_rank_once_per_run[30]"),
    ),
    Mutant(
        "event-walk-ends-only-past-0",
        "assortopt/transform.py",
        "if not state.top:",
        "if not state.top and state.u > 0.0:",
        ("tests/test_reference.py::TestEventSweep::test_margins_that_round_to_zero_end_the_walk_at_0",),
    ),
    Mutant(
        "event-walk-keeps-a-value-without-room-for-a-probe",
        "assortopt/transform.py",
        "                and clear_to - state.u >= 2.0 * (state.u - state.entry + radius)\n",
        "",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[dispersed_weights]",),
    ),
    Mutant(
        "event-walk-tests-twins-as-a-gap",
        "assortopt/transform.py",
        "        if self.twins:\n",
        "        if False:\n",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[integer_grid]",),
    ),
    Mutant(
        "event-walk-tests-the-weakest-against-its-twin",
        "assortopt/transform.py",
        "if other not in members and other != partner and line[other] != twin:",
        "if other not in members and other != partner:",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[priced_at_a_set_revenue]",),
    ),
    Mutant(
        "event-walk-tests-the-anchor-against-its-twin",
        "assortopt/transform.py",
        "                    if line[other] != twin:\n",
        "                    if True:\n",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[priced_at_a_set_revenue]",),
    ),
    Mutant(
        "event-walk-joins-without-interpolating",
        "assortopt/transform.py",
        "return share * before + (1.0 - share) * after.narrowest > band_x",
        "return False",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[tiny_weights]",
         "tests/test_reference.py::TestEventSweep::test_ranking_count_pins[dispersed_weights]"),
    ),
    Mutant(
        "event-walk-leaves-out-the-weakests-zero-at-any-crossing",
        "assortopt/transform.py",
        "unsigned = a if b is None else _NO_PRODUCT",
        "unsigned = a",
        ("tests/test_reference.py::TestEventSweep::test_an_outsider_overtaking_the_weakest_at_its_zero_is_not_joined[0.001]",),
    ),
    Mutant(
        "event-walk-joins-a-changed-member-set-by-its-pairs",
        "assortopt/transform.py",
        "if (after.members == state.members and after.top[-1:] == state.top[-1:]",
        "if (after.top[-1:] == state.top[-1:]",
        ("tests/test_reference.py::TestEventSweep::test_a_member_leaving_behind_the_weakest_is_not_joined_by_pairs[None-26]",),
    ),
    Mutant(
        "event-walk-joins-without-the-steepest-bound",
        "assortopt/transform.py",
        "        if bound > band_x:\n            return True\n",
        "",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[generated]",),
    ),
    Mutant(
        "event-walk-lists-outsiders-at-every-event",
        "assortopt/transform.py",
        "if self.listed == (weakest, members):",
        "if False:",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[generated]",
         "tests/test_reference.py::TestEventSweep::test_ranking_count_pins[dispersed_weights]"),
    ),
    Mutant(
        "event-walk-lists-lighter-outsiders-of-a-list-not-full",
        "assortopt/transform.py",
        "if len(top) == self.size:",
        "if True:",
        ("tests/test_reference.py::TestEventSweep::test_ranking_count_pins[generated]",
         "tests/test_reference.py::TestEventSweep::test_ranking_count_pins[tiny_weights]"),
    ),
    Mutant(
        "slack-cap-takes-any-eps",
        "assortopt/analysis.py",
        "    if not 0.0 <= eps < 1.0:\n",
        "    if False:\n",
        ("tests/test_analysis.py::TestComputeBounds::test_eps_out_of_range_rejected",),
    ),
    Mutant(
        "tie-band-extra-slot",
        "assortopt/reference.py",
        "slots = size - len(chosen)",
        "slots = size - len(chosen) + 1",
        ("tests/test_reference.py::TestMnlOpt::test_product_priced_at_the_optimum_joins_it",
         "tests/test_reference.py::TestMnlOpt::test_tie_split_by_rounding"),
    ),
    Mutant(
        "exchanges-member-major",
        "assortopt/oracles.py",
        "(pool[i // width], members[i % width])",
        "(pool[i % len(pool)], members[i // len(pool)])",
        ("tests/test_oracles.py::TestScoreMoves::test_best_move_is_the_first_largest_score",
         "tests/test_greedy.py::TestAgainstSimulation::test_add_exchange_matches_simulation[none]"),
    ),
    Mutant(
        "verify-skips-revenue-reevaluation",
        "assortopt/cli.py",
        "if oracle.evaluate(record.assortment_after) != record.revenue_after:",
        "if False:",
        ("tests/test_cli.py::test_verify_ties_a_traced_result_to_its_traces[terminate-revenue]",),
    ),
    Mutant(
        "verify-skips-best-final-state",
        "assortopt/cli.py",
        "if min(finals, key=optimum_key) != (result.best_assortment, result.best_oracle_revenue):",
        "if False:",
        ("tests/test_cli.py::test_verify_ties_a_traced_result_to_its_traces[best-not-reached]",),
    ),
    Mutant(
        "record-added-removed-optional",
        "assortopt/io.py",
        'added, removed = doc["added"], doc["removed"]',
        'added, removed = doc.get("added"), doc.get("removed")',
        ("tests/test_cli.py::test_failure_exits_three_with_json_error[verify-record-without-added]",),
    ),
]

#: a line of pytest's short summary: the outcome, then the node id, then " - " and a message
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (.+?)(?: - .*)?$")


def run_tests(src: str, node_ids: list[str]) -> tuple[dict[str, str], str]:
    """Run the node ids with ``src`` first on the path; each id's outcome, and pytest's output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    outcomes = {}
    for line in done.stdout.splitlines():
        found = _OUTCOME.match(line)
        if found:
            outcomes[found.group(2)] = found.group(1)
    return outcomes, done.stdout + done.stderr


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    src = os.path.join(ROOT, "src")
    node_ids = sorted({node for m in chosen for node in m.killers})
    baseline, output = run_tests(src, node_ids)
    broken = [node for node in node_ids if baseline.get(node) != "PASSED"]
    if broken:
        print(output[-3000:])
        print(f"not passing on the unchanged source: {broken}")
        return 1
    failures = 0
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as scratch:
            copy = os.path.join(scratch, "src")
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = os.path.join(copy, mutant.path)
            with open(target, encoding="utf-8") as handle:
                text = handle.read()
            count = text.count(mutant.old)
            if count != 1:
                print(f"{mutant.name}: text occurs {count} times in src/{mutant.path}, not once")
                failures += 1
                continue
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text.replace(mutant.old, mutant.new))
            outcomes, _output = run_tests(copy, list(mutant.killers))
        survived = [node for node in mutant.killers if outcomes.get(node) not in ("FAILED", "ERROR")]
        if survived:
            print(f"{mutant.name}: SURVIVED in {survived}")
            failures += 1
        else:
            print(f"{mutant.name}: killed by {len(mutant.killers)} of {len(mutant.killers)}")
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
