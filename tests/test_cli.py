"""CLI flows, exit codes, and structured errors."""

import argparse
import dataclasses
import json

import pytest

import assortopt.bench as bench_mod
import assortopt.cli as cli_module
from assortopt import ConfigError, ExactMnlOracle, Instance, ValidationError, candidate_set_opt
from assortopt.cli import main
from assortopt.io import load_instance, load_report, serialize_instance
from assortopt.oracles import NOISE_MODES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenSolveExactFlow:
    def test_end_to_end(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"

        code, _, _ = run_cli(capsys, "gen", "--N", "3", "--seed", "7", "-o", str(inst_path))
        assert code == 0

        code, _, _ = run_cli(
            capsys, "solve", str(inst_path), "--S", "0", "--C", "2", "--b", "3",
            "--trace", "--exact", "-o", str(report_path),
        )
        assert code == 0
        report = load_report(str(report_path))
        assert float(report["gap"]) <= 1e-12  # exact oracle finds the optimum here

        code, out, _ = run_cli(capsys, "exact", str(inst_path), "--C", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["solvers_agree"] is True
        assert float(doc["brute_force"]["revenue"]) == float(
            report["exact"]["revenue"]
        )
        # the fixed point reports brute force's optima, tie-break included
        assert doc["fixed_point"]["per_size_optima"] == doc["brute_force"]["per_size_optima"]
        assert doc["fixed_point"]["candidate_collection_size"] is None
        assert report["exact"] == doc["fixed_point"]

    def test_solve_noise_mode_choices_are_the_noise_modes(self):
        parser = cli_module.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        solve = commands.choices["solve"]
        option = next(a for a in solve._actions if "--noise-mode" in a.option_strings)
        assert tuple(option.choices) == NOISE_MODES

    @pytest.mark.parametrize(
        "noise, estimated",
        [([], 275), (["--noise-mode", "seeded-uniform", "--eps", "0.001", "--seed", "3"], 300)],
        ids=["exact", "seeded-uniform"],
    )
    def test_solve_estimates_only_the_moves_that_can_win(self, tmp_path, capsys, monkeypatch, noise, estimated):
        # every move of a pass is one oracle call, but the MNL oracle's hook estimates
        # only those whose margins show they may beat the current revenue
        counted = []
        score_moves = ExactMnlOracle.score_moves

        def counting_score_moves(oracle, current, moves, beat):
            indices, estimates = score_moves(oracle, current, moves, beat)
            counted.append(len(estimates))
            return indices, estimates

        monkeypatch.setattr(ExactMnlOracle, "score_moves", counting_score_moves)
        inst_path, report_path = tmp_path / "inst.json", tmp_path / "report.json"
        assert run_cli(capsys, "gen", "--N", "200", "--seed", "1", "-o", str(inst_path))[0] == 0
        code, _, _ = run_cli(capsys, "solve", str(inst_path), "--C", "15", *noise, "-o", str(report_path))
        assert code == 0
        assert load_report(str(report_path))["result"]["oracle_calls"] == 12895
        assert sum(counted) == estimated

    def test_solve_revenue_matches_exact_subcommand(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        run_cli(capsys, "gen", "--N", "6", "--seed", "123", "-o", str(inst_path))
        code, out, _ = run_cli(capsys, "solve", str(inst_path), "--C", "3")
        assert code == 0
        solve_doc = json.loads(out)
        code, out, _ = run_cli(capsys, "exact", str(inst_path), "--C", "3")
        exact_doc = json.loads(out)
        assert float(solve_doc["result"]["best_oracle_revenue"]) == pytest.approx(
            float(exact_doc["brute_force"]["revenue"]), rel=1e-9
        )


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/file.json", "--C", "2")
        assert code == 5
        assert json.loads(err)["error"]["code"] == "io"

    def test_invalid_instance_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": "1",
            "products": [
                {"id": 1, "weight": "1.0", "price": "1.0"},
                {"id": 1, "weight": "2.0", "price": "2.0"},
            ],
        }))
        code, _, err = run_cli(capsys, "solve", str(bad), "--C", "1")
        assert code == 3
        assert json.loads(err)["error"]["code"] == "duplicate-id"

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        inst_path = tmp_path / "inst.json"
        run_cli(capsys, "gen", "--N", "3", "--seed", "1", "-o", str(inst_path))
        code, _, err = run_cli(capsys, "solve", str(inst_path), "--S", "3", "--C", "2")
        assert code == 3
        assert json.loads(err)["error"]["code"] == "bad-config"

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2

    # each cross-check's failure exit, driven by a patched check in process

    def test_exact_exits_four_when_the_solvers_disagree(self, capsys, fixtures_dir, monkeypatch):
        monkeypatch.setattr(cli_module, "revenues_agree", lambda *_: False)
        instance = fixtures_dir / "generated_n8_seed7.json"
        code, out, err = run_cli(capsys, "exact", str(instance), "--C", "4")
        assert code == 4
        assert json.loads(out)["solvers_agree"] is False
        error = json.loads(err)["error"]
        assert error["code"] == "assertion-failure"
        assert error["message"].startswith("reference solvers disagree: brute=")

    def test_bench_exits_four_on_a_violated_guarantee(self, capsys, monkeypatch):
        monkeypatch.setattr(bench_mod, "call_count_bound", lambda n, config: 0)
        code, out, err = run_cli(
            capsys, "bench", "--N", "4", "--C", "2", "--b", "C+1", "--eps", "0", "--seeds", "1"
        )
        assert code == 4
        assert "call-count violations: 1" in out
        error = json.loads(err)["error"]
        assert error["code"] == "assertion-failure"
        assert error["message"] == "1 runs exceeded the oracle-call bound"

    def test_verify_exits_four_when_a_comparison_pair_disagrees(self, capsys, fixtures_dir, monkeypatch):
        # the first pair's revenue order is flipped against its margin order
        check = cli_module.check_margin_revenue_equivalence
        pairs = []

        def flip_first(instance, m1, m2):
            report = check(instance, m1, m2)
            pairs.append((m1.ids, m2.ids))
            if len(pairs) > 1:
                return report
            revenue_1 = report.revenue_2 + (1.0 if report.margin_1 < report.margin_2 else -1.0)
            return dataclasses.replace(report, revenue_1=revenue_1)

        monkeypatch.setattr(cli_module, "check_margin_revenue_equivalence", flip_first)
        report = fixtures_dir / "solve_generated_n8_seed7_C4.json"
        code, out, err = run_cli(capsys, "verify", str(report))
        assert code == 4
        assert out.startswith("verify FAIL")
        m1, m2 = pairs[0]
        assert f"  violation: margin/revenue comparison disagreed on {m1} vs {m2}\n" in out
        error = json.loads(err)["error"]
        assert error == {"code": "assertion-failure", "message": "1 verification problems"}


def _first_add(edit):
    """Apply ``edit`` to the first add record with at least two members after it."""
    def tamper(records):
        edit(next(r for r in records if r["action"] == "add" and len(r["assortment_after"]) > 1))
    return tamper


def _add_another_member(record):
    record["added"] = next(i for i in record["assortment_after"] if i != record["added"])


def _every_record(edit):
    def tamper(records):
        for record in records:
            edit(record)
    return tamper


def _blank_bookkeeping(record):
    record.update(
        pool_before=[], assortment_before=[], exchange_out_counts={}, universe_size_after=0
    )


class TestVerify:
    def make_report(self, tmp_path, capsys, *extra):
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        run_cli(capsys, "gen", "--N", "6", "--seed", "21", "-o", str(inst_path))
        code, _, _ = run_cli(
            capsys, "solve", str(inst_path), "--C", "3", "--trace", *extra,
            "-o", str(report_path),
        )
        assert code == 0
        return report_path

    def test_verify_passes_on_real_report(self, tmp_path, capsys):
        report_path = self.make_report(tmp_path, capsys)
        code, out, _ = run_cli(capsys, "verify", str(report_path))
        assert code == 0
        assert out.startswith("verify PASS")

    def test_comparison_pairs_are_pinned(self, capsys, fixtures_dir, monkeypatch):
        # the pairs a report is checked on follow from its digest and noise seed
        # alone; a change to how they are drawn changes them for every old report
        drawn = []
        check = cli_module.check_margin_revenue_equivalence

        def recording_check(instance, m1, m2):
            drawn.append((m1.ids, m2.ids))
            return check(instance, m1, m2)

        monkeypatch.setattr(cli_module, "check_margin_revenue_equivalence", recording_check)
        code, out, _ = run_cli(capsys, "verify", str(fixtures_dir / "solve_generated_n8_seed7_C4.json"))
        assert code == 0
        assert "comparison pairs checked=100" in out
        assert len(drawn) == 100
        assert drawn[:3] == [((7, 8), (3,)), ((1, 2, 6, 7), ()), ((1, 2, 6), (4, 5))]
        assert drawn[-1] == ((3, 5, 6), (1, 4, 5, 7))

    @pytest.mark.parametrize(
        "mode, key, level",
        [("fixed", "eps_max", "0.3"), ("none", "eps_max", "0.5")],
        ids=["fixed-with-eps-max", "none-with-eps-max"],
    )
    def test_level_under_the_other_mode_key_exits_three(
        self, tmp_path, capsys, fixtures_dir, mode, key, level
    ):
        # a level the mode never reads would otherwise leave the report's noise unchecked
        doc = json.loads((fixtures_dir / "solve_generated_n8_seed7_C4.json").read_text())
        doc["config"]["noise"].update({"mode": mode, key: level})
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "bad-noise"

    def test_noise_seed_without_a_noisy_mode_exits_three(self, tmp_path, capsys, fixtures_dir):
        # solve writes seed 0 in mode none; any other seed would pick verify's pairs unread
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "solve", str(fixtures_dir / "generated_n8_seed7.json"), "--C", "4",
            "-o", str(report_path),
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["config"]["noise"]["mode"] == "none"
        doc["config"]["noise"]["seed"] = 5
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(report_path))
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "bad-noise"

    def test_verify_passes_on_noisy_report(self, tmp_path, capsys):
        report_path = self.make_report(
            tmp_path, capsys, "--noise-mode", "seeded-uniform", "--eps", "0.01", "--seed", "5"
        )
        code, out, _ = run_cli(capsys, "verify", str(report_path))
        assert code == 0
        assert out.startswith("verify PASS")

    def test_verify_passes_when_seed_size_rules_out_the_optimum(self, tmp_path, capsys):
        # the optimum of this instance is one product, so every S = C = 2 run misses it;
        # exact recovery is claimed for S = 0 only
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        run_cli(capsys, "gen", "--N", "5", "--seed", "0", "-o", str(inst_path))
        code, _, _ = run_cli(
            capsys, "solve", str(inst_path), "--S", "2", "--C", "2", "--exact",
            "-o", str(report_path),
        )
        assert code == 0
        assert float(load_report(str(report_path))["gap"]) > 0.0
        code, out, _ = run_cli(capsys, "verify", str(report_path))
        assert code == 0
        assert out.startswith("verify PASS")

    @pytest.mark.parametrize("budget", ["1", "4", "5"])
    def test_verify_passes_honest_exact_run_one_ulp_below_the_optimum(
        self, tmp_path, capsys, budget
    ):
        # {2, 4, 5} and the optimum's set earn 12 in exact arithmetic, but the greedy
        # set's float revenue is one ulp below: a gap above f = 0 that is no miss
        inst = Instance.of(
            [(1, 0.1, 12.0), (2, 2.0, 12.0), (3, 2.0, 5.0), (4, 1.0, 20.0), (5, 0.5, 20.0)]
        )
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        inst_path.write_text(serialize_instance(inst, {}))
        code, _, _ = run_cli(
            capsys, "solve", str(inst_path), "--C", "4", "--b", budget, "--trace", "--exact",
            "-o", str(report_path),
        )
        assert code == 0
        assert 0.0 < float(load_report(str(report_path))["gap"]) < 1e-15
        code, out, _ = run_cli(capsys, "verify", str(report_path))
        assert code == 0
        assert out.startswith("verify PASS")

    def test_verify_rejects_noisy_gap_above_the_bound(self, tmp_path, capsys):
        report_path = self.make_report(
            tmp_path, capsys, "--noise-mode", "seeded-uniform", "--eps", "0.01", "--seed", "5",
            "--exact",
        )
        doc = json.loads(report_path.read_text())
        assert float(doc["bounds"]["f_value"]) < 1.0
        _drop_best_assortment(doc)
        report_path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", str(report_path))
        assert code == 4
        assert "realized gap 1.0 exceeds the gap bound" in out

    def test_verify_catches_tampered_revenue(self, tmp_path, capsys):
        report_path = self.make_report(tmp_path, capsys)
        doc = json.loads(report_path.read_text())
        doc["result"]["best_oracle_revenue"] = repr(
            float(doc["result"]["best_oracle_revenue"]) + 0.5
        )
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(report_path))
        assert code == 4
        assert "FAIL" in out
        assert json.loads(err)["error"]["code"] == "assertion-failure"

    def test_verify_catches_tampered_trace(self, tmp_path, capsys):
        report_path = self.make_report(tmp_path, capsys)
        doc = json.loads(report_path.read_text())
        # claim a different assortment was reached at the first recorded step
        for entry in doc["result"]["traces"]:
            for record in entry["records"]:
                if record["action"] in ("add", "exchange"):
                    record["assortment_after"] = [max(record["pool_before"])]
                    break
        report_path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, "verify", str(report_path))
        assert code == 4

    @pytest.mark.parametrize(
        "tamper, message",
        [
            # an empty pool_before makes the entered-not-strongest check vacuous
            (_first_add(lambda r: r.update(pool_before=[])), "does not start where the replay"),
            (_first_add(_add_another_member), "move not allowed from the replayed set and pool"),
            (_every_record(_blank_bookkeeping), "does not start where the replay"),
        ],
        ids=["empty-pool-before", "added-is-another-member", "bookkeeping-blanked"],
    )
    def test_verify_replays_trace_bookkeeping(self, tmp_path, capsys, tamper, message):
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        run_cli(capsys, "gen", "--N", "200", "--seed", "1", "-o", str(inst_path))
        code, _, _ = run_cli(
            capsys, "solve", str(inst_path), "--C", "15", "--b", "16", "--trace",
            "--noise-mode", "seeded-uniform", "--eps", "0.001", "--seed", "7",
            "-o", str(report_path),
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        tamper(doc["result"]["traces"][0]["records"])
        report_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", str(report_path))
        assert code == 4
        assert out.startswith("verify FAIL")
        assert message in out
        assert json.loads(err)["error"]["code"] == "assertion-failure"


class TestBench:
    def test_tiny_full_grid(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        code, out, _ = run_cli(
            capsys, "bench", "--N", "5", "--C", "2", "--eps", "0.0", "0.01",
            "--seeds", "3", "-o", str(out_path),
        )
        assert code == 0
        assert "call-count violations: 0" in out
        doc = json.loads(out_path.read_text())
        assert doc["summary"]["call_violations"] == 0

    def test_capacity_zero_keeps_within_the_call_bound(self, capsys, tmp_path):
        """At C = 0 each run scores the empty seed once, and the bound is that one call."""
        out_path = tmp_path / "bench.json"
        code, out, _ = run_cli(
            capsys, "bench", "--N", "3", "--C", "0", "--b", "C+1", "auto", "--seeds", "1",
            "-o", str(out_path),
        )
        assert code == 0
        assert "call-count violations: 0" in out
        cells = json.loads(out_path.read_text())["cells"]
        assert {(c["max_calls"], c["call_bound"]) for c in cells} == {(1, 1)}

    def test_theorem1_suite_reports_full_pass_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "theorem1", "--N", "5", "6", "--C", "2", "--seeds", "4"
        )
        assert code == 0
        assert "exact recovery pass rate: 100.00% (8/8)" in out

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_fewer_than_one_seed_rejected(self, capsys, seeds):
        code, out, err = run_cli(capsys, "bench", "--suite", "theorem1", "--seeds", seeds)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "bad-config"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--suite", "theorem2", "--N", "20", "--C", "5"], "--N and --C"),
            (["--suite", "theorem2", "--b", "C+1"], "--b"),
            (["--suite", "theorem1", "--b", "2C", "--eps", "0.01"], "--b and --eps"),
            (["--suite", "theorem1", "--eps", "0.01"], "--eps"),
        ],
    )
    def test_flag_the_suite_overrides_is_refused(self, capsys, argv, named):
        code, out, err = run_cli(capsys, "bench", *argv, "--seeds", "1")
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "bad-config"
        assert f"sets {named} itself" in error["message"]

    @pytest.mark.parametrize("flag", ["--N", "--C", "--b", "--eps"])
    def test_empty_list_flag_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, "--seeds", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_rule_giving_b_below_one_is_named_before_any_solve(self, capsys, monkeypatch):
        def no_solve(*_args, **_kwargs):
            raise AssertionError("solved before the b rules were checked")

        monkeypatch.setattr(bench_mod, "greedy_opt", no_solve)
        code, out, err = run_cli(
            capsys, "bench", "--C", "2", "0", "--b", "C+1", "C", "--seeds", "1"
        )
        assert code == 3
        assert out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "bad-config"
        assert error["message"] == "b rule 'C' gives b = 0 at C = 0"

    def test_reused_solves_give_the_bytes_of_fresh_ones(self, capsys, tmp_path, monkeypatch):
        """Each b rule of a cell reads the same instances; solving every budget afresh
        instead of reusing a certified run changes no byte of the table or bench.json."""
        solves = []

        def counted(*args, **kwargs):
            solves.append(1)
            return greedy_opt(*args, **kwargs)

        greedy_opt = bench_mod.greedy_opt
        monkeypatch.setattr(bench_mod, "greedy_opt", counted)
        argv = ["bench", "--suite", "full", "--b", "C", "C+1", "2C", "auto",
                "--C", "1", "2", "3", "4", "--eps", "0.0", "0.05", "0.3", "--seeds", "4"]
        runs = []
        for reuse in (True, False):
            if not reuse:
                monkeypatch.setattr(bench_mod, "same_run_under_budget", lambda *_: False)
            solves.clear()
            out_path = tmp_path / f"bench-{reuse}.json"
            code, out, _ = run_cli(capsys, *argv, "-o", str(out_path))
            assert code == 0
            runs.append((out, out_path.read_bytes(), len(solves)))
        (reused_out, reused_doc, reused_solves), (fresh_out, fresh_doc, fresh_solves) = runs
        assert reused_out == fresh_out
        assert reused_doc == fresh_doc
        cells = 3 * 4 * 4 * 3
        assert fresh_solves == cells * 4
        assert reused_solves < fresh_solves

    def test_theorem2_keeps_its_positive_eps(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        code, _, _ = run_cli(
            capsys, "bench", "--suite", "theorem2", "--eps", "0.0", "0.02", "--seeds", "1",
            "-o", str(out_path),
        )
        assert code == 0
        cells = json.loads(out_path.read_text())["cells"]
        assert [(c["N"], c["C"], c["b"], c["eps"]) for c in cells] == [(8, 3, "auto", "0.02")]

    def test_theorem2_refuses_eps_with_no_positive_value(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--suite", "theorem2", "--eps", "0", "--seeds", "1"
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == {
            "code": "bad-config", "message": "--suite theorem2 needs a positive --eps, got [0.0]",
        }


class TestRunBench:
    """The library refuses what the CLI refuses, before any solve."""

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def no_solve(*_args, **_kwargs):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(bench_mod, "greedy_opt", no_solve)

    def test_axis_the_suite_sets_is_refused(self, no_solve):
        with pytest.raises(ValidationError) as exc:
            bench_mod.run_bench("theorem1", grid={"b": ("2C",)}, seeds_per_cell=1)
        assert exc.value.code == "bad-config"
        assert str(exc.value) == "--suite theorem1 sets --b itself; drop the flag"

    def test_suite_axis_is_refused_before_the_seed_count(self, no_solve):
        with pytest.raises(ValidationError, match="sets --N itself"):
            bench_mod.run_bench("theorem2", grid={"N": (8,)}, seeds_per_cell=0)

    @pytest.mark.parametrize(
        "suite, grid, message",
        [
            ("bogus", {}, "unknown suite 'bogus'"),
            ("full", {"B": ("C",)}, "unknown grid axes ['B']"),
        ],
    )
    def test_unknown_suite_or_axis_is_refused(self, no_solve, suite, grid, message):
        with pytest.raises(ValidationError) as exc:
            bench_mod.run_bench(suite, grid=grid, seeds_per_cell=1)
        assert exc.value.code == "bad-config"
        assert str(exc.value) == message

    @pytest.mark.parametrize("eps", [(0.0,), (0.0, 0.0)])
    def test_theorem2_refuses_eps_with_no_positive_value(self, no_solve, eps):
        with pytest.raises(ValidationError) as exc:
            bench_mod.run_bench("theorem2", {"eps": eps}, 1)
        assert exc.value.code == "bad-config"
        assert str(exc.value) == f"--suite theorem2 needs a positive --eps, got {list(eps)}"

    @pytest.mark.parametrize(
        "suite, grid, seeds",
        [("nope", {}, 1), ("full", {"b": ("3C",)}, 1), ("full", {"b": (["C"],)}, 1),
         ("full", {}, 0)],
        ids=["unknown-suite", "unknown-b-rule", "b-rule-not-a-string", "no-seed-per-cell"],
    )
    def test_refusal_is_a_config_error(self, no_solve, suite, grid, seeds):
        with pytest.raises(ConfigError):
            bench_mod.run_bench(suite, grid=grid, seeds_per_cell=seeds)

    def test_assertion_failures_name_each_missed_guarantee(self):
        summary = {
            "suite": "theorem1", "call_violations": 2, "exact_recovery_applicable": 5,
            "exact_recovery_passed": 3, "gap_bound_violations": 1,
        }
        assert bench_mod.assertion_failures(summary) == [
            "2 runs exceeded the oracle-call bound",
            "2 exact-recovery runs missed the exact MNL optimum",
            "1 noisy runs exceeded the gap bound",
        ]
        # only theorem1 claims exact recovery
        summary.update(suite="full", call_violations=0, gap_bound_violations=0)
        assert bench_mod.assertion_failures(summary) == []

    def test_theorem2_keeps_only_its_positive_eps(self):
        cells, summary = bench_mod.run_bench("theorem2", {"eps": (0.0, 0.02)}, 1)
        assert [(c["N"], c["C"], c["b"], c["eps"]) for c in cells] == [(8, 3, "auto", "0.02")]
        assert summary["cells"] == 1

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["--N", "10", "3", "--C", "4"],
             "bad-config", "need 0 <= S <= C <= N, got S=0 C=4 N=3"),
            (["--N", "6", "--C", "2", "--eps", "0", "1.5"],
             "bad-noise", "eps must lie in [0, 1)"),
            (["--suite", "theorem2", "--eps", "-0.5", "0.02"],
             "bad-noise", "eps must lie in [0, 1)"),
        ],
    )
    def test_whole_grid_is_checked_before_any_solve(self, capsys, no_solve, argv, code, message):
        exit_code, out, err = run_cli(capsys, "bench", *argv, "--seeds", "1")
        assert exit_code == 3
        assert out == ""
        assert json.loads(err)["error"] == {"code": code, "message": message}



class TestInProcessCalls:
    """``main`` builds its parser once per process; no call leaves state for the next."""

    def test_solve_without_trace_after_a_traced_solve(self, capsys, fixtures_dir):
        instance = str(fixtures_dir / "generated_n8_seed7.json")
        code, out, _ = run_cli(capsys, "solve", instance, "--C", "4", "--trace")
        assert code == 0
        assert json.loads(out)["result"]["traces"] is not None
        code, out, _ = run_cli(capsys, "solve", instance, "--C", "4")
        assert code == 0
        assert json.loads(out)["result"]["traces"] is None

    def test_bench_defaults_after_a_bench_that_set_them(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "bench", "--N", "6", "--C", "2", "--b", "C", "--eps", "0", "--seeds", "1"
        )
        assert code == 0
        out_path = tmp_path / "bench.json"
        code, _, _ = run_cli(
            capsys, "bench", "--suite", "theorem1", "--seeds", "1", "-o", str(out_path)
        )
        assert code == 0
        cells = json.loads(out_path.read_text())["cells"]
        assert sorted({c["N"] for c in cells}) == list(bench_mod.DEFAULT_GRID["N"])

    def test_usage_error_between_two_calls_changes_nothing(self, capsys):
        argv = ["gen", "--N", "5", "--seed", "3"]
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--N", "4", "--seed", "1", "--w-lo", "0.5", "--capacity", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, second, _ = run_cli(capsys, *argv)
        assert code == 0
        assert second == first


def _drop_first_pool_before(doc):
    del doc["result"]["traces"][0]["records"][0]["pool_before"]


def _drop_first_added(doc):
    del doc["result"]["traces"][0]["records"][0]["added"]


def _set_first_record(**fields):
    return lambda doc: doc["result"]["traces"][0]["records"][0].update(fields)


def _set_first_pool_id(value):
    return lambda doc: doc["result"]["traces"][0]["records"][0]["pool_before"].__setitem__(0, value)


def _repeat_oracle_calls(doc):
    """The report's JSON text with ``oracle_calls`` named twice, a string before the count."""
    return json.dumps(doc).replace(
        '"oracle_calls": ', '"oracle_calls": "not a number", "oracle_calls": ', 1
    )


def _repeat_exchange_out_key(doc):
    _set_first_record(exchange_out_counts={"5": 1})(doc)
    return json.dumps(doc).replace('{"5": 1}', '{"5": 1, "5": 2}', 1)


def _instance_bytes(weight, price, **fields):
    product = {"id": 1, "weight": weight, "price": price}
    return json.dumps({"schema_version": "1", "products": [product], **fields}).encode("utf-8")


@pytest.mark.parametrize(
    "command, tamper, expected_code",
    [
        (["exact", "--C", "8"], None, "enumeration-cap"),
        (["exact", "--C", "-1"], None, "bad-config"),
        (["exact", "--C", "31"], None, "bad-config"),
        (["solve", "--C", "3", "--eps", "0.5"], None, "bad-noise"),
        (["verify"], lambda doc: doc["result"].pop("oracle_calls"), "schema"),
        (["verify"], lambda doc: doc["config"].update(S="x"), "schema"),
        (["verify"], _drop_first_pool_before, "schema"),
        (["verify"], lambda doc: doc["config"].update(C=10**9), "bad-config"),
        (["solve", "--C", "2"], b"\xff\xfe", "schema"),
        (["verify"], b"\xff\xfe", "schema"),
        (["verify"], _set_first_record(added=[1]), "schema"),
        (["verify"], _set_first_record(pool_before=[[1]]), "schema"),
        (["verify"], _set_first_record(action="bogus"), "schema"),
        (["verify"], _drop_first_added, "schema"),
        # integer fields are read as JSON integers, never truncated or coerced
        (["verify"], lambda doc: doc["result"].update(oracle_calls=True), "schema"),
        (["verify"], lambda doc: doc["result"].update(oracle_calls="62"), "schema"),
        (["verify"], lambda doc: doc["result"].update(oracle_calls=62.5), "schema"),
        (["verify"], lambda doc: doc["result"].update(seeds_explored=1.0), "schema"),
        (["verify"], _set_first_record(step=0.0), "schema"),
        (["verify"], _set_first_record(universe_size_after=7.4), "schema"),
        (["verify"], _set_first_record(exchange_out_counts={"1": 1.0}), "schema"),
        (["verify"], lambda doc: doc["config"].update(S=0.0), "schema"),
        (["verify"], lambda doc: doc["config"].update(C=3.9), "schema"),
        (["verify"], lambda doc: doc["config"].update(b="4"), "schema"),
        (["verify"], lambda doc: doc["config"]["noise"].update(seed="0"), "schema"),
        (["verify"], lambda doc: doc["result"].update(best_assortment=[1.0]), "schema"),
        (["verify"], lambda doc: doc["result"]["traces"][0].update(seed=[True]), "schema"),
        # a bool is not a JSON integer, so the one type scan of an id list refuses it
        (["verify"], _set_first_pool_id(True), "schema"),
        # an exchange-out key is the canonical decimal of one product id
        (["verify"], _set_first_record(exchange_out_counts={"0_5": 1}), "schema"),
        (["verify"], _set_first_record(exchange_out_counts={"5": 1, " +5 ": 1}), "schema"),
        # a repeated key is refused, not merged into its last value
        (["verify"], _repeat_oracle_calls, "schema"),
        (["verify"], _repeat_exchange_out_key, "schema"),
        (["solve", "--C", "1"], b'{"schema_version": "1", "schema_version": "1"}', "schema"),
        # a weight or price is read as written: no surrounding whitespace, no "_"
        (["solve", "--C", "1"], _instance_bytes(" 0.5 ", "2.0"), "bad-weight"),
        (["solve", "--C", "1"], _instance_bytes("0.5", "1_0"), "bad-price"),
        (["solve", "--C", "1"], _instance_bytes("ten", "2.0"), "bad-weight"),
        (["solve", "--C", "1"], _instance_bytes([0.5], "2.0"), "bad-weight"),
        (["solve", "--C", "1"], _instance_bytes(True, "2.0"), "bad-weight"),
        (["solve", "--C", "1"], b"[]", "schema"),
        (["solve", "--C", "1"], _instance_bytes("0.5", "2.0", metadata=[1]), "schema"),
        (["verify"], lambda doc: doc["config"].update(noise=[]), "schema"),
        (["verify"], lambda doc: doc.update(schema_version="2"), "schema"),
        (["verify"], lambda doc: doc.pop("config"), "schema"),
    ],
    ids=[
        "exact-past-enumeration-cap",
        "exact-negative-capacity",
        "exact-capacity-above-N",
        "solve-eps-without-noise-mode",
        "verify-without-oracle-calls",
        "verify-non-integer-S",
        "verify-record-without-pool-before",
        "verify-capacity-above-N",
        "solve-non-utf8-instance",
        "verify-non-utf8-report",
        "verify-list-as-added-id",
        "verify-list-in-pool-before",
        "verify-bogus-action",
        "verify-record-without-added",
        "verify-bool-oracle-calls",
        "verify-string-oracle-calls",
        "verify-fractional-oracle-calls",
        "verify-float-seeds-explored",
        "verify-float-step",
        "verify-fractional-universe-size",
        "verify-float-exchange-out-count",
        "verify-float-S",
        "verify-fractional-C",
        "verify-string-b",
        "verify-string-noise-seed",
        "verify-float-in-best-assortment",
        "verify-bool-in-trace-seed",
        "verify-bool-in-pool-before",
        "verify-exchange-out-key-not-canonical",
        "verify-two-exchange-out-keys-for-one-product",
        "verify-repeated-oracle-calls",
        "verify-repeated-exchange-out-key",
        "solve-repeated-instance-key",
        "solve-weight-with-whitespace",
        "solve-price-with-underscore",
        "solve-weight-not-a-decimal",
        "solve-list-weight",
        "solve-bool-weight",
        "solve-instance-not-an-object",
        "solve-metadata-not-an-object",
        "verify-noise-not-an-object",
        "verify-other-schema-version",
        "verify-without-config",
    ],
)
def test_failure_exits_three_with_json_error(tmp_path, capsys, command, tamper, expected_code):
    """Each reproduced failure exits 3 with a JSON error on stderr, not a traceback."""
    if tamper is None:
        # brute force over N=30, C=8 would enumerate 8,656,937 assortments
        path = tmp_path / "big.json"
        run_cli(capsys, "gen", "--N", "30", "--seed", "1", "-o", str(path))
    elif isinstance(tamper, bytes):
        path = tmp_path / "bad.json"
        path.write_bytes(tamper)
    else:
        inst_path = tmp_path / "inst.json"
        path = tmp_path / "report.json"
        run_cli(capsys, "gen", "--N", "6", "--seed", "11", "-o", str(inst_path))
        code, _, _ = run_cli(
            capsys, "solve", str(inst_path), "--C", "3", "--trace", "-o", str(path)
        )
        assert code == 0
        doc = json.loads(path.read_text())
        text = tamper(doc)  # the tampered text, or None when ``doc`` was changed in place
        if isinstance(text, str):
            json.loads(text)  # still JSON: only a key repeats
            path.write_text(text)
        else:
            path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["code"] == expected_code


#: each price * weight term is finite, but the largest price times 1 + the weights is not
OVERFLOWING_PRODUCTS = [
    {"id": 1, "weight": "1e154", "price": "1e154"},
    {"id": 2, "weight": "1e154", "price": "1.5e154"},
    {"id": 3, "weight": "1", "price": "5"},
]


@pytest.mark.parametrize("command", ["gen", "solve", "exact", "verify"])
def test_revenues_that_overflow_exit_three(tmp_path, capsys, command):
    """An instance whose revenue sums overflow is bad-price, exit 3, with a JSON error."""
    inst_path, report_path = tmp_path / "inst.json", tmp_path / "report.json"
    if command == "gen":
        argv = ["gen", "--N", "4", "--seed", "1", "--w-lo", "1e150", "--w-hi", "1e160",
                "--p-lo", "1e150", "--p-hi", "1e160", "-o", str(inst_path)]
    elif command == "verify":
        # a report of a solvable instance, with the overflowing products put in its place
        products = [{"id": i, "weight": "1", "price": "5"} for i in (1, 2, 3)]
        inst_path.write_text(json.dumps({"schema_version": "1", "products": products}))
        assert run_cli(capsys, "solve", str(inst_path), "--C", "2", "-o", str(report_path))[0] == 0
        doc = json.loads(report_path.read_text())
        doc["instance"]["products"] = OVERFLOWING_PRODUCTS
        report_path.write_text(json.dumps(doc))
        argv = ["verify", str(report_path)]
    else:
        inst_path.write_text(json.dumps({"schema_version": "1", "products": OVERFLOWING_PRODUCTS}))
        argv = [command, str(inst_path), "--C", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["code"] == "bad-price" and "not finite" in error["message"]


@pytest.mark.parametrize(
    "path",
    [
        ("result", "best_assortment"),
        ("result", "traces", 2, "seed"),
        ("result", "traces", 2, "records", 0, "assortment_before"),
        ("result", "traces", 2, "records", 0, "assortment_after"),
    ],
    ids=["best-assortment", "trace-seed", "assortment-before", "assortment-after"],
)
def test_verify_refuses_an_id_list_out_of_ascending_order(tmp_path, capsys, fixtures_dir, path):
    """An assortment's ids are read strictly ascending, not sorted and deduplicated."""
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "solve", str(fixtures_dir / "generated_n8_seed7.json"), "--S", "1", "--C", "3",
        "--trace", "-o", str(report),
    )
    assert code == 0
    doc = json.loads(report.read_text())
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    ids = holder[path[-1]]
    # the same set, misordered and with a repeat
    holder[path[-1]] = ids[::-1] + ids[:1]
    assert sorted(set(holder[path[-1]])) == ids
    report.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(report))
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "schema"
    assert f"{path[-1]} ids" in error["message"] and "not strictly ascending" in error["message"]


@pytest.mark.parametrize(
    "field, value",
    [("seeds_explored", 999), ("oracle_calls", 10**12)],
    ids=["seeds-explored-not-binom-N-S", "oracle-calls-above-bound"],
)
def test_verify_rejects_result_that_contradicts_config(tmp_path, capsys, field, value):
    """binom(6, 0) = 1 seed, and the call count must lie within call_count_bound."""
    inst_path = tmp_path / "inst.json"
    path = tmp_path / "report.json"
    run_cli(capsys, "gen", "--N", "6", "--seed", "11", "-o", str(inst_path))
    code, _, _ = run_cli(capsys, "solve", str(inst_path), "--C", "3", "--trace", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["result"][field] = value
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert out.startswith("verify FAIL")
    assert f"{field}={value}" in out
    assert json.loads(err)["error"]["code"] == "assertion-failure"


def _set(*path, value):
    def tamper(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return tamper


@pytest.mark.parametrize("delta", [1, -1])
def test_verify_wants_one_call_per_seed_at_s_equal_c(tmp_path, capsys, fixtures_dir, delta):
    """At S = C every one of the binom(N, S) seeds is scored once, no more and no fewer."""
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "solve", str(fixtures_dir / "generated_n8_seed7.json"), "--S", "2", "--C", "2",
        "-o", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["result"]["oracle_calls"] == 28
    doc["result"]["oracle_calls"] = 28 + delta
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert f"oracle_calls={28 + delta} outside [28, 28]" in out
    assert json.loads(err)["error"]["code"] == "assertion-failure"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_set("result", "oracle_calls", value=29), "oracle_calls=29 outside [28, 28]"),
        (
            _set("result", "best_assortment", value=[1, 2, 3]),
            "best assortment has 3 products, above C=2",
        ),
        (
            _set("result", "best_assortment", value=[7, 8]),
            "best assortment is not the best final state of the traced seeds",
        ),
    ],
    ids=["calls-above-binom", "best-above-C", "best-not-reached"],
)
def test_verify_replays_a_traced_report_at_s_equal_c(
    tmp_path, capsys, fixtures_dir, tamper, message
):
    """A traced S = C report has one trace per seed and no records in it, each seed its
    own final state: it verifies, and a tampered result does not."""
    path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "solve", str(fixtures_dir / "generated_n8_seed7.json"), "--S", "2", "--C", "2",
        "--trace", "-o", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and out.startswith("verify PASS")
    doc = json.loads(path.read_text())
    assert all(trace["records"] == [] for trace in doc["result"]["traces"])
    tamper(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert message in out
    assert json.loads(err)["error"]["code"] == "assertion-failure"


def _drop_best_assortment(doc):
    doc["result"].update(best_assortment=[], best_oracle_revenue="0.0")


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_set("exact", "revenue", value="999.0"), "exact does not match its recomputation"),
        (_set("gap", value="0.5"), "gap does not match its recomputation"),
        (_set("bounds", "eta", value="0.5"), "bounds does not match its recomputation"),
        (_set("analysis", "trace_violations", value=3), "analysis does not match its recomputation"),
        (_set("result", "traces", value=[]), "0 traces, expected one per seed"),
        (_set("result", "traces", 0, "seed", value=[1]), "trace seed [1], expected []"),
        (_set("instance_digest", value="0" * 64), "instance digest mismatch"),
        # reproducible (the empty set earns 0), but S = 0 and b = C + 1 promise the optimum
        (_drop_best_assortment, "best revenue 0.0 misses the optimum"),
    ],
    ids=[
        "exact-revenue", "gap", "bounds-eta", "analysis-trace-violations", "no-traces",
        "seed-out-of-order", "digest", "missed-optimum",
    ],
)
def test_verify_rejects_section_that_contradicts_the_run(tmp_path, capsys, tamper, message):
    """verify recomputes exact, gap, bounds and analysis, wants one trace per seed in seed
    order, and checks the instance digest."""
    inst_path = tmp_path / "inst.json"
    path = tmp_path / "report.json"
    run_cli(capsys, "gen", "--N", "6", "--seed", "11", "-o", str(inst_path))
    code, _, _ = run_cli(
        capsys, "solve", str(inst_path), "--C", "3", "--trace", "--exact", "-o", str(path)
    )
    assert code == 0
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert out.startswith("verify FAIL")
    assert message in out
    assert json.loads(err)["error"]["code"] == "assertion-failure"


def _terminate_revenue_one(doc):
    terminate = doc["result"]["traces"][0]["records"][-1]
    assert terminate["action"] == "terminate"
    terminate["revenue_after"] = "1.0"


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop_best_assortment, "best assortment is not the best final state of the traced seeds"),
        (_terminate_revenue_one, "recorded revenue is not reproducible"),
    ],
    ids=["best-not-reached", "terminate-revenue"],
)
def test_verify_ties_a_traced_result_to_its_traces(tmp_path, capsys, tamper, message):
    """Without --exact no section names the optimum: the best set must be the best final
    state of the traces, and every record's revenue, a terminate's too, reproducible."""
    inst_path = tmp_path / "inst.json"
    path = tmp_path / "report.json"
    run_cli(capsys, "gen", "--N", "30", "--seed", "1", "-o", str(inst_path))
    code, _, _ = run_cli(capsys, "solve", str(inst_path), "--C", "4", "--trace", "-o", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and out.startswith("verify PASS")
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert out.startswith("verify FAIL")
    assert message in out
    assert json.loads(err)["error"]["code"] == "assertion-failure"


def test_solve_exact_past_enumeration_cap(tmp_path, capsys):
    """solve --exact needs no enumeration: N=30, C=8 would be 8,656,937 assortments."""
    path = tmp_path / "big.json"
    run_cli(capsys, "gen", "--N", "30", "--seed", "1", "-o", str(path))
    code, out, err = run_cli(capsys, "solve", str(path), "--C", "8", "--exact")
    assert code == 0
    assert err == ""
    exact = json.loads(out)["exact"]
    instance, _meta = load_instance(str(path))
    candidate = candidate_set_opt(instance, 8)
    assert float(exact["revenue"]) == pytest.approx(candidate.revenue, rel=1e-9)
    assert sorted(exact["per_size_optima"], key=int) == [str(k) for k in range(9)]
    for k, (assortment, revenue) in candidate.per_size_optima.items():
        entry = exact["per_size_optima"][str(k)]
        assert entry["assortment"] == list(assortment.ids)
        assert float(entry["revenue"]) == pytest.approx(revenue, rel=1e-9)
