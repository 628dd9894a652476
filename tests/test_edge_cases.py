"""Degenerate instances and cross-cutting invariants."""

import random

import pytest

from assortopt import (
    Assortment,
    ExactMnlOracle,
    GreedyConfig,
    Instance,
    NoiseSpec,
    NoisyOracle,
    brute_force_opt,
    candidate_set_opt,
    greedy_opt,
    mnl_revenue,
    naive_greedy,
)
from assortopt.generate import GeneratorSpec, generate_instance


class TestDegenerateInstances:
    def test_empty_universe_solves_to_empty(self):
        inst = Instance.of([])
        report = greedy_opt(GreedyConfig(0, 0, 1), inst.ids(), ExactMnlOracle(inst))
        assert report.best_assortment.ids == ()
        assert report.best_oracle_revenue == 0.0
        assert report.seeds_explored == 1

    def test_all_zero_prices(self):
        # every assortment earns 0; nothing strictly improves, so the empty
        # seed never grows, and both reference solvers settle on empty too
        inst = Instance.of([(1, 1.0, 0.0), (2, 2.0, 0.0), (3, 0.5, 0.0)])
        oracle = ExactMnlOracle(inst)
        report = greedy_opt(GreedyConfig(0, 2, 3), inst.ids(), oracle)
        assert report.best_assortment.ids == ()
        assert report.best_oracle_revenue == 0.0
        brute = brute_force_opt(oracle, inst.ids(), 2)
        candidate = candidate_set_opt(inst, 2)
        assert brute.assortment.ids == () and brute.revenue == 0.0
        assert candidate.assortment.ids == () and candidate.revenue == 0.0
        assert naive_greedy(2, inst.ids(), oracle).ids == ()

    def test_some_zero_price_products_never_help(self):
        rng = random.Random(60)
        for _ in range(20):
            base = generate_instance(GeneratorSpec(5, seed=rng.getrandbits(60)))
            products = list(base.products) + [
                type(base.products[0])(6, 3.0, 0.0),
                type(base.products[0])(7, 0.2, 0.0),
            ]
            inst = Instance(tuple(products))
            brute = brute_force_opt(ExactMnlOracle(inst), inst.ids(), 3)
            # a free product only dilutes demand; the optimum skips them
            assert 6 not in brute.assortment and 7 not in brute.assortment
            candidate = candidate_set_opt(inst, 3)
            assert candidate.revenue == pytest.approx(brute.revenue, rel=1e-9)

    def test_single_product_zero_capacity(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        report = greedy_opt(GreedyConfig(0, 0, 1), inst.ids(), ExactMnlOracle(inst))
        assert report.best_assortment.ids == ()


class TestFixedNoiseInvariance:
    def test_uniform_scaling_never_changes_decisions(self):
        # a fixed factor (1 - eps) preserves every comparison the solver
        # makes, so the chosen assortment matches the exact-oracle run
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(2, 9)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            capacity = rng.randint(1, n)
            budget = rng.randint(1, capacity + 2)
            config = GreedyConfig(0, capacity, budget)
            exact = greedy_opt(config, inst.ids(), ExactMnlOracle(inst))
            noisy_oracle = NoisyOracle(
                ExactMnlOracle(inst), NoiseSpec(mode="fixed", eps=0.25)
            )
            noisy = greedy_opt(config, inst.ids(), noisy_oracle)
            assert noisy.best_assortment == exact.best_assortment


class TestNoiseSeedHandling:
    def test_negative_and_huge_seeds_accepted(self):
        m = Assortment.of([1, 2])
        for seed in (-1, -(2**63), 2**63 - 1, 0):
            spec = NoiseSpec(mode="seeded-uniform", eps=0.5, seed=seed)
            eps = spec.epsilon(m)
            assert 0.0 <= eps <= 0.5
            assert eps == spec.epsilon(Assortment.of([2, 1]))


class TestCapacityFallback:
    def test_solve_uses_file_capacity(self, tmp_path, capsys):
        from assortopt.cli import main
        from assortopt.io import load_report

        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        assert main(["gen", "--N", "4", "--seed", "9", "--capacity", "2",
                     "-o", str(inst_path)]) == 0
        assert main(["solve", str(inst_path), "-o", str(report_path)]) == 0
        report = load_report(str(report_path))
        assert report["config"]["C"] == 2
        assert report["config"]["b"] == 3  # defaults to C + 1
        capsys.readouterr()

    def test_solve_without_any_capacity_fails_cleanly(self, tmp_path, capsys):
        from assortopt.cli import main

        inst_path = tmp_path / "inst.json"
        assert main(["gen", "--N", "4", "--seed", "9", "-o", str(inst_path)]) == 0
        assert main(["solve", str(inst_path)]) == 3
        capsys.readouterr()


class TestSeedSizeBoundary:
    def test_seeded_runs_recover_optima_at_least_seed_sized(self):
        rng = random.Random(63)
        checked = 0
        for _ in range(60):
            inst = generate_instance(GeneratorSpec(8, seed=rng.getrandbits(60)))
            brute = brute_force_opt(ExactMnlOracle(inst), inst.ids(), 3)
            for seed_size in (1, 2):
                if len(brute.assortment) < seed_size:
                    continue  # structurally unreachable, see below
                report = greedy_opt(
                    GreedyConfig(seed_size, 3, 4), inst.ids(), ExactMnlOracle(inst)
                )
                assert report.best_oracle_revenue == pytest.approx(brute.revenue, rel=1e-9)
                checked += 1
        assert checked > 50

    def test_optimum_smaller_than_seed_is_unreachable(self):
        # one dominant product: the optimum is a singleton, and with S=2
        # every result keeps >= 2 members, so the solver must fall short
        inst = Instance.of([(1, 5.0, 100.0), (2, 5.0, 1.0), (3, 5.0, 1.0)])
        brute = brute_force_opt(ExactMnlOracle(inst), inst.ids(), 3)
        assert brute.assortment.ids == (1,)
        report = greedy_opt(GreedyConfig(2, 3, 4), inst.ids(), ExactMnlOracle(inst))
        assert len(report.best_assortment) >= 2
        assert report.best_oracle_revenue < brute.revenue
        # with the safe default S=0 the same instance solves exactly
        report = greedy_opt(GreedyConfig(0, 3, 4), inst.ids(), ExactMnlOracle(inst))
        assert report.best_oracle_revenue == pytest.approx(brute.revenue, rel=1e-12)


class TestRevenueScaleInvariance:
    def test_scaling_all_prices_scales_revenue(self):
        # MNL revenue is linear in prices; optimizers are scale-invariant
        rng = random.Random(62)
        for _ in range(20):
            inst = generate_instance(GeneratorSpec(6, seed=rng.getrandbits(60)))
            scaled = Instance.of([(p.id, p.weight, 10.0 * p.price) for p in inst.products])
            config = GreedyConfig(0, 3, 4)
            a = greedy_opt(config, inst.ids(), ExactMnlOracle(inst))
            b = greedy_opt(config, scaled.ids(), ExactMnlOracle(scaled))
            assert a.best_assortment == b.best_assortment
            assert b.best_oracle_revenue == pytest.approx(
                10.0 * a.best_oracle_revenue, rel=1e-12
            )
            m = a.best_assortment
            assert mnl_revenue(scaled, m) == pytest.approx(10.0 * mnl_revenue(inst, m), rel=1e-12)
