"""Choice model and oracle wrapper behavior."""

import math
import random

import pytest

from assortopt import (
    Assortment,
    CountingOracle,
    ExactMnlOracle,
    GreedyConfig,
    Instance,
    InvalidAssortmentError,
    NoiseSpec,
    NoisyOracle,
    ValidationError,
    greedy_opt,
    mnl_revenue,
)
from assortopt.generate import GeneratorSpec, generate_instance
from assortopt.oracles import CONFIRM_BAND, MovePass, best_move, score_moves
from references import NO_PURCHASE, InvalidChoiceError, mnl_choice_prob


THREE = Instance.of([(1, 1.0, 10.0), (2, 2.0, 6.0), (3, 0.5, 12.0)])


def random_instance(rng, n):
    return generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))


def random_assortment(rng, instance, max_size=None):
    cap = len(instance.products) if max_size is None else max_size
    size = rng.randint(0, cap)
    return Assortment.of(rng.sample(list(instance.ids()), size))


def random_moves(rng, instance, current, count):
    """``count`` random additions and exchanges on ``current``."""
    outside = [i for i in instance.ids() if i not in current]
    return [
        (rng.choice(outside), rng.choice(current.ids) if current and rng.random() < 0.7 else None)
        for _ in range(count)
    ]


class EvaluateOnly:
    def __init__(self, oracle):
        self._oracle = oracle

    def evaluate(self, assortment):
        return self._oracle.evaluate(assortment)


class EvaluationCounter(ExactMnlOracle):
    """Exact oracle that counts its ``evaluate`` calls."""

    evaluations = 0

    def evaluate(self, assortment):
        self.evaluations += 1
        return super().evaluate(assortment)


class TestMnlRevenue:
    def test_empty_assortment_is_zero(self):
        assert mnl_revenue(THREE, Assortment()) == 0.0

    def test_singleton(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        assert mnl_revenue(inst, Assortment.of([1])) == pytest.approx(5.0, abs=0)

    def test_pair(self):
        # (10*1 + 12*0.5) / (1 + 1 + 0.5)
        assert mnl_revenue(THREE, Assortment.of([1, 3])) == pytest.approx(6.4, rel=1e-15)

    def test_unknown_product_rejected(self):
        with pytest.raises(InvalidAssortmentError):
            mnl_revenue(THREE, Assortment.of([1, 9]))

    def test_matches_price_weighted_choice_probs(self):
        rng = random.Random(101)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(1, 10))
            m = random_assortment(rng, inst)
            via_probs = sum(inst.product(i).price * mnl_choice_prob(inst, m, i) for i in m)
            assert mnl_revenue(inst, m) == pytest.approx(via_probs, abs=1e-12)


class TestChoiceProbabilities:
    def test_empty_offer_forces_no_purchase(self):
        assert mnl_choice_prob(THREE, Assortment(), NO_PURCHASE) == 1.0

    def test_single_product_splits_evenly_with_unit_weight(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        m = Assortment.of([1])
        assert mnl_choice_prob(inst, m, 1) == 0.5
        assert mnl_choice_prob(inst, m, NO_PURCHASE) == 0.5

    def test_unoffered_choice_rejected(self):
        with pytest.raises(InvalidChoiceError):
            mnl_choice_prob(THREE, Assortment.of([1]), 2)

    def test_probabilities_sum_to_one(self):
        rng = random.Random(77)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(1, 10))
            m = random_assortment(rng, inst)
            total = mnl_choice_prob(inst, m, NO_PURCHASE) + math.fsum(
                mnl_choice_prob(inst, m, i) for i in m
            )
            assert abs(total - 1.0) <= 1e-12


class TestExactOracle:
    def test_empty_is_zero(self):
        assert ExactMnlOracle(THREE).evaluate(Assortment()) == 0.0

    def test_matches_direct_formula(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        assert ExactMnlOracle(inst).evaluate(Assortment.of([1])) == 5.0

    def test_pure(self):
        oracle = ExactMnlOracle(THREE)
        m = Assortment.of([2, 3])
        assert oracle.evaluate(m) == oracle.evaluate(m)


class TestNoisyOracle:
    def test_mode_none_is_identity(self):
        rng = random.Random(5)
        inst = random_instance(rng, 6)
        base = ExactMnlOracle(inst)
        noisy = NoisyOracle(base, NoiseSpec())
        for _ in range(50):
            m = random_assortment(rng, inst)
            assert noisy.evaluate(m) == base.evaluate(m)

    def test_fixed_mode_scales(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        noisy = NoisyOracle(ExactMnlOracle(inst), NoiseSpec(mode="fixed", eps=0.1))
        assert noisy.evaluate(Assortment.of([1])) == pytest.approx(4.5, rel=1e-15)

    def test_seeded_uniform_sandwich(self):
        # 1000 random (instance, assortment, seed) triples
        rng = random.Random(12345)
        for _ in range(1000):
            inst = random_instance(rng, rng.randint(1, 8))
            m = random_assortment(rng, inst)
            eps_max = rng.choice([0.001, 0.01, 0.2, 0.9])
            spec = NoiseSpec(mode="seeded-uniform", eps=eps_max, seed=rng.getrandbits(63))
            base = ExactMnlOracle(inst)
            value = NoisyOracle(base, spec).evaluate(m)
            truth = base.evaluate(m)
            assert (1.0 - eps_max) * truth - 1e-12 <= value <= truth + 1e-12

    def test_repeatable_within_and_across_runs(self):
        spec = NoiseSpec(mode="seeded-uniform", eps=0.05, seed=987654321)
        first = NoisyOracle(ExactMnlOracle(THREE), spec)
        second = NoisyOracle(ExactMnlOracle(THREE), spec)
        for ids in [(), (1,), (2,), (1, 3), (1, 2, 3)]:
            m = Assortment.of(ids)
            assert first.evaluate(m) == first.evaluate(m)
            assert first.evaluate(m) == second.evaluate(m)

    def test_different_seeds_differ_somewhere(self):
        a = NoiseSpec(mode="seeded-uniform", eps=0.5, seed=1)
        b = NoiseSpec(mode="seeded-uniform", eps=0.5, seed=2)
        m = Assortment.of([1, 2])
        assert a.epsilon(m) != b.epsilon(m)

    def test_seeded_values_are_frozen(self):
        # the noise hash is a stable contract: reports and benches replay it
        cases = [(42, (1, 3), 0.26173709157937874), (2**63 + 5, (2, 7, 11), 0.2186031100393904),
                 (0, (), 0.11739587036981847)]
        for seed, ids, expected in cases:
            spec = NoiseSpec(mode="seeded-uniform", eps=0.5, seed=seed)
            assert spec.epsilon(Assortment.of(ids)) == expected

    def test_batched_factors_match_scalar_bit_for_bit(self):
        rng = random.Random(4321)
        checked = 0
        while checked < 1000:
            inst = random_instance(rng, rng.randint(2, 30))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_moves(rng, inst, current, 25)
            spec = NoiseSpec(mode="seeded-uniform", eps=rng.choice([0.001, 0.2, 0.9]),
                             seed=rng.getrandbits(64))
            batched = [1.0 - eps for eps in spec.move_epsilons(current, moves)]
            encodings = current.encode_moves(moves)
            for move, factor, encoding in zip(moves, batched, encodings):
                candidate = current.after_move(*move)
                assert encoding == candidate.encode()
                assert factor == 1 - spec.epsilon(candidate)
            checked += len(moves)

    def test_spec_survives_pickle_and_deepcopy(self):
        import copy
        import pickle

        spec = NoiseSpec(mode="seeded-uniform", eps=0.3, seed=2**64 + 9)
        m = Assortment.of([2, 4])
        for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert clone == spec
            assert clone.epsilon(m) == spec.epsilon(m)

    @pytest.mark.parametrize(
        "spec",
        [NoiseSpec(), NoiseSpec(mode="fixed", eps=0.25, seed=3),
         NoiseSpec(mode="seeded-uniform", eps=0.5, seed=7)],
        ids=["none", "fixed", "seeded-uniform"],
    )
    def test_one_level_survives_pickle_and_deepcopy(self, spec):
        import copy
        import dataclasses
        import pickle

        assert [f.name for f in dataclasses.fields(NoiseSpec) if f.init] == ["mode", "eps", "seed"]
        current = Assortment.of([1, 3])
        moves = [(2, None), (4, 1), (5, 3)]
        for clone in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert (clone.mode, clone.eps, clone.seed) == (spec.mode, spec.eps, spec.seed)
            assert clone == spec
            assert clone.move_epsilons(current, moves) == spec.move_epsilons(current, moves)

    @pytest.mark.parametrize("eps", [0.5, -0.5, 1.5, math.nan])
    def test_no_level_without_a_noisy_mode(self, eps):
        with pytest.raises(ValidationError) as exc:
            NoiseSpec(mode="none", eps=eps)
        assert exc.value.code == "bad-noise"
        assert "needs noise mode" in str(exc.value)

    @pytest.mark.parametrize("seed", [5, -1, 2**64])
    def test_no_seed_without_a_noisy_mode(self, seed):
        with pytest.raises(ValidationError) as exc:
            NoiseSpec(mode="none", seed=seed)
        assert exc.value.code == "bad-noise"

    def test_epsilon_depends_only_on_canonical_encoding(self):
        spec = NoiseSpec(mode="seeded-uniform", eps=0.3, seed=42)
        assert spec.epsilon(Assortment.of([3, 1])) == spec.epsilon(Assortment.of([1, 3]))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSpec(mode="fixed", eps=1.0)
        with pytest.raises(ValidationError):
            NoiseSpec(mode="seeded-uniform", eps=-0.1)
        with pytest.raises(ValidationError):
            NoiseSpec(mode="gaussian")


class TestMovePass:
    MOVES = MovePass([4, 6], [1, 3], [4, 5])
    LISTED = [(4, 1), (4, 3), (6, 1), (6, 3), (4, None), (5, None)]

    def test_lists_exchanges_then_additions(self):
        assert list(self.MOVES) == self.LISTED
        assert len(self.MOVES) == len(self.LISTED)
        assert [self.MOVES[i] for i in range(len(self.LISTED))] == self.LISTED

    def test_negative_and_slice_indexing(self):
        size = len(self.LISTED)
        assert [self.MOVES[i] for i in range(-size, 0)] == self.LISTED
        for cut in [slice(None), slice(1, 5), slice(-2, None), slice(0, size, 4),
                    slice(None, None, -1), slice(5, 1, -3), slice(9, 20)]:
            assert self.MOVES[cut] == self.LISTED[cut]
        for index in (size, -size - 1):
            with pytest.raises(IndexError):
                self.MOVES[index]
        with pytest.raises(TypeError):
            self.MOVES["0"]

    def test_empty_sides(self):
        assert list(MovePass([], [1, 2], [3])) == [(3, None)]
        assert list(MovePass([3], [], [])) == []
        assert len(MovePass([3], [], [])) == 0
        with pytest.raises(IndexError):
            MovePass([3], [], [])[0]

    def test_keeps_its_own_copy_of_the_pools(self):
        pool = [4]
        moves = MovePass(pool, [1], pool)
        pool.append(6)
        assert list(moves) == [(4, 1), (4, None)]


class TestScoreMoves:
    def unpruned_oracles(self, inst):
        exact = ExactMnlOracle(inst)
        yield exact
        yield NoisyOracle(exact, NoiseSpec(mode="fixed", eps=0.01))
        yield CountingOracle(exact)

    def oracles(self, inst, rng):
        yield from self.unpruned_oracles(inst)
        yield NoisyOracle(ExactMnlOracle(inst), NoiseSpec(
            mode="seeded-uniform", eps=0.2, seed=rng.getrandbits(32)))

    def test_band_is_exact_and_the_rest_is_close(self):
        rng = random.Random(2468)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_moves(rng, inst, current, rng.randint(1, 40))
            for oracle in self.unpruned_oracles(inst):
                values = score_moves(oracle, current, moves)
                exact = [oracle.evaluate(current.after_move(*m)) for m in moves]
                top = max(values)
                assert top == max(exact)
                for value, truth in zip(values, exact):
                    if value >= top - CONFIRM_BAND * abs(top):
                        assert value == truth
                    else:
                        assert value == pytest.approx(truth, rel=1e-13)

    def test_fixed_mode_scales_every_exact_score_bit_for_bit(self):
        # fixed mode prunes nothing: each score is (1 - eps) times the exact one,
        # for a pass and for the list of its moves alike
        rng = random.Random(1357)
        for _ in range(100):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            outside = [i for i in inst.ids() if i not in current]
            eps = rng.choice([0.001, 0.01, 0.3])
            exact = ExactMnlOracle(inst)
            noisy = NoisyOracle(exact, NoiseSpec(mode="fixed", eps=eps))
            batch = MovePass(outside, current.ids, outside)
            for moves in (batch, list(batch), random_moves(rng, inst, current, rng.randint(1, 40))):
                want = [((1 - eps) * value).hex() for value in exact.score_moves(current, moves)]
                assert [value.hex() for value in noisy.score_moves(current, moves)] == want

    @pytest.mark.parametrize("eps_max", [0.001, 0.2, 0.5, 0.999])
    def test_seeded_uniform_band_is_exact_and_the_rest_bounds_it(self, eps_max):
        # moves pruned before hashing keep their base value: below the band's
        # floor and, to rounding, at least their noisy value
        rng = random.Random(1234)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_moves(rng, inst, current, rng.randint(1, 40))
            exact = ExactMnlOracle(inst)
            oracle = NoisyOracle(exact, NoiseSpec(
                mode="seeded-uniform", eps=eps_max, seed=rng.getrandbits(32)))
            values = score_moves(oracle, current, moves)
            truth = [oracle.evaluate(current.after_move(*m)) for m in moves]
            top = max(values)
            floor = top - CONFIRM_BAND * abs(top)
            assert top == max(truth)
            assert values.index(top) == truth.index(max(truth))
            for move, value, noisy in zip(moves, values, truth):
                if value >= floor:
                    assert value == noisy
                    continue
                base = exact.evaluate(current.after_move(*move))
                assert value == pytest.approx(noisy, rel=1e-13) or value == pytest.approx(base, rel=1e-13)
                assert value >= noisy * (1 - 1e-13)

    def test_seeded_uniform_hashes_only_moves_that_can_win(self, monkeypatch):
        hashed = []
        move_epsilons = NoiseSpec.move_epsilons

        def counting_move_epsilons(spec, current, moves):
            hashed.extend(moves)
            return move_epsilons(spec, current, moves)

        monkeypatch.setattr(NoiseSpec, "move_epsilons", counting_move_epsilons)
        rng = random.Random(60)
        inst = random_instance(rng, 60)
        current = Assortment.of(rng.sample(inst.ids(), 6))
        outside = [i for i in inst.ids() if i not in current]
        moves = [(e, l) for e in outside for l in current.ids] + [(e, None) for e in outside]
        oracle = NoisyOracle(ExactMnlOracle(inst),
                                   NoiseSpec(mode="seeded-uniform", eps=0.001, seed=3))
        values = score_moves(oracle, current, moves)
        assert 0 < len(hashed) < len(moves) / 2
        truth = [oracle.evaluate(current.after_move(*m)) for m in moves]
        assert values.index(max(values)) == truth.index(max(truth))

    def test_near_tie_is_ranked_by_evaluate(self):
        # the batched sums round (3, 1) below (4, 1) although evaluate ranks it above
        inst = Instance.of([(1, 0.9, 0.1), (2, 0.4, 0.3), (3, 0.4, 0.1), (4, 1.1, 0.1),
                            (5, 0.3, 0.1), (6, 1 / 3, 0.1), (7, 0.1, 0.3)])
        current = Assortment.of([1, 2, 5, 6, 7])
        moves = [(e, l) for e in (3, 4) for l in current.ids] + [(3, None), (4, None)]
        for oracle in self.oracles(inst, random.Random(1)):
            values = score_moves(oracle, current, moves)
            exact = [oracle.evaluate(current.after_move(*m)) for m in moves]
            assert max(values) == max(exact)
            assert values.index(max(values)) == exact.index(max(exact))
        exact = [ExactMnlOracle(inst).evaluate(current.after_move(*m)) for m in moves]
        assert exact.index(max(exact)) == 0

    def test_fallback_scores_through_evaluate(self):
        rng = random.Random(97)
        inst = random_instance(rng, 8)
        current = Assortment.of([2, 5])
        moves = [(1, 2), (3, None), (8, 5)]
        oracle = EvaluateOnly(ExactMnlOracle(inst))
        assert score_moves(oracle, current, moves) == [
            oracle.evaluate(Assortment.of(ids)) for ids in [(1, 5), (2, 3, 5), (2, 8)]
        ]

    def test_unknown_product_rejected(self):
        with pytest.raises(InvalidAssortmentError):
            score_moves(ExactMnlOracle(THREE), Assortment.of([1]), [(9, None)])

    def test_best_move_is_the_first_largest_score(self):
        # best_move reads the confirm band; it must rank as the full list does, also
        # for estimates that overshoot their confirmation, ties, and NaN values
        class Distorted(EvaluateOnly):
            def __init__(self, oracle, distort):
                super().__init__(oracle)
                self.distort = distort

            def score_moves(self, current, moves):
                return [self.distort(i, self.evaluate(current.after_move(*move)))
                        for i, move in enumerate(moves)]

        class NanEvaluate(EvaluateOnly):
            def evaluate(self, assortment):
                value = super().evaluate(assortment)
                return math.nan if len(assortment) % 3 == 0 else value

        nan = math.nan
        distortions = [
            lambda i, v: v * (1.0 + 1e-6) if i % 5 == 0 else v,  # overshoots the band
            lambda i, v: round(v, 1),  # ties
            lambda i, v: nan if i == 0 else v,
            lambda i, v: nan if i % 4 == 1 else v,
            lambda i, v: nan,
            lambda i, v: math.inf if i == 2 else v,
            lambda i, v: -v,
        ]
        rng = random.Random(4711)
        checked = 0
        for _ in range(150):
            inst = random_instance(rng, rng.randint(2, 15))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_moves(rng, inst, current, rng.randint(1, 30))
            exact = ExactMnlOracle(inst)
            makers = [
                lambda: exact,
                lambda: NoisyOracle(exact, NoiseSpec(mode="fixed", eps=0.01)),
                lambda: NoisyOracle(exact, NoiseSpec(mode="seeded-uniform", eps=0.2, seed=7)),
                lambda: CountingOracle(exact),
                lambda: EvaluateOnly(exact),
                lambda: NanEvaluate(exact),
                *[lambda d=d: Distorted(exact, d) for d in distortions],
                lambda: Distorted(NanEvaluate(exact), lambda i, v: v),
            ]
            for make in makers:
                values = score_moves(make(), current, moves)
                index, value = best_move(make(), current, moves)
                assert index == values.index(max(values))
                assert value is values[index] or value.hex() == values[index].hex()
                checked += 1
        assert checked > 1000

    def test_batch_is_confirmed_once_below_the_counter(self):
        rng = random.Random(1357)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_moves(rng, inst, current, rng.randint(1, 40))
            base = EvaluationCounter(inst)
            spec = NoiseSpec(mode="seeded-uniform", eps=0.2, seed=rng.getrandbits(32))
            for oracle in (base, NoisyOracle(base, spec)):
                base.evaluations = 0
                counting = CountingOracle(oracle)
                stats = counting.stats
                values = score_moves(counting, current, moves)
                top = max(values)
                band = sum(value >= top - CONFIRM_BAND * abs(top) for value in values)
                assert base.evaluations == band
                assert stats.call_count == len(moves)


class TestCountingOracle:
    def test_fresh_wrapper_counts_nothing(self):
        stats = CountingOracle(ExactMnlOracle(THREE)).stats
        assert stats.call_count == 0
        assert stats.distinct_count == 0

    def test_repeat_calls_counted_once_distinct(self):
        oracle = CountingOracle(ExactMnlOracle(THREE))
        stats = oracle.stats
        m = Assortment.of([1])
        for _ in range(3):
            oracle.evaluate(m)
        assert stats.call_count == 3
        assert stats.distinct_count == 1

    def test_distinct_assortments(self):
        oracle = CountingOracle(ExactMnlOracle(THREE))
        stats = oracle.stats
        oracle.evaluate(Assortment.of([1]))
        oracle.evaluate(Assortment.of([2]))
        assert stats.distinct_count == 2
        assert stats.distinct_count <= stats.call_count

    def test_transparent_values(self):
        rng = random.Random(9)
        inst = random_instance(rng, 7)
        base = ExactMnlOracle(inst)
        wrapped = CountingOracle(ExactMnlOracle(inst))
        for _ in range(100):
            m = random_assortment(rng, inst)
            assert wrapped.evaluate(m) == base.evaluate(m)

    def test_score_moves_counts_one_call_per_move(self):
        rng = random.Random(8)
        inst = random_instance(rng, 12)
        oracle = CountingOracle(ExactMnlOracle(inst))
        stats = oracle.stats
        total = 0
        for _ in range(20):
            current = random_assortment(rng, inst, max_size=6)
            moves = random_moves(rng, inst, current, rng.randint(0, 30))
            score_moves(oracle, current, moves)
            total += len(moves)
            assert stats.call_count == total

    def test_distinct_count_of_batched_solve_matches_scalar_solve(self):
        rng = random.Random(55)
        for _ in range(15):
            inst = random_instance(rng, rng.randint(2, 14))
            capacity = rng.randint(1, inst.n)
            config = GreedyConfig(rng.randint(0, min(capacity, 2)), capacity, rng.randint(1, capacity + 1))
            batched = CountingOracle(ExactMnlOracle(inst))
            batched_stats = batched.stats
            scalar = CountingOracle(ExactMnlOracle(inst))
            scalar_stats = scalar.stats
            greedy_opt(config, inst.ids(), batched)
            greedy_opt(config, inst.ids(), EvaluateOnly(scalar))
            assert batched_stats.call_count == scalar_stats.call_count
            assert batched_stats.distinct_count == scalar_stats.distinct_count

    def test_stat_updates_are_atomic_under_threads(self):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        oracle = CountingOracle(ExactMnlOracle(THREE))
        stats = oracle.stats
        assortments = [Assortment.of(ids) for ids in [(1,), (2,), (3,), (1, 2), (1, 3)]]
        # each batch reaches (1, 2, 3), (2, 3) and (1, 3); the first two are new
        batch = (Assortment.of([1, 2]), [(3, None), (3, 1), (3, 2)])
        distinct_sizes = []

        def hammer(worker):
            for i in range(400):
                oracle.evaluate(assortments[(worker + i) % len(assortments)])
                score_moves(oracle, *batch)
                if i % 50 == 0:
                    distinct_sizes.append(stats.distinct_count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                for future in [pool.submit(hammer, worker) for worker in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert stats.call_count == 8 * 400 * (1 + len(batch[1]))
        assert stats.distinct_count == len(assortments) + 2
        assert max(distinct_sizes) <= len(assortments) + 2
