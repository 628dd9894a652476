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
from assortopt.oracles import CONFIRM_BAND, MovePass, best_move
from references import NO_PURCHASE, InvalidChoiceError, mnl_choice_prob
from test_greedy import NudgedEstimates, pass_estimates
from test_reference import (
    TIE_FAMILIES,
    dispersed_weights,
    subnormal_weights,
    tiny_weights,
    weights_one_ulp_apart,
)


THREE = Instance.of([(1, 1.0, 10.0), (2, 2.0, 6.0), (3, 0.5, 12.0)])


def random_instance(rng, n):
    return generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))


def random_assortment(rng, instance, max_size=None):
    cap = len(instance.products) if max_size is None else max_size
    size = rng.randint(0, cap)
    return Assortment.of(rng.sample(list(instance.ids()), size))


def random_pass(rng, instance, current):
    """A non-empty ``MovePass`` on ``current`` with random ascending pools and members."""
    outside = [i for i in instance.ids() if i not in current]

    def some(ids):
        return sorted(rng.sample(ids, rng.randint(0, min(len(ids), 6))))

    while True:
        moves = MovePass(some(outside), some(current.ids), some(outside))
        if moves:
            return moves


class EvaluateOnly:
    def __init__(self, oracle):
        self._oracle = oracle

    def evaluate(self, assortment):
        return self._oracle.evaluate(assortment)


class EvaluationLog(ExactMnlOracle):
    """Exact oracle that logs the sets it evaluates, in order."""

    def __init__(self, instance):
        super().__init__(instance)
        self.evaluated = []

    def evaluate(self, assortment):
        self.evaluated.append(assortment)
        return super().evaluate(assortment)


class PlugIn:
    """A hooked plug-in base with any revenue function, which logs the sets it evaluates."""

    def __init__(self, revenue):
        self.revenue, self.evaluated = revenue, []

    def evaluate(self, assortment):
        self.evaluated.append(assortment)
        return self.revenue(assortment)

    def score_moves(self, current, moves, beat):
        return range(len(moves)), [self.revenue(current.after_move(*move)) for move in moves]


def scorer(oracle):
    """The oracle whose ``score_moves`` ``best_move`` reads: a counter's base."""
    return oracle.base if isinstance(oracle, CountingOracle) else oracle


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
            assert [clone.epsilon(current.after_move(*move)) for move in moves] == [
                spec.epsilon(current.after_move(*move)) for move in moves
            ]

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

    @pytest.mark.parametrize("mode", ["none", "fixed", "seeded-uniform"])
    @pytest.mark.parametrize("seed", [1.5, True, False, "3"])
    def test_seed_must_be_an_integer(self, mode, seed):
        # as a report's seed is read: 1.5 cannot key the hash, and a bool is no integer
        with pytest.raises(ValidationError) as exc:
            NoiseSpec(mode, 0.0 if mode == "none" else 0.1, seed)
        assert exc.value.code == "bad-noise"
        assert "noise seed must be an integer" in str(exc.value)

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
    def unpruned_oracles(self, exact):
        yield exact
        yield NoisyOracle(exact, NoiseSpec(mode="fixed", eps=0.01))
        yield CountingOracle(exact)

    def oracles(self, exact, rng):
        yield from self.unpruned_oracles(exact)
        yield NoisyOracle(exact, NoiseSpec(mode="seeded-uniform", eps=0.2, seed=rng.getrandbits(32)))

    def test_band_is_exact_and_the_rest_is_close(self):
        # best_move confirms exactly the estimates within the band, in pass order,
        # and returns evaluate's first best; every estimate is evaluate's to rounding
        rng = random.Random(2468)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_pass(rng, inst, current)
            exact = EvaluationLog(inst)
            for oracle in self.unpruned_oracles(exact):
                truth = [oracle.evaluate(current.after_move(*m)) for m in moves]
                estimates = pass_estimates(scorer(oracle), current, moves)
                top = max(estimates)
                floor = top - CONFIRM_BAND * abs(top)
                band = [m for m, value in zip(moves, estimates) if value >= floor]
                exact.evaluated.clear()
                index, value = best_move(oracle, current, moves, -math.inf)
                assert exact.evaluated == [current.after_move(*m) for m in band]
                assert index == truth.index(max(truth))
                assert value.hex() == truth[index].hex()
                for estimate, exact_value in zip(estimates, truth):
                    assert estimate == pytest.approx(exact_value, rel=1e-13)

    def test_fixed_mode_scales_every_exact_score_bit_for_bit(self):
        # fixed mode prunes nothing: each score is (1 - eps) times the exact one,
        # for a full pass and for each one-sided part of it
        rng = random.Random(1357)
        for _ in range(100):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            outside = [i for i in inst.ids() if i not in current]
            eps = rng.choice([0.001, 0.01, 0.3])
            exact = ExactMnlOracle(inst)
            noisy = NoisyOracle(exact, NoiseSpec(mode="fixed", eps=eps))
            full = random_pass(rng, inst, current)
            for moves in (MovePass(outside, current.ids, outside), full,
                          MovePass((), full.members, full.add_pool),
                          MovePass(full.exchange_pool, full.members, ())):
                want = [((1 - eps) * value).hex() for value in pass_estimates(exact, current, moves)]
                assert [value.hex() for value in pass_estimates(noisy, current, moves)] == want

    def test_fixed_mode_builds_no_move_of_its_own(self, monkeypatch):
        # one factor scales every estimate, so fixed noise reads the pass's moves exactly
        # as often as its exact base does, and builds no (entering, leaving) pair itself
        at = MovePass.at
        built = []

        def counting_at(moves, indices):
            chosen = at(moves, indices)
            built.extend(chosen)
            return chosen

        monkeypatch.setattr(MovePass, "at", counting_at)
        rng = random.Random(2468)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_pass(rng, inst, current)
            exact = ExactMnlOracle(inst)
            beat = exact.evaluate(current)
            exact.score_moves(current, moves, beat)
            by_base = len(built)
            built.clear()
            NoisyOracle(exact, NoiseSpec(mode="fixed", eps=0.01)).score_moves(current, moves, beat)
            assert len(built) == by_base
            built.clear()

    @pytest.mark.parametrize("eps_max", [0.001, 0.2, 0.5, 0.999])
    def test_seeded_uniform_band_is_exact_and_the_rest_bounds_it(self, eps_max):
        # moves pruned before hashing keep their base value: below the band's
        # floor and, to rounding, at least their noisy value; best_move confirms
        # exactly the band and returns evaluate's first best
        rng = random.Random(1234)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_pass(rng, inst, current)
            exact = EvaluationLog(inst)
            oracle = NoisyOracle(exact, NoiseSpec(
                mode="seeded-uniform", eps=eps_max, seed=rng.getrandbits(32)))
            values = pass_estimates(oracle, current, moves)
            truth = [oracle.evaluate(current.after_move(*m)) for m in moves]
            top = max(values)
            floor = top - CONFIRM_BAND * abs(top)
            exact.evaluated.clear()
            index, best = best_move(oracle, current, moves, -math.inf)
            assert exact.evaluated == [current.after_move(*m) for m, v in zip(moves, values) if v >= floor]
            assert best == max(truth)
            assert index == truth.index(max(truth))
            for move, value, noisy in zip(moves, values, truth):
                if value >= floor:
                    assert value == pytest.approx(noisy, rel=1e-13)
                    continue
                base = exact.evaluate(current.after_move(*move))
                assert value == pytest.approx(noisy, rel=1e-13) or value == pytest.approx(base, rel=1e-13)
                assert value >= noisy * (1 - 1e-13)

    @pytest.mark.parametrize("eps_max, count", [(0.001, 1), (0.2, 5)])
    def test_seeded_uniform_hashes_only_moves_that_can_win(self, monkeypatch, eps_max, count):
        # one score_moves call hashes ``count`` of the 378 moves: those whose base
        # estimate reaches the cut, until the next one falls below the best noisy value
        # less 4 * CONFIRM_BAND; best_move's confirmations are not counted
        hashed = []
        epsilon = NoiseSpec.epsilon

        def counting_epsilon(spec, assortment):
            hashed.append(assortment)
            return epsilon(spec, assortment)

        rng = random.Random(60)
        inst = random_instance(rng, 60)
        current = Assortment.of(rng.sample(inst.ids(), 6))
        outside = [i for i in inst.ids() if i not in current]
        moves = MovePass(outside, current.ids, outside)
        oracle = NoisyOracle(ExactMnlOracle(inst),
                             NoiseSpec(mode="seeded-uniform", eps=eps_max, seed=3))
        monkeypatch.setattr(NoiseSpec, "epsilon", counting_epsilon)
        oracle.score_moves(current, moves, -math.inf)
        assert (len(hashed), len(moves)) == (count, 378)
        monkeypatch.undo()
        index, _value = best_move(oracle, current, moves, -math.inf)
        truth = [oracle.evaluate(current.after_move(*m)) for m in moves]
        assert index == truth.index(max(truth))

    def test_seeded_uniform_hashes_every_move_that_can_reach_the_band(self):
        # the second move's base value lies within CONFIRM_BAND under the first's noisy
        # value, so it is hashed, and its noisy value, far below the band, is never confirmed
        spec = NoiseSpec(mode="seeded-uniform", eps=0.5, seed=5)
        current = Assortment.of([1])
        first, second = Assortment.of([1, 2]), Assortment.of([1, 3])
        best = (1.0 - spec.epsilon(first)) * 1.0
        base = PlugIn({first: 1.0, second: best * (1.0 - CONFIRM_BAND / 2)}.__getitem__)
        oracle = NoisyOracle(base, spec)
        moves = MovePass((), current.ids, (2, 3))
        truth = [oracle.evaluate(first), oracle.evaluate(second)]
        assert truth[1] < best * (1.0 - CONFIRM_BAND)
        assert pass_estimates(oracle, current, moves) == truth
        base.evaluated.clear()
        assert best_move(oracle, current, moves, -math.inf) == (0, best)
        assert base.evaluated == [first]

    @pytest.mark.parametrize("shift", [-1.0, -0.5])
    @pytest.mark.parametrize("eps_max", [0.2, 0.5, 0.9])
    def test_seeded_uniform_over_negative_and_mixed_estimates(self, shift, eps_max):
        # revenues drawn in [shift, shift + 1): noise raises a negative value, so with
        # every estimate below 0 each move is hashed; with mixed signs the stop rule
        # runs over the positive ones
        rng = random.Random(f"{shift}/{eps_max}")
        for _ in range(100):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_pass(rng, inst, current)
            key = rng.getrandbits(32)
            base = PlugIn(lambda m: shift + random.Random(f"{key}:{m.encode()}").random())
            oracle = NoisyOracle(base, NoiseSpec(mode="seeded-uniform", eps=eps_max,
                                                 seed=rng.getrandbits(32)))
            truth = [oracle.evaluate(current.after_move(*m)) for m in moves]
            index, value = best_move(oracle, current, moves, -math.inf)
            assert (index, value) == (truth.index(max(truth)), max(truth))

    def test_near_tie_is_ranked_by_evaluate(self):
        # the batched sums round (3, 1) below (4, 1) although evaluate ranks it above
        inst = Instance.of([(1, 0.9, 0.1), (2, 0.4, 0.3), (3, 0.4, 0.1), (4, 1.1, 0.1),
                            (5, 0.3, 0.1), (6, 1 / 3, 0.1), (7, 0.1, 0.3)])
        current = Assortment.of([1, 2, 5, 6, 7])
        moves = MovePass((3, 4), current.ids, (3, 4))
        for oracle in self.oracles(ExactMnlOracle(inst), random.Random(1)):
            index, value = best_move(oracle, current, moves, -math.inf)
            exact = [oracle.evaluate(current.after_move(*m)) for m in moves]
            assert value == max(exact)
            assert index == exact.index(max(exact))
        exact = [ExactMnlOracle(inst).evaluate(current.after_move(*m)) for m in moves]
        assert exact.index(max(exact)) == 0

    def test_fallback_scores_through_evaluate(self):
        rng = random.Random(97)
        inst = random_instance(rng, 8)
        current = Assortment.of([2, 5])
        moves = MovePass((1, 8), current.ids, (3,))
        logged = EvaluationLog(inst)
        oracle = EvaluateOnly(logged)
        index, value = best_move(oracle, current, moves, -math.inf)
        candidates = [Assortment.of(ids) for ids in [(1, 5), (1, 2), (5, 8), (2, 8), (2, 3, 5)]]
        assert logged.evaluated == candidates
        values = [oracle.evaluate(candidate) for candidate in candidates]
        assert (index, value) == (values.index(max(values)), max(values))

    def test_unknown_product_rejected(self):
        # at beat 0 the margins read the unknown id, at -inf the estimates do
        for moves in (MovePass((), [1], [9]), MovePass([9], [1], ())):
            for beat in (0.0, -math.inf):
                with pytest.raises(InvalidAssortmentError):
                    best_move(ExactMnlOracle(THREE), Assortment.of([1]), moves, beat)

    def test_best_move_is_the_first_largest_score(self):
        # best_move ranks the estimates with the confirm band replaced by evaluate
        # values (evaluate's own values without a scorer): it must take the first
        # largest, also for estimates that overshoot their confirmation, ties, and NaN
        class Distorted(EvaluateOnly):
            def __init__(self, oracle, distort):
                super().__init__(oracle)
                self.distort = distort

            def score_moves(self, current, moves, beat):
                return range(len(moves)), [self.distort(i, self.evaluate(current.after_move(*move)))
                                           for i, move in enumerate(moves)]

        class NanEvaluate(EvaluateOnly):
            def evaluate(self, assortment):
                value = super().evaluate(assortment)
                return math.nan if len(assortment) % 3 == 0 else value

        def ranked(oracle, current, moves):
            oracle = scorer(oracle)
            values = [oracle.evaluate(current.after_move(*m)) for m in moves]
            if not hasattr(oracle, "score_moves"):
                return values
            estimates = pass_estimates(oracle, current, moves)
            top = max(estimates)
            floor = top - CONFIRM_BAND * abs(top)
            return [value if estimate >= floor else estimate
                    for estimate, value in zip(estimates, values)]

        nan = math.nan
        distortions = [
            lambda i, v: v * (1.0 + 1e-6) if i % 5 == 0 else v,  # overshoots the band
            lambda i, v: round(v, 1),  # ties
            lambda i, v: 2.0 * v if i == 0 else round(v, 1),  # misses the floor, then ties
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
            moves = random_pass(rng, inst, current)
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
                values = ranked(make(), current, moves)
                index = values.index(max(values))
                found = best_move(make(), current, moves, -math.inf)
                if math.isnan(values[index]):  # NaN beats nothing, not even -inf
                    assert found is None
                else:
                    assert (found[0], found[1].hex()) == (index, values[index].hex())
                checked += 1
        assert checked > 1000

    def test_batch_is_confirmed_once_below_the_counter(self):
        rng = random.Random(1357)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 25))
            current = random_assortment(rng, inst, max_size=inst.n - 1)
            moves = random_pass(rng, inst, current)
            base = EvaluationLog(inst)
            spec = NoiseSpec(mode="seeded-uniform", eps=0.2, seed=rng.getrandbits(32))
            for oracle in (base, NoisyOracle(base, spec)):
                estimates = pass_estimates(oracle, current, moves)
                top = max(estimates)
                band = sum(value >= top - CONFIRM_BAND * abs(top) for value in estimates)
                base.evaluated.clear()
                counting = CountingOracle(oracle)
                stats = counting.stats
                best_move(counting, current, moves, -math.inf)
                assert len(base.evaluated) == band
                assert stats.call_count == len(moves)


CANDIDATE_FAMILIES = [*TIE_FAMILIES, weights_one_ulp_apart, tiny_weights, subnormal_weights,
                      dispersed_weights]


class TestMoveCandidates:
    def oracles(self, exact, rng):
        yield exact
        yield NoisyOracle(exact, NoiseSpec(mode="fixed", eps=0.01))
        for eps in (0.001, 0.2):
            yield NoisyOracle(exact, NoiseSpec(mode="seeded-uniform", eps=eps, seed=rng.getrandbits(32)))
        # the hook's other end: a plug-in that returns every index, a few ulps off evaluate
        yield NudgedEstimates(exact)

    def test_candidates_give_the_full_pass_answer(self):
        # best_move with a revenue to beat returns the whole pass's first best, bit for
        # bit, when it beats that revenue and None otherwise; the hook's indices ascend,
        # and each move left out has an estimate at most beat * (1 - 2 * CONFIRM_BAND)
        rng = random.Random(3131)
        checked = beaten = 0
        for family in CANDIDATE_FAMILIES:
            for _ in range(40):
                inst = family(rng)
                current = random_assortment(rng, inst, max_size=inst.n - 1)
                outside = [i for i in inst.ids() if i not in current]
                moves = random_pass(rng, inst, current) if rng.random() < 0.5 else MovePass(
                    outside, current.ids, outside)
                exact = ExactMnlOracle(inst)
                for oracle in self.oracles(exact, rng):
                    index, value = best_move(oracle, current, moves, -math.inf)
                    beats = {0.0, oracle.evaluate(current), value, math.nextafter(value, -math.inf),
                             value * (1.0 - CONFIRM_BAND), value * rng.uniform(0.0, 1.2)}
                    for beat in sorted(beats):
                        want = (index, value.hex()) if value > beat else None
                        got = best_move(oracle, current, moves, beat)
                        assert (got if got is None else (got[0], got[1].hex())) == want
                        picked, returned = oracle.score_moves(current, moves, beat)
                        assert list(picked) == sorted(set(picked)) and len(returned) == len(picked)
                        if beat < 0.0:  # below 0 no margin test applies: every index is returned
                            assert list(picked) == list(range(len(moves)))
                            continue
                        kept = set(picked)
                        estimates = pass_estimates(oracle, current, moves)
                        assert all(estimate <= beat * (1.0 - 2 * CONFIRM_BAND)
                                   for i, estimate in enumerate(estimates) if i not in kept)
                        checked += 1
                        beaten += want is not None
        assert checked > 3000 and beaten > 1000

    def test_a_pass_without_candidates_estimates_and_evaluates_nothing(self, monkeypatch):
        returned = []  # per call of the exact hook, how many moves it estimated
        score_moves = ExactMnlOracle.score_moves

        def logged_score_moves(oracle, current, moves, beat):
            indices, estimates = score_moves(oracle, current, moves, beat)
            returned.append(len(estimates))
            return indices, estimates

        monkeypatch.setattr(ExactMnlOracle, "score_moves", logged_score_moves)
        rng = random.Random(77)
        inst = random_instance(rng, 30)
        current = Assortment.of(rng.sample(inst.ids(), 5))
        outside = [i for i in inst.ids() if i not in current]
        moves = MovePass(outside, current.ids, outside)
        base = EvaluationLog(inst)
        for oracle in (base, NoisyOracle(base, NoiseSpec(mode="seeded-uniform", eps=0.01, seed=5))):
            top = best_move(oracle, current, moves, -math.inf)[1]
            # no set earns more than its most expensive member's price
            beat = max(p.price for p in inst.products)
            assert oracle.score_moves(current, moves, beat) == ([], [])
            returned.clear()
            base.evaluated.clear()
            counting = CountingOracle(oracle)
            # the hook is called once per pass, and here it returns no move
            assert best_move(counting, current, moves, beat) is None
            assert (returned, base.evaluated) == ([0], [])
            assert counting.stats.call_count == len(moves)
            returned.clear()
            assert best_move(oracle, current, moves, top) is None
            assert len(returned) == 1 and 0 < returned[0] < len(moves)


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
            moves = random_pass(rng, inst, current)
            best_move(oracle, current, moves, -math.inf)
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
        batch = (Assortment.of([1, 2]), MovePass([3], [1, 2], [3]))
        distinct_sizes = []

        def hammer(worker):
            for i in range(400):
                oracle.evaluate(assortments[(worker + i) % len(assortments)])
                best_move(oracle, *batch, -math.inf)
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
