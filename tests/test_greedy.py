"""Greedy add-exchange solver: frozen examples, a literal reference
simulation, and the loop invariants (monotonicity, size, budget,
iteration and call-count bounds)."""

import itertools
import math
import random
from dataclasses import replace

import pytest

import assortopt.greedy as greedy_module
from assortopt import (
    Assortment,
    ConfigError,
    CountingOracle,
    ExactMnlOracle,
    GreedyConfig,
    Instance,
    NoiseSpec,
    NoisyOracle,
    brute_force_opt,
    call_count_bound,
    greedy_add_exchange,
    greedy_opt,
    make_oracle,
    mnl_revenue,
    naive_greedy,
    same_run_under_budget,
)
from assortopt.analysis import trace_bookkeeping_problems
from assortopt.generate import GeneratorSpec, derive_seed, generate_instance
from assortopt.instance import optimum_key
from assortopt.oracles import MovePass, best_move
from test_reference import TIE_FAMILIES

THREE = Instance.of([(1, 1.0, 10.0), (2, 2.0, 6.0), (3, 0.5, 12.0)])


# --- reference simulation: a plain transcription of the procedure ---------


def simulate_add_exchange(evaluate, start, universe, budget):
    """Independent re-derivation of one add-exchange invocation.

    Scans every swap and every addition by full enumeration each pass,
    keeping the first maximum in (entering, leaving) scan order, which
    realizes the smallest-id tie-breaks.
    """
    current = frozenset(start)
    pool = set(universe) - current
    outs = dict.fromkeys(universe, 0)
    rev = evaluate(current)
    size_limit = len(start) + 1

    while pool:
        best_swap = None  # (rev, entering, leaving)
        for entering in sorted(pool):
            for leaving in sorted(current):
                r = evaluate(current - {leaving} | {entering})
                if best_swap is None or r > best_swap[0]:
                    best_swap = (r, entering, leaving)
        best_add = None  # (rev, entering)
        for entering in sorted(pool):
            r = evaluate(current | {entering})
            if best_add is None or r > best_add[0]:
                best_add = (r, entering)

        swap_rev = best_swap[0] if best_swap else float("-inf")
        if (
            len(current) < size_limit
            and best_add is not None
            and best_add[0] > rev
            and best_add[0] > swap_rev
        ):
            rev, entering = best_add
            current = current | {entering}
            pool.discard(entering)
        elif best_swap is not None and swap_rev > rev:
            rev, entering, leaving = best_swap
            current = current - {leaving} | {entering}
            outs[leaving] += 1
            pool.discard(entering)
            if outs[leaving] < budget:
                pool.add(leaving)
        else:
            break
    return current, rev


def simulate_solver(evaluate, universe, seed_size, capacity, budget):
    """Independent re-derivation of the seeded outer loop."""
    ids = sorted(universe)
    finals = []
    for seed in itertools.combinations(ids, seed_size):
        current = frozenset(seed)
        rev = None
        for _ in range(capacity - seed_size):
            current, rev = simulate_add_exchange(evaluate, current, ids, budget)
        if rev is None:
            rev = evaluate(current)
        finals.append((rev, tuple(sorted(current))))
    return min(finals, key=lambda t: (-t[0], t[1]))


def set_oracle(oracle):
    """Adapt an assortment oracle to plain-set calls for the simulators."""
    return lambda members: oracle.evaluate(Assortment.of(members))


# --- frozen examples -------------------------------------------------------


class TestAddExchangeExamples:
    def test_single_product_added_once(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        final, _ = greedy_add_exchange(Assortment(), [1], 2, ExactMnlOracle(inst))
        assert final.ids == (1,)

    def test_empty_pool_returns_start_unchanged(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        final, records = greedy_add_exchange(
            Assortment.of([1]), [1], 2, ExactMnlOracle(inst), trace=True
        )
        assert final.ids == (1,)
        assert [r.action for r in records] == ["terminate"]

    def test_exchange_recovers_better_pair(self):
        # derived by simulating the loop on the three-product instance:
        # add 1 (-> 5.5), exchange 2 out for 3 (-> 6.4), stop
        final, records = greedy_add_exchange(
            Assortment.of([2]), [1, 2, 3], 3, ExactMnlOracle(THREE), trace=True
        )
        assert final.ids == (1, 3)
        assert mnl_revenue(THREE, final) == pytest.approx(6.4, rel=1e-15)
        assert [r.action for r in records] == ["add", "exchange", "terminate"]
        assert records[1].added == 3 and records[1].removed == 2

    def test_empty_universe_returns_start(self):
        final, _ = greedy_add_exchange(Assortment(), [], 1, ExactMnlOracle(THREE))
        assert final.ids == ()

    def test_scores_no_assortment_past_the_size_budget(self):
        # once the one net addition is taken, additions are no longer scored
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(3, 9)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            exact = ExactMnlOracle(inst)
            scored = []

            class Recording:
                def evaluate(self, assortment):
                    scored.append(assortment)
                    return exact.evaluate(assortment)

            start = Assortment.of(rng.sample(list(inst.ids()), rng.randint(0, n - 2)))
            greedy_add_exchange(start, inst.ids(), 2, Recording())
            assert max(len(a) for a in scored) <= len(start) + 1


class TestSolverExamples:
    def test_single_product_capacity_one(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        report = greedy_opt(GreedyConfig(0, 1, 2), inst.ids(), ExactMnlOracle(inst))
        assert report.best_assortment.ids == (1,)
        assert report.best_oracle_revenue == 5.0

    def test_matches_brute_force_on_three_products(self):
        report = greedy_opt(GreedyConfig(0, 2, 3), THREE.ids(), ExactMnlOracle(THREE))
        brute = brute_force_opt(ExactMnlOracle(THREE), THREE.ids(), 2)
        assert report.best_assortment == brute.assortment == Assortment.of([1, 3])
        assert report.best_oracle_revenue == pytest.approx(6.4, rel=1e-15)

    def test_equal_prices_full_capacity_takes_everything(self):
        # identical prices make revenue increase with total offered weight
        inst = Instance.of([(1, 0.5, 7.0), (2, 2.0, 7.0), (3, 1.0, 7.0), (4, 3.0, 7.0)])
        n = inst.n
        for seed_size in (0, 2):
            report = greedy_opt(GreedyConfig(seed_size, n, n + 1), inst.ids(), ExactMnlOracle(inst))
            best = max(
                (mnl_revenue(inst, Assortment.of(c)) for k in range(n + 1)
                 for c in itertools.combinations(inst.ids(), k)),
            )
            assert report.best_oracle_revenue == pytest.approx(best, rel=1e-12)
            assert report.best_assortment.ids == inst.ids()

    def test_identical_products_tie_break_to_lowest_ids(self):
        inst = Instance.of([(i, 2.0, 5.0) for i in range(1, 6)])
        report = greedy_opt(GreedyConfig(0, 3, 4), inst.ids(), ExactMnlOracle(inst))
        assert report.best_assortment.ids == (1, 2, 3)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            greedy_opt(GreedyConfig(3, 2, 3), THREE.ids(), ExactMnlOracle(THREE))
        with pytest.raises(ConfigError):
            greedy_opt(GreedyConfig(0, 4, 3), THREE.ids(), ExactMnlOracle(THREE))
        with pytest.raises(ConfigError):
            greedy_opt(GreedyConfig(0, 2, 0), THREE.ids(), ExactMnlOracle(THREE))
        with pytest.raises(ConfigError):
            greedy_add_exchange(Assortment(), THREE.ids(), 0, ExactMnlOracle(THREE))

    def test_seed_size_equals_capacity_scores_seeds_only(self):
        report = greedy_opt(GreedyConfig(2, 2, 1), THREE.ids(), ExactMnlOracle(THREE))
        best = max(
            (mnl_revenue(THREE, Assortment.of(c)), c)
            for c in itertools.combinations(THREE.ids(), 2)
        )
        assert report.best_oracle_revenue == best[0]
        assert report.seeds_explored == 3


# --- agreement with the reference simulation -------------------------------


class TestAgainstSimulation:
    @pytest.mark.parametrize("noise_mode", ["none", "seeded-uniform"])
    def test_add_exchange_matches_simulation(self, noise_mode):
        rng = random.Random(2024)
        for trial in range(60):
            n = rng.randint(1, 8)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            oracle = ExactMnlOracle(inst)
            if noise_mode == "seeded-uniform":
                oracle = NoisyOracle(
                    oracle, NoiseSpec(mode="seeded-uniform", eps=0.05, seed=trial)
                )
            start_size = rng.randint(0, max(0, n - 1))
            start = Assortment.of(rng.sample(list(inst.ids()), start_size))
            budget = rng.randint(1, n + 2)
            final, _ = greedy_add_exchange(start, inst.ids(), budget, oracle)
            expected, _ = simulate_add_exchange(set_oracle(oracle), start.ids, inst.ids(), budget)
            assert set(final.ids) == expected

    @pytest.mark.parametrize("noise_mode", ["none", "seeded-uniform"])
    def test_solver_matches_simulation(self, noise_mode):
        rng = random.Random(77)
        for trial in range(40):
            n = rng.randint(1, 7)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            oracle = ExactMnlOracle(inst)
            if noise_mode == "seeded-uniform":
                oracle = NoisyOracle(
                    oracle, NoiseSpec(mode="seeded-uniform", eps=0.02, seed=trial)
                )
            capacity = rng.randint(1, n)
            seed_size = rng.randint(0, capacity)
            budget = rng.randint(1, capacity + 2)
            report = greedy_opt(GreedyConfig(seed_size, capacity, budget), inst.ids(), oracle)
            sim_rev, sim_ids = simulate_solver(
                set_oracle(oracle), inst.ids(), seed_size, capacity, budget
            )
            assert report.best_assortment.ids == sim_ids
            assert report.best_oracle_revenue == sim_rev


# --- loop invariants --------------------------------------------------------


def traced_runs(count=40, rng_seed=5150, eps=0.0):
    rng = random.Random(rng_seed)
    for trial in range(count):
        n = rng.randint(2, 9)
        inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
        oracle = ExactMnlOracle(inst)
        if eps:
            oracle = NoisyOracle(
                oracle, NoiseSpec(mode="seeded-uniform", eps=eps, seed=trial)
            )
        capacity = rng.randint(1, n)
        budget = rng.randint(1, capacity + 2)
        config = GreedyConfig(0, capacity, budget)
        report = greedy_opt(config, inst.ids(), oracle, trace=True)
        yield inst, config, report


class TestLoopInvariants:
    def test_accepted_revenue_strictly_increases(self):
        for _inst, _config, report in traced_runs(eps=0.01):
            for _seed, records in report.traces:
                last = None
                for record in records:
                    if record.action == "terminate":
                        last = None  # next invocation re-evaluates its own start
                        continue
                    if last is not None:
                        assert record.revenue_after > last
                    last = record.revenue_after

    def test_size_grows_at_most_one_per_invocation(self):
        for _inst, config, report in traced_runs():
            for seed, records in report.traces:
                size_cap = len(seed)
                for record in records:
                    if record.action == "terminate":
                        size_cap += 1  # next invocation may add one more
                        continue
                    assert len(record.assortment_after) <= size_cap + 1
                assert size_cap <= config.capacity + 1

    def test_exchange_out_budget_respected(self):
        for _inst, config, report in traced_runs(eps=0.005):
            for _seed, records in report.traces:
                for record in records:
                    if record.exchange_out_counts:
                        assert max(record.exchange_out_counts.values()) <= config.exchange_budget

    def test_iteration_bound_per_invocation(self):
        for inst, config, report in traced_runs(eps=0.01):
            n = inst.n
            limit = n * config.exchange_budget + 1
            for _seed, records in report.traces:
                accepted = 0
                for record in records:
                    if record.action == "terminate":
                        # the final pass only executed if moves were still available
                        executed = accepted + (1 if record.pool_before else 0)
                        assert executed <= limit
                        accepted = 0
                    else:
                        accepted += 1

    def test_call_count_bound_single_invocation(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 9)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            start_size = rng.randint(0, n - 1)
            start = Assortment.of(rng.sample(list(inst.ids()), start_size))
            budget = rng.randint(1, start_size + 3)
            counting = CountingOracle(ExactMnlOracle(inst))
            stats = counting.stats
            greedy_add_exchange(start, inst.ids(), budget, counting)
            capacity = start_size + 1  # the invocation-level size context
            assert stats.call_count <= (n * budget + 1) * (capacity * n + n)

    def test_call_count_bound_full_solve(self):
        rng = random.Random(32)
        for _ in range(25):
            n = rng.randint(2, 8)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            capacity = rng.randint(1, n)
            seed_size = rng.randint(0, capacity - 1)
            budget = rng.randint(1, capacity + 2)
            config = GreedyConfig(seed_size, capacity, budget)
            report = greedy_opt(config, inst.ids(), ExactMnlOracle(inst))
            assert report.oracle_calls <= call_count_bound(n, config)

    @pytest.mark.parametrize("n, size", [(0, 0), (3, 0), (5, 2), (6, 3), (4, 4)])
    def test_call_count_bound_is_the_seed_count_at_s_equal_c(self, n, size):
        """No invocations run at S = C: each of the binom(N, S) seeds is scored once."""
        inst = generate_instance(GeneratorSpec(n, seed=n + size))
        for budget in (1, size + 1):
            config = GreedyConfig(size, size, budget)
            report = greedy_opt(config, inst.ids(), ExactMnlOracle(inst))
            assert call_count_bound(n, config) == report.oracle_calls

    def test_exact_oracle_recovers_optimum_spot_check(self):
        rng = random.Random(4096)
        for _ in range(30):
            n = rng.randint(3, 9)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            capacity = rng.randint(1, min(4, n))
            config = GreedyConfig(0, capacity, capacity + 1)
            report = greedy_opt(config, inst.ids(), ExactMnlOracle(inst))
            brute = brute_force_opt(ExactMnlOracle(inst), inst.ids(), capacity)
            assert report.best_oracle_revenue == pytest.approx(brute.revenue, rel=1e-9)


# --- batched move scoring against the evaluate fallback --------------------


class EvaluateOnly:
    """Exposes only ``evaluate``, so every move is scored through the fallback."""

    def __init__(self, oracle):
        self._oracle = oracle

    def evaluate(self, assortment):
        return self._oracle.evaluate(assortment)


class NudgedEstimates(EvaluateOnly):
    """Adds a ``score_moves`` hook that returns every move, with estimates that are
    ``evaluate`` values off by a few ulps."""

    def score_moves(self, current, moves, beat):
        return range(len(moves)), [
            self.evaluate(current.after_move(*move)) * (1.0 + (i % 7 - 3) * 2.0**-52)
            for i, move in enumerate(moves)
        ]


def pass_estimates(oracle, current, moves):
    """The hook's estimates of every move of the pass: below a beat of -inf the
    built-in oracles rule no move out."""
    indices, estimates = oracle.score_moves(current, moves, -math.inf)
    assert list(indices) == list(range(len(moves)))
    return list(estimates)


def differential_cases():
    rng = random.Random(6060)
    for _ in range(12):
        n = rng.randint(1, 40)
        inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
        capacity = rng.randint(1, min(n, 8))
        seed_size = rng.randint(0, min(capacity, 1 if n > 12 else 2))
        yield inst, GreedyConfig(seed_size, capacity, rng.choice([1, 2, capacity + 1]))
    # duplicated (weight, price) pairs: exact revenue ties exercise the tie-break
    pairs = [(rng.uniform(0.1, 5.0), rng.uniform(1.0, 50.0)) for _ in range(5)]
    twins = Instance.of([(i + 1, *pairs[i % 5]) for i in range(15)])
    for capacity in (2, 4, 7):
        yield twins, GreedyConfig(0, capacity, capacity + 1)
        yield twins, GreedyConfig(1, capacity, 2)
    # every price 0: every revenue is 0, so every move lands in the confirm band
    free = Instance.of([(i, rng.uniform(0.1, 5.0), 0.0) for i in range(1, 11)])
    yield free, GreedyConfig(0, 4, 5)
    yield free, GreedyConfig(2, 4, 1)


NOISE_SPECS = pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec(),
        NoiseSpec(mode="fixed", eps=0.01, seed=4),
        NoiseSpec(mode="seeded-uniform", eps=0.001, seed=17),
        NoiseSpec(mode="seeded-uniform", eps=0.2, seed=18),
        # the pruning cut is near 0, so almost every move is hashed
        NoiseSpec(mode="seeded-uniform", eps=0.999, seed=19),
    ],
    ids=["none", "fixed-0.01", "seeded-uniform-0.001", "seeded-uniform-0.2", "seeded-uniform-0.999"],
)


def random_move_passes(rng, inst, count):
    """``count`` (current, MovePass) pairs on ``inst`` with random pools and members."""
    ids = list(inst.ids())
    for _ in range(count):
        current = Assortment.of(rng.sample(ids, rng.randint(0, len(ids))))
        outside = [i for i in ids if i not in current]
        pool = sorted(rng.sample(outside, rng.randint(0, len(outside))))
        members = sorted(rng.sample(current.ids, rng.randint(0, len(current))))
        adds = pool if rng.random() < 0.5 else sorted(rng.sample(outside, rng.randint(0, len(outside))))
        yield current, MovePass(pool, members, adds)


def leave_one_out(inst, current, moves):
    """Each move's value as (sum of the other members' terms + the entering term) over
    (1 + the other members' weights + the entering weight), the sums taken with fsum
    over the members that stay."""
    terms = {p.id: p.price * p.weight for p in inst.products}
    weights = {p.id: p.weight for p in inst.products}
    return [
        (math.fsum([terms[i] for i in current.ids if i != leaving]) + terms[entering])
        / (math.fsum([1.0] + [weights[i] for i in current.ids if i != leaving]) + weights[entering])
        for entering, leaving in moves
    ]


def check_pass_against_the_references(inst, current, moves):
    """Score one pass with every oracle kind against the leave-one-out expression and
    ``evaluate``, bit for bit; return the number of moves.

    The exact estimates are the expression, fixed noise scales each by (1 - eps), and
    seeded-uniform noise either keeps it or scales it by its set's own factor. Every
    oracle's ``best_move`` at a beat of -inf is the first best of ``evaluate``, and a
    counter counts one call per move and each distinct set once.
    """
    exact = ExactMnlOracle(inst)
    fixed = NoisyOracle(exact, NoiseSpec(mode="fixed", eps=0.01, seed=4))
    seeded = [NoisyOracle(exact, NoiseSpec(mode="seeded-uniform", eps=eps, seed=seed))
              for eps, seed in [(0.001, 17), (0.2, 18)]]
    expected = leave_one_out(inst, current, moves)
    assert list(map(float.hex, pass_estimates(exact, current, moves))) == list(map(float.hex, expected))
    assert list(map(float.hex, pass_estimates(fixed, current, moves))) == [
        ((1.0 - 0.01) * value).hex() for value in expected
    ]
    for noisy in seeded:
        for move, value, base in zip(moves, pass_estimates(noisy, current, moves), expected):
            scaled = (1.0 - noisy.spec.epsilon(current.after_move(*move))) * base
            assert value.hex() in (base.hex(), scaled.hex())
    if not moves:
        return 0
    for oracle in (exact, fixed, *seeded, NudgedEstimates(exact)):
        truth = [oracle.evaluate(current.after_move(*move)) for move in moves]
        index, value = best_move(oracle, current, moves, -math.inf)
        assert (index, value.hex()) == (truth.index(max(truth)), max(truth).hex())
    counting = CountingOracle(exact)
    assert best_move(counting, current, moves, -math.inf) == best_move(exact, current, moves, -math.inf)
    stats = counting.stats
    assert stats.call_count == len(moves)
    assert stats.distinct_count == len({current.after_move(*move).ids for move in moves})
    return len(moves)


def test_move_pass_scores_match_the_references_bit_for_bit():
    rng = random.Random(9191)
    scored = 0
    for inst, _config in differential_cases():
        for current, moves in random_move_passes(rng, inst, 6):
            scored += check_pass_against_the_references(inst, current, moves)
    assert scored > 1000


def test_exact_estimates_are_the_leave_one_out_expression():
    # whichever way the tables are cut, also on tied and degenerate instances
    rng = random.Random(7171)
    scored = 0
    families = [lambda r: generate_instance(GeneratorSpec(r.randint(2, 14), seed=r.getrandbits(60))),
                *TIE_FAMILIES]
    for family in families:
        for _ in range(12):
            inst = family(rng)
            exact = ExactMnlOracle(inst)
            for current, moves in random_move_passes(rng, inst, 4):
                assert list(map(float.hex, pass_estimates(exact, current, moves))) == list(
                    map(float.hex, leave_one_out(inst, current, moves))
                )
                scored += len(moves)
    assert scored > 500


@pytest.mark.parametrize("shape", ["add-only", "exchange-only"])
def test_one_sided_passes_match_the_references_bit_for_bit(shape):
    # the exact oracle builds leave-one-out sums only for the leavers a pass has:
    # the empty leaver alone for additions, each member alone for exchanges
    rng = random.Random(6262 if shape == "add-only" else 6363)
    scored = 0
    for inst, _config in differential_cases():
        for current, full in random_move_passes(rng, inst, 6):
            if shape == "add-only":
                moves = MovePass((), full.members, full.add_pool)
            else:
                moves = MovePass(full.exchange_pool, full.members, ())
            scored += check_pass_against_the_references(inst, current, moves)
    assert scored > 400


@NOISE_SPECS
def test_batched_scoring_matches_evaluate_fallback(spec):
    for inst, config in differential_cases():
        oracle = ExactMnlOracle(inst)
        if spec.mode != "none":
            oracle = NoisyOracle(oracle, spec)
        batched = greedy_opt(config, inst.ids(), oracle, trace=True)
        scalar = greedy_opt(config, inst.ids(), EvaluateOnly(oracle), trace=True)
        assert batched == scalar
        assert naive_greedy(config.capacity, inst.ids(), oracle) == naive_greedy(
            config.capacity, inst.ids(), EvaluateOnly(oracle)
        )


@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec(mode="fixed", eps=0.01, seed=4),
        NoiseSpec(mode="seeded-uniform", eps=0.001, seed=17),
        NoiseSpec(mode="seeded-uniform", eps=0.2, seed=18),
        NoiseSpec(mode="seeded-uniform", eps=0.9, seed=19),
    ],
    ids=["fixed-0.01", "seeded-uniform-0.001", "seeded-uniform-0.2", "seeded-uniform-0.9"],
)
def test_noise_over_a_base_without_the_hook_matches_noise_over_the_exact_oracle(spec):
    """``NoisyOracle`` over a plug-in base with only ``evaluate`` estimates every move with
    it: the solve has the best set, revenue, call count and traces of the same noise over
    ``ExactMnlOracle``, whose hook leaves out the moves that cannot win."""
    for inst, config in differential_cases():
        exact = ExactMnlOracle(inst)
        hooked = greedy_opt(config, inst.ids(), NoisyOracle(exact, spec), trace=True)
        plain = greedy_opt(config, inst.ids(), NoisyOracle(EvaluateOnly(exact), spec), trace=True)
        assert plain == hooked


def test_solver_confirms_unconfirmed_plug_in_estimates():
    for inst, config in differential_cases():
        for oracle in (ExactMnlOracle(inst),
                       NoisyOracle(ExactMnlOracle(inst),
                                         NoiseSpec(mode="seeded-uniform", eps=0.2, seed=5))):
            nudged = greedy_opt(config, inst.ids(), NudgedEstimates(oracle), trace=True)
            assert nudged == greedy_opt(config, inst.ids(), EvaluateOnly(oracle), trace=True)


# --- carrying the terminating pass into the next invocation -----------------


def chained_invocations(config, ids, oracle):
    """``greedy_opt``'s run as C - S fresh ``greedy_add_exchange`` calls per seed.

    Every pass scores every move. Returns the best (set, revenue), the
    traces with step indices numbered per seed, and the call statistics.
    """
    counting = CountingOracle(oracle)
    stats = counting.stats
    best, traces = None, []
    for seed_ids in itertools.combinations(ids, config.seed_size):
        current, records = Assortment(seed_ids), []
        for _ in range(config.capacity - config.seed_size):
            current, recs = greedy_add_exchange(
                current, ids, config.exchange_budget, counting, trace=True
            )
            records += [replace(r, step_index=r.step_index + len(records)) for r in recs]
        rev = records[-1].revenue_after if records else counting.evaluate(current)
        traces.append((Assortment(seed_ids), tuple(records)))
        best = (current, rev) if best is None else min(best, (current, rev), key=optimum_key)
    return best, tuple(traces), stats


def readmissions(records):
    """Products retired by one invocation and back in the next one's first pool."""
    return sum(
        len(set(after.pool_before) - set(before.pool_before))
        for before, after in zip(records, records[1:])
        if before.action == "terminate"
    )


@NOISE_SPECS
@pytest.mark.parametrize(
    "wrap", [None, EvaluateOnly, NudgedEstimates], ids=["batched", "evaluate-only", "nudged"]
)
def test_solve_matches_chained_fresh_invocations(spec, wrap, monkeypatch):
    """Skipping the settled moves changes nothing but the calls that repeat them."""
    counters = []

    def counting_oracle(base):
        counting = CountingOracle(base)
        counters.append(counting.stats)
        return counting

    monkeypatch.setattr(greedy_module, "CountingOracle", counting_oracle)
    budgets, readmitted = set(), 0
    for inst, config in differential_cases():
        oracle = make_oracle(inst, spec)
        if wrap is not None:
            oracle = wrap(oracle)
        report = greedy_opt(config, inst.ids(), oracle, trace=True)
        best, traces, chained = chained_invocations(config, inst.ids(), oracle)
        assert report.traces == traces
        assert (report.best_assortment, report.best_oracle_revenue) == best
        assert report.oracle_calls <= chained.call_count
        assert counters[-1].distinct_count == chained.distinct_count
        for seed, records in traces:
            assert trace_bookkeeping_problems(inst.ids(), config, seed, records) == []
            readmitted += readmissions(records)
        budgets.add(config.exchange_budget)
    assert 1 in budgets
    assert readmitted > 0


class RevenueTable:
    """An evaluate-only oracle with a fixed revenue per listed set and 0 for every other."""

    def __init__(self, table):
        self.table = table

    def evaluate(self, assortment):
        return self.table.get(assortment.ids, 0.0)


def test_product_retired_by_one_invocation_can_win_the_next_first_pass():
    # seed {1, 2}, b = 1: add 3, exchange 1 out for 4 and 2 out for 5, which retires
    # both and empties the pool; the next invocation's first pass must score 1 back in,
    # since {1, 4, 5} was never scored
    oracle = RevenueTable(
        {(1, 2): 1.0, (1, 2, 3): 2.0, (2, 3, 4): 3.0, (3, 4, 5): 4.0, (1, 4, 5): 5.0}
    )
    config = GreedyConfig(2, 4, 1)
    ids = [1, 2, 3, 4, 5]
    report = greedy_opt(config, ids, oracle, trace=True)
    best, traces, _stats = chained_invocations(config, ids, oracle)
    assert report.traces == traces
    assert (report.best_assortment, report.best_oracle_revenue) == best
    records = dict((seed.ids, records) for seed, records in traces)[(1, 2)]
    assert [(r.action, r.added, r.removed) for r in records] == [
        ("add", 3, None),
        ("exchange", 4, 1),
        ("exchange", 5, 2),
        ("terminate", None, None),
        ("exchange", 1, 3),
        ("terminate", None, None),
    ]


@pytest.mark.parametrize(
    "make",
    [
        ExactMnlOracle,
        lambda inst: make_oracle(inst, NoiseSpec(mode="seeded-uniform", eps=0.2, seed=3)),
        lambda inst: EvaluateOnly(ExactMnlOracle(inst)),
    ],
    ids=["exact", "seeded-uniform", "evaluate-only"],
)
def test_no_pass_rescores_the_pass_before(make, monkeypatch):
    """Within one seed's run, no pass scores a set that the pass before it scored."""
    runs = []  # per seed, the sets each pass scored

    def seed(ids=()):
        runs.append([])
        return Assortment(ids)

    def spy(oracle, current, moves, beat):
        runs[-1].append({current.after_move(*move).ids for move in moves})
        return best_move(oracle, current, moves, beat)

    monkeypatch.setattr(greedy_module, "Assortment", seed)
    monkeypatch.setattr(greedy_module, "best_move", spy)
    pairs = 0
    for inst, config in differential_cases():
        runs.clear()
        greedy_opt(config, inst.ids(), make(inst))
        for passes in runs:
            for before, after in zip(passes, passes[1:]):
                assert not before & after
                pairs += 1
    assert pairs > 0


# --- one run for every budget it never reached ------------------------------


def certificate_cases():
    rng = random.Random(1414)
    instances = [generate_instance(GeneratorSpec(rng.randint(2, 10), seed=rng.getrandbits(60)))
                 for _ in range(25)]
    instances += [family(rng) for family in TIE_FAMILIES for _ in range(6)]
    for trial, inst in enumerate(instances):
        capacity = rng.randint(1, min(inst.n, 4))
        seed_size = rng.choice([0, 0, min(1, capacity - 1)])
        for spec in (NoiseSpec(), NoiseSpec(mode="seeded-uniform", eps=0.2, seed=trial)):
            yield inst, make_oracle(inst, spec), seed_size, capacity


def test_max_exchange_outs_is_the_largest_traced_count():
    for inst, oracle, seed_size, capacity in certificate_cases():
        for budget in (1, capacity + 1):
            report = greedy_opt(GreedyConfig(seed_size, capacity, budget), inst.ids(), oracle,
                                trace=True)
            traced = [max(r.exchange_out_counts.values(), default=0)
                      for _seed, records in report.traces for r in records]
            assert report.max_exchange_outs == max(traced, default=0)


def test_certified_run_equals_the_run_at_the_other_budget():
    certified = refused = 0
    for inst, oracle, seed_size, capacity in certificate_cases():
        budgets = sorted({1, 2, capacity, capacity + 1, 2 * capacity})
        reports = {
            b: greedy_opt(GreedyConfig(seed_size, capacity, b), inst.ids(), oracle, trace=True)
            for b in budgets
        }
        for b, other in itertools.permutations(budgets, 2):
            if same_run_under_budget(reports[b], b, other):
                assert reports[b] == reports[other]
                certified += 1
            else:
                refused += 1
    assert certified > 0 and refused > 0


def test_certificate_refuses_a_run_that_retired_a_product():
    # bench's desk instance at N = 10, C = 3, eps = 0, seed k = 7: at b = 1 a product
    # is exchanged out once and retired; at b = 2 it returns to the pool, but the pass
    # after its exchange-out settled every move that takes it back, so both runs
    # score as many moves
    inst = generate_instance(GeneratorSpec(10, seed=derive_seed("bench", 0, 10, 3, "0.0", 7)))
    oracle = ExactMnlOracle(inst)
    one, two = (greedy_opt(GreedyConfig(0, 3, b), inst.ids(), oracle, trace=True) for b in (1, 2))
    assert one.max_exchange_outs == 1
    assert not same_run_under_budget(one, 1, 2)
    assert one != two
    assert (one.oracle_calls, two.oracle_calls) == (62, 62)
    # no product reached 2 exchange-outs at b = 2, so that run stands for every larger budget
    assert same_run_under_budget(two, 2, 4)
    assert two == greedy_opt(GreedyConfig(0, 3, 4), inst.ids(), oracle, trace=True)


def test_certificate_needs_a_known_count():
    report = greedy_opt(GreedyConfig(0, 2, 3), THREE.ids(), ExactMnlOracle(THREE))
    assert same_run_under_budget(report, 3, 4)
    assert not same_run_under_budget(replace(report, max_exchange_outs=None), 3, 4)


# --- a witness where the budget binds past b = 1 -----------------------------

#: Each set is one exchange from the next and no earlier set is one move from a
#: later one, so the search walks the path; product 1 leaves at the first step
#: and again at the last, and at b = 1 it is retired before (1, 5, 6)
BUDGET_PATH = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (1, 5, 6), (1, 6, 7), (1, 7, 8),
               (7, 8, 9)]


def budget_path_table():
    return RevenueTable({ids: 10.0 + step for step, ids in enumerate(BUDGET_PATH)})


@pytest.mark.parametrize("budget, final, records, pool_after, outs_of_1", [
    (1, (4, 5, 6), 4, 3, 1),
    (2, (7, 8, 9), 8, 5, 2),
    (3, (7, 8, 9), 8, 6, 2),
])
def test_budget_path_binds_past_one_exchange_out(budget, final, records, pool_after, outs_of_1):
    result, trace = greedy_add_exchange(
        Assortment(BUDGET_PATH[0]), range(1, 10), budget, budget_path_table(), trace=True
    )
    assert result.ids == final
    assert len(trace) == records
    assert [r.assortment_after.ids for r in trace[:-1]] == BUDGET_PATH[1:records]
    assert trace[-1].universe_size_after == pool_after
    assert trace[-1].exchange_out_counts[1] == outs_of_1


def test_budget_path_solves_within_the_call_bound_and_refuses_the_certificate():
    ids = list(range(1, 10))
    oracle = budget_path_table()
    reports = {}
    for budget, outs, calls in [(1, 1, 4_441), (2, 2, 6_257), (3, 2, 6_260)]:
        config = GreedyConfig(3, 4, budget)
        report = greedy_opt(config, ids, oracle, trace=True)
        assert report.max_exchange_outs == outs
        assert report.oracle_calls == calls <= call_count_bound(len(ids), config)
        assert report.best_assortment.ids == BUDGET_PATH[-1]
        for seed, records in report.traces:
            assert trace_bookkeeping_problems(ids, config, seed, records) == []
        assert greedy_opt(config, ids, oracle, trace=True) == report
        reports[budget] = report
    assert not same_run_under_budget(reports[1], 1, 2)
    assert not same_run_under_budget(reports[2], 2, 3)


def budget_path(k):
    """``BUDGET_PATH`` with k cycles: in each, product 1 leaves, three sets of three
    others slide by one product, and 1 re-enters for two more slides. A last step
    takes 1 out again, its (k + 1)-th exchange-out, so 1 must re-enter k times."""
    path = [(1, 2, 3)]
    low = 2  # the smallest member other than product 1
    for _ in range(k):
        path += [(low, low + 1, low + 2), (low + 1, low + 2, low + 3), (low + 2, low + 3, low + 4),
                 (1, low + 3, low + 4), (1, low + 4, low + 5), (1, low + 5, low + 6)]
        low += 5
    return path + [(low, low + 1, low + 2)]


def test_budget_path_of_one_cycle_is_the_budget_path():
    assert budget_path(1) == BUDGET_PATH


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_budget_path_binds_at_k_and_not_at_k_plus_one(k):
    path = budget_path(k)
    ids = list(range(1, max(map(max, path)) + 1))
    oracle = RevenueTable({members: 10.0 + step for step, members in enumerate(path)})
    reports = {}
    for budget, reached in [(k, 6 * k - 3), (k + 1, len(path) - 1)]:
        config = GreedyConfig(3, 4, budget)
        report = greedy_opt(config, ids, oracle, trace=True)
        # from the path's start the walk follows it until product 1 is retired
        records = dict((seed.ids, records) for seed, records in report.traces)[path[0]]
        assert [r.assortment_after.ids for r in records[:-1]] == path[1 : reached + 1]
        assert records[-1].action == "terminate"
        assert records[-1].exchange_out_counts[1] == budget
        # seeds further along the path reach the table's best set at either budget
        assert report.best_assortment.ids == path[-1]
        assert report.max_exchange_outs == budget
        assert report.oracle_calls <= call_count_bound(len(ids), config)
        for seed, records in report.traces:
            assert trace_bookkeeping_problems(ids, config, seed, records) == []
        reports[budget] = report
    assert not same_run_under_budget(reports[k], k, k + 1)


class TestNaiveGreedy:
    def test_capacity_one_picks_best_singleton(self):
        best = naive_greedy(1, THREE.ids(), ExactMnlOracle(THREE))
        assert best.ids == (1,)  # R({1}) = 5 beats 4 and 4

    def test_capacity_zero_returns_empty(self):
        assert naive_greedy(0, THREE.ids(), ExactMnlOracle(THREE)).ids == ()

    def test_tie_breaks_to_smallest_id(self):
        inst = Instance.of([(1, 1.0, 8.0), (2, 1.0, 8.0)])
        assert naive_greedy(1, inst.ids(), ExactMnlOracle(inst)).ids == (1,)

    def test_never_beats_brute_force(self):
        rng = random.Random(808)
        for _ in range(30):
            n = rng.randint(2, 8)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            capacity = rng.randint(1, n)
            naive = naive_greedy(capacity, inst.ids(), ExactMnlOracle(inst))
            brute = brute_force_opt(ExactMnlOracle(inst), inst.ids(), capacity)
            assert mnl_revenue(inst, naive) <= brute.revenue + 1e-12
