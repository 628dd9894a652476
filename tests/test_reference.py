"""Reference solvers: brute force, candidate-set solver, MNL fixed point, nesting witnesses."""

import itertools
import math
import random

import pytest

from assortopt import (
    Assortment,
    CountingOracle,
    EnumerationCapError,
    ExactMnlOracle,
    GreedyConfig,
    Instance,
    brute_force_opt,
    candidate_set_collection,
    candidate_set_opt,
    greedy_opt,
    max_slack_set_size,
    mnl_opt,
    mnl_revenue,
    naive_greedy,
)
from assortopt import transform
from assortopt.analysis import slack_cap
from assortopt.generate import GeneratorSpec, generate_instance
from assortopt.instance import optimum_key
from assortopt.reference import revenues_agree
from assortopt.transform import (
    certified_sweep,
    interval_offsets,
    margin_band,
    margin_breakpoints,
    margin_ranking,
    top_id_sweep,
    top_ids,
    top_margin_set,
    top_with_gaps,
)
from references import UndefinedTopSetError, find_nesting_witness, top_set_with_slack

THREE = Instance.of([(1, 1.0, 10.0), (2, 2.0, 6.0), (3, 0.5, 12.0)])


class TestBruteForce:
    def test_single_product(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        sol = brute_force_opt(ExactMnlOracle(inst), inst.ids(), 1)
        assert sol.assortment.ids == (1,)
        assert sol.revenue == 5.0

    def test_three_products(self):
        sol = brute_force_opt(ExactMnlOracle(THREE), THREE.ids(), 2)
        assert sol.assortment.ids == (1, 3)
        assert sol.revenue == pytest.approx(6.4, rel=1e-15)

    def test_capacity_zero(self):
        sol = brute_force_opt(ExactMnlOracle(THREE), THREE.ids(), 0)
        assert sol.assortment.ids == ()
        assert sol.revenue == 0.0

    def test_enumeration_cap_is_loud(self):
        # N = 30, C = 10 would enumerate 53,009,102 assortments: refused before any evaluation
        inst = generate_instance(GeneratorSpec(30, seed=1))
        counting = CountingOracle(ExactMnlOracle(inst))
        with pytest.raises(EnumerationCapError):
            brute_force_opt(counting, inst.ids(), 10)
        assert counting.stats.call_count == 0

    def test_per_size_optima_agree_with_direct_enumeration(self):
        rng = random.Random(404)
        for _ in range(20):
            n = rng.randint(1, 8)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            capacity = rng.randint(0, n)
            sol = brute_force_opt(ExactMnlOracle(inst), inst.ids(), capacity)
            for k in range(capacity + 1):
                best = max(
                    mnl_revenue(inst, Assortment.of(c))
                    for size in range(k + 1)
                    for c in itertools.combinations(inst.ids(), size)
                )
                assert sol.per_size_optima[k][1] == best

    def test_per_size_optima_nondecreasing(self):
        rng = random.Random(405)
        for _ in range(30):
            n = rng.randint(1, 9)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            sol = brute_force_opt(ExactMnlOracle(inst), inst.ids(), n)
            revenues = [sol.per_size_optima[k][1] for k in range(n + 1)]
            assert revenues == sorted(revenues)


def brute_force_optima(inst):
    return brute_force_opt(ExactMnlOracle(inst), inst.ids(), inst.n).per_size_optima


def duplicated_products(rng):
    pool = [(rng.uniform(0.1, 10.0), rng.uniform(1.0, 100.0)) for _ in range(rng.randint(1, 3))]
    return Instance.of([(i, *rng.choice(pool)) for i in range(1, rng.randint(2, 12) + 1)])


def zero_prices(rng):
    return Instance.of([(i, rng.uniform(0.1, 10.0), 0.0) for i in range(1, rng.randint(1, 12) + 1)])


def integer_grid(rng):
    n = rng.randint(2, 12)
    return Instance.of([(i, rng.randint(1, 3), rng.randint(0, 5)) for i in range(1, n + 1)])


def priced_at_a_set_revenue(rng):
    """Some products priced at another set's revenue: exact on the grid, rounded off it."""
    n = rng.randint(2, 11)
    if rng.random() < 0.5:
        base = Instance.of([(i, rng.randint(1, 4), rng.randint(0, 9)) for i in range(1, n + 1)])
    else:
        base = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
    members = rng.sample(base.ids(), rng.randint(1, n))
    if rng.random() < 0.5:  # the revenue of the optimum itself, for a random size cap
        members = brute_force_optima(base)[rng.randint(1, n)][0].ids or members
    revenue = mnl_revenue(base, Assortment.of(members))
    repriced = set(rng.sample(base.ids(), rng.randint(1, n)))
    return Instance.of(
        [(p.id, p.weight, revenue if p.id in repriced else p.price) for p in base.products]
    )


TIE_FAMILIES = [duplicated_products, zero_prices, integer_grid, priced_at_a_set_revenue]


def generated(rng):
    return generate_instance(GeneratorSpec(rng.randint(1, 12), seed=rng.getrandbits(60)))


def weights_one_ulp_apart(rng):
    """Nearly parallel margin lines: their float order flips away from the computed
    crossing, which a sweep that re-sorts only at crossings would miss."""
    n = rng.randint(2, 12)
    weights = [rng.uniform(0.5, 3.0)]
    for _ in range(n - 1):
        weights.append(math.nextafter(weights[-1], math.inf))
    rng.shuffle(weights)
    price = rng.uniform(1.0, 10.0)
    return Instance.of(
        [(i, w, rng.choice([price, math.nextafter(price, 0.0), rng.uniform(1.0, 10.0)]))
         for i, w in enumerate(weights, start=1)]
    )


SWEEP_FAMILIES = [generated, *TIE_FAMILIES, weights_one_ulp_apart]


def probe_offsets(inst):
    """0, every breakpoint and one offset inside each interval between them."""
    points = margin_breakpoints(inst)
    return [0.0, *points, *interval_offsets(points)]


def candidate_set_collection_per_cap(inst, size):
    """The candidate collection by one fresh top set per probe, the loop the sweep replaced."""
    seen = {top_margin_set(inst, size, u).ids for u in probe_offsets(inst)}
    return [Assortment(ids) for ids in sorted(seen)]


class TestCandidateSweep:
    @pytest.mark.parametrize("family", SWEEP_FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 0.1])
    def test_breakpoints_equal_the_ordered_pair_loop(self, family, delta):
        """At delta = 0 only unordered pairs are visited; the list, signed zeros included,
        is the one every ordered pair gives."""

        def ordered_pair_breakpoints(inst):
            points = {p.price for p in inst.products}
            for pa, pb in itertools.permutations(inst.products, 2):
                denom = pa.weight - pb.weight + delta
                if denom != 0.0:
                    u = (pa.price * pa.weight - pb.price * pb.weight) / denom
                    if math.isfinite(u) and u >= 0.0:
                        points.add(u)
            return sorted(points)

        rng = random.Random(family.__name__)
        for _ in range(60):
            inst = family(rng)
            assert list(map(repr, margin_breakpoints(inst, delta))) == list(
                map(repr, ordered_pair_breakpoints(inst))
            )

    def test_one_ulp_family_flips_float_order_more_than_once(self):
        """Exact lines cross once; rounded keys of one-ulp-apart weights swap back and forth."""
        rng = random.Random(weights_one_ulp_apart.__name__)
        flipped = 0
        for _ in range(20):
            inst = weights_one_ulp_apart(rng)
            offsets = sorted(probe_offsets(inst))
            ranks = [[pid for _, pid in margin_ranking(inst, u)] for u in offsets]
            for a, b in itertools.combinations(inst.ids(), 2):
                ahead = [r.index(a) < r.index(b) for r in ranks]
                if sum(x != y for x, y in zip(ahead, ahead[1:])) > 1:
                    flipped += 1
                    break
        assert flipped > 0

    @pytest.mark.parametrize("family", SWEEP_FAMILIES, ids=lambda f: f.__name__)
    def test_top_id_sweep_equals_fresh_top_lists_at_every_probe(self, family):
        rng = random.Random(family.__name__)
        for _ in range(60):
            inst = family(rng)
            offsets = sorted(probe_offsets(inst))
            fresh = [margin_ranking(inst, u) for u in offsets]
            for k in range(-1, inst.n + 2):
                assert top_id_sweep(inst, offsets, k) == [top_ids(r, k) for r in fresh]

    def test_top_id_sweep_on_no_products_and_no_offsets(self):
        empty = Instance(())
        assert top_id_sweep(empty, [0.0, 1.0, 2.5], 2) == [[], [], []]
        assert top_id_sweep(THREE, [], 2) == []
        assert margin_band(empty, 1.0) == 0.0
        optima = candidate_set_opt(empty, 2).per_size_optima
        assert optima == {k: (Assortment(), 0.0) for k in range(3)}

    def test_top_id_sweep_with_subnormal_weights(self):
        """Keys this small round by an absolute amount, not a relative one."""
        inst = Instance.of([(i, 5e-324 * i, 1.0 + i / 8) for i in range(1, 9)])
        offsets = sorted(probe_offsets(inst))
        for k in range(inst.n + 1):
            expected = [top_ids(margin_ranking(inst, u), k) for u in offsets]
            assert top_id_sweep(inst, offsets, k) == expected

    def test_top_id_sweep_refuses_descending_offsets(self):
        with pytest.raises(ValueError):
            top_id_sweep(THREE, [2.0, 1.0], 2)

    @pytest.mark.parametrize("family", SWEEP_FAMILIES, ids=lambda f: f.__name__)
    def test_top_id_sweep_on_mixed_sign_offsets(self, family):
        """Each stretch's band is taken at the larger |offset| of its two ends, which must
        bound the rounding of every key inside it on either side of 0 as well."""
        rng = random.Random(family.__name__)
        for _ in range(30):
            inst = family(rng)
            probes = probe_offsets(inst)
            offsets = sorted({*probes, *(-u for u in probes), -2.0 * max(probes) - 1.0})
            fresh = [margin_ranking(inst, u) for u in offsets]
            for k in range(-1, inst.n + 2):
                assert top_id_sweep(inst, offsets, k) == [top_ids(r, k) for r in fresh]

    @pytest.mark.parametrize(
        "lines",
        [[(math.nan, -1.0)], [(math.nan, 0.0), (1e300, -1.0)], [(1e300, 1.0), (math.nan, 1.0)]],
        ids=["nan-alone", "nan-first", "nan-last"],
    )
    def test_a_nan_gap_never_certifies(self, lines):
        offsets = [0.25 * i for i in range(40)]
        read_at = []

        def read(u, ranked):
            read_at.append(u)
            return "same", list(lines)

        assert certified_sweep(THREE, offsets, read) == ["same"] * len(offsets)
        assert sorted(read_at) == offsets

    @pytest.mark.parametrize(
        "slope",
        [
            lambda s, rng: abs(s),
            lambda s, rng: 0.0,
            lambda s, rng: -1e300,
            lambda s, rng: rng.uniform(-3.0, 3.0),
        ],
        ids=["none-falling", "flat", "all-falling-steeply", "random"],
    )
    def test_the_slopes_only_choose_which_offsets_are_ranked(self, slope):
        """A reader whose lines have no falling slope, or slopes that predict nothing true,
        still gives the values of ranking every probe: a slope steers a split, never a fill."""
        rng = random.Random(21)
        for family in SWEEP_FAMILIES:
            for _ in range(10):
                inst = family(rng)
                offsets = sorted(probe_offsets(inst))
                weight = {p.id: p.weight for p in inst.products}
                for k in range(inst.n + 1):

                    def read(u, ranked):
                        top, lines = top_with_gaps(ranked, k, weight)
                        return top, [(gap, slope(s, rng)) for gap, s in lines]

                    expected = [top_ids(margin_ranking(inst, u), k) for u in offsets]
                    assert certified_sweep(inst, offsets, read) == expected

    def test_probe_count_pins(self, monkeypatch):
        """Ranked probes on one generated instance (N = 12, 122 probes, size 4): bisecting
        from a band at the largest offset ranked 28 for the top lists and 35 for the slack
        sets at delta = 0.1."""
        rng = random.Random(generated.__name__)
        generated(rng)
        inst = generated(rng)  # the family's second instance
        offsets = sorted(probe_offsets(inst))
        calls = []

        def counting_ranking(instance, u):
            calls.append(u)
            return margin_ranking(instance, u)

        monkeypatch.setattr(transform, "margin_ranking", counting_ranking)
        assert (inst.n, len(offsets)) == (12, 122)
        top_id_sweep(inst, offsets, 4)
        assert len(calls) == 19
        calls.clear()
        max_slack_set_size(inst, 4, 0.1)
        assert len(calls) == 25

    def test_candidate_set_opt_ranks_under_a_third_of_its_probes(self, monkeypatch):
        inst = generate_instance(GeneratorSpec(60, seed=8))
        points = margin_breakpoints(inst)
        probes = len({0.0, *points, *interval_offsets(points)})
        calls = []

        def counting_ranking(instance, u):
            calls.append(u)
            return margin_ranking(instance, u)

        monkeypatch.setattr(transform, "margin_ranking", counting_ranking)
        candidate_set_opt(inst, 8)
        assert 0 < len(calls) < probes / 3

    @pytest.mark.parametrize("family", SWEEP_FAMILIES, ids=lambda f: f.__name__)
    def test_collection_equals_the_per_cap_probe_loop_at_every_cap(self, family):
        rng = random.Random(family.__name__)
        for _ in range(40):
            inst = family(rng)
            for k in range(-1, inst.n + 2):
                expected = candidate_set_collection_per_cap(inst, k)
                assert candidate_set_collection(inst, k) == expected

    @pytest.mark.parametrize("family", SWEEP_FAMILIES, ids=lambda f: f.__name__)
    def test_optima_are_the_best_of_the_per_cap_collections(self, family):
        rng = random.Random(family.__name__)
        for _ in range(40):
            inst = family(rng)
            capacity = rng.randint(0, inst.n)
            sol = candidate_set_opt(inst, capacity)
            for k in range(1, capacity + 1):
                candidates = candidate_set_collection_per_cap(inst, k)
                scored = [(s, mnl_revenue(inst, s)) for s in candidates]
                assert sol.per_size_optima[k] == min(scored, key=optimum_key)
            assert sol.candidate_collection_size == len(
                candidate_set_collection_per_cap(inst, capacity)
            )


def on_the_slack_line(rng, delta):
    """Outsiders on one product's slack line up to rounding: weight a few ulps from
    w_a + delta and price p_a * w_a / w, so their margin trails the anchor's by
    delta * u, give or take rounding, at every offset u."""
    base = generated(rng)
    anchor = rng.choice(base.products)
    products = [(p.id, p.weight, p.price) for p in base.products]
    for pid in range(base.n + 1, base.n + rng.randint(1, 4) + 1):
        weight = anchor.weight + delta
        steps = rng.randint(-3, 3)
        for _ in range(abs(steps)):
            weight = math.nextafter(weight, math.copysign(math.inf, steps))
        products.append((pid, weight, anchor.price * anchor.weight / weight))
    return Instance.of(products)


def max_slack_set_size_per_probe(inst, size, delta):
    """The largest ``top_set_with_slack`` at each ``interval_offsets`` probe with a
    nonempty top set: the definition the certified slack sweep must meet."""
    points = sorted(set(margin_breakpoints(inst)) | set(margin_breakpoints(inst, delta)))
    sizes = [0]
    for u in interval_offsets(points):
        try:
            sizes.append(len(top_set_with_slack(inst, size, delta, u)))
        except UndefinedTopSetError:
            pass
    return max(sizes)


SLACK_DELTAS = [0.0, 1e-3, 0.01, 0.1, 0.5, 3.0]


class TestSlackSweep:
    @pytest.mark.parametrize("family", SWEEP_FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("delta", [*SLACK_DELTAS, math.inf])
    def test_equals_the_per_probe_definition(self, family, delta):
        rng = random.Random(family.__name__)
        for _ in range(12):
            inst = family(rng)
            for size in range(-1, inst.n + 2):
                expected = max_slack_set_size_per_probe(inst, size, delta)
                assert max_slack_set_size(inst, size, delta) == expected

    @pytest.mark.parametrize("delta", SLACK_DELTAS)
    def test_equals_the_per_probe_definition_on_the_slack_line(self, delta):
        """Slack gaps near zero at every offset: a certificate that skips one misfills."""
        rng = random.Random(repr(delta))
        for _ in range(50):
            inst = on_the_slack_line(rng, delta)
            for size in range(-1, inst.n + 2):
                expected = max_slack_set_size_per_probe(inst, size, delta)
                assert max_slack_set_size(inst, size, delta) == expected

    def test_ranks_under_a_fifth_of_its_probes(self, monkeypatch):
        inst = generate_instance(GeneratorSpec(100, seed=1))
        delta = 2.0 * slack_cap(inst, 10, 0.01)
        points = sorted(set(margin_breakpoints(inst)) | set(margin_breakpoints(inst, delta)))
        probes = len(interval_offsets(points))
        calls = []

        def counting_ranking(instance, u):
            calls.append(u)
            return margin_ranking(instance, u)

        monkeypatch.setattr(transform, "margin_ranking", counting_ranking)
        max_slack_set_size(inst, 10, delta)
        assert probes == 11_268
        assert 0 < len(calls) < probes / 5

    @pytest.mark.parametrize("n, size, ranked", [(300, 245, 865), (600, 498, 1_428)])
    def test_probe_count_pins(self, monkeypatch, n, size, ranked):
        """Bisecting from one band at the largest offset ranked 2,622 probes at N = 300 and
        288,813 at N = 600."""
        inst = generate_instance(GeneratorSpec(n, seed=1))
        delta = 2.0 * slack_cap(inst, 10, 0.01)
        calls = []

        def counting_ranking(instance, u):
            calls.append(u)
            return margin_ranking(instance, u)

        monkeypatch.setattr(transform, "margin_ranking", counting_ranking)
        assert max_slack_set_size(inst, 10, delta) == size
        assert len(calls) == ranked


class TestCandidateSetSolver:
    def test_single_product(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        sol = candidate_set_opt(inst, 1)
        assert sol.assortment.ids == (1,)

    def test_three_products(self):
        sol = candidate_set_opt(THREE, 2)
        assert sol.assortment.ids == (1, 3)
        assert sol.revenue == pytest.approx(6.4, rel=1e-15)

    def test_identical_products_tie_break_to_lowest_ids(self):
        inst = Instance.of([(i, 1.5, 9.0) for i in range(1, 6)])
        sol = candidate_set_opt(inst, 3)
        assert sol.assortment.ids == (1, 2, 3)

    def test_agrees_with_brute_force(self):
        rng = random.Random(1001)
        for _ in range(60):
            n = rng.randint(1, 10)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            capacity = rng.randint(0, min(4, n))
            brute = brute_force_opt(ExactMnlOracle(inst), inst.ids(), capacity)
            candidate = candidate_set_opt(inst, capacity)
            assert candidate.revenue == pytest.approx(brute.revenue, rel=1e-9)
            for k in range(capacity + 1):
                assert candidate.per_size_optima[k][1] == pytest.approx(
                    brute.per_size_optima[k][1], rel=1e-9
                )

    def test_collection_size_within_working_bound(self):
        rng = random.Random(1002)
        for _ in range(40):
            n = rng.randint(1, 10)
            inst = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
            capacity = rng.randint(1, min(4, n))
            sol = candidate_set_opt(inst, capacity)
            assert sol.candidate_collection_size <= n * capacity + 1

    def test_collection_contains_empty_set_and_optimum(self):
        sets = candidate_set_collection(THREE, 2)
        assert Assortment() in sets
        assert Assortment.of([1, 3]) in sets

    @pytest.mark.parametrize("family", TIE_FAMILIES, ids=lambda f: f.__name__)
    def test_revenues_equal_brute_force_on_tie_families(self, family):
        """Brute force's float revenue under every size cap. The set may be another one of
        equal revenue: integer_grid's instance 13 gives (3, 7, 10) at k = 3, brute force
        (1, 3, 10), both at 4.0."""
        rng = random.Random(family.__name__)
        for _ in range(80):
            inst = family(rng)
            candidate = candidate_set_opt(inst, inst.n).per_size_optima
            brute = brute_force_optima(inst)
            assert [r for _, r in candidate.values()] == [r for _, r in brute.values()]


class TestMnlOpt:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(300):
            inst = generate_instance(GeneratorSpec(rng.randint(1, 12), seed=rng.getrandbits(60)))
            assert mnl_opt(inst, inst.n).per_size_optima == brute_force_optima(inst)

    @pytest.mark.parametrize("family", TIE_FAMILIES, ids=lambda f: f.__name__)
    def test_matches_brute_force_on_tie_families(self, family):
        """Sets and float revenues equal brute force's, smallest id tuple among ties."""
        rng = random.Random(family.__name__)
        for _ in range(80):
            inst = family(rng)
            assert mnl_opt(inst, inst.n).per_size_optima == brute_force_optima(inst)

    def test_tie_split_by_rounding(self):
        """At u = 3.85 products 5 and 8 tie exactly, (4 - u) * 1 = (3.9 - u) * 3, but their
        rounded margins differ, so the tie is found only within a band."""
        inst = Instance.of(
            [(1, 1, 3.9), (2, 2, 3.9), (3, 4, 3.9), (4, 1, 3.9), (5, 1, 4.0), (6, 2, 3.9),
             (7, 3, 3.9), (8, 3, 3.9), (9, 1, 3.9), (10, 1, 7.0), (11, 4, 3.9)]
        )
        optima = mnl_opt(inst, 5).per_size_optima
        assert optima == {k: v for k, v in brute_force_optima(inst).items() if k <= 5}
        assert optima[5] == (Assortment.of([3, 5, 7, 10, 11]), 3.85)

    def test_product_priced_at_the_optimum_joins_it(self):
        """{2} and {1, 2} both earn 1.0 at k = 2. The fixed point stops at {2}, since product
        1's margin is 0 there; brute force picks (1, 2), the smaller id tuple."""
        inst = Instance.of([(1, 1.0, 1.0), (2, 1.0, 2.0)])
        assert mnl_opt(inst, 2).per_size_optima == brute_force_optima(inst)
        assert mnl_opt(inst, 2).per_size_optima[2] == (Assortment.of([1, 2]), 1.0)

    def test_too_many_tied_mixes_are_refused(self):
        """Product 1 earns 1.0 alone; 40 products of distinct weights priced at 1.0 leave it
        unchanged. Only the mixes that fit the size cap are scored: 41 at C = 2 and 821 at
        C = 3, but far more than the cap at C = 30, where brute force refuses too."""
        inst = Instance.of([(1, 1.0, 2.0)] + [(i, 1.0 + i / 64, 1.0) for i in range(2, 42)])
        oracle = ExactMnlOracle(inst)
        for capacity in (1, 2, 3):
            brute = brute_force_opt(oracle, inst.ids(), capacity).per_size_optima
            assert mnl_opt(inst, capacity).per_size_optima == brute
        assert brute[3] == (Assortment.of([1]), 1.0)
        with pytest.raises(
            EnumerationCapError, match=r"^scoring \d+ mixes of tied products exceeds the cap of"
        ):
            mnl_opt(inst, 30)
        with pytest.raises(EnumerationCapError):
            brute_force_opt(oracle, inst.ids(), 30)

    def test_smaller_capacity_is_a_prefix(self):
        rng = random.Random(99)
        for _ in range(30):
            inst = integer_grid(rng)
            capacity = rng.randint(0, inst.n)
            full = mnl_opt(inst, inst.n).per_size_optima
            sol = mnl_opt(inst, capacity)
            assert sol.per_size_optima == {k: full[k] for k in range(capacity + 1)}
            assert (sol.assortment, sol.revenue) == full[capacity]

    @pytest.mark.parametrize("n, capacity", [(100, 10), (100, 20), (200, 10), (200, 20)])
    def test_revenues_agree_with_candidate_set_opt_beyond_desk_scale(self, n, capacity):
        for seed in (1, 2):
            inst = generate_instance(GeneratorSpec(n, seed=seed))
            fixed_point = mnl_opt(inst, capacity).per_size_optima
            candidate = candidate_set_opt(inst, capacity).per_size_optima
            for k in range(capacity + 1):
                assert revenues_agree(candidate[k][1], fixed_point[k][1])

    def test_agrees_with_candidate_set_opt_at_n60(self):
        inst = generate_instance(GeneratorSpec(60, seed=60))
        assert mnl_opt(inst, 8).per_size_optima == candidate_set_opt(inst, 8).per_size_optima

    def test_exact_greedy_recovers_it_at_n100(self):
        inst = generate_instance(GeneratorSpec(100, seed=100))
        sol = mnl_opt(inst, 10)
        report = greedy_opt(GreedyConfig(0, 10, 11), inst.ids(), ExactMnlOracle(inst))
        assert report.best_assortment == sol.assortment
        assert report.best_oracle_revenue == sol.revenue


class TestNestingWitness:
    def test_zero_attempts_find_nothing(self):
        assert find_nesting_witness(seed=1, n=6, capacity=3, attempts=0) is None

    def test_single_product_universe_always_nests(self):
        assert find_nesting_witness(seed=1, n=1, capacity=1, attempts=20) is None

    def test_search_finds_verified_witness(self):
        witness = find_nesting_witness(seed=11, n=6, capacity=3, attempts=500)
        assert witness is not None
        assert not set(witness.opt_c1.ids) <= set(witness.opt_c2.ids)
        # re-verify against brute force from scratch
        oracle = ExactMnlOracle(witness.instance)
        sol = brute_force_opt(oracle, witness.instance.ids(), witness.c2)
        assert sol.per_size_optima[witness.c1][0] == witness.opt_c1
        assert sol.per_size_optima[witness.c2][0] == witness.opt_c2

    def test_witness_instance_defeats_naive_greedy(self, nesting_fixture):
        instance, witness_meta = nesting_fixture
        capacity = witness_meta["capacity"]
        naive = naive_greedy(capacity, instance.ids(), ExactMnlOracle(instance))
        brute = brute_force_opt(ExactMnlOracle(instance), instance.ids(), capacity)
        assert mnl_revenue(instance, naive) < brute.revenue * (1 - 1e-9)
