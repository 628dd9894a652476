"""Reference solvers: brute force, candidate-set solver, MNL fixed point, nesting witnesses."""

import itertools
import logging
import math
import random
import sys
import tracemalloc
import types

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
from assortopt import reference, transform
from assortopt.analysis import slack_cap
from assortopt.generate import GeneratorSpec, generate_instance
from assortopt.instance import optimum_key
from assortopt.oracles import CONFIRM_BAND
from assortopt.reference import revenues_agree
from assortopt.transform import (
    event_sweep,
    margin_breakpoints,
    margin_ranking,
    slack_end,
    stretch_band,
    top_ids,
    top_margin_set,
)
from references import (
    UndefinedTopSetError,
    find_nesting_witness,
    interval_offsets,
    top_set_with_slack,
)

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


def tiny_weights(rng):
    """Weights near 1e-300, some beside large prices: every margin is tiny, rounding is relative."""
    n = rng.randint(2, 12)
    return Instance.of([(i, rng.uniform(0.1, 10.0) * 1e-300,
                         rng.choice([0.0, rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0) * 1e290]))
                        for i in range(1, n + 1)])


def subnormal_weights(rng):
    """Subnormal weights, some beside normal ones: products round by an absolute amount."""
    n = rng.randint(2, 12)
    return Instance.of([(i, rng.choice([5e-324 * rng.randint(1, 2**20), rng.uniform(0.1, 5.0)]),
                         rng.choice([0.0, rng.uniform(0.0, 50.0)]))
                        for i in range(1, n + 1)])


def dispersed_weights(rng):
    """Weights from 1e-8 to 1e8 with price * weight 1 or 2: margins at a revenue u scale
    with u * weight, far above every price * weight."""
    n = rng.randint(2, 12)
    weights = [10.0 ** rng.uniform(-8.0, 8.0) for _ in range(n)]
    return Instance.of([(i, w, rng.choice([1.0, 2.0]) / w) for i, w in enumerate(weights, start=1)])


def margin_scale_band(inst, u):
    """``CONFIRM_BAND`` of the largest (price + u) * weight, the scale of every margin at u."""
    return CONFIRM_BAND * max((p.price + u) * p.weight for p in inst.products)


def near_tie_in_the_band_window(rng):
    """A heavy cheap product and a light dear one, so the largest price * weight and the
    largest weight belong to different products, and one product whose margin at an
    optimal revenue u trails the size-th largest by a hair: by more than
    ``margin_scale_band`` at u, but within the stretch band at u."""
    n = rng.randint(2, 8)
    base = generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))
    products = [(p.id, p.weight, p.price) for p in base.products]
    products.append((n + 1, rng.uniform(50.0, 100.0), rng.uniform(0.0, 0.5)))
    products.append((n + 2, rng.uniform(0.5, 1.0), rng.uniform(100.0, 150.0)))
    inst = Instance.of(products)
    size = rng.randint(1, inst.n)
    members, u = brute_force_optima(inst)[size]
    if len(members.ids) < size:
        return inst
    edge = min(transform.scaled_margins(inst, members.ids, u))
    base_band, per_unit = stretch_band(inst)
    trail = (margin_scale_band(inst, u) + base_band + per_unit * u) / 2.0
    weight = rng.uniform(0.1, 10.0)
    return Instance.of([*products, (n + 3, weight, max(0.0, u + (edge - trail) / weight))])


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
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 0.1, math.inf])
    def test_breakpoints_equal_the_ordered_pair_loop(self, family, delta):
        """The plain crossings are visited by unordered pair; the list, signed zeros
        included, is the one every ordered pair gives at shift 0 and then at delta."""

        def ordered_pair_breakpoints(inst):
            points = {p.price for p in inst.products}
            for shift in (0.0, delta):
                for pa, pb in itertools.permutations(inst.products, 2):
                    denom = pa.weight - pb.weight + shift
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
    def test_collection_stays_within_the_working_bound(self, family):
        """``candidate_set_opt`` logs a collection of more than N*C + 1 sets; none has
        one, at any cap, and the bound is met exactly somewhere."""
        rng = random.Random(family.__name__)
        largest = 0.0
        for _ in range(200):
            inst = family(rng)
            for capacity in range(inst.n + 1):
                size = candidate_set_opt(inst, capacity).candidate_collection_size
                assert size <= inst.n * capacity + 1
                largest = max(largest, size / (inst.n * capacity + 1))
        assert largest == 1.0

    def test_collection_above_the_working_bound_is_logged(self, caplog, monkeypatch):
        # the four sets at N = 3, C = 1 and one more: logged, not fatal
        candidate_sets = reference._candidate_sets

        def one_too_many(instance, capacity):
            sets = candidate_sets(instance, capacity)
            sets[-1].add((1, 3))
            return sets

        monkeypatch.setattr(reference, "_candidate_sets", one_too_many)
        assert len(one_too_many(THREE, 1)[-1]) == 5
        with caplog.at_level(logging.WARNING, logger=reference.__name__):
            solution = candidate_set_opt(THREE, 1)
        assert solution.candidate_collection_size == 5
        assert [record.getMessage() for record in caplog.records] == [
            "candidate collection has 5 sets, above the working bound 4 (N=3, C=1)"
        ]

    def test_probe_count_pins(self, monkeypatch):
        """Rankings on one generated instance (N = 12, 122 probes, size 4): the event sweep
        ranks 7 for the top lists, one per run, and ``max_slack_set_size`` 7 for the slack
        sets at delta = 0.1, where no later slack set can be larger than the largest seen."""
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
        assert len(list(event_sweep(inst, 4))) == 7
        assert len(calls) == 7
        calls.clear()
        max_slack_set_size(inst, 4, 0.1)
        assert len(calls) == 7

    def test_candidate_set_opt_ranks_under_a_third_of_its_probes(self, monkeypatch):
        """69 rankings at N = 60, C = 8, one per run of equal top lists, against 3,082
        probes; no breakpoint is listed."""
        inst = generate_instance(GeneratorSpec(60, seed=8))
        points = margin_breakpoints(inst)
        probes = len({0.0, *points, *interval_offsets(points)})
        calls = []

        def counting_ranking(instance, u):
            calls.append(u)
            return margin_ranking(instance, u)

        monkeypatch.setattr(transform, "margin_ranking", counting_ranking)
        monkeypatch.setattr(transform, "margin_breakpoints", None)
        candidate_set_opt(inst, 8)
        assert probes == 3_082
        assert len(calls) == 69 < probes / 3

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
    nonempty top set: the definition the slack sweep must meet."""
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
        assert len(calls) == 124 < probes / 5

    @pytest.mark.parametrize("n, size, ranked", [(300, 245, 306), (600, 498, 629)])
    def test_probe_count_pins(self, monkeypatch, n, size, ranked):
        """At size 10 and delta twice the slack cap at eps = 0.01, the largest slack set
        has 245 products at N = 300, found by ranking 306 offsets, and 498 at N = 600,
        found by ranking 629: one per run of equal value, up to where no later slack set
        can be larger than the largest seen."""
        inst = generate_instance(GeneratorSpec(n, seed=1))
        delta = 2.0 * slack_cap(inst, 10, 0.01)
        calls = []

        def counting_ranking(instance, u):
            calls.append(u)
            return margin_ranking(instance, u)

        monkeypatch.setattr(transform, "margin_ranking", counting_ranking)
        assert max_slack_set_size(inst, 10, delta) == size
        assert len(calls) == ranked


def reference_runs(inst, size, delta=None):
    """The runs of equal value over the reference probes, by ranking each probe."""
    if delta is None:
        return [top for top, _ in itertools.groupby(
            top_ids(margin_ranking(inst, u), size) for u in sorted(probe_offsets(inst)))]
    values = []
    for u in interval_offsets(margin_breakpoints(inst, delta)):
        ranked = margin_ranking(inst, u)
        top = top_ids(ranked, size)
        slack = ranked[: slack_end(ranked, len(top), delta, u)] if top else []
        values.append((top, frozenset(pid for _, pid in slack)))
    return [value for value, _ in itertools.groupby(values)]


def counting_rankings(monkeypatch):
    """The offsets of the ``margin_ranking`` calls, as they are made."""
    calls = []

    def counting_ranking(instance, u):
        calls.append(u)
        return margin_ranking(instance, u)

    monkeypatch.setattr(transform, "margin_ranking", counting_ranking)
    return calls


def counting_windows(monkeypatch):
    """The ``(lo, hi)`` of the windows an event walk opens, with the ``(probe, value)`` pairs
    each gives, as they are opened."""
    windows = []
    window = transform._EventWalk.window

    def counting_window(walk, lo, hi):
        windows.append((lo, hi, list(window(walk, lo, hi))))
        return iter(windows[-1][2])

    monkeypatch.setattr(transform._EventWalk, "window", counting_window)
    return windows


def windows_after_change(monkeypatch, change):
    """The windows an event walk opens for the top lists of a generated N = 30 instance
    (seed 4) at size 8, which opens none, once ``change(walk, state)`` has edited each
    ranked state. Every top list is still the reference's."""
    inst = generate_instance(GeneratorSpec(30, seed=4))
    runs = reference_runs(inst, 8)
    windows = counting_windows(monkeypatch)
    assert [top for _, top in event_sweep(inst, 8)] == runs and not windows
    rank = transform._EventWalk.rank

    def changed(walk, u, entry, crossing=None):
        state = rank(walk, u, entry, crossing)
        change(walk, state)
        return state

    monkeypatch.setattr(transform._EventWalk, "rank", changed)
    assert {tuple(top) for _, top in event_sweep(inst, 8)} == set(map(tuple, runs))
    return windows


class TestEventSweep:
    @pytest.mark.parametrize("n", [30, 45, 60])
    def test_top_lists_rank_once_per_run(self, monkeypatch, n):
        """On generated instances of the candidate solver's sizes, at C = 8: the runs are
        those of ranking every probe, and each is ranked once, with no window."""
        for seed in range(3):
            inst = generate_instance(GeneratorSpec(n, seed=seed))
            runs = reference_runs(inst, 8)
            calls, windows = counting_rankings(monkeypatch), counting_windows(monkeypatch)
            assert [value for _, value in event_sweep(inst, 8)] == runs
            assert len(calls) == len(runs) and not windows
            monkeypatch.undo()

    def test_slack_sets_rank_once_per_run(self, monkeypatch):
        inst = generate_instance(GeneratorSpec(100, seed=1))
        delta = 2.0 * slack_cap(inst, 10, 0.01)
        runs = reference_runs(inst, 10, delta)
        calls = counting_rankings(monkeypatch)
        assert [value for _, value in event_sweep(inst, 10, delta)] == runs
        assert len(calls) == len(runs) == 172

    def test_one_slack_call_at_n_1000_is_linear_in_memory(self, monkeypatch):
        """Size 10 and delta twice the slack cap at eps = 0.01: the sweep ranks once per run
        (1,006), and one ``max_slack_set_size`` call ranks 967 times, stopping where no later
        slack set can be larger, lists no breakpoint, and its traced allocations peak under
        10 MB, where the probe list of every crossing took about 144 MB."""
        inst = generate_instance(GeneratorSpec(1000, seed=1))
        delta = 2.0 * slack_cap(inst, 10, 0.01)
        calls = counting_rankings(monkeypatch)
        assert sum(1 for _ in event_sweep(inst, 10, delta)) == len(calls) == 1_006
        calls.clear()
        monkeypatch.setattr(transform, "margin_breakpoints", None)
        tracemalloc.start()
        try:
            size = max_slack_set_size(inst, 10, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (size, len(calls)) == (830, 967)
        assert peak < 10 * 2**20

    def test_a_least_gap_on_the_band_opens_a_window(self, monkeypatch):
        """Gaps are tested with ``>``: when the first ranked offset's least gap is exactly
        its band, the walk opens a window there."""

        def on_the_band(walk, state):
            if state.u == 0.0:
                state.narrowest = walk.base + walk.per_unit * state.u

        assert len(windows_after_change(monkeypatch, on_the_band)) == 1

    def test_a_gap_on_the_band_never_joins_the_walks_start(self, monkeypatch):
        """The walk starts at offset 0, which joins the offset after it only if its least
        gap clears the band there: exactly on the band, the walk opens a window from 0, and
        its first probe is 0."""

        def on_the_band(walk, state):
            if state.u == 0.0:
                state.narrowest = walk.base + walk.per_unit * state.u

        windows = windows_after_change(monkeypatch, on_the_band)
        assert [lo for lo, _, _ in windows] == [0.0]
        assert windows[0][2][0][0] == 0.0

    def test_a_gap_on_the_band_never_joins_the_walks_end(self, monkeypatch):
        """The walk ends at its first empty top list, which joins the offset before it only
        if its least gap clears the band there: exactly on the band, the walk opens a window
        up to inf instead."""

        def on_the_band(walk, state):
            if not state.top:
                state.narrowest = walk.base + walk.per_unit * state.u

        windows = windows_after_change(monkeypatch, on_the_band)
        assert [hi for _, hi, _ in windows] == [math.inf]

    @pytest.mark.parametrize(
        "gaps",
        [[math.nan], [math.nan, 1e300], [1e300, math.nan]],
        ids=["nan-alone", "nan-first", "nan-last"],
    )
    def test_a_nan_gap_never_joins(self, monkeypatch, gaps):
        """The least of gaps holding a NaN is NaN wherever the NaN lies, and fails every
        ``>``: at the first ranked offset, the walk opens a window."""

        def with_a_nan(walk, state):
            if state.u == 0.0:
                state.narrowest = transform._least(gaps)

        assert len(windows_after_change(monkeypatch, with_a_nan)) == 1

    def test_window_fallback_ranks_only_inside_its_window(self, monkeypatch):
        """Nearly parallel lines have no clear interval: the walk opens windows, whose
        probes are the reference's, and lists the breakpoints of each window only."""
        rng = random.Random(weights_one_ulp_apart.__name__)
        windowed = 0
        for _ in range(20):
            inst = weights_one_ulp_apart(rng)
            seen = []
            listed = transform.margin_breakpoints

            def listing(instance, delta=0.0, lo=0.0, hi=math.inf):
                seen.append((lo, hi))
                return listed(instance, delta, lo, hi)

            monkeypatch.setattr(transform, "margin_breakpoints", listing)
            for size in range(1, inst.n + 1):
                # around a window a value may come twice: the set is the contract
                runs = {tuple(top) for _, top in event_sweep(inst, size)}
                assert runs == set(map(tuple, reference_runs(inst, size)))
            monkeypatch.undo()
            windowed += bool(seen)
            assert all(lo >= 0.0 and lo < hi for lo, hi in seen)
        assert windowed > 0

    @pytest.mark.parametrize("family", SWEEP_FAMILIES, ids=lambda f: f.__name__)
    def test_top_lists_equal_the_reference_runs_at_every_size(self, family):
        rng = random.Random(family.__name__)
        for _ in range(60):
            inst = family(rng)
            for k in range(-1, inst.n + 2):
                # around a window a value may come twice: the set is the contract
                runs = {tuple(top) for _, top in event_sweep(inst, k)}
                assert runs == set(map(tuple, reference_runs(inst, k)))

    def test_on_no_products(self):
        empty = Instance(())
        assert [top for _, top in event_sweep(empty, 2)] == reference_runs(empty, 2) == [[]]
        slack = [value for _, value in event_sweep(empty, 2, 0.1)]
        assert slack == reference_runs(empty, 2, 0.1) == [([], frozenset())]
        assert stretch_band(empty) == (sys.float_info.min, 0.0)
        optima = candidate_set_opt(empty, 2).per_size_optima
        assert optima == {k: (Assortment(), 0.0) for k in range(3)}

    def test_with_subnormal_weights(self):
        """Keys this small round by an absolute amount, not a relative one."""
        inst = Instance.of([(i, 5e-324 * i, 1.0 + i / 8) for i in range(1, 9)])
        for k in range(inst.n + 1):
            for delta in (None, 0.0, 1e-3, 0.1):
                runs = {repr(value) for _, value in event_sweep(inst, k, delta)}
                assert runs == set(map(repr, reference_runs(inst, k, delta)))

    @pytest.mark.parametrize(
        "family, counts",
        [(weights_one_ulp_apart, (828, 216, 9_025)), (duplicated_products, (768, 286, 1_838))],
        ids=["weights_one_ulp_apart", "duplicated_products"],
    )
    def test_each_window_probe_is_ranked_once(self, monkeypatch, family, counts):
        """Over 20 instances, at every size, for the top lists and the slack sets at delta =
        0.1: the rankings are the walk's own ranked offsets plus the probes its windows
        list, each ranked once. ``counts`` pins (the walk's ranked offsets, windows, window
        probes)."""
        rng = random.Random(family.__name__)
        instances = [family(rng) for _ in range(20)]
        calls, windows = counting_rankings(monkeypatch), counting_windows(monkeypatch)
        walked = []
        rank = transform._EventWalk.rank

        def counting_rank(walk, u, entry, crossing=None):
            walked.append(u)
            return rank(walk, u, entry, crossing)

        monkeypatch.setattr(transform._EventWalk, "rank", counting_rank)
        for delta in (None, 0.1):
            for inst in instances:
                for size in range(1, inst.n + 1):
                    for _ in event_sweep(inst, size, delta):
                        pass
        probes = sum(len(values) for _, _, values in windows)
        assert len(calls) == len(walked) + probes
        assert (len(walked), len(windows), probes) == counts

    @pytest.mark.parametrize(
        "family, ranked, gaps, listings, listed, scanned",
        [(generated, 21_449, 33_173, 11_724, 33_711, 75_363),
         (duplicated_products, 10_661, 8_292, 2_196, 3_570, 14_780),
         (zero_prices, 1_616, 1_616, 0, 0, 0),
         (integer_grid, 22_767, 8_496, 3_384, 7_516, 15_918),
         (priced_at_a_set_revenue, 26_581, 17_103, 5_720, 16_146, 35_059),
         (weights_one_ulp_apart, 47_859, 5_007, 2_255, 8_829, 6_953),
         (tiny_weights, 27_456, 12_196, 4_468, 5_582, 41_768),
         (subnormal_weights, 30_333, 5_072, 2_184, 4_786, 8_655),
         (dispersed_weights, 57_343, 12_863, 7_413, 13_318, 25_994)],
        ids=["generated", "duplicated_products", "zero_prices", "integer_grid",
             "priced_at_a_set_revenue", "weights_one_ulp_apart", "tiny_weights",
             "subnormal_weights", "dispersed_weights"],
    )
    def test_ranking_count_pins(self, monkeypatch, family, ranked, gaps, listings, listed, scanned):
        """Over 40 instances, at every size from -1 to N + 1, for the top lists and the slack
        sets at delta = 0, 1e-3 and 0.1: the set of values is the reference's, the walk and
        its windows rank ``ranked`` offsets in all, the walk takes ``gaps`` least gaps
        (``_EventWalk.narrowest`` calls), ``outsider_events`` lists the outsiders'
        crossings ``listings`` times, ``listed`` crossings in all, and the two ``islice``
        scans of the ranking (``narrowest``'s slack outsiders and the listed outsiders)
        visit ``scanned`` entries. A value kept without room for a probe, twins tested
        against each other, or ``joined`` without its interpolation, each moves a ranking
        count but no value; ``joined`` without its steepest-slope bound moves the gap count;
        listing again for the same weakest and members moves the listings, listing the
        lighter products of a list that is not full moves the crossings listed, and
        starting the slack outsider scan at the top of its own ranking, not past the slack
        set, moves the entries scanned."""
        rng = random.Random(family.__name__)
        calls = counting_rankings(monkeypatch)
        least, queues, visited = [], [], [0]
        narrowest = transform._EventWalk.narrowest
        outsider_events = transform._EventWalk.outsider_events

        def counting_islice(*args):
            for entry in itertools.islice(*args):
                visited[0] += 1
                yield entry

        def counting_narrowest(walk, state, x, ranked, skip):
            least.append(x)
            return narrowest(walk, state, x, ranked, skip)

        def counting_outsider_events(walk, state):
            cached = walk.queue
            queue = outsider_events(walk, state)
            if queue is not cached:
                queues.append(len(queue))
            return queue

        monkeypatch.setattr(transform._EventWalk, "narrowest", counting_narrowest)
        monkeypatch.setattr(transform._EventWalk, "outsider_events", counting_outsider_events)
        monkeypatch.setattr(transform, "itertools", types.SimpleNamespace(**dict(
            vars(itertools), islice=counting_islice)))
        for _ in range(40):
            inst = family(rng)
            for k in range(-1, inst.n + 2):
                for delta in (None, 0.0, 1e-3, 0.1):
                    runs = {repr(value) for _, value in event_sweep(inst, k, delta)}
                    assert runs == set(map(repr, reference_runs(inst, k, delta)))
        assert (len(calls), len(least), len(queues), sum(queues), visited[0]) == (
            ranked, gaps, listings, listed, scanned
        )

    def test_margins_that_round_to_zero_end_the_walk_at_0(self, monkeypatch):
        """At weight 5e-324 and price 0.5 the margin rounds to 0 below the price and is
        negative above it, so the top list is empty from offset 0 on: the walk ranks once
        and opens no window."""
        inst = Instance.of([(1, 5e-324, 0.5)])
        for delta in (None, 0.0, 0.1):
            runs = reference_runs(inst, 1, delta)
            calls, windows = counting_rankings(monkeypatch), counting_windows(monkeypatch)
            assert [value for _, value in event_sweep(inst, 1, delta)] == runs
            assert (len(calls), windows) == (1, [])
            monkeypatch.undo()

    @pytest.mark.parametrize("delta", [1e-3, 0.1])
    def test_an_outsider_overtaking_the_weakest_at_its_zero_is_not_joined(self, monkeypatch, delta):
        """Product 2, lighter, overtakes product 1, the one member at size 1, 2e-8 below 1's
        zero crossing at 2: the walk ranks next just past both, where 1's key is positive,
        so the offset before the overtaking is not joined to that one, and the walk lists a
        window from 0, ranking 10 offsets in all. Only the crossing comparison is left out
        there, never the weakest's zero line."""
        inst = Instance.of([(1, 2.0, 2.0), (2, 1.0, 2.0 + 2e-8)])
        calls, windows = counting_rankings(monkeypatch), counting_windows(monkeypatch)
        runs = {repr(value) for _, value in event_sweep(inst, 1, delta)}
        assert runs == set(map(repr, reference_runs(inst, 1, delta)))
        assert (len(calls), [lo for lo, _, _ in windows]) == (10, [0.0])

    @pytest.mark.parametrize("delta, ranked", [(None, 26), (0.0, 16)])
    def test_a_member_leaving_behind_the_weakest_is_not_joined_by_pairs(self, monkeypatch,
                                                                        delta, ranked):
        """Product 4 falls below product 2, the weakest at size 4, and crosses zero 1.5e-8
        later: the walk ranks next past both, where 2 is still the weakest but 4 has left.
        The two offsets do not share their member set, so ``joined`` does not take them for
        a swap of adjacent members, and the walk ranks ``ranked`` offsets in all."""
        inst = Instance.of([(1, 2.0, 2.000000001), (2, 0.5, 2.0), (3, 1.5, 2.0000001),
                            (4, 1.50000015, 1.99999997)])
        calls = counting_rankings(monkeypatch)
        runs = {repr(value) for _, value in event_sweep(inst, 4, delta)}
        assert runs == set(map(repr, reference_runs(inst, 4, delta)))
        assert len(calls) == ranked

    def test_twins_at_n_200(self):
        """Each product of a generated N = 100 instance twice: products of equal price and
        weight tie at every offset and open windows. The candidate solver's revenue is the
        fixed point's at every size cap, and the largest slack set is the definition's: 174."""
        base = generate_instance(GeneratorSpec(100, seed=1))
        inst = Instance.of([(p.id + copy * 100, p.weight, p.price)
                            for copy in (0, 1) for p in base.products])
        candidate, fixed_point = candidate_set_opt(inst, 8), mnl_opt(inst, 8)
        assert [r for _, r in candidate.per_size_optima.values()] == [
            r for _, r in fixed_point.per_size_optima.values()]
        delta = 2.0 * slack_cap(inst, 10, 0.01)
        largest = max_slack_set_size(inst, 10, delta)
        assert largest == max_slack_set_size_per_probe(inst, 10, delta) == 174


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

    def test_matches_brute_force_where_the_tie_band_is_widest(self):
        """Margins at the optimum that differ by more than ``margin_scale_band`` at u, but by
        no more than the stretch band at u, count as tied. Each extra mix is scored by its
        exact revenue, so brute force's choice still wins."""
        rng = random.Random(near_tie_in_the_band_window.__name__)
        hits = 0
        for _ in range(40):
            inst = near_tie_in_the_band_window(rng)
            brute = brute_force_optima(inst)
            base, per_unit = stretch_band(inst)
            for k in range(inst.n + 1):
                sol = mnl_opt(inst, k)
                assert (sol.assortment, sol.revenue) == brute[k]
                if k == 0:
                    continue
                u = sol.revenue
                margins = [-key for key, _ in margin_ranking(inst, u)]
                low, high = margin_scale_band(inst, u), base + per_unit * u
                edge = margins[k - 1]
                others = margins[: k - 1] + margins[k:]
                hits += edge > high and any(low < abs(m - edge) <= high for m in others)
        assert hits > 0

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
