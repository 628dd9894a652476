"""Margin transform, slack sets, gap bounds, and the invariant checkers."""

import dataclasses
import math
import random

import numpy as np
import pytest

from assortopt import (
    Assortment,
    EnumerationCapError,
    ExactMnlOracle,
    GreedyConfig,
    Instance,
    IterationRecord,
    NoiseSpec,
    NoisyOracle,
    ValidationError,
    assortment_margin,
    brute_force_opt,
    candidate_set_opt,
    check_margin_revenue_equivalence,
    check_trace_invariants,
    compute_bounds,
    exact_delta_cap,
    greedy_opt,
    margin_breakpoints,
    max_slack_set_size,
    mnl_revenue,
    scaled_margin,
    top_margin_set,
    total_weight,
)
from assortopt.analysis import FLOAT_SLACK, TraceViolation, slack_cap, trace_bookkeeping_problems
from assortopt.errors import ConfigError, InvalidAssortmentError
from assortopt.generate import GeneratorSpec, generate_instance
from references import UndefinedTopSetError, interval_offsets, top_set_with_slack
from test_reference import TIE_FAMILIES, weights_one_ulp_apart

THREE = Instance.of([(1, 1.0, 10.0), (2, 2.0, 6.0), (3, 0.5, 12.0)])


def max_slack_set_size_grid(
    instance: Instance, size: int, delta: float, points: int = 10_001
) -> int:
    """Grid-scan fallback for the slack-set maximum (cross-check path).

    Scans evenly spaced offsets on (0, max price]; exists to validate the
    breakpoint enumeration, which the tests require to agree with this on
    generic instances.
    """
    if instance.n == 0 or size <= 0:
        return 0
    prices = np.array([p.price for p in instance.products])
    weights = np.array([p.weight for p in instance.products])
    top = float(prices.max())
    if top <= 0.0:
        return 0
    us = np.linspace(0.0, top, points)[1:]  # the slack set needs u > 0
    margins = (prices[:, None] - us[None, :]) * weights[:, None]  # (N, P)
    order = np.sort(margins, axis=0)[::-1]  # descending per column
    positive_counts = (order > 0.0).sum(axis=0)
    top_sizes = np.minimum(size, positive_counts)
    nonempty = top_sizes >= 1
    if not nonempty.any():
        return 0
    cols = np.nonzero(nonempty)[0]
    anchor = order[top_sizes[cols] - 1, cols]
    thresholds = anchor - delta * us[cols]
    slack_sizes = (margins[:, cols] >= thresholds[None, :]).sum(axis=0)
    return int(slack_sizes.max())


def random_instance(rng, n=None):
    n = n if n is not None else rng.randint(1, 10)
    return generate_instance(GeneratorSpec(n, seed=rng.getrandbits(60)))


def random_assortment(rng, instance, max_size=None):
    cap = instance.n if max_size is None else max_size
    return Assortment.of(rng.sample(list(instance.ids()), rng.randint(0, cap)))


class TestScaledMargin:
    def test_zero_at_own_price(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        assert scaled_margin(inst, 1, 10.0) == 0.0

    def test_direct_values(self):
        assert scaled_margin(THREE, 1, 4.0) == 6.0  # (10 - 4) * 1
        assert scaled_margin(THREE, 2, 4.0) == 4.0  # (6 - 4) * 2

    def test_strictly_decreasing_in_offset(self):
        rng = random.Random(100)
        for _ in range(100):
            inst = random_instance(rng)
            pid = rng.choice(inst.ids())
            u1 = rng.uniform(0, 50)
            u2 = u1 + rng.uniform(0.01, 50)
            assert scaled_margin(inst, pid, u1) > scaled_margin(inst, pid, u2)


class TestAssortmentMargin:
    def test_empty_is_zero(self):
        assert assortment_margin(THREE, Assortment(), 3.0) == 0.0

    def test_single_member(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        assert assortment_margin(inst, Assortment.of([1]), 5.0) == 5.0

    def test_revenue_identity(self):
        # margin(M, u) = u + w(M) * (R(M) - u)
        rng = random.Random(321)
        for _ in range(500):
            inst = random_instance(rng)
            m = random_assortment(rng, inst)
            u = rng.uniform(0.0, 1.2 * max(p.price for p in inst.products))
            lhs = assortment_margin(inst, m, u)
            rhs = u + total_weight(inst, m) * (mnl_revenue(inst, m) - u)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(u))

    def test_fixed_point_at_own_revenue(self):
        rng = random.Random(322)
        for _ in range(500):
            inst = random_instance(rng)
            m = random_assortment(rng, inst)
            rev = mnl_revenue(inst, m)
            assert abs(assortment_margin(inst, m, rev) - rev) <= 1e-12


class TestTopMarginSet:
    def test_empty_above_all_prices(self):
        assert top_margin_set(THREE, 2, 12.5).ids == ()

    def test_tie_breaks_to_smaller_id(self):
        # at u=4 margins are (6, 4, 4): products 2 and 3 tie
        assert top_margin_set(THREE, 2, 4.0).ids == (1, 2)

    def test_size_zero(self):
        assert top_margin_set(THREE, 0, 1.0).ids == ()
        assert top_margin_set(THREE, -1, 1.0).ids == ()

    def test_members_beat_outsiders(self):
        rng = random.Random(55)
        for _ in range(200):
            inst = random_instance(rng)
            size = rng.randint(1, inst.n)
            u = rng.uniform(0, 1.1 * max(p.price for p in inst.products))
            top = top_margin_set(inst, size, u)
            outside = set(inst.ids()) - set(top.ids)
            assert all(scaled_margin(inst, i, u) > 0 for i in top)
            if len(top) == size:
                worst_in = min(scaled_margin(inst, i, u) for i in top)
                assert all(scaled_margin(inst, j, u) <= worst_in for j in outside)


class TestTopSetWithSlack:
    def test_zero_slack_adds_only_ties(self):
        # at u=4 the top-2 set is {1,2}; product 3 ties the weakest member
        assert top_set_with_slack(THREE, 2, 0.0, 4.0) == {1, 2, 3}

    def test_example_with_slack(self):
        # anchor margin 6, threshold 6 - h_j <= 0.5 * 4 = 2, so h_j >= 4
        assert top_set_with_slack(THREE, 1, 0.5, 4.0) == {1, 2, 3}

    def test_huge_slack_includes_everything(self):
        assert top_set_with_slack(THREE, 1, 1e6, 4.0) == {1, 2, 3}

    def test_empty_top_set_is_an_error(self):
        with pytest.raises(UndefinedTopSetError):
            top_set_with_slack(THREE, 2, 0.1, 100.0)


class TestMaxSlackSetSize:
    def test_generic_instance_zero_slack_equals_size(self):
        rng = random.Random(2)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(2, 9))
            size = rng.randint(1, inst.n)
            assert max_slack_set_size(inst, size, 0.0) == size

    def test_identical_products_reach_n(self):
        inst = Instance.of([(i, 1.0, 5.0) for i in range(1, 5)])
        assert max_slack_set_size(inst, 2, 0.0) == 4

    def test_huge_delta_reaches_n(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(2, 8))
            assert max_slack_set_size(inst, 1, 1e9) == inst.n

    def test_monotone_in_delta(self):
        rng = random.Random(4)
        for _ in range(30):
            inst = random_instance(rng, rng.randint(2, 8))
            size = rng.randint(1, inst.n)
            deltas = sorted(rng.uniform(0, 2) for _ in range(4))
            sizes = [max_slack_set_size(inst, size, d) for d in deltas]
            assert sizes == sorted(sizes)

    def test_breakpoint_enumeration_matches_grid_scan(self):
        # the two routes must agree; a discrepancy fails the build
        rng = random.Random(5)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(2, 9))
            size = rng.randint(1, inst.n)
            delta = rng.choice([0.0, 0.01, 0.1, 0.5, 2.0])
            exact = max_slack_set_size(inst, size, delta)
            grid = max_slack_set_size_grid(inst, size, delta)
            assert exact == grid

    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.5, 3.0])
    def test_matches_its_definition(self, delta):
        """Largest slack set at one offset per interval, where the top set is nonempty."""
        rng = random.Random(6)
        for index in range(60):
            n = rng.randint(1, 9)
            if index % 2:
                pool = [(rng.uniform(0.1, 10.0), float(rng.randint(0, 6))) for _ in range(3)]
                inst = Instance.of([(i, *rng.choice(pool)) for i in range(1, n + 1)])
            else:
                inst = random_instance(rng, n)
            size = rng.randint(1, n)
            points = sorted(
                set(margin_breakpoints(inst)) | set(margin_breakpoints(inst, delta))
            )
            expected = max(
                (
                    len(top_set_with_slack(inst, size, delta, u))
                    for u in interval_offsets(points)
                    if len(top_margin_set(inst, size, u)) > 0
                ),
                default=0,
            )
            assert max_slack_set_size(inst, size, delta) == expected

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            max_slack_set_size(THREE, 1, -0.1)

    def test_negative_delta_is_a_config_error(self):
        with pytest.raises(ConfigError):
            max_slack_set_size(THREE, 2, -1.0)

    def test_nan_delta_rejected(self):
        """NaN fails every comparison, so ``delta < 0`` alone would let it through."""
        with pytest.raises(ValidationError) as raised:
            max_slack_set_size(THREE, 3, float("nan"))
        assert raised.value.code == "bad-config"

    def test_infinite_delta_reaches_n(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 8))
            assert max_slack_set_size(inst, rng.randint(1, inst.n), math.inf) == inst.n


class TestComputeBounds:
    def test_zero_noise_means_zero_bound(self):
        opt = brute_force_opt(ExactMnlOracle(THREE), THREE.ids(), 2)
        bound = compute_bounds(THREE, 2, 0.0, opt)
        assert bound.eta == 0.0
        assert bound.f_value == 0.0
        assert bound.delta_cap == 0.0

    def test_weight_ratio_one(self):
        # two products, both in the optimum: heaviest offerable weight equals
        # the optimum's weight, so f = eta = 8 * 0.01 / 0.99
        inst = Instance.of([(1, 1.0, 50.0), (2, 1.0, 50.0)])
        opt = brute_force_opt(ExactMnlOracle(inst), inst.ids(), 2)
        assert opt.assortment.ids == (1, 2)
        bound = compute_bounds(inst, 2, 0.01, opt)
        assert bound.f_value == pytest.approx(8 * 0.01 / 0.99, rel=1e-12)
        assert bound.max_offered_weight == bound.opt_weight

    def test_single_unit_weight_product(self):
        inst = Instance.of([(1, 1.0, 10.0)])
        opt = brute_force_opt(ExactMnlOracle(inst), inst.ids(), 1)
        bound = compute_bounds(inst, 1, 0.1, opt)
        assert bound.max_offered_weight == 2.0

    def test_holds_up_to_the_bound_and_is_none_when_vacuous(self):
        inst = Instance.of([(1, 1.0, 50.0), (2, 1.0, 50.0)])
        opt = brute_force_opt(ExactMnlOracle(inst), inst.ids(), 2)
        bound = compute_bounds(inst, 2, 0.01, opt)
        assert bound.holds(bound.f_value) is True
        assert bound.holds(math.nextafter(bound.f_value, 1.0)) is False
        # f = 1 promises nothing: every gap of a nonnegative revenue is at most 1
        assert dataclasses.replace(bound, f_value=1.0).holds(0.0) is None
        assert compute_bounds(inst, 2, 0.2, opt).holds(0.0) is None  # f = 8 * 0.2 / 0.8

    def test_eps_out_of_range_rejected(self):
        opt = brute_force_opt(ExactMnlOracle(THREE), THREE.ids(), 2)
        with pytest.raises(ValidationError):
            compute_bounds(THREE, 2, 1.0, opt)
        # at 1.0 the cap divides by zero, and past either end it is negative
        for eps in (1.0, 1.5, -0.1, math.nan):
            with pytest.raises(ValidationError) as exc:
                slack_cap(THREE, 2, eps)
            assert exc.value.code == "bad-noise"

    def test_exact_delta_cap_never_exceeds_closed_form(self):
        rng = random.Random(6)
        for trial in range(30):
            inst = random_instance(rng, rng.randint(1, 8))
            capacity = rng.randint(1, inst.n)
            eps = rng.choice([0.001, 0.01, 0.1])
            noise = NoiseSpec(mode="seeded-uniform", eps=eps, seed=trial)
            opt = brute_force_opt(ExactMnlOracle(inst), inst.ids(), capacity)
            bound = compute_bounds(inst, capacity, eps, opt)
            assert exact_delta_cap(inst, capacity, noise) <= bound.delta_cap + 1e-12

    def test_exact_delta_cap_tight_for_fixed_noise(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(1, 8))
            capacity = rng.randint(1, inst.n)
            noise = NoiseSpec(mode="fixed", eps=0.05)
            opt = brute_force_opt(ExactMnlOracle(inst), inst.ids(), capacity)
            bound = compute_bounds(inst, capacity, 0.05, opt)
            assert exact_delta_cap(inst, capacity, noise) == pytest.approx(
                bound.delta_cap, rel=1e-12
            )

    def test_exact_delta_cap_refuses_past_the_enumeration_cap(self):
        # N = 30, C = 8 would enumerate 8,656,937 assortments
        inst = generate_instance(GeneratorSpec(30, seed=1))
        with pytest.raises(EnumerationCapError, match="8656937 assortments exceeds the cap"):
            exact_delta_cap(inst, 8, NoiseSpec(mode="fixed", eps=0.01))


class TestMarginRevenueEquivalence:
    def test_identical_assortments_agree_with_equality(self):
        m = Assortment.of([1, 3])
        report = check_margin_revenue_equivalence(THREE, m, m)
        assert report.agree
        assert report.margin_1 == report.margin_2
        assert report.revenue_1 == report.revenue_2

    def test_singletons_example(self):
        report = check_margin_revenue_equivalence(
            THREE, Assortment.of([1]), Assortment.of([2])
        )
        assert report.revenue_1 == 5.0 and report.revenue_2 == 4.0
        assert report.margin_1 == 6.0 and report.margin_2 == 4.0
        assert report.agree

    def test_equivalence_on_random_pairs(self):
        rng = random.Random(2718)
        for _ in range(500):
            inst = random_instance(rng)
            m1 = random_assortment(rng, inst)
            m2 = random_assortment(rng, inst)
            assert check_margin_revenue_equivalence(inst, m1, m2).agree


class TestTraceInvariants:
    def test_empty_trace_has_no_violations(self):
        assert check_trace_invariants(THREE, [], 0.0) == []

    def test_exact_traces_clean_at_zero_slack(self):
        rng = random.Random(31415)
        for _ in range(60):
            inst = random_instance(rng, rng.randint(2, 9))
            capacity = rng.randint(1, inst.n)
            report = greedy_opt(
                GreedyConfig(0, capacity, capacity + 1),
                inst.ids(),
                ExactMnlOracle(inst),
                trace=True,
            )
            for _seed, records in report.traces:
                assert check_trace_invariants(inst, records, 0.0) == []

    def test_noisy_traces_clean_at_computed_slack(self):
        rng = random.Random(92653)
        for trial in range(60):
            inst = random_instance(rng, rng.randint(2, 9))
            capacity = rng.randint(1, inst.n)
            eps = rng.choice([0.001, 0.01])
            noise = NoiseSpec(mode="seeded-uniform", eps=eps, seed=trial)
            oracle = NoisyOracle(ExactMnlOracle(inst), noise)
            report = greedy_opt(
                GreedyConfig(0, capacity, capacity + 1), inst.ids(), oracle, trace=True
            )
            opt = brute_force_opt(ExactMnlOracle(inst), inst.ids(), capacity)
            delta_cap = compute_bounds(inst, capacity, eps, opt).delta_cap
            for _seed, records in report.traces:
                assert check_trace_invariants(inst, records, delta_cap) == []

    def test_detects_a_fabricated_bad_exchange(self):
        # drop product 1 even though at the new revenue (R({2,3}) = 5.142857)
        # its margin 4.857 is well above kept product 3's margin 3.4286
        record = IterationRecord(
            step_index=0,
            action="exchange",
            added=2,
            removed=1,
            revenue_after=0.0,  # ignored: the checker recomputes the true revenue
            assortment_before=Assortment.of([1, 3]),
            assortment_after=Assortment.of([2, 3]),
            pool_before=(2,),
            universe_size_after=1,
            exchange_out_counts={1: 1},
        )
        violations = check_trace_invariants(THREE, [record], 0.0)
        assert violations, "fabricated non-greedy exchange must be flagged"
        kinds = {v.kind for v in violations}
        assert "removed-not-weakest" in kinds

    def test_detects_a_fabricated_bad_addition(self):
        record = IterationRecord(
            step_index=0,
            action="add",
            added=2,  # product 1 in the pool has the higher margin
            removed=None,
            revenue_after=0.0,
            assortment_before=Assortment(),
            assortment_after=Assortment.of([2]),
            pool_before=(1, 2),
            universe_size_after=1,
            exchange_out_counts={},
        )
        violations = check_trace_invariants(THREE, [record], 0.0)
        assert [v.kind for v in violations] == ["entered-not-strongest"]
        # at u = R({2}) = 4 the margins w * (p - u) are 4 for product 2 and 6 for product 1
        assert violations[0].describe() == (
            "step 0 (add): entered-not-strongest vs product 1: chosen margin 4.0, "
            "other 6.0, allowed slack 4e-09"
        )


def product_loop_revenue(instance, assortment):
    """``mnl_revenue`` as it read products before ``Instance.products_of``: one id at a time."""
    terms, weights = [], [1.0]
    for product_id in assortment.ids:
        prod = instance.product(product_id)
        terms.append(prod.price * prod.weight)
        weights.append(prod.weight)
    return math.fsum(terms) / math.fsum(weights) if terms else 0.0


def enumerated_violations(instance, trace, delta_cap):
    """The loop ``check_trace_invariants`` runs only when a bound fails: every pool
    product, and for an exchange every member, compared one by one."""
    violations = []
    for record in trace:
        if record.action == "terminate":
            continue
        u = product_loop_revenue(instance, record.assortment_after)
        slack = delta_cap * u + FLOAT_SLACK * max(1.0, u)
        h_entered = scaled_margin(instance, record.added, u)
        for other in record.pool_before:
            h_other = scaled_margin(instance, other, u)
            if h_entered < h_other - slack:
                violations.append(TraceViolation(
                    record.step_index, record.action, "entered-not-strongest", other,
                    h_entered, h_other, slack,
                ))
        if record.action == "exchange":
            h_removed = scaled_margin(instance, record.removed, u)
            for member in record.assortment_before.ids:
                h_member = scaled_margin(instance, member, u)
                if h_removed > h_member + slack:
                    violations.append(TraceViolation(
                        record.step_index, record.action, "removed-not-weakest", member,
                        h_removed, h_member, slack,
                    ))
    return violations


def forged_records(instance, rng, count):
    """Every addition from the empty set, then ``count`` random exchanges (any member out)."""
    ids = list(instance.ids())
    for step, added in enumerate(ids):
        yield IterationRecord(step, "add", added, None, 0.0, Assortment(), Assortment.of([added]),
                              tuple(ids), len(ids) - 1, {})
    for step in range(len(ids), len(ids) + count):
        before = Assortment.of(rng.sample(ids, rng.randint(1, len(ids) - 1)))
        outside = [i for i in ids if i not in before]
        added, removed = rng.choice(outside), rng.choice(before.ids)
        yield IterationRecord(step, "exchange", added, removed, 0.0, before,
                              before.after_move(added, removed), tuple(outside), len(outside), {removed: 1})


class TestTraceInvariantsFastPath:
    """``check_trace_invariants`` lists what the enumerating loop lists, violation for violation."""

    DELTAS = [0.0, 1e-3, 0.5, math.inf, math.nan]

    @pytest.mark.parametrize("delta_cap", DELTAS)
    def test_ladders_put_violators_first_last_and_everywhere(self, delta_cap):
        # margins rise with the id on one ladder and fall on the other, so an
        # entered product's violators are the ids after it, before it, or all others
        rising = Instance.of([(i, 1.0, float(i)) for i in range(1, 9)])
        falling = Instance.of([(i, 1.0, float(9 - i)) for i in range(1, 9)])
        shapes = set()
        for inst in (rising, falling):
            records = list(forged_records(inst, random.Random(7), 40))
            found = check_trace_invariants(inst, records, delta_cap)
            assert found == enumerated_violations(inst, records, delta_cap)
            for record in records[: inst.n]:
                pool = [i for i in record.pool_before if i != record.added]
                flagged = [v.product_id for v in found
                           if v.step_index == record.step_index and v.kind == "entered-not-strongest"]
                if flagged and flagged == pool:
                    shapes.add("everywhere")
                elif flagged and flagged == pool[: len(flagged)]:
                    shapes.add("first")
                elif flagged and flagged == pool[-len(flagged):]:
                    shapes.add("last")
            if delta_cap in (0.0, 1e-3):
                assert any(v.kind == "removed-not-weakest" for v in found)
            elif not delta_cap < math.inf:  # an infinite or NaN slack flags nothing
                assert found == []
        if delta_cap in (0.0, 1e-3):
            assert shapes == {"first", "last", "everywhere"}

    @pytest.mark.parametrize("delta_cap", DELTAS)
    def test_random_forged_traces(self, delta_cap):
        rng = random.Random(4242)
        listed = 0
        for family in [random_instance, *TIE_FAMILIES, weights_one_ulp_apart]:
            for _ in range(15):
                inst = family(rng)
                if inst.n < 2:
                    continue
                records = list(forged_records(inst, rng, 10))
                found = check_trace_invariants(inst, records, delta_cap)
                assert found == enumerated_violations(inst, records, delta_cap)
                listed += len(found)
        assert listed > 0 or delta_cap != 0.0

    def test_greedy_traces(self):
        rng = random.Random(5150)
        for _ in range(20):
            inst = random_instance(rng, rng.randint(2, 12))
            capacity = rng.randint(1, inst.n)
            report = greedy_opt(GreedyConfig(0, capacity, capacity + 1), inst.ids(),
                                ExactMnlOracle(inst), trace=True)
            for _seed, records in report.traces:
                for delta_cap in (0.0, -0.5):  # a negative slack makes every step a violation
                    assert check_trace_invariants(inst, records, delta_cap) == enumerated_violations(
                        inst, records, delta_cap
                    )


class TestProductLookup:
    """Every reader of ``Instance.products_of`` gives, bit for bit, what it gave one id at a time."""

    @pytest.mark.parametrize("family", [*TIE_FAMILIES, weights_one_ulp_apart], ids=lambda f: f.__name__)
    def test_readers_match_the_per_id_expressions(self, family):
        rng = random.Random(8080)
        for _ in range(60):
            inst = family(rng)
            ids = list(inst.ids())
            for _ in range(5):
                m1 = Assortment.of(rng.sample(ids, rng.randint(0, len(ids))))
                m2 = Assortment.of(rng.sample(ids, rng.randint(0, len(ids))))
                r1, r2 = product_loop_revenue(inst, m1), product_loop_revenue(inst, m2)
                assert mnl_revenue(inst, m1).hex() == r1.hex()
                assert total_weight(inst, m1).hex() == math.fsum(
                    [1.0] + [inst.product(i).weight for i in m1.ids]
                ).hex()
                for u in (0.0, r2, rng.choice(inst.products).price, rng.uniform(0.0, 20.0)):
                    assert assortment_margin(inst, m1, u).hex() == math.fsum(
                        scaled_margin(inst, i, u) for i in m1.ids
                    ).hex()
                report = check_margin_revenue_equivalence(inst, m1, m2)
                assert [x.hex() for x in (report.revenue_1, report.revenue_2, report.margin_1,
                                          report.margin_2)] == [
                    r1.hex(), r2.hex(),
                    math.fsum(scaled_margin(inst, i, r2) for i in m1.ids).hex(),
                    math.fsum(scaled_margin(inst, i, r2) for i in m2.ids).hex(),
                ]

    def test_unknown_id_raises_as_product_does(self):
        assert [p.id for p in THREE.products_of([3, 1, 3])] == [3, 1, 3]
        for ids in ([9], [1, 9, 7], [None]):
            with pytest.raises(InvalidAssortmentError) as lookup:
                THREE.products_of(ids)
            with pytest.raises(InvalidAssortmentError) as one:
                [THREE.product(i) for i in ids]
            assert str(lookup.value) == str(one.value)
        with pytest.raises(InvalidAssortmentError, match="unknown product id 9"):
            mnl_revenue(THREE, Assortment.of([1, 9]))
        with pytest.raises(InvalidAssortmentError, match="unknown product id 9"):
            assortment_margin(THREE, Assortment.of([9]), 1.0)


class TestTraceBookkeeping:
    CONFIG = GreedyConfig(1, 2, 3)

    def seed_two_trace(self):
        # from seed {2}: add 1, exchange 2 out for 3, stop
        report = greedy_opt(self.CONFIG, THREE.ids(), ExactMnlOracle(THREE), trace=True)
        traces = dict((seed.ids, records) for seed, records in report.traces)
        assert [r.action for r in traces[(2,)]] == ["add", "exchange", "terminate"]
        return list(traces[(2,)])

    def problems(self, records):
        return trace_bookkeeping_problems(THREE.ids(), self.CONFIG, Assortment.of([2]), records)

    def test_honest_trace_replays(self):
        assert self.problems(self.seed_two_trace()) == []

    def test_truncated_trace(self):
        assert self.problems(self.seed_two_trace()[:-1]) == [
            "seed [2]: trace ends inside invocation 1"
        ]

    def test_record_past_the_last_invocation(self):
        records = self.seed_two_trace()
        assert self.problems(records + records[-1:]) == [
            "seed [2]: records after the last invocation (C - S = 1)"
        ]

    def test_exchange_out_of_a_non_member(self):
        records = self.seed_two_trace()
        records[1] = dataclasses.replace(records[1], removed=3)
        assert self.problems(records) == [
            "seed [2] step 1 (exchange): move not allowed from the replayed set and pool"
        ]

    def test_forged_exchange_out_counts(self):
        records = self.seed_two_trace()
        records[1] = dataclasses.replace(records[1], exchange_out_counts={})
        assert self.problems(records) == [
            "seed [2] step 1 (exchange): does not end where the replay of its seed ends"
        ]


class TestTopSetMonotonicity:
    """The top set's size does not grow with u, and below the optimum's revenue it lies
    between the optimum's size and the cap."""

    def test_equal_offsets_equal_sizes(self):
        assert len(top_margin_set(THREE, 2, 4.0)) == len(top_margin_set(THREE, 2, 4.0)) == 2

    def test_beyond_top_price_is_empty(self):
        assert len(top_margin_set(THREE, 2, 1.0)) >= len(top_margin_set(THREE, 2, 50.0)) == 0

    def test_random_offset_pairs(self):
        rng = random.Random(590)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(1, 9))
            size = rng.randint(1, inst.n)
            a = rng.uniform(0, 1.2 * max(p.price for p in inst.products))
            b = rng.uniform(0, 1.2 * max(p.price for p in inst.products))
            u1, u2 = min(a, b), max(a, b)
            opt = candidate_set_opt(inst, size)
            size1, size2 = (len(top_margin_set(inst, size, u)) for u in (u1, u2))
            assert size1 >= size2
            for u, top_size in ((u1, size1), (u2, size2)):
                if u <= opt.revenue:
                    assert len(opt.assortment) <= top_size <= size
