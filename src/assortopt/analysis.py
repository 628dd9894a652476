"""Noise-robustness bounds and runtime invariant checkers.

This module turns the solver's guarantees into executable checks:

* the margin-transform identity and its equivalence to revenue
  comparisons (checked pairwise),
* per-step near-optimality of greedy decisions, replayed from traces,
* the pool and budget bookkeeping of a trace, replayed from its seed,
* the quantities controlling the optimality gap under multiplicatively
  noisy oracles: the estimate-slack bound, the slack-set size (read off
  ``transform.event_sweep``), and the relative gap guarantee.

All functions are pure; reports are plain dataclasses ready for JSON
serialization.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, ValidationError
from .greedy import GreedyConfig, IterationRecord, accept_move
from .instance import Assortment, Instance
from .oracles import NoiseSpec, mnl_revenue, products_revenue, total_weight
from .reference import ExactSolution, assortment_count, check_enumeration
from .transform import (
    CONFIRM_BAND,
    event_sweep,
    product_margins,
    scaled_margin,
    scaled_margins,
    stretch_band,
)

#: Absolute-per-unit slack granted to trace checks for float rounding in
#: revenue argmax versus margin comparisons.
FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class GapBound:
    """Relative-gap guarantee for a noisy run, gap <= f_value (when < 1), and its ingredients."""

    eta: float
    f_value: float
    capacity: int
    eps_max: float
    max_offered_weight: float  # 1 + sum of the C largest weights
    opt_weight: float  # 1 + sum of weights in the optimal assortment
    delta_cap: float  # bound on the estimate slack over assortments of size <= C

    def holds(self, gap: float) -> bool | None:
        """Whether ``gap`` meets the guarantee; None when it is vacuous (f_value >= 1)."""
        return None if self.f_value >= 1.0 else gap <= self.f_value


def realized_gap(instance: Instance, assortment: Assortment, opt: ExactSolution) -> float:
    """Relative shortfall of ``assortment``'s exact revenue from the optimum's (0 if that is 0)."""
    if opt.revenue == 0.0:
        return 0.0
    return (opt.revenue - mnl_revenue(instance, assortment)) / opt.revenue


def compute_bounds(
    instance: Instance, capacity: int, eps_max: float, opt: ExactSolution
) -> GapBound:
    """Gap guarantee for oracles that underestimate by at most ``eps_max``.

    eta = 4 * C * eps / (1 - eps); the guarantee scales eta by the ratio of
    the heaviest possible offered weight to the optimum's weight. The
    estimate-slack cap is max_offered_weight * eps / (1 - eps), and
    ``slack_cap`` refuses an ``eps_max`` outside [0, 1) before eta is computed.
    """
    heaviest = 1.0 + instance.top_weight_sum(capacity)
    opt_weight = total_weight(instance, opt.assortment)
    delta_cap = slack_cap(instance, capacity, eps_max)
    eta = 4.0 * capacity * eps_max / (1.0 - eps_max)
    f_value = (heaviest / opt_weight) * eta
    return GapBound(
        eta=eta,
        f_value=f_value,
        capacity=capacity,
        eps_max=eps_max,
        max_offered_weight=heaviest,
        opt_weight=opt_weight,
        delta_cap=delta_cap,
    )


def slack_cap(instance: Instance, capacity: int, eps: float) -> float:
    """Closed-form estimate-slack cap (1 + top C weights) * eps / (1 - eps); an eps
    outside [0, 1) (NaN too) is ``bad-noise``."""
    if not 0.0 <= eps < 1.0:
        raise ValidationError("eps must lie in [0, 1)", code="bad-noise")
    return (1.0 + instance.top_weight_sum(capacity)) * eps / (1.0 - eps)


def exact_delta_cap(instance: Instance, capacity: int, noise: NoiseSpec) -> float:
    """Exact estimate-slack maximum over all assortments of size <= capacity.

    delta(M) = eps(M) * w(M) / (1 - eps(M)) depends on the noise draw for
    each assortment, so this enumerates them all; affordable only at desk
    scale (the closed-form cap in ``compute_bounds`` is what the guarantee
    uses), and refuses past ``check_enumeration``'s cap.
    """
    ids = instance.ids()
    capacity = min(capacity, len(ids))
    check_enumeration(assortment_count(len(ids), capacity))
    worst = 0.0
    for k in range(capacity + 1):
        for members in itertools.combinations(ids, k):
            assortment = Assortment(members)
            eps = noise.epsilon(assortment)
            worst = max(worst, eps * total_weight(instance, assortment) / (1.0 - eps))
    return worst


def max_slack_set_size(instance: Instance, size: int, delta: float) -> int:
    """Largest slack-set cardinality over all positive offsets.

    The slack set at offset u is the top set plus every product whose
    margin trails the top set's weakest member (the anchor) by at most
    delta * u. Its size is piecewise constant between breakpoints (margin
    crossings, zero crossings, and delta-shifted crossings), so one offset
    inside every interval maximizes over the regions exactly. The maximum
    is taken over the runs of equal value of ``transform.event_sweep``,
    which walks the events in order and ranks about once per run, from the
    crossings its deciding comparisons name: those of the top list, and the
    anchor against every outsider at shift delta. It stops where no later
    slack set can be larger: a product heavier than delta leaves every
    slack set for good once its margin trails zero by more than delta * u,
    so the products not yet past that cutoff bound every later size.
    Isolated tie points at the breakpoints themselves are not counted: the
    size there exceeds the neighboring regions only by exact-tie
    coincidences, which is also what keeps this in agreement with a dense
    grid scan. Offsets with an empty top set contribute nothing.
    ``delta`` must be a number >= 0 (inf allowed: every product joins).
    """
    if not delta >= 0:
        raise ConfigError(f"delta must be >= 0, got {delta!r}")
    # a product of weight w > delta is in the slack set at u only while its margin is within
    # delta * u of a positive one: p * w - u * (w - delta) >= 0, up to rounding, which the
    # band covers. Past its cutoff it is out at every larger offset, so once the products
    # not yet past theirs are no more than the largest slack set seen, the sweep can stop
    base, per_unit = stretch_band(instance)
    per_unit += CONFIRM_BAND * delta
    always, cutoffs = 0, []
    for p in instance.products:
        slope = p.weight - delta - per_unit
        if slope > 0.0:
            cutoffs.append((p.price * p.weight + base) / slope)
        else:
            always += 1
    cutoffs.sort()
    largest = 0
    for u, (_, slack) in event_sweep(instance, size, delta):
        largest = max(largest, len(slack))
        if always + len(cutoffs) - bisect_left(cutoffs, u) <= largest:
            break
    return largest


@dataclass(frozen=True)
class EquivalenceReport:
    """Margin comparison versus revenue comparison for one assortment pair.

    The margin of each assortment is taken at the second one's revenue;
    the ordering there must match the revenue ordering exactly.
    """

    m1: Assortment
    m2: Assortment
    revenue_1: float
    revenue_2: float
    margin_1: float
    margin_2: float

    @property
    def agree(self) -> bool:
        return (self.margin_1 >= self.margin_2) == (self.revenue_1 >= self.revenue_2)


def check_margin_revenue_equivalence(
    instance: Instance, m1: Assortment, m2: Assortment
) -> EquivalenceReport:
    """Evaluate both sides of the comparison equivalence for one pair: each set's
    ``mnl_revenue`` and its ``assortment_margin`` at the second one's revenue, from one
    lookup of its products."""
    first, second = instance.products_of(m1.ids), instance.products_of(m2.ids)
    r2 = products_revenue(second)
    return EquivalenceReport(
        m1=m1,
        m2=m2,
        revenue_1=products_revenue(first),
        revenue_2=r2,
        margin_1=math.fsum(product_margins(first, r2)),
        margin_2=math.fsum(product_margins(second, r2)),
    )


@dataclass(frozen=True)
class TraceViolation:
    """One failed per-step near-optimality inequality."""

    step_index: int
    action: str
    kind: str  # "removed-not-weakest" | "entered-not-strongest"
    product_id: int
    margin_chosen: float
    margin_other: float
    slack: float

    def describe(self) -> str:
        return (
            f"step {self.step_index} ({self.action}): {self.kind} vs product "
            f"{self.product_id}: chosen margin {self.margin_chosen!r}, "
            f"other {self.margin_other!r}, allowed slack {self.slack!r}"
        )


def check_trace_invariants(
    instance: Instance,
    trace: list[IterationRecord] | tuple[IterationRecord, ...],
    delta_cap: float,
) -> list[TraceViolation]:
    """Replay a greedy trace against the per-step near-optimality bounds.

    At each accepted step, with u the exact revenue of the new assortment:
    the product brought in must have margin within delta_cap * u of every
    pool product's, and (for exchanges) the product dropped must have
    margin within delta_cap * u above every pre-step member's. The exact
    revenue is recomputed from the instance, so the check is meaningful
    for noisy traces too; ``FLOAT_SLACK`` (scaled by max(1, u)) absorbs
    rounding differences between revenue argmax and margin comparison.
    """
    violations: list[TraceViolation] = []
    for record in trace:
        if record.action == "terminate":
            continue
        u = mnl_revenue(instance, record.assortment_after)
        slack = delta_cap * u + FLOAT_SLACK * max(1.0, u)
        pool = record.pool_before
        # the entered product leads the pool by the slack; an exchange's removed product
        # trails the members by it, which is the same test on negated margins (-(b + s)
        # rounds to -b - s). A violation reports its margins times ``sign``: unnegated
        sides = [(1.0, "entered-not-strongest", scaled_margin(instance, record.added, u),
                  pool, scaled_margins(instance, pool, u))]
        if record.action == "exchange":
            members = record.assortment_before.ids
            sides.append((-1.0, "removed-not-weakest", -scaled_margin(instance, record.removed, u),
                          members, [-h for h in scaled_margins(instance, members, u)]))
        for sign, kind, h_chosen, others, h_others in sides:
            # no margin beats the chosen one by more than the slack when the
            # largest does not; only otherwise (a NaN included) are they listed
            if h_others and h_chosen >= max(h_others) - slack:
                continue
            violations.extend(
                TraceViolation(record.step_index, record.action, kind, other,
                               sign * h_chosen, sign * h_other, slack)
                for other, h_other in zip(others, h_others)
                if h_chosen < h_other - slack
            )
    return violations


def trace_bookkeeping_problems(
    universe: Sequence[int],
    config: GreedyConfig,
    seed: Assortment,
    trace: list[IterationRecord] | tuple[IterationRecord, ...],
) -> list[str]:
    """Where one seed's trace departs from a replay of its pool and budget bookkeeping.

    Replays the seed's C - S add-exchange invocations from ``seed``, each
    starting fresh: every product outside the set in the pool, no
    exchange-outs, room for one addition. Each record must start where the
    replay stands (its step index, ``assortment_before`` and
    ``pool_before``), take a pool product in, drop a member (exchange) or
    nothing with room under the size cap (add), and end where the replay
    ends (``assortment_after``, ``universe_size_after`` and
    ``exchange_out_counts``). Each invocation ends in a terminate record,
    and nothing follows the last. Returns the first departure only, since
    the replay cannot go on past it.
    """
    ids = sorted(set(universe))
    invocations = config.capacity - config.seed_size
    records = enumerate(trace)
    current = seed
    for invocation in range(1, invocations + 1):
        members = set(current.ids)
        pool = [i for i in ids if i not in members]
        outs: dict[int, int] = {}
        size_cap = len(current) + 1
        for position, record in records:
            where = f"seed {list(seed.ids)} step {record.step_index} ({record.action})"
            starts = (
                record.step_index == position
                and record.assortment_before == current
                and record.pool_before == tuple(pool)
            )
            if not starts:
                return [f"{where}: does not start where the replay of its seed stands"]
            if record.action == "terminate":
                legal = record.added is None and record.removed is None
            elif record.action == "exchange":
                legal = record.added in pool and record.removed in current.ids
            else:
                legal = record.added in pool and record.removed is None and len(current) < size_cap
            if not legal:
                return [f"{where}: move not allowed from the replayed set and pool"]
            if record.action != "terminate":
                accept_move(pool, outs, record.added, record.removed, config.exchange_budget)
                current = current.after_move(record.added, record.removed)
            ends = (
                record.assortment_after == current
                and record.universe_size_after == len(pool)
                and dict(record.exchange_out_counts) == outs
            )
            if not ends:
                return [f"{where}: does not end where the replay of its seed ends"]
            if record.action == "terminate":
                break
        else:
            return [f"seed {list(seed.ids)}: trace ends inside invocation {invocation}"]
    if next(records, None) is not None:
        return [f"seed {list(seed.ids)}: records after the last invocation (C - S = {invocations})"]
    return []
