"""Greedy add-exchange search for capacitated assortment optimization.

The inner routine grows an assortment by at most one product per
invocation while allowing any number of revenue-improving exchanges,
with a per-product cap ``b`` on exchange-outs so the loop provably
terminates. The outer solver seeds the routine with every subset of a
chosen size ``S`` (just the empty set for S = 0), applies it ``C - S``
times per seed, and keeps the best final assortment.

Every candidate move is scored through the revenue oracle alone, one
batch per loop pass (``oracles.best_move``, the first best of
``oracles.score_moves``, which receives the pass as a read-only
``oracles.MovePass``), so the search works with any plugged-in
choice model, exact or noisy. ``evaluate`` must be a pure function of the
set: the solver confirms a batch's best values through it, and it does
not score again what a pass has already settled.

After a pass accepts a move, the next pass skips every move that takes
the entering product out again or brings the leaving product back: each
reaches a set the accepting pass scored, or skipped as settled, from the
set before, or that set itself, and none of them beat the accepted
revenue.

Each invocation after a seed's first starts from the set where the
previous one's terminating pass found no improving move, and so does a
seed that equals the previous seed's final set. Its first pass therefore
scores only the moves that pass did not: those whose entering product
the previous invocation had retired, plus every addition when that pass
sat at its size cap. It takes the carried revenue instead of evaluating
the set again. In both cases every skipped move scored at most the
revenue it must beat and would score the same again, so the accepted
moves, their tie-breaks and the trace are those of scoring every move;
only fewer moves reach the oracle and its call counter.

A pure addition-only baseline is included for comparison; it is exactly
the strategy that breaks when the optimum at one capacity is not nested
in the optimum at a larger capacity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .instance import Assortment, optimum_key
from .oracles import CountingOracle, MovePass, RevenueOracle, best_move


@dataclass(frozen=True)
class GreedyConfig:
    """Solver parameters: seed size S, capacity C, exchange-out budget b."""

    seed_size: int
    capacity: int
    exchange_budget: int

    def validate(self, n: int) -> None:
        if not 0 <= self.seed_size <= self.capacity <= n:
            raise ConfigError(
                f"need 0 <= S <= C <= N, got S={self.seed_size} C={self.capacity} N={n}"
            )
        if self.exchange_budget < 1:
            raise ConfigError(f"exchange budget must be >= 1, got {self.exchange_budget}")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted step (or the final termination) of the add-exchange loop.

    ``pool_before`` and ``assortment_before`` capture the state the step's
    argmax ranged over, which is exactly what the trace-invariant checker
    quantifies across. ``exchange_out_counts`` is the post-step snapshot of
    per-product exchange-out counters for the current invocation.
    """

    step_index: int
    action: str  # "add" | "exchange" | "terminate"
    added: int | None
    removed: int | None
    revenue_after: float
    assortment_before: Assortment
    assortment_after: Assortment
    pool_before: tuple[int, ...]
    universe_size_after: int
    exchange_out_counts: Mapping[int, int]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a full greedy solve."""

    best_assortment: Assortment
    best_oracle_revenue: float
    oracle_calls: int
    seeds_explored: int
    traces: tuple[tuple[Assortment, tuple[IterationRecord, ...]], ...] | None = None
    # the most times any product was exchanged out within one invocation;
    # None when unknown (a report read back from JSON)
    max_exchange_outs: int | None = None


@dataclass(frozen=True)
class _SettledPass:
    """What an invocation's terminating pass showed cannot beat ``revenue``.

    Every exchange of a ``pool`` product for a member of ``assortment``, the
    set the pass ended at, and, when ``adds``, every addition of a ``pool``
    product. The pass scored these moves, or skipped those that undo the
    move accepted before it, which the pass before it had settled.
    ``max_outs`` is the invocation's largest exchange-out count.
    """

    assortment: Assortment
    revenue: float
    pool: frozenset[int]
    adds: bool
    max_outs: int


def _best_move(
    current: Assortment, moves: MovePass, oracle: RevenueOracle
) -> tuple[float, Assortment, int, int | None] | None:
    """Score one pass's moves; return (revenue, assortment, entering, leaving).

    The pass is scored in one ``best_move`` call, the first largest of its
    ``score_moves`` values. The winner minimizes (-revenue, is_add,
    entering, leaving): on equal revenue an exchange beats an addition, then
    the smaller entering id wins, then the smaller leaving id. With
    ascending pools and members a ``MovePass`` lists its moves in exactly
    that order, so the first best value wins. Returns None when there is no
    move.
    """
    if not moves:
        return None
    index, rev = best_move(oracle, current, moves)
    entering, leaving = moves[index]
    return rev, current.after_move(entering, leaving), entering, leaving


def accept_move(
    pool: list[int], outs: dict[int, int], entering: int, leaving: int | None, budget: int
) -> None:
    """Update an invocation's ascending pool and exchange-out counts for an accepted move.

    The entering product leaves the pool. A product exchanged out returns
    to it until it has been exchanged out ``budget`` times; then it is
    retired for the rest of the invocation.
    """
    pool.remove(entering)
    if leaving is not None:
        outs[leaving] = outs.get(leaving, 0) + 1
        if outs[leaving] < budget:
            pool.append(leaving)
            pool.sort()


def _run_add_exchange(
    start: Assortment,
    universe: Sequence[int],
    budget: int,
    oracle: RevenueOracle,
    trace: bool,
    first_step: int = 0,
    settled: _SettledPass | None = None,
) -> tuple[Assortment, list[IterationRecord], _SettledPass]:
    """One invocation of the add-exchange loop.

    Returns the final set, the step records and what the terminating pass
    settled, the final revenue included. ``settled`` is the previous
    invocation's terminating pass. When it ended at ``start``, the first
    pass skips the moves it settled and ``start`` is not evaluated again.

    After a move brings ``x`` in for ``z`` (None for an addition), the next
    pass skips every move that takes ``x`` out or brings ``z`` back.
    """
    current = start
    pool = sorted(set(universe) - set(start.ids))
    outs: dict[int, int] = {}
    size_cap = len(start) + 1
    if settled is None or settled.assortment != start:
        current_rev = oracle.evaluate(current)
        moves = MovePass(pool, current.ids, pool)
    else:
        # the products retired last time are back in the pool, and unsettled
        current_rev = settled.revenue
        fresh = [entering for entering in pool if entering not in settled.pool]
        moves = MovePass(fresh, current.ids, fresh if settled.adds else pool)
    records: list[IterationRecord] = []
    step = first_step

    while True:
        pool_before = tuple(pool) if trace else ()
        previous = current
        move = _best_move(current, moves, oracle)
        if move is not None and move[0] > current_rev:
            current_rev, current, entering, leaving = move
            action = "add" if leaving is None else "exchange"
            accept_move(pool, outs, entering, leaving, budget)
        else:
            action, entering, leaving = "terminate", None, None
        if trace:
            records.append(
                IterationRecord(
                    step_index=step,
                    action=action,
                    added=entering,
                    removed=leaving,
                    revenue_after=current_rev,
                    assortment_before=previous,
                    assortment_after=current,
                    pool_before=pool_before,
                    universe_size_after=len(pool),
                    exchange_out_counts=dict(outs),
                )
            )
        if action == "terminate":
            settles = _SettledPass(
                current,
                current_rev,
                frozenset(pool),
                len(current) < size_cap,
                max(outs.values(), default=0),
            )
            return current, records, settles
        step += 1
        unsettled = [entering for entering in pool if entering != leaving]
        moves = MovePass(
            unsettled,
            [member for member in current.ids if member != entering],
            unsettled if len(current) < size_cap else (),
        )


def greedy_add_exchange(
    start: Assortment,
    universe: Iterable[int],
    budget: int,
    oracle: RevenueOracle,
    trace: bool = False,
) -> tuple[Assortment, list[IterationRecord]]:
    """Grow ``start`` by at most one product via greedy additions and exchanges.

    Each loop pass scores every exchange (pool product in, member out) and
    every addition while the size budget is open (one net addition per
    invocation) through the oracle, less the moves that undo the last
    accepted one, then accepts the best strictly improving move; on equal
    revenue an exchange beats an addition. A product exchanged out returns
    to the pool until it has been exchanged out ``budget`` times, after
    which it is retired; the loop stops when the pool empties or no move
    improves.
    """
    if budget < 1:
        raise ConfigError(f"exchange budget must be >= 1, got {budget}")
    final, records, _settles = _run_add_exchange(
        start, sorted(set(universe)), budget, oracle, trace
    )
    return final, records


def greedy_opt(
    config: GreedyConfig,
    universe: Iterable[int],
    oracle: RevenueOracle,
    trace: bool = False,
) -> SolveReport:
    """Run the seeded greedy search and return the best assortment found.

    Every size-S subset of the universe is used as a seed (one empty seed
    for S = 0); each seed receives C - S add-exchange invocations. The
    report carries the oracle-call count measured across the whole run and,
    with ``trace`` on, the per-seed step records. Ties across seeds break
    toward the lexicographically smallest id tuple.

    Steps never shrink an assortment, so every result has at least S
    members; an optimum smaller than S is unreachable. S = 0 is therefore
    the safe default and the setting under which exact recovery is
    guaranteed with an exact oracle and budget >= C + 1.
    """
    ids = sorted(set(universe))
    config.validate(len(ids))
    counting = CountingOracle(oracle)

    best: tuple[Assortment, float] | None = None
    traces: list[tuple[Assortment, tuple[IterationRecord, ...]]] = []
    seeds_explored = 0
    max_outs = 0
    settled: _SettledPass | None = None

    for seed_ids in itertools.combinations(ids, config.seed_size):
        seeds_explored += 1
        seed = Assortment(seed_ids)
        current = seed
        records: list[IterationRecord] = []
        for _ in range(config.capacity - config.seed_size):
            current, recs, settled = _run_add_exchange(
                current, ids, config.exchange_budget, counting, trace, len(records), settled
            )
            records.extend(recs)
            max_outs = max(max_outs, settled.max_outs)
        # S == C: no invocations, score the seed itself
        rev = counting.evaluate(current) if settled is None else settled.revenue
        if trace:
            traces.append((seed, tuple(records)))
        best = (current, rev) if best is None else min(best, (current, rev), key=optimum_key)

    assert best is not None
    return SolveReport(
        best_assortment=best[0],
        best_oracle_revenue=best[1],
        oracle_calls=counting.stats.call_count,
        seeds_explored=seeds_explored,
        traces=tuple(traces) if trace else None,
        max_exchange_outs=max_outs,
    )


def naive_greedy(capacity: int, universe: Iterable[int], oracle: RevenueOracle) -> Assortment:
    """Pure-addition greedy baseline.

    Adds the revenue-maximizing product (ties to the smallest id) while the
    improvement is strictly positive, stopping at ``capacity``. Succeeds
    only when optima nest across capacities, which MNL instances do not
    guarantee.
    """
    current = Assortment()
    current_rev = oracle.evaluate(current)
    pool = sorted(set(universe))
    while len(current) < capacity:
        move = _best_move(current, MovePass((), current.ids, pool), oracle)
        if move is None or move[0] <= current_rev:
            break
        current_rev, current, entering, _leaving = move
        pool.remove(entering)
    return current


def call_count_bound(n: int, config: GreedyConfig) -> int:
    """Analytic cap on oracle calls for a full greedy solve.

    Each of the binom(N, S) seeds runs C - S invocations, each invocation
    at most N*b + 1 loop passes, each pass at most C*N + N oracle calls.
    A pass that skips settled moves, or the moves undoing the last accepted
    one, scores fewer, so this stays an upper bound;
    ``SolveReport.oracle_calls`` counts the moves actually scored. At S = C
    there are no invocations and each seed is scored once, so the cap is
    binom(N, S) and the count equals it.
    """
    s, c, b = config.seed_size, config.capacity, config.exchange_budget
    return comb(n, s) * max(1, (c - s) * (n * b + 1) * (c * n + n))


def same_run_under_budget(report: SolveReport, budget: int, other: int) -> bool:
    """True when ``report``, solved with exchange budget ``budget``, is also the run at ``other``.

    The budget enters the search only where ``accept_move`` retires a
    product on its ``budget``-th exchange-out. When no product reached
    ``min(budget, other)`` exchange-outs, neither budget retires one, so
    both runs accept the same moves, score the same sets and return equal
    reports, traces included. An unknown count certifies nothing.
    """
    outs = report.max_exchange_outs
    return outs is not None and outs < min(budget, other)
