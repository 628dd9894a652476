"""Revenue oracles for the multinomial-logit choice model.

The solver only ever talks to an oracle through ``evaluate(assortment) ->
float``, so any choice model can be plugged in. ``evaluate`` must be a pure
function of the set: ``score_moves`` below confirms a batch's best values
through it, and the greedy solver does not score again a move that an
earlier pass has settled. An oracle may also offer
``score_moves(current, moves)``, estimates for a whole pass of moves that
need only be accurate to rounding. The solver passes ``moves`` as a
``MovePass``, which the built-in oracles score straight from its pools and
any other oracle may read as the list of its (entering, leaving) pairs.
``score_moves`` and ``best_move`` below confirm the estimates that could
win through ``evaluate``, and fall back to it for oracles without the method.

Each built-in oracle is made by its constructor, and ``make_oracle`` picks
the exact or the noisy one from a ``NoiseSpec``:

* ``ExactMnlOracle(instance)``: exact MNL expected revenue,
* ``NoisyOracle(base, spec)``: deterministic multiplicative noise that
  underestimates the base value by a per-assortment factor in ``[0, eps]``,
* ``CountingOracle(base)``: call counts in ``stats``, to verify oracle-call bounds.

Oracles are immutable after construction and safe for concurrent reads;
the counting wrapper guards its statistics with a lock.
"""

from __future__ import annotations

import hashlib
import math
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import Iterable, Iterator, Protocol

from .errors import InvalidAssortmentError, ValidationError
from .instance import Assortment, Instance

NOISE_MODES = ("none", "fixed", "seeded-uniform")

#: Relative distance below a batch's best estimate within which ``score_moves``
#: re-evaluates values through ``evaluate``. Far wider than the rounding error
#: of batched sums (a few ulps per member), so the true best move is in it.
CONFIRM_BAND = 1e-9

#: An (entering, leaving) product pair; ``leaving`` None is an addition.
Move = tuple[int, "int | None"]


class MovePass(Sequence):
    """One search pass's moves as a read-only sequence of ``Move`` pairs.

    Every exchange of an ``exchange_pool`` product for a ``members`` product,
    in (entering, leaving) order, then the addition of each ``add_pool``
    product. The three tuples are all it stores, so the built-in oracles
    score a pass straight from them; any other reader sees a sequence
    equal, item for item, to the list of those pairs.
    """

    __slots__ = ("exchange_pool", "members", "add_pool", "_exchanges")

    def __init__(self, exchange_pool: Sequence[int], members: Sequence[int], add_pool: Sequence[int]):
        self.exchange_pool = tuple(exchange_pool)
        self.members = tuple(members)
        self.add_pool = tuple(add_pool)
        self._exchanges = len(self.exchange_pool) * len(self.members)

    def __len__(self) -> int:
        return self._exchanges + len(self.add_pool)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = operator.index(index)
        size = self._exchanges + len(self.add_pool)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("move index out of range")
        if index < self._exchanges:
            entering, leaving = divmod(index, len(self.members))
            return self.exchange_pool[entering], self.members[leaving]
        return self.add_pool[index - self._exchanges], None

    def __iter__(self) -> Iterator[Move]:
        return chain(product(self.exchange_pool, self.members), zip(self.add_pool, repeat(None)))


class RevenueOracle(Protocol):
    """Anything with ``evaluate(assortment) -> float`` is an oracle."""

    def evaluate(self, assortment: Assortment) -> float: ...


def score_moves(oracle: RevenueOracle, current: Assortment, moves: Sequence[Move]) -> list[float]:
    """Revenue of ``current.after_move(entering, leaving)`` for each move.

    Takes the estimates of the oracle's own ``score_moves(current, moves)``
    when it has one, which need only be accurate to rounding, and replaces
    the largest, and every one within ``CONFIRM_BAND`` of it, by what
    ``evaluate`` returns for that candidate. Without the method it calls
    ``evaluate`` on each candidate in order. Each move counts as one oracle
    call: a ``CountingOracle`` records the batch, then its base scores and
    confirms it, so confirmations are never counted.

    Values in the band are exact. The others are estimates, except that a
    seeded-uniform ``NoisyOracle`` gives the moves that cannot win their
    noise-free value, an upper bound that stays below the band's floor.
    Either way no value outside the band can be the best, so the argmax and
    its tie-break are those of ``evaluate``.
    """
    return _confirmed_scores(oracle, current, moves)[0]


def best_move(oracle: RevenueOracle, current: Assortment, moves: Sequence[Move]) -> tuple[int, float]:
    """Index and value of the first largest of ``score_moves(oracle, current, moves)``.

    ``moves`` must not be empty. Every value outside the confirm band is an
    estimate below the band's floor (a NaN first estimate leaves no band), so
    when the band's best value reaches the floor it is the largest of all
    and no earlier value ties it. Only otherwise (no batched scorer, an
    empty band, a confirmation below the floor or NaN) are all the values
    ranked.
    """
    values, band, floor = _confirmed_scores(oracle, current, moves)
    best = max(band, key=values.__getitem__) if band else None
    if best is None or not values[best] >= floor:
        best = values.index(max(values))
    return best, values[best]


def _confirmed_scores(
    oracle: RevenueOracle, current: Assortment, moves: Sequence[Move]
) -> tuple[list[float], list[int], float]:
    """``score_moves``' values, the ascending indices it confirmed through
    ``evaluate`` and the floor of that band (no band without a batched scorer)."""
    if isinstance(oracle, CountingOracle):
        oracle.stats.record_moves(current, moves)
        oracle = oracle.base
    batched = getattr(oracle, "score_moves", None)
    if batched is None:
        return _evaluate_moves(oracle, current, moves), [], math.inf
    values = list(batched(current, moves))
    top = max(values, default=0.0)
    floor = top - CONFIRM_BAND * abs(top)
    band = [i for i, value in enumerate(values) if value >= floor]
    for i in band:
        values[i] = oracle.evaluate(current.after_move(*moves[i]))
    return values, band, floor


def _evaluate_moves(oracle: RevenueOracle, current: Assortment, moves: Sequence[Move]) -> list[float]:
    return [oracle.evaluate(current.after_move(entering, leaving)) for entering, leaving in moves]


def mnl_revenue(instance: Instance, assortment: Assortment) -> float:
    """Exact MNL expected revenue of an offer set.

    sum(p_i * w_i) / (1 + sum(w_i)) over the members; 0 for the empty set.
    Unknown product ids raise InvalidAssortmentError.
    """
    terms = []
    weights = [1.0]
    for prod in instance.products_of(assortment.ids):
        terms.append(prod.price * prod.weight)
        weights.append(prod.weight)
    if not terms:
        return 0.0
    return math.fsum(terms) / math.fsum(weights)


@dataclass(frozen=True)
class NoiseSpec:
    """How an oracle's values are degraded, at one noise level ``eps`` in [0, 1).

    mode "none": passthrough, and ``eps`` and ``seed`` must be 0. mode
    "fixed": every assortment is scaled by (1 - eps). mode "seeded-uniform":
    each assortment gets its own factor (1 - eps(M)) with eps(M) in [0, eps], a
    pure function of (seed, canonical encoding) -- repeated queries of the
    same assortment always see the same value, within a run and across
    runs. In every mode ``eps`` bounds the underestimation, which is all the
    gap guarantee reads.
    """

    mode: str = "none"
    eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValidationError(f"unknown noise mode {self.mode!r}", code="bad-noise")
        if self.mode == "none" and self.eps != 0.0:
            raise ValidationError(
                f"eps {self.eps!r} needs noise mode fixed or seeded-uniform", code="bad-noise"
            )
        if self.mode == "none" and self.seed != 0:
            raise ValidationError(f"noise mode 'none' takes seed 0, not {self.seed!r}", code="bad-noise")
        if not 0.0 <= self.eps < 1.0:
            raise ValidationError("eps must lie in [0, 1)", code="bad-noise")

    def epsilon(self, assortment: Assortment) -> float:
        """Relative underestimation factor for one assortment."""
        if self.mode != "seeded-uniform":  # fixed, or none at eps 0
            return self.eps
        return self.eps * _unit_hashes(self.seed, [assortment.encode()])[0]

    def move_epsilons(self, current: Assortment, moves: Sequence[Move]) -> list[float]:
        """``epsilon(current.after_move(*move))`` for each move, bit for bit."""
        if self.mode != "seeded-uniform":  # the factor does not depend on the set
            return [self.eps] * len(moves)
        return [self.eps * unit for unit in _unit_hashes(self.seed, current.encode_moves(moves))]


def _unit_hashes(seed: int, encodings: Iterable[str]) -> list[float]:
    """Deterministic map of (seed, encoding) into [0, 1), for each encoding.

    Keyed BLAKE2 keeps the value stable across platforms, processes and
    Python versions (never the builtin ``hash``).
    """
    keyed = hashlib.blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    units = []
    for encoding in encodings:
        state = keyed.copy()
        state.update(encoding.encode("ascii"))
        units.append(int.from_bytes(state.digest(), "little") / 2.0**64)
    return units


class ExactMnlOracle:
    """Pure, deterministic oracle returning exact MNL revenue."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self._terms = {p.id: p.price * p.weight for p in instance.products}
        self._weights = {p.id: p.weight for p in instance.products}

    def evaluate(self, assortment: Assortment) -> float:
        return mnl_revenue(self.instance, assortment)

    def score_moves(self, current: Assortment, moves: Sequence[Move]) -> list[float]:
        """Estimated ``evaluate``: one division per move over leave-one-out member sums.

        A ``MovePass`` and any other sequence read the same sums per leaver, so
        each value comes from the same expression and the two agree bit for bit.
        """
        terms, weights = self._terms, self._weights
        members = current.ids
        try:
            member_terms = list(map(terms.__getitem__, members))
            member_weights = list(map(weights.__getitem__, members))
            position = {member: j for j, member in enumerate(members)}

            def less(leaving):
                # current's sums less ``leaving`` (nobody if no member); all terms >= 0, so nothing cancels
                j = position.get(leaving, len(members))
                return (math.fsum(member_terms[:j] + member_terms[j + 1:]),
                        math.fsum([1.0] + member_weights[:j] + member_weights[j + 1:]))

            if not isinstance(moves, MovePass):
                sums = {leaving: less(leaving) for leaving in (None, *members)}
                return [(sums[leaving][0] + terms[entering]) / (sums[leaving][1] + weights[entering])
                        for entering, leaving in moves]
            pool = moves.exchange_pool
            leavers = [less(leaving) for leaving in moves.members] if pool else ()
            values = [  # entering-major, as the pass lists its exchanges
                (numerator + term) / (denominator + weight)
                for term, weight in zip(map(terms.__getitem__, pool), map(weights.__getitem__, pool))
                for numerator, denominator in leavers
            ]
            if moves.add_pool:
                numerator, denominator = less(None)
                values += [(numerator + terms[entering]) / (denominator + weights[entering])
                           for entering in moves.add_pool]
            return values
        except KeyError as exc:
            raise InvalidAssortmentError(f"unknown product id {exc.args[0]}") from None


class NoisyOracle:
    """Wraps a base oracle, returning (1 - eps(M)) * base(M)."""

    def __init__(self, base: RevenueOracle, spec: NoiseSpec):
        self.base = base
        self.spec = spec

    def evaluate(self, assortment: Assortment) -> float:
        return (1.0 - self.spec.epsilon(assortment)) * self.base.evaluate(assortment)

    def score_moves(self, current: Assortment, moves: Sequence[Move]) -> list[float]:
        """The base's estimates, each scaled by its set's noise factor.

        In "seeded-uniform" mode only the moves whose base estimate reaches
        ``(1 - eps) * top * (1 - 4 * CONFIRM_BAND)``, ``top`` being the
        largest base estimate, are hashed and scaled. Every other move keeps
        its base estimate. For a nonnegative base that is at least its noisy
        value, to rounding, and it lies below the confirm band's floor,
        because the move with base value ``top`` scores at least
        ``(1 - eps) * top``. So the band, its confirmations and the
        argmax are those of the unpruned batch, bit for bit.
        """
        batched = getattr(self.base, "score_moves", None)
        base = batched(current, moves) if batched else _evaluate_moves(self.base, current, moves)
        spec = self.spec
        if spec.mode != "seeded-uniform":
            epsilons = spec.move_epsilons(current, moves)
            return [(1.0 - eps) * value for eps, value in zip(epsilons, base)]
        top = max(base, default=0.0)
        # noise shrinks a value toward 0, so with top <= 0 it may lift any move: prune nothing
        cut = (1.0 - spec.eps) * top * (1.0 - 4 * CONFIRM_BAND) if top > 0 else -math.inf
        values = list(base)
        kept = [i for i, value in enumerate(values) if value >= cut]
        epsilons = spec.move_epsilons(current, [moves[i] for i in kept])
        for i, eps in zip(kept, epsilons):
            values[i] = (1.0 - eps) * values[i]
        return values


class OracleStats:
    """Live call statistics handle for a counting oracle.

    Updates and reads are lock-protected. Batches of moves are kept as
    given and expanded into distinct id tuples only when ``distinct_count``
    is read.
    """

    __slots__ = ("call_count", "_seen", "_batches", "_lock")

    def __init__(self):
        self.call_count = 0
        self._seen: set[tuple[int, ...]] = set()
        self._batches: list[tuple[Assortment, Sequence[Move]]] = []
        self._lock = threading.Lock()

    def record(self, assortment: Assortment) -> None:
        with self._lock:
            self.call_count += 1
            self._seen.add(assortment.ids)

    def record_moves(self, current: Assortment, moves: Sequence[Move]) -> None:
        """Count one call per move; ``moves`` is kept, not copied, so leave it unchanged."""
        with self._lock:
            self.call_count += len(moves)
            self._batches.append((current, moves))

    @property
    def distinct_count(self) -> int:
        with self._lock:
            for current, moves in self._batches:
                self._seen.update(current.after_move(*move).ids for move in moves)
            self._batches.clear()
            return len(self._seen)


class CountingOracle:
    """Delegates to a base oracle while counting calls, one per scored move.

    Returned values are bit-identical to the base oracle's; concurrent
    solvers may share a counter.
    """

    def __init__(self, base: RevenueOracle):
        self.base = base
        self.stats = OracleStats()

    def evaluate(self, assortment: Assortment) -> float:
        self.stats.record(assortment)
        return self.base.evaluate(assortment)


def make_oracle(instance: Instance, noise: NoiseSpec) -> RevenueOracle:
    """The exact MNL oracle, wrapped in ``NoisyOracle`` unless ``noise.mode`` is "none"."""
    exact = ExactMnlOracle(instance)
    return exact if noise.mode == "none" else NoisyOracle(exact, noise)


def total_weight(instance: Instance, assortment: Assortment) -> float:
    """w(M) = 1 + sum of member weights (the 1 is the no-purchase weight)."""
    return math.fsum([1.0] + [p.weight for p in instance.products_of(assortment.ids)])
