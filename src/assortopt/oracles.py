"""Revenue oracles for the multinomial-logit choice model.

The solver only ever talks to an oracle through ``evaluate(assortment) ->
float``, so any choice model can be plugged in. ``evaluate`` must be a pure
function of the set: ``best_move`` below confirms a pass's best values
through it, and the greedy solver does not score again a move that an
earlier pass has settled.

An oracle may also offer one batch hook,
``score_moves(current, moves, beat) -> (indices, estimates)``. ``moves``
is the pass as a ``MovePass``, which any oracle may read as the list of
its (entering, leaving) pairs. The hook returns the ascending indices of
every move whose estimate may exceed ``beat * (1 - 2 * CONFIRM_BAND)``,
and those moves' estimates, which need only be accurate to rounding; an
oracle that cannot tell returns every index. ``best_move`` calls it once
per pass and confirms the estimates that could win through ``evaluate``;
without the hook it calls ``evaluate`` on every move. The MNL oracle finds
its candidates by their margins: a set earns more than ``u`` exactly when
its margins ``(price - u) * weight`` sum to more than ``u``. Each move of a
pass counts as one oracle call, returned by the hook or not.

Each built-in oracle is made by its constructor, and ``make_oracle`` picks
the exact or the noisy one from a ``NoiseSpec``:

* ``ExactMnlOracle(instance)``: exact MNL expected revenue,
* ``NoisyOracle(base, spec)``: deterministic multiplicative noise that
  underestimates the base value by a factor in ``[0, eps]`` hashed from the
  set's encoding, one set at a time and only for moves that can win,
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
from .instance import Assortment, Instance, Product
from .transform import CONFIRM_BAND, scaled_margins, stretch_band

NOISE_MODES = ("none", "fixed", "seeded-uniform")

#: An (entering, leaving) product pair; ``leaving`` None is an addition.
Move = tuple[int, "int | None"]


class MovePass(Sequence):
    """One search pass's moves as a read-only sequence of ``Move`` pairs.

    Every exchange of an ``exchange_pool`` product for a ``members`` product,
    in (entering, leaving) order, then the addition of each ``add_pool``
    product. The three tuples are all it stores, so the built-in oracles
    find a pass's candidates straight from them; any other reader sees a
    sequence equal, item for item, to the list of those pairs.
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
        return self.at((index,))[0]

    def __iter__(self) -> Iterator[Move]:
        return chain(product(self.exchange_pool, self.members), zip(self.add_pool, repeat(None)))

    def at(self, indices: Iterable[int]) -> list[Move]:
        """``[self[i] for i in indices]``, for indices in ``range(len(self))``."""
        pool, members, adds = self.exchange_pool, self.members, self.add_pool
        exchanges, width = self._exchanges, len(members)
        return [
            (pool[i // width], members[i % width]) if i < exchanges else (adds[i - exchanges], None)
            for i in indices
        ]


class RevenueOracle(Protocol):
    """Anything with ``evaluate(assortment) -> float`` is an oracle."""

    def evaluate(self, assortment: Assortment) -> float: ...


def best_move(
    oracle: RevenueOracle, current: Assortment, moves: MovePass, beat: float
) -> tuple[int, float] | None:
    """Index and revenue of the first best move of a non-empty pass, or None unless
    that revenue exceeds ``beat``.

    Without ``score_moves`` it calls ``evaluate`` on every move and ranks
    the values. With it, it takes the hook's indices and estimates, and
    replaces the largest estimate, and every one within ``CONFIRM_BAND`` of
    it, by what ``evaluate`` returns for that move. No index means None,
    with nothing evaluated. Each move counts as one oracle call: a
    ``CountingOracle`` records the pass, then its base scores and confirms
    it, so confirmations are never counted.

    Every returned value outside the band is an estimate below the band's
    floor (a seeded-uniform ``NoisyOracle`` gives the moves that cannot win
    their noise-free value, an upper bound that stays below it; a NaN first
    estimate leaves no band). Every move left out has an estimate at most
    ``beat * (1 - 2 * CONFIRM_BAND)``. When the pass's best beats ``beat``,
    the floor lies above that, so the band holds the same moves as the
    whole pass's band. When the band's best confirmed value reaches the
    floor it is therefore the largest of all, no earlier value ties it, and
    the argmax and its tie-break are those of ``evaluate``. Only otherwise
    (an empty band, a confirmation below the floor or NaN) are the returned
    values ranked. A move left out is never the answer then either: its
    estimate is at most ``beat * (1 - 2 * CONFIRM_BAND)``, so it never
    beats ``beat``, and the built-in oracles return every index wherever an
    estimate can be NaN.
    """
    if isinstance(oracle, CountingOracle):
        oracle.stats.record_moves(current, moves)
        oracle = oracle.base
    score = getattr(oracle, "score_moves", None)
    if score is None:
        picked = range(len(moves))
        values = [oracle.evaluate(current.after_move(*move)) for move in moves]
        best = None
    else:
        picked, values = score(current, moves, beat)
        if not picked:
            return None
        values = list(values)
        top = max(values)
        floor = top - CONFIRM_BAND * abs(top)
        band = [i for i, value in enumerate(values) if value >= floor]
        for i, move in zip(band, moves.at([picked[i] for i in band])):
            values[i] = oracle.evaluate(current.after_move(*move))
        best = max(band, key=values.__getitem__) if band else None
        if best is not None and not values[best] >= floor:
            best = None
    if best is None:
        best = values.index(max(values))
    return (picked[best], values[best]) if values[best] > beat else None


def mnl_revenue(instance: Instance, assortment: Assortment) -> float:
    """Exact MNL expected revenue of an offer set.

    sum(p_i * w_i) / (1 + sum(w_i)) over the members; 0 for the empty set.
    Unknown product ids raise InvalidAssortmentError.
    """
    return products_revenue(instance.products_of(assortment.ids))


def products_revenue(products: Iterable[Product]) -> float:
    """``mnl_revenue`` of the set of these distinct products."""
    terms = []
    weights = [1.0]
    for prod in products:
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
    runs; ``epsilon`` is its one formula. In every mode ``eps`` bounds the
    underestimation, which is all the gap guarantee reads, and ``seed`` is an
    ``int``.
    """

    mode: str = "none"
    eps: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValidationError(f"unknown noise mode {self.mode!r}", code="bad-noise")
        if type(self.seed) is not int:  # as io._integer: 1.5 cannot key the hash, a bool is no seed
            raise ValidationError(f"noise seed must be an integer, got {self.seed!r}", code="bad-noise")
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
        return self.eps * _unit_hash(self.seed, assortment.encode())


def _unit_hash(seed: int, encoding: str) -> float:
    """Deterministic map of (seed, encoding) into [0, 1).

    Keyed BLAKE2 keeps the value stable across platforms, processes and
    Python versions (never the builtin ``hash``).
    """
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(encoding.encode("ascii"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") / 2.0**64


class ExactMnlOracle:
    """Pure, deterministic oracle returning exact MNL revenue."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self._terms = {p.id: p.price * p.weight for p in instance.products}
        self._weights = {p.id: p.weight for p in instance.products}
        self._band = stretch_band(instance)

    def evaluate(self, assortment: Assortment) -> float:
        return mnl_revenue(self.instance, assortment)

    def score_moves(
        self, current: Assortment, moves: MovePass, beat: float
    ) -> tuple[Sequence[int], list[float]]:
        """Ascending indices of the moves whose set's margins at ``beat`` sum past
        ``beat`` less a tolerance, and their estimated ``evaluate``; every index
        for a negative or NaN ``beat`` or a non-finite margin sum.

        Exchanging ``entering`` in for ``leaving`` needs margin(entering) >
        margin(leaving) + ``need``, and adding it margin(entering) > ``need``,
        where ``need`` is ``beat`` less the members' margins and the tolerance.
        The tolerance, ``4 * (|current| + 2)`` times ``stretch_band`` at
        ``beat``, is more than ``3 * CONFIRM_BAND * beat`` times the weight
        of any set that comes within that of ``beat``, plus the rounding of
        the margins and their sums. So a move left out has a revenue at most
        ``beat * (1 - 3 * CONFIRM_BAND)``, and an estimate at most
        ``beat * (1 - 2 * CONFIRM_BAND)``. Each estimate is one division over
        leave-one-out member sums, built once for each member the returned
        moves take out (and once for additions).
        """
        members = current.ids
        picked = range(len(moves))
        if beat >= 0.0:
            base, per_unit = self._band
            tolerance = 4 * (len(members) + 2) * (base + per_unit * beat)
            member_margins = dict(zip(members, scaled_margins(self.instance, members, beat)))
            need = beat - math.fsum(member_margins.values()) - tolerance
            if math.isfinite(need):
                pool, leavers, adds = moves.exchange_pool, moves.members, moves.add_pool
                entering_margins = scaled_margins(self.instance, pool, beat)
                cuts = [need + member_margins[leaving] for leaving in leavers]
                lowest = min(cuts, default=math.inf)
                width = len(leavers)
                picked = [
                    row * width + j
                    for row, margin in enumerate(entering_margins) if margin > lowest
                    for j, cut in enumerate(cuts) if margin > cut
                ]
                if adds:
                    if adds != pool:
                        entering_margins = scaled_margins(self.instance, adds, beat)
                    offset = len(pool) * width
                    picked += [offset + k for k, margin in enumerate(entering_margins) if margin > need]
        terms, weights = self._terms, self._weights
        try:
            member_terms = list(map(terms.__getitem__, members))
            member_weights = list(map(weights.__getitem__, members))
            position = {member: j for j, member in enumerate(members)}

            def less(leaving):
                # current's sums less ``leaving`` (nobody if no member); all terms >= 0, so nothing cancels
                j = position.get(leaving, len(members))
                return (math.fsum(member_terms[:j] + member_terms[j + 1:]),
                        math.fsum([1.0] + member_weights[:j] + member_weights[j + 1:]))

            chosen = moves.at(picked)
            sums = {leaving: less(leaving) for leaving in {leaving for _entering, leaving in chosen}}
            return picked, [
                (numerator + terms[entering]) / (denominator + weights[entering])
                for entering, leaving in chosen
                for numerator, denominator in (sums[leaving],)
            ]
        except KeyError as exc:
            raise InvalidAssortmentError(f"unknown product id {exc.args[0]}") from None


class NoisyOracle:
    """Wraps a base oracle, returning (1 - eps(M)) * base(M)."""

    def __init__(self, base: RevenueOracle, spec: NoiseSpec):
        self.base = base
        self.spec = spec

    def evaluate(self, assortment: Assortment) -> float:
        return (1.0 - self.spec.epsilon(assortment)) * self.base.evaluate(assortment)

    def score_moves(
        self, current: Assortment, moves: MovePass, beat: float
    ) -> tuple[Sequence[int], list[float]]:
        """The base's indices at ``beat`` and their estimates, each scaled by its set's
        noise factor; every index and the base's ``evaluate`` for a base without the hook.

        Noise only lowers a value, so every move the base leaves out has a noisy
        estimate at most its base one, at most ``beat * (1 - 2 * CONFIRM_BAND)``.

        In "seeded-uniform" mode, with ``top`` the largest base estimate and
        positive, the moves whose base estimate reaches ``cut = (1 - eps) * top
        * (1 - 4 * CONFIRM_BAND)`` are hashed (their set built and passed to
        ``NoiseSpec.epsilon``) in descending order of base estimate until the
        next falls below ``best * (1 - 4 * CONFIRM_BAND)``, ``best`` being the
        largest noisy value so far; the rest keep their base estimate. The
        move with base value ``top`` is hashed first and scores at least ``(1 -
        eps) * top``, so a move below the cut lies below ``best * (1 - 4 *
        CONFIRM_BAND)``, as does a move past the stop, noisy or not: a factor
        at most 1 never raises a positive value, even rounded. So ``best`` is
        the largest value and every unhashed move lies under the band's floor,
        as when every move is hashed: the band, its confirmations and the
        first-best argmax are the same, bit for bit. Noise raises a negative
        value, so at ``top <= 0`` every move but a NaN one is hashed.
        """
        score = getattr(self.base, "score_moves", None)
        if score is None:
            picked = range(len(moves))
            values = [self.base.evaluate(current.after_move(*move)) for move in moves]
        else:
            picked, values = score(current, moves, beat)
        spec = self.spec
        if spec.mode != "seeded-uniform":  # fixed, or none at eps 0: one factor, no move built
            return picked, [(1.0 - spec.eps) * value for value in values]
        values = list(values)
        top = max(values, default=0.0)
        cut = (1.0 - spec.eps) * top * (1.0 - 4 * CONFIRM_BAND) if top > 0 else -math.inf
        kept = sorted((i for i, value in enumerate(values) if value >= cut),
                      key=values.__getitem__, reverse=True)
        best = -math.inf
        for i, move in zip(kept, moves.at([picked[i] for i in kept])):
            if top > 0 and values[i] < best * (1.0 - 4 * CONFIRM_BAND):
                break
            values[i] = (1.0 - spec.epsilon(current.after_move(*move))) * values[i]
            best = max(best, values[i])
        return picked, values


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
        self._batches: list[tuple[Assortment, MovePass]] = []
        self._lock = threading.Lock()

    def record(self, assortment: Assortment) -> None:
        with self._lock:
            self.call_count += 1
            self._seen.add(assortment.ids)

    def record_moves(self, current: Assortment, moves: MovePass) -> None:
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
