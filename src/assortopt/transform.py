"""Margin transform of MNL revenues.

For a revenue offset u, each product gets the weight-scaled margin
``(price - u) * weight``; an assortment's transform value is the sum of
its members' margins. The transform is linear and strictly decreasing in
u, which makes assortment comparisons tractable: it relates back to
revenue through

    margin(M, u) = u + w(M) * (revenue(M) - u),    w(M) = 1 + sum weights,

so at u = revenue(M) the transform has a fixed point. Because the
per-product margins are lines in u, the "top k by margin" set is
piecewise constant with breakpoints at pairwise crossings and zero
crossings. ``margin_ranking`` is the only place products are ordered by
margin, and ``top_ids`` the only place a top set is read off a ranking.
The revenue fixed point ``mnl_opt`` ranks one offset per step.

The candidate sets of ``reference`` (top lists) and the slack-set sizes of
the noise analysis read two piecewise-constant functions of u. The reference
value set of each is that of ranking one probe offset per interval between
the crossings (``margin_breakpoints``), O(N^2) probes; ``event_sweep`` finds
the same set by walking the events instead. From each ranked offset, the
comparisons that decide the value (adjacent members, the weakest member
against zero and against every outsider, the weakest against every
outsider at shift delta) name the next crossing, computed with
``margin_breakpoints``' own formula, and the walk ranks once just past it,
so it ranks about once per value change and lists no probe. Two ranked
offsets are joined when every deciding gap but the crossing one clears the
band (``stretch_band``) at both: the gaps are lines in u, so they clear it
in between, far above the rounding of the keys, and every probe between
reads one of the two values. Where that cannot be shown (gaps within one
band of each other: near-concurrent or near-parallel lines, exact ties),
the walk falls back to the definition over the window between the
breakpoints around it: it lists the reference probes inside the window and
ranks each once. The same band is the tie band of the fixed point's tie
rule (``reference.mnl_opt``).
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from operator import itemgetter, sub
from typing import Any, Iterable, Iterator, Sequence

from .instance import Assortment, Instance, Product

#: Relative width of the band within which values count as tied. ``oracles.best_move``
#: re-evaluates every estimate of a pass within it of the best one, and ``stretch_band``
#: scales it to margins. Far wider than the rounding error of batched sums (a few ulps
#: per member), so the true best move is in it.
CONFIRM_BAND = 1e-9


def scaled_margin(instance: Instance, product_id: int, u: float) -> float:
    """(price - u) * weight for one product."""
    prod = instance.product(product_id)
    return (prod.price - u) * prod.weight


def scaled_margins(instance: Instance, product_ids: Iterable[int], u: float) -> list[float]:
    """``scaled_margin`` of each product, in order."""
    return product_margins(instance.products_of(product_ids), u)


def product_margins(products: Iterable[Product], u: float) -> list[float]:
    """``(price - u) * weight`` of each product, in order."""
    return [(p.price - u) * p.weight for p in products]


def assortment_margin(instance: Instance, assortment: Assortment, u: float) -> float:
    """Sum of members' scaled margins at offset u (0 for the empty set)."""
    return math.fsum(scaled_margins(instance, assortment.ids, u))


def top_margin_set(instance: Instance, size: int, u: float) -> Assortment:
    """The at most ``size`` products with the largest strictly positive margin.

    Ties break toward the smaller product id. Returns the empty assortment
    when no margin is positive or size <= 0.
    """
    return Assortment.of(top_ids(margin_ranking(instance, u), size))


def margin_ranking(instance: Instance, u: float) -> list[tuple[float, int]]:
    """Every product's ``(-margin, id)`` at offset u, in ascending order.

    This is the one place products are ranked by margin: largest margin
    first, ties to the smaller id. ``(u - price) * weight`` is the exact
    negation of the margin ``(price - u) * weight``.
    """
    return sorted([((u - p.price) * p.weight, p.id) for p in instance.products])


def slack_end(ranked: list[tuple[float, int]], k: int, delta: float, u: float) -> int:
    """Where the slack set ends in a ranking whose top list has k > 0 members: past every
    entry whose margin trails the k-th's (the anchor's) by at most ``delta * u``."""
    anchor = -ranked[k - 1][0]
    return bisect_right(ranked, delta * u, k, key=lambda entry: anchor + entry[0])


def stretch_band(instance: Instance) -> tuple[float, float]:
    """``(base, per_unit)`` of the band ``base + per_unit * reach`` within which margins at
    offsets |u| <= reach count as tied: ``CONFIRM_BAND`` of ``max price * weight + reach *
    max weight``, which bounds every margin's scale there, since prices are >= 0. The
    event walk takes it at each offset it tests a gap at, and the tie rule of
    ``reference.mnl_opt`` at the optimal revenue. The two maxima are taken once, here. The
    band is padded by a relative 1e-12 against its own rounding, and its base is at least
    the smallest normal float: below it keys round by an absolute amount rather than a
    relative one."""
    scale = CONFIRM_BAND * (1.0 + 1e-12)
    top_value = max((p.price * p.weight for p in instance.products), default=0.0)
    top_weight = max((p.weight for p in instance.products), default=0.0)
    return max(scale * top_value, sys.float_info.min), scale * top_weight


def top_ids(ranked: list[tuple[float, int]], size: int) -> list[int]:
    """Ids of the top set in a ``margin_ranking``: the at most ``size`` leading
    entries with a positive margin (a negative first entry); size < 0 counts as 0."""
    return [pid for neg_margin, pid in ranked[: max(0, size)] if neg_margin < 0.0]


def margin_breakpoints(
    instance: Instance, delta: float = 0.0, lo: float = 0.0, hi: float = math.inf
) -> list[float]:
    """Offsets in [lo, hi] (nonnegative) where a margin ordering, threshold or slack set can change.

    Collects the margin lines' zero crossings (u = price) and pairwise
    crossings, between which every top set is constant; each unordered pair
    is visited once, since float subtraction is exactly antisymmetric. At
    delta != 0 it adds each ordered pair's offset where one margin trails
    the other by exactly delta * u, so every slack set at delta is constant
    between the points too. The plain crossings go in first: a zero keeps
    the sign of the first pair that gives it. Every pair is visited, but only
    the points inside the window are kept, so a narrow window takes memory
    in proportion to what it holds.
    """
    points = {p.price for p in instance.products if lo <= p.price <= hi}
    # each margin line (price - u) * weight as (price * weight, weight)
    lines = [(p.price * p.weight, p.weight) for p in instance.products]
    for shift in (0.0, delta) if delta != 0.0 else (0.0,):
        pairs = itertools.combinations(lines, 2) if shift == 0.0 else itertools.permutations(lines, 2)
        for (value_a, weight_a), (value_b, weight_b) in pairs:
            # crossing of margin lines a and b, offset by shift * u:
            # (price_a - u) weight_a - (price_b - u) weight_b = shift * u
            denom = weight_a - weight_b + shift
            if denom != 0.0:
                u = (value_a - value_b) / denom
                if math.isfinite(u) and u >= 0.0 and lo <= u <= hi:
                    points.add(u)
    return sorted(points)


def event_sweep(instance: Instance, size: int, delta: float | None = None) -> Iterator[tuple[float, Any]]:
    """``(offset, value)`` for each run of equal value over the reference probes, in
    ascending order of offset: an offset where the run's value is read. Around a window a
    value may come twice, and an offset may precede the one before it, but every probe below
    an offset reads a value given up to it; the set of values is the contract.

    With ``delta`` None the value is the top list, ``top_ids(margin_ranking(instance, u),
    size)``, and the probes are 0, every ``margin_breakpoints(instance)`` and one offset
    inside each interval between them (past the last, at last + 1). Otherwise it is the top
    list and the slack set at ``delta`` (the ids of the ranking up to ``slack_end``, none
    when the top list is empty), and the probes are the interval offsets of
    ``margin_breakpoints(instance, delta)``. The set of values is exactly that of ranking
    every probe, without listing the probes.

    The sweep walks the events, ranking once inside each interval between consecutive
    value changes. At a ranked offset the comparisons that decide the value (each a product
    pair, or a product against zero, whose margin gap is a line in u) name the next event:
    the earliest crossing among those that fall, by ``margin_breakpoints``' own formula and
    operand order, so each event is one of the reference breakpoints. The next offset
    ranked lies just past it, where the crossing pair's gap has grown to twice the band
    (``stretch_band``). Two consecutive ranked offsets are joined when every comparison of
    each but the crossing pair's clears the band at both, the second's from where the
    crossing gap meets the band (``joined``): those gaps are lines, so they clear it in
    between, and every probe between the two offsets reads one of their two values, on
    whichever side of the crossing it falls. A value is kept only where some probe must read
    it: its comparisons clear the band from its offset up to just before the next event, and
    that stretch is wide enough against its distance from the two breakpoints around it to
    hold a probe. Pairs of equal weight never cross, and products of equal price and weight
    (twins) always rank by id, next to each other in every ranking, so neither is an event or
    a gap. The crossings of the weakest member are listed once per weakest and member set: a
    lighter member's crossing with the weakest lies behind the walk, and a listed outsider
    keeps its side of the slack line until the walk passes its crossing. Where two ranked
    offsets are not joined (two gaps within one band of each other: near-concurrent lines,
    near-parallel ones, exact ties), the walk lists the reference probes of the window
    between the breakpoints around them and ranks each once. The walk ends at its first empty
    top list, which holds exactly from there on: no key falls as the offset rises.
    """
    runs = itertools.groupby(_EventWalk(instance, size, delta).values(), key=itemgetter(1))
    return (next(run) for _, run in runs)


class _Ranked:
    """One ranked offset of an event walk: the reader's value there and what decides it."""

    __slots__ = ("u", "ranked", "entry", "top", "members", "within", "inside", "value",
                 "narrowest", "event", "seen")

    def __init__(self, u: float, ranked: list[tuple[float, int]], entry: float):
        self.u, self.ranked, self.entry = u, ranked, entry  # entry: the event ranked just past
        self.event = math.inf  # the next event, once the walk has moved past it
        self.seen = False  # whether some probe reads the value and the next offset is joined


#: stands for no product where a comparison is not the one asked about
_NO_PRODUCT = object()


def _least(gaps: Sequence[float]) -> float:
    """The smallest gap, inf when there are none; NaN when any gap is NaN (or when two are
    infinite of opposite signs, which certifies nothing either)."""
    total = sum(gaps)
    return min(gaps, default=math.inf) if total == total else math.nan


class _EventWalk:
    """``event_sweep``'s state: the instance's lines, the band, and one reader.

    A comparison is ``(a, b, shift, sign)``: its gap at offset x is ``sign * (margin_a(x) -
    margin_b(x) - shift * x)``, with None for the zero line, and the value holds while every
    deciding gap is positive. The top list is decided by each adjacent pair of members, the
    weakest member against zero and, when the list is full, the weakest against every
    outsider, or else every outsider against zero. The slack set adds, for every outsider,
    the weakest member (the anchor) against it at shift delta, on the side it lies.
    """

    def __init__(self, instance: Instance, size: int, delta: float | None):
        self.instance, self.size, self.delta = instance, size, delta
        self.slack = bool(delta)  # at delta = 0 the slack set follows from the top list
        products = instance.products
        self.line = {p.id: (p.price, p.weight, p.price * p.weight) for p in products}
        # (weight, price * weight, id) by weight: the products lighter than a member are
        # the ones whose margin can overtake it
        self.by_weight = sorted((p.weight, p.price * p.weight, p.id) for p in products)
        # products of equal price and weight have equal keys at every offset: rank by id
        self.twins = len({(p.price, p.weight) for p in products}) < len(products)
        self.base, self.per_unit = stretch_band(instance)
        # no gap's slope in u exceeds the largest weight, plus delta for a slack gap
        self.steepest = max((p.weight for p in products), default=0.0) + (delta if self.slack else 0.0)
        self.listed, self.queue, self.head = None, [], 0  # see ``outsider_events``

    def rank(self, u: float, entry: float, crossing: tuple | None = None) -> _Ranked:
        """The state at offset u, ranked just past event ``entry`` of comparison ``crossing``,
        with its least gap leaving out the comparison on that pair (``narrowest``). Whichever
        way a probe orders the pair, it reads one of the two values around the crossing, so the
        reversed gap needs no test; at u it is twice the band at twice the event's offset."""
        state = _Ranked(u, margin_ranking(self.instance, u), entry)
        state.value, state.within = self.read(u, state.ranked)
        top = state.top = state.value if self.delta is None else state.value[0]
        state.members = set(top)
        state.inside = state.value[1].difference(top) if self.slack else frozenset()
        state.narrowest = self.narrowest(state, u, state.ranked, crossing)
        return state

    def read(self, u: float, ranked: list[tuple[float, int]]) -> tuple[Any, int]:
        """The value at offset u, ranked as ``ranked``, and where its slack set ends in the
        ranking (with ``delta`` None, the top list and its length)."""
        top = top_ids(ranked, self.size)
        if self.delta is None:
            return top, len(top)
        within = slack_end(ranked, len(top), self.delta, u) if top else 0
        return (top, frozenset(map(itemgetter(1), ranked[:within]))), within

    def narrowest(self, state: _Ranked, x: float, ranked: list, skip: tuple | None) -> float:
        """The least gap at offset x, ranked as ``ranked``, of the comparisons that decide
        ``state``'s value, leaving out the one on ``skip``'s pair. The least gap of a family
        of outsiders is that of the first of them in the ranking."""
        if self.size <= 0:
            return math.inf
        line, top, members = self.line, state.top, state.members
        k = len(top)
        keys = [(x - line[pid][0]) * line[pid][1] for pid in top]
        gaps = list(map(sub, keys[1:], keys))
        a, b, shift = skip[:3] if skip is not None else (_NO_PRODUCT, _NO_PRODUCT, None)
        if a in members and b in members:
            i, j = top.index(a), top.index(b)
            if abs(i - j) == 1:
                gaps[min(i, j)] = math.inf
        if self.twins:
            gaps = [math.inf if line[a] == line[b] else gap for a, b, gap in zip(top, top[1:], gaps)]
        # the product whose zero line is left out, and the weakest's partner left out
        unsigned = a if b is None else _NO_PRODUCT
        weakest = top[-1] if top else None
        partner = (b if a == weakest else a if b == weakest else _NO_PRODUCT) if shift == 0.0 else _NO_PRODUCT
        if k == self.size:  # the weakest against every outsider
            key_w, twin = keys[-1], line[weakest]
            for key, other in ranked:
                if other not in members and other != partner and line[other] != twin:
                    gaps.append(key - key_w)
                    break
        else:  # every outsider against zero
            for key, other in ranked:
                if other not in members and other != unsigned:
                    gaps.append(key)
                    break
        if not top:
            return _least(gaps)
        if unsigned != weakest:
            gaps.append(-keys[-1])
        if self.slack:  # the anchor against every outsider, at shift delta
            inside, twin = state.inside, line[weakest]
            anchor, limit = -keys[-1], self.delta * x
            own = ranked is state.ranked  # the members and the slack set lead it
            if own:  # the slack set's outsiders follow the members, the highest key last
                highest = None
                for i in range(state.within - 1, k - 1, -1):
                    key, other = ranked[i]
                    if line[other] != twin:
                        highest = key
                        break
            else:
                highest = max(((x - line[o][0]) * line[o][1] for o in inside), default=None)
            if highest is not None:
                gaps.append(limit - (anchor + highest))
            for key, other in itertools.islice(ranked, state.within if own else 0, None):
                if other not in members and other not in inside:
                    gaps.append(anchor + key - limit)
                    break
        return _least(gaps)

    def gap(self, comparison: tuple, x: float) -> float:
        """One comparison's gap at offset x."""
        a, b, shift, sign = comparison
        margin_b = 0.0 if b is None else (self.line[b][0] - x) * self.line[b][1]
        return sign * ((self.line[a][0] - x) * self.line[a][1] - margin_b - shift * x)

    def next_event(self, state: _Ranked) -> tuple:
        """The earliest crossing past ``state.u`` of a falling deciding gap, as ``(offset,
        |slope|, *comparison)``, each by ``margin_breakpoints``' formula. The weakest member's
        key is negative only below its price, so its zero crossing is always ahead."""
        top, u, line = state.top, state.u, self.line
        weakest = top[-1]
        price_w, weight_w, value_w = line[weakest]
        events = [(price_w, weight_w, weakest, None, 0.0, 1.0)]
        for a, b in zip(top, top[1:]):
            _, weight_a, value_a = line[a]
            _, weight_b, value_b = line[b]
            if weight_a > weight_b:
                t = (value_a - value_b) / (weight_a - weight_b)
                if t > u:
                    events.append((t, weight_a - weight_b, a, b, 0.0, 1.0))
        queue = self.outsider_events(state)
        while self.head < len(queue):  # the first listed crossing still ahead
            event = queue[self.head]
            if event[0] > u:
                events.append(event)
                break
            self.head += 1
        return min(events, key=itemgetter(0))

    def outsider_events(self, state: _Ranked) -> list[tuple]:
        """The crossings of the weakest member with the outsiders, in ascending order: with
        every lighter product when the top list is full, and at shift delta with every
        outsider on the side of the slack line it lies. A lighter member's margin falls more
        slowly than the weakest's, so its crossing lies behind the walk. The crossings depend
        only on the weakest and the members, and on each outsider's side, which only its own
        crossing turns, after which its line rises; so they are listed once per weakest and
        member set (``head`` counts those behind the walk)."""
        top, members = state.top, state.members
        weakest = top[-1]
        if self.listed == (weakest, members):
            return self.queue
        line = self.line
        _, weight_w, value_w = line[weakest]
        queue = []
        if len(top) == self.size:  # only a lighter product can overtake the weakest
            for weight_o, value_o, other in self.by_weight[: bisect_left(self.by_weight, (weight_w,))]:
                slope = weight_w - weight_o
                queue.append(((value_w - value_o) / slope, slope, weakest, other, 0.0, 1.0))
        if self.slack:
            delta, inside = self.delta, state.inside
            for _, other in itertools.islice(state.ranked, len(top), None):
                _, weight_o, value_o = line[other]
                denom = weight_w - weight_o + delta
                sign = -1.0 if other in inside else 1.0
                if sign * denom > 0.0:
                    queue.append(((value_w - value_o) / denom, sign * denom, weakest, other, delta, sign))
        queue.sort(key=itemgetter(0))
        self.listed, self.queue, self.head = (weakest, frozenset(members)), queue, 0
        return queue

    def states(self) -> Iterator[_Ranked]:
        """The ranked offsets in ascending order, each with ``seen`` and ``event`` set, up to
        the first empty top list: no key is negative there, and none falls as u rises, since
        rounding ``(u - price) * weight`` is monotone in u. The last probe reads it too."""
        state = self.rank(0.0, 0.0)
        while True:
            if not state.top:
                state.seen = True
                yield state
                return
            found = self.next_event(state)
            t, slope, crossing = found[0], found[1], found[2:]
            # the band at offset x >= 0 is base + per_unit * x: affine in x, so a gap line that
            # clears it at two offsets clears it between them
            base, per_unit = self.base, self.per_unit
            radius = 2.0 * (base + per_unit * 2.0 * t) / slope
            after = self.rank(t + radius, t, crossing)
            clear_to = t - radius  # where the crossing gap still clears the band
            state.event = t
            # the value holds alone on [state.u, clear_to], between breakpoints state.entry
            # (or 0) and t; it holds a probe, a midpoint of consecutive breakpoints, when it is
            # at least as wide as twice its distance to those two
            state.seen = (
                state.narrowest > base + per_unit * state.u
                and after.narrowest > base + per_unit * after.u
                and clear_to - state.u >= 2.0 * (state.u - state.entry + radius)
                and self.joined(state, after, crossing, clear_to)
            )
            yield state
            state = after

    def joined(self, state: _Ranked, after: _Ranked, crossing: tuple, x: float) -> bool:
        """Whether every comparison of ``state`` but ``crossing`` clears the band up to
        ``after``'s offset, and every comparison of ``after`` but the one on the crossing pair
        clears it from x.

        Both hold at their own offsets already (``narrowest``), so a comparison the two
        states share clears the band between them. When they share every one but some
        adjacent member pairs (same members, weakest and slack set, up to the crossing), only
        those pairs are evaluated: twins stay adjacent in every ranking, so a pair of twins is
        in both top lists or in neither. Otherwise each state's comparisons are, at the other's
        offset, and ``after``'s at x bounded below by the steepest slope or, failing that,
        by interpolating its least gaps at both offsets: each gap is a line, and a least gap
        of lines is at least the interpolated least gaps."""
        band_after, band_x = self.base + self.per_unit * after.u, self.base + self.per_unit * x
        moved = after.inside ^ state.inside  # outsiders on the other side of the slack line
        if (after.members == state.members and after.top[-1:] == state.top[-1:]
                and moved <= {crossing[1] if crossing[2] else None}):
            pairs_before = set(zip(state.top, state.top[1:]))
            pairs_after = set(zip(after.top, after.top[1:]))
            skip = {(crossing[0], crossing[1]), (crossing[1], crossing[0])}
            return all(
                self.gap((a, b, 0.0, 1.0), offset) > band
                for pairs, offset, band in ((pairs_before - pairs_after, after.u, band_after),
                                            (pairs_after - pairs_before, x, band_x))
                for a, b in pairs - skip
            )
        if not self.narrowest(state, after.u, after.ranked, crossing) > band_after:
            return False
        bound = after.narrowest - self.steepest * (after.u - x)
        if bound > band_x:
            return True
        share = (after.u - x) / (after.u - state.u)
        before = self.narrowest(after, state.u, state.ranked, crossing)
        return share * before + (1.0 - share) * after.narrowest > band_x

    def values(self) -> Iterator[tuple[float, Any]]:
        """``(offset, value)`` of each kept state and of each window probe, in the order
        ``event_sweep`` gives them."""
        before, left = None, False  # the previous state and whether its left gap is joined
        lo = None  # where the open window starts, None when none is open
        for state in self.states():
            if before is not None:
                joined = before.seen and state.seen
                if joined and lo is not None:
                    yield from self.window(lo, before.event)
                    lo = None
                if left or joined:
                    yield before.u, before.value
                if not joined and lo is None:
                    lo = before.entry
                left = joined
            before = state
        if lo is not None:  # the last state, the empty top list, holds to the end
            yield from self.window(lo, math.inf)
        yield before.u, before.value

    def window(self, lo: float, hi: float) -> Iterator[tuple[float, Any]]:
        """``(probe, value)`` at every reference probe in [lo, hi], where lo and hi are 0,
        breakpoints or inf, each ranked once."""
        points = margin_breakpoints(self.instance, self.delta or 0.0, lo, hi)
        probes = _midpoints(points, lo, hi == math.inf)
        if self.delta is None:  # the candidate probes hold 0 and the breakpoints too
            probes = sorted([*([0.0] if lo <= 0.0 else []), *points, *probes])
        return ((u, self.read(u, margin_ranking(self.instance, u))[0]) for u in probes)


def _midpoints(points: list[float], lo: float, tail: bool) -> list[float]:
    """The reference's probe inside each interval between ascending breakpoints from ``lo``
    (0 or a breakpoint): the midpoint of each pair of consecutive positive ones, and, with
    ``tail``, the last plus 1, past every breakpoint."""
    samples: list[float] = []
    prev = max(lo, 0.0)
    for b in points:
        if b > prev:
            samples.append(prev + (b - prev) / 2.0)
            prev = b
    if tail:
        samples.append(prev + 1.0)
    return samples
