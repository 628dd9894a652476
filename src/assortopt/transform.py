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
The revenue fixed point ``mnl_opt`` ranks one offset per step. The
candidate sets (``top_id_sweep``) and the slack-set sizes of the noise
analysis are two readers of ``certified_sweep``, which ranks only where a
reader's value can change. It bisects the ascending offsets and fills a
stretch without ranking it when both ends give the same value with every
gap that decides it wider than ``margin_band``: those gaps are linear or
concave in u, so they stay wide inside the stretch, far above the
rounding of the keys, and every skipped ranking would read the same value.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Iterable

from .instance import Assortment, Instance
from .errors import UndefinedTopSetError
from .oracles import CONFIRM_BAND


def scaled_margin(instance: Instance, product_id: int, u: float) -> float:
    """(price - u) * weight for one product."""
    prod = instance.product(product_id)
    return (prod.price - u) * prod.weight


def scaled_margins(instance: Instance, product_ids: Iterable[int], u: float) -> list[float]:
    """``scaled_margin`` of each product, in order."""
    return [(p.price - u) * p.weight for p in instance.products_of(product_ids)]


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


def certified_sweep(instance: Instance, offsets: Iterable[float], read: Callable) -> list[Any]:
    """The value ``read(u, margin_ranking(instance, u))`` gives at each u in ascending ``offsets``.

    ``read`` returns a value and the gaps that decide it. The sweep ranks
    the first and last offset, then bisects: a stretch between two ranked
    offsets is filled with their common value, unranked, when every gap at
    both ends exceeds the band (``margin_band`` at the largest |offset|),
    and otherwise its middle offset is ranked. Each gap must be a line in
    u, or a minimum of lines, while the value holds, so it is concave and
    stays above the band inside the stretch. The band dwarfs the rounding
    of ``(u - price) * weight`` (about 1e-16 of the same scale), so every
    skipped ranking reads the same value. Gaps are tested with ``>``, so a
    NaN never certifies. Filled offsets share one value.
    """
    offsets = list(offsets)
    if not offsets:
        return []
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise ValueError("certified_sweep needs ascending offsets")
    # floored at the smallest normal float: below it keys round by an absolute
    # amount rather than a relative one
    band = max(
        margin_band(instance, max(abs(offsets[0]), abs(offsets[-1]))), sys.float_info.min
    )
    values: list[Any] = [None] * len(offsets)
    clear = [False] * len(offsets)

    def rank(i: int) -> None:
        values[i], gaps = read(offsets[i], margin_ranking(instance, offsets[i]))
        clear[i] = all(gap > band for gap in gaps)

    last = len(offsets) - 1
    rank(0)
    rank(last)
    stretches = [(0, last)]
    while stretches:
        i, j = stretches.pop()
        if j - i < 2:
            continue
        if clear[i] and clear[j] and values[i] == values[j]:
            values[i + 1 : j] = [values[i]] * (j - i - 1)
            continue
        mid = (i + j) // 2
        rank(mid)
        stretches += [(mid, j), (i, mid)]
    return values


def top_id_sweep(instance: Instance, offsets: Iterable[float], size: int) -> list[list[int]]:
    """``top_ids(margin_ranking(instance, u), size)`` at each u in ascending ``offsets``."""
    return certified_sweep(instance, offsets, lambda u, ranked: top_with_gaps(ranked, size))


def top_with_gaps(ranked: list[tuple[float, int]], size: int) -> tuple[list[int], list[float]]:
    """``top_ids(ranked, size)`` and the gaps that decide it: each adjacent key gap among
    the members and the first outsider, the weakest member's margin and, when fewer than
    ``size`` margins are positive, the first outsider's key. A gap up to the first outsider
    is a minimum of lines in u, every other gap a line."""
    top = top_ids(ranked, size)
    keys = [key for key, _ in ranked[: len(top) + 1]]
    gaps = [b - a for a, b in zip(keys, keys[1:])]
    if top:
        gaps.append(-keys[len(top) - 1])
    if len(top) < size and len(keys) > len(top):
        gaps.append(keys[len(top)])
    return top, gaps


def margin_band(instance: Instance, u: float) -> float:
    """Width within which margins at offsets up to u count as tied: ``CONFIRM_BAND``
    of the largest ``(price + u) * weight``, the scale of every margin there (0 for
    no products)."""
    return CONFIRM_BAND * max(((p.price + u) * p.weight for p in instance.products), default=0.0)


def top_ids(ranked: list[tuple[float, int]], size: int) -> list[int]:
    """Ids of the top set in a ``margin_ranking``: the at most ``size`` leading
    entries with a positive margin (a negative first entry); size < 0 counts as 0."""
    return [pid for neg_margin, pid in ranked[: max(0, size)] if neg_margin < 0.0]


def min_margin_member(instance: Instance, top: Assortment, u: float) -> int:
    """Member of a top set with the smallest margin (ties to smaller id)."""
    if len(top) == 0:
        raise UndefinedTopSetError("top set is empty; minimum-margin member undefined")
    return min(top.ids, key=lambda i: (scaled_margin(instance, i, u), i))


def top_set_with_slack(instance: Instance, size: int, delta: float, u: float) -> frozenset[int]:
    """Top set plus every outside product within ``delta * u`` of its weakest member.

    Requires a nonempty top set (the threshold is anchored at the minimum
    margin inside it).
    """
    top = top_margin_set(instance, size, u)
    anchor = scaled_margin(instance, min_margin_member(instance, top, u), u)
    extra = [
        p.id
        for p in instance.products
        if p.id not in top and anchor - (p.price - u) * p.weight <= delta * u
    ]
    return frozenset(top.ids) | frozenset(extra)


def margin_breakpoints(instance: Instance, delta: float = 0.0) -> list[float]:
    """Nonnegative offsets where any margin ordering or threshold can change.

    Collects pairwise crossings of the margin lines, their zero crossings
    (u = price), and, for delta > 0, the offsets where one margin trails
    another by exactly delta * u. Between consecutive breakpoints every
    top set and slack set is constant. At delta = 0 each unordered pair is
    visited once: float subtraction is exactly antisymmetric, so (b, a)
    would give a quotient equal to that of (a, b), which is added first.
    """
    points: set[float] = set()
    products = instance.products
    for prod in products:
        points.add(prod.price)
    for a_idx in range(len(products)):
        for b_idx in range(a_idx + 1 if delta == 0.0 else 0, len(products)):
            if a_idx == b_idx:
                continue
            pa, pb = products[a_idx], products[b_idx]
            # crossing of margin lines a and b, offset by delta * u:
            # (pa.price - u) pa.weight - (pb.price - u) pb.weight = delta * u
            denom = pa.weight - pb.weight + delta
            if denom != 0.0:
                u = (pa.price * pa.weight - pb.price * pb.weight) / denom
                if math.isfinite(u) and u >= 0.0:
                    points.add(u)
    return sorted(points)


def interval_offsets(breakpoints: list[float]) -> list[float]:
    """One probe offset strictly inside each interval of (0, inf).

    The midpoint between consecutive positive breakpoints, plus one point
    beyond the last breakpoint (where all margins are nonpositive).
    """
    positive = [b for b in breakpoints if b > 0.0]
    samples: list[float] = []
    prev = 0.0
    for b in positive:
        if b > prev:
            samples.append(prev + (b - prev) / 2.0)
        prev = b
    samples.append(prev + 1.0)
    return samples
