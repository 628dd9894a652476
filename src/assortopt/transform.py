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
margin, ``margin_rankings`` the one sweep of it over many offsets, and
``top_ids`` the only place a top set is read off a ranking. The revenue
fixed point ``mnl_opt`` ranks one offset per step; the candidate-set
solver and the slack-set sizes used in the noise analysis each read one
sweep.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from .instance import Assortment, Instance
from .errors import UndefinedTopSetError


def scaled_margin(instance: Instance, product_id: int, u: float) -> float:
    """(price - u) * weight for one product."""
    prod = instance.product(product_id)
    return (prod.price - u) * prod.weight


def assortment_margin(instance: Instance, assortment: Assortment, u: float) -> float:
    """Sum of members' scaled margins at offset u (0 for the empty set)."""
    return math.fsum(scaled_margin(instance, i, u) for i in assortment.ids)


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


def margin_rankings(
    instance: Instance, offsets: Iterable[float]
) -> Iterator[list[tuple[float, int]]]:
    """``margin_ranking(instance, u)`` for each u in ``offsets``, in turn.

    The one sweep behind every reader of many offsets. Each probe ranks
    afresh: re-sorting only the pairs whose computed crossing was passed
    misses the float order flips of nearly parallel lines (weights one ulp
    apart), which happen away from the computed crossing.
    """
    for u in offsets:
        yield margin_ranking(instance, u)


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
    top set and slack set is constant.
    """
    points: set[float] = set()
    products = instance.products
    for prod in products:
        points.add(prod.price)
    for a_idx in range(len(products)):
        for b_idx in range(len(products)):
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
