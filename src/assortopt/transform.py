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
reader's value can change. It fills a stretch of the ascending offsets
without ranking it when both ends give the same value with every gap that
decides it wider than the stretch's band (``stretch_band``): those gaps are
linear or concave in u, so they stay wide inside the stretch, far above the
rounding of the keys, and every skipped ranking would read the same value.
Each gap comes with its slope in u, so a stretch that cannot be filled is
split where the gap lines of its left end predict the value to change,
rather than always at its middle.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from operator import gt
from typing import Any, Callable, Iterable

from .instance import Assortment, Instance
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

    ``read`` returns a value and the lines of the gaps that decide it, each as
    ``(gap at u, slope in u)``. The sweep ranks the first and last offset,
    then splits: a stretch between two ranked offsets is filled with their
    common value, unranked, when every gap at both ends exceeds the
    stretch's band (``stretch_band`` at the larger |offset| of its ends).
    Each gap must be a line in u, or a minimum of lines, while the value
    holds, so it is concave and stays above the band inside the stretch.
    The band dwarfs the rounding of ``(u - price) * weight`` there (about
    1e-16 of the same scale), so every skipped ranking reads the same
    value. Gaps are tested with ``>``, so a NaN never certifies. Filled
    offsets share one value.

    Any other stretch is split at one ranked offset. When its left end is
    clear, the split is predicted from that end's lines (``_predicted_split``):
    the last offset before the first falling line reaches the band, up to
    which the value should hold, or, when that line crosses before the next
    offset, the first offset past the crossing. When no line predicts a
    crossing inside, or the left end is not clear, the split is the middle
    offset. A predicted split that turns out not clear has both its halves
    split at the middle, so a run of unclear offsets is bisected rather than
    stepped through. A split only decides which offsets get ranked, never a
    value.
    """
    offsets = list(offsets)
    if not offsets:
        return []
    if any(map(gt, offsets, offsets[1:])):
        raise ValueError("certified_sweep needs ascending offsets")
    band_base, band_per_unit = stretch_band(instance)
    values: list[Any] = [None] * len(offsets)
    lines: list[Any] = [None] * len(offsets)
    narrowest = [math.nan] * len(offsets)  # each ranked offset's smallest gap, NaN if any is

    def rank(i: int) -> None:
        values[i], lines[i] = read(offsets[i], margin_ranking(instance, offsets[i]))
        low = math.inf
        for gap, _ in lines[i]:
            if not gap >= low:  # smaller, or NaN, which is kept as the answer
                low = gap
                if gap != gap:
                    break
        narrowest[i] = low

    last = len(offsets) - 1
    rank(0)
    rank(last)
    stretches = [(0, last, False)] if last > 1 else []  # (i, j, halve) with offsets inside
    while stretches:
        i, j, halve = stretches.pop()
        reach = -offsets[i] if -offsets[i] > offsets[j] else offsets[j]  # the larger |offset|
        band = band_base + band_per_unit * reach
        clear = narrowest[i] > band
        if clear and narrowest[j] > band and values[i] == values[j]:
            values[i + 1 : j] = [values[i]] * (j - i - 1)
            continue
        split = None if halve or not clear else _predicted_split(offsets, i, j, band, lines[i])
        predicted = split is not None
        if not predicted:
            split = (i + j) // 2
        rank(split)
        halve = predicted and not narrowest[split] > band  # a prediction that missed
        if j - split > 1:
            stretches.append((split, j, halve))
        if split - i > 1:
            stretches.append((i, split, halve))
    return values


def _predicted_split(
    offsets: list[float], i: int, j: int, band: float, lines: list[tuple[float, float]]
) -> int | None:
    """The offset to rank inside stretch (i, j) of a sweep, from the gap lines of its clear
    left end: the last offset before the earliest falling line reaches ``band``, where the
    value should still hold; or, when that comes before the next offset, the first offset
    past where the line falls below ``-band``, just past the crossing. None when no line
    reaches the band inside the stretch or the crossing outlasts it."""
    # how far past offsets[i] the first falling line falls to the band, and that line
    when, first = math.inf, None
    for gap, slope in lines:
        if slope < 0.0 and (band - gap) / slope < when:
            when, first = (band - gap) / slope, (gap, slope)
    reach = offsets[i] + when
    if not reach < offsets[j]:
        return None
    split = bisect_left(offsets, reach, i + 1, j) - 1
    if split == i:
        gap, slope = first
        split = bisect_right(offsets, offsets[i] - (gap + band) / slope, i + 1, j)
    return split if split < j else None


def top_id_sweep(instance: Instance, offsets: Iterable[float], size: int) -> list[list[int]]:
    """``top_ids(margin_ranking(instance, u), size)`` at each u in ascending ``offsets``."""
    weight = {p.id: p.weight for p in instance.products}
    return certified_sweep(instance, offsets, lambda u, ranked: top_with_gaps(ranked, size, weight))


def top_with_gaps(
    ranked: list[tuple[float, int]], size: int, weight: dict[int, float]
) -> tuple[list[int], list[tuple[float, float]]]:
    """``top_ids(ranked, size)`` and the lines ``(gap, slope)`` of the gaps that decide it:
    each adjacent key gap among the members and the first outsider, the weakest member's
    margin and, when fewer than ``size`` margins are positive, the first outsider's key. A
    key's slope in u is its product's ``weight``. A gap up to the first outsider is a minimum
    of lines in u, every other gap a line."""
    top = top_ids(ranked, size)
    lines = []
    if ranked:
        key, pid = ranked[0]
        for next_key, next_pid in ranked[1 : len(top) + 1]:
            lines.append((next_key - key, weight[next_pid] - weight[pid]))
            key, pid = next_key, next_pid
    if top:
        key, pid = ranked[len(top) - 1]
        lines.append((-key, -weight[pid]))
    if len(top) < size and len(ranked) > len(top):
        key, pid = ranked[len(top)]
        lines.append((key, weight[pid]))
    return top, lines


def margin_band(instance: Instance, u: float) -> float:
    """Width within which margins at offsets up to u count as tied: ``CONFIRM_BAND``
    of the largest ``(price + u) * weight``, the scale of every margin there (0 for
    no products)."""
    return CONFIRM_BAND * max(((p.price + u) * p.weight for p in instance.products), default=0.0)


def stretch_band(instance: Instance) -> tuple[float, float]:
    """``(base, per_unit)`` of a band ``base + per_unit * reach`` no narrower than
    ``margin_band(instance, u)`` at any |u| <= reach: ``CONFIRM_BAND`` of
    ``max price * weight + reach * max weight``, since prices are >= 0. The two maxima are
    taken once, here. The band is padded by a relative 1e-12 against its own rounding, and
    its base is at least the smallest normal float: below it keys round by an absolute
    amount rather than a relative one."""
    scale = CONFIRM_BAND * (1.0 + 1e-12)
    top_value = max((p.price * p.weight for p in instance.products), default=0.0)
    top_weight = max((p.weight for p in instance.products), default=0.0)
    return max(scale * top_value, sys.float_info.min), scale * top_weight


def top_ids(ranked: list[tuple[float, int]], size: int) -> list[int]:
    """Ids of the top set in a ``margin_ranking``: the at most ``size`` leading
    entries with a positive margin (a negative first entry); size < 0 counts as 0."""
    return [pid for neg_margin, pid in ranked[: max(0, size)] if neg_margin < 0.0]


def margin_breakpoints(instance: Instance, delta: float = 0.0) -> list[float]:
    """Nonnegative offsets where a margin ordering or threshold can change.

    Collects the margin lines' zero crossings (u = price) and the offsets
    where one margin trails another by exactly delta * u. At delta = 0 those
    are the pairwise crossings, between which every top set is constant, and
    each unordered pair is visited once: float subtraction is exactly
    antisymmetric, so (b, a) would give a quotient equal to that of (a, b),
    which is added first. At delta > 0 the pairwise crossings are left out:
    a slack set is constant only between points of the union with the
    delta = 0 list, which is what ``max_slack_set_size`` takes.
    """
    points = {p.price for p in instance.products}
    # each margin line (price - u) * weight as (price * weight, weight)
    lines = [(p.price * p.weight, p.weight) for p in instance.products]
    pairs = itertools.combinations(lines, 2) if delta == 0.0 else itertools.permutations(lines, 2)
    for (value_a, weight_a), (value_b, weight_b) in pairs:
        # crossing of margin lines a and b, offset by delta * u:
        # (price_a - u) weight_a - (price_b - u) weight_b = delta * u
        denom = weight_a - weight_b + delta
        if denom != 0.0:
            u = (value_a - value_b) / denom
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
