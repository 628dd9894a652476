"""Exact reference solvers: ground truth for the tests, the sweep and the CLI.

Three independent routes to the capacitated optimum: exhaustive
enumeration against any oracle (desk scale only), an MNL-specific solver
that only inspects the candidate collection of top-margin sets
(piecewise constant in the revenue offset, so finitely many; one event
sweep collects them for every size cap at once, ranking about once per
change of the top list), and the MNL revenue
fixed point, polynomial in N, which ``bench`` and ``solve --exact`` use.
One tie rule, ``optimum_key``, picks every optimum: the highest revenue,
then the smallest id tuple. All three agree on the revenue under every
size cap, brute force and the fixed point also on the set; the candidate
collection may miss brute force's choice among equal revenues.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from math import comb

from .errors import EnumerationCapError
from .instance import Assortment, Instance, optimum_key
from .oracles import RevenueOracle, mnl_revenue
from .transform import event_sweep, margin_ranking, stretch_band, top_ids

logger = logging.getLogger(__name__)

#: Refuse exhaustive enumeration beyond this many assortments.
DEFAULT_ENUMERATION_CAP = 2_000_000

#: Two optimal revenues agree when they differ by at most this fraction.
RELATIVE_TOLERANCE = 1e-9


def revenues_agree(revenue: float, reference: float) -> bool:
    """True when ``revenue`` is within RELATIVE_TOLERANCE of ``reference``."""
    return abs(revenue - reference) <= RELATIVE_TOLERANCE * max(1e-300, abs(reference))


@dataclass(frozen=True)
class ExactSolution:
    """Optimum plus the optima under every smaller size cap.

    ``per_size_optima[k]`` is the best assortment of size at most k, so its
    revenue is nondecreasing in k. ``candidate_collection_size`` is filled
    by the candidate-set solver (number of distinct top-margin sets seen).
    """

    assortment: Assortment
    revenue: float
    per_size_optima: dict[int, tuple[Assortment, float]]
    candidate_collection_size: int | None = None


def assortment_count(n: int, capacity: int) -> int:
    """How many assortments of at most ``capacity`` of ``n`` products there are."""
    return sum(comb(n, k) for k in range(capacity + 1))


def check_enumeration(total: int, action: str = "enumerating {} assortments") -> None:
    """Refuse an exhaustive ``action`` (``{}`` stands for ``total``) past
    ``DEFAULT_ENUMERATION_CAP``."""
    if total > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{action.format(total)} exceeds the cap of {DEFAULT_ENUMERATION_CAP}"
        )


def brute_force_opt(oracle: RevenueOracle, universe, capacity: int) -> ExactSolution:
    """Optimum by enumerating every assortment of size <= capacity.

    Ties break toward the lexicographically smallest id tuple. Refuses to
    run (never samples) if the enumeration would exceed the cap.
    """
    ids = sorted(set(universe))
    capacity = max(0, capacity)
    check_enumeration(assortment_count(len(ids), capacity))

    empty = Assortment()
    best = (empty, oracle.evaluate(empty))
    per_size = {0: best}
    for k in range(1, capacity + 1):
        scored = ((s, oracle.evaluate(s)) for s in map(Assortment, itertools.combinations(ids, k)))
        best = min(itertools.chain([best], scored), key=optimum_key)  # best over sizes <= k
        per_size[k] = best
    return ExactSolution(assortment=best[0], revenue=best[1], per_size_optima=per_size)


def mnl_opt(instance: Instance, capacity: int) -> ExactSolution:
    """MNL optimum by the revenue fixed point, one size cap after another.

    For each k = 1..capacity, iterates u <- R(top_k(u)) starting from the
    optimum for k - 1, where top_k(u) is the at most k products with the
    largest positive margin (p - u) * w. This is Dinkelbach's method on the
    StaticMNL form of Rusmevichientong, Shen & Shmoys (2010): below the
    optimal revenue the top set earns strictly more than u, and no set earns
    more than the optimum, so u rises through distinct sets and stops there.
    Each step ranks the products once.

    ``per_size_optima`` has brute_force_opt's contract, tie-break included:
    ``_best_tied_set`` scores the sets the ranking at the optimum cannot
    tell apart, and the fixed point's own set competes with them. That
    raises EnumerationCapError only when the tied products admit more than
    DEFAULT_ENUMERATION_CAP mixes, e.g. dozens of products of distinct
    weights all priced exactly at the optimal revenue. Each mix is a
    distinct set of at most k products, so brute force would refuse that
    size cap too.
    """
    capacity = max(0, capacity)
    best = (Assortment(), 0.0)
    per_size = {0: best}
    for k in range(1, capacity + 1):
        assortment, u = best
        while True:
            ranked = margin_ranking(instance, u)
            top = Assortment.of(top_ids(ranked, k))
            rev = mnl_revenue(instance, top)
            if not rev > u:
                break
            assortment, u = top, rev
        if u > 0.0:  # at u = 0 every price is 0, and the empty set wins every tie
            best = min((assortment, u), _best_tied_set(instance, ranked, k, u), key=optimum_key)
        per_size[k] = best
    return ExactSolution(assortment=best[0], revenue=best[1], per_size_optima=per_size)


def _best_tied_set(
    instance: Instance, ranked: list[tuple[float, int]], size: int, u: float
) -> tuple[Assortment, float]:
    """Brute force's choice among the sets that tie at the optimal revenue u.

    The optimal sets are those of at most ``size`` products with the largest
    margin sum at u. They hold every product whose margin is clearly above
    the size-th largest; when that margin is positive the products tied
    with it fill the remaining places, and otherwise products priced at u
    (margin 0) may fill some of them. Margins within the sweep's band at u
    (``stretch_band``) count as tied, since rounding may split an exact tie,
    and so may the revenues of tied sets: each mix of tied products is
    scored, taking the smallest ids among products of equal price and
    weight. A wider band only adds mixes, each scored by its exact revenue.
    """
    base, per_unit = stretch_band(instance)
    band = base + per_unit * u
    margins = [(-neg_margin, pid) for neg_margin, pid in ranked]
    edge = margins[size - 1][0] if len(margins) >= size else 0.0
    if edge <= band:
        edge = 0.0
    chosen = [pid for margin, pid in margins if margin > edge + band]
    slots = size - len(chosen)
    groups: dict[tuple[float, float], list[int]] = {}
    for pid in sorted(pid for margin, pid in margins if abs(margin - edge) <= band):
        product = instance.product(pid)
        groups.setdefault((product.price, product.weight), []).append(pid)
    sizes = [len(members) for members in groups.values()]
    fill = edge > 0.0
    check_enumeration(_count_mixes(sizes, slots, fill), "scoring {} mixes of tied products")
    tied_sets = (
        Assortment.of(chosen + picks) for picks in _mixes(list(groups.values()), slots, fill)
    )
    return min(((s, mnl_revenue(instance, s)) for s in tied_sets), key=optimum_key)


def _count_mixes(sizes: list[int], slots: int, fill: bool) -> int:
    """How many count vectors 0 <= n[g] <= sizes[g] add up to at most ``slots``
    (exactly ``slots`` when ``fill``)."""
    ways = [1] + [0] * slots  # ways[s]: mixes of the groups so far that add s products
    for size in sizes:
        sums = list(itertools.accumulate(ways, initial=0))
        ways = [sums[s + 1] - sums[max(0, s - size)] for s in range(slots + 1)]
    return ways[slots] if fill else sum(ways)


def _mixes(groups: list[list[int]], slots: int, fill: bool):
    """The products each count vector of ``_count_mixes`` adds: the first n[g] of group g.

    Only groups with n[g] > 0 are visited, and, when ``fill``, only while the
    groups left can still fill the slots, so the work follows the number of
    mixes rather than the number of groups.
    """
    room = list(itertools.accumulate(reversed([len(g) for g in groups]), initial=0))[::-1]
    stack = [(0, [], slots)]
    while stack:
        start, picks, left = stack.pop()
        if not (fill and left):
            yield picks
        for g in range(start, len(groups) if left else start):
            if fill and room[g] < left:
                break
            for n in range(1, min(len(groups[g]), left) + 1):
                if not fill or room[g + 1] >= left - n:
                    stack.append((g + 1, picks + groups[g][:n], left - n))


def candidate_set_collection(instance: Instance, size: int) -> list[Assortment]:
    """All distinct top-margin sets of at most ``size`` products over u >= 0,
    in lexicographic order: the candidate sweep read at cap ``size``."""
    return [Assortment(ids) for ids in sorted(_candidate_sets(instance, size)[-1])]


def _candidate_sets(instance: Instance, capacity: int) -> list[set[tuple[int, ...]]]:
    """The distinct top sets of every size cap 0..capacity over u >= 0, from one sweep.

    Entry k holds the id tuples of the top sets of at most k products. A top
    set only changes where margin lines cross each other or cross zero, so
    probing 0, each breakpoint and one offset inside each interval between
    them finds every member (the empty set appears past the largest price).
    One ``event_sweep`` gives the top list under the capacity of each run of
    equal lists over those probes, without listing them: it ranks about once
    per run, between consecutive crossings that change the list. The top set
    under cap k is the first k of the top list under the capacity, so each
    run adds its prefixes once.
    """
    capacity = max(0, capacity)
    sets: list[set[tuple[int, ...]]] = [{()}] + [set() for _ in range(capacity)]
    if capacity == 0:
        return sets
    for _, top in event_sweep(instance, capacity):
        for k in range(1, capacity + 1):
            sets[k].add(tuple(sorted(top[:k])))
    return sets


def candidate_set_opt(instance: Instance, capacity: int) -> ExactSolution:
    """MNL-specific optimum via the top-margin candidate collection.

    Evaluates exact MNL revenue on every candidate set of each size cap
    k = 1..capacity, all from one sweep, and keeps the best (cap 0 admits
    only the empty set); agrees with brute force on the optimal revenue.
    A set in the collections of several caps is scored once.
    The collection for the full capacity should hold at most N*C + 1
    distinct sets; larger collections are logged, not fatal, since the
    bound's constant is a working assumption.
    """
    capacity = max(0, capacity)
    collections = _candidate_sets(instance, capacity)
    collection_size = len(collections[-1])
    bound = instance.n * capacity + 1
    if collection_size > bound:
        logger.warning(
            "candidate collection has %d sets, above the working bound %d (N=%d, C=%d)",
            collection_size,
            bound,
            instance.n,
            capacity,
        )
    candidates = map(Assortment, set().union(*collections[1:]))
    scored = {s.ids: (s, mnl_revenue(instance, s)) for s in candidates}
    per_size = {0: (Assortment(), 0.0)}
    for k in range(1, capacity + 1):
        per_size[k] = min((scored[ids] for ids in collections[k]), key=optimum_key)
    final = per_size[capacity]
    return ExactSolution(
        assortment=final[0],
        revenue=final[1],
        per_size_optima=per_size,
        candidate_collection_size=collection_size,
    )
