"""Exact reference solvers used as ground truth in tests.

Two independent routes to the capacitated optimum: exhaustive
enumeration against any oracle, and an MNL-specific solver that only
inspects the candidate collection of top-margin sets (piecewise constant
in the revenue offset, so finitely many). A third routine searches for
instances whose per-capacity optima fail to nest, witnessing why the
pure-addition greedy baseline is not exact.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from math import comb

from .errors import EnumerationCapError
from .generate import GeneratorSpec, derive_seed, generate_instance
from .instance import Assortment, Instance
from .oracles import RevenueOracle, make_exact_oracle, mnl_revenue
from .transform import interval_offsets, margin_breakpoints, top_margin_set

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


@dataclass(frozen=True)
class NestingWitness:
    """An instance whose size-c1 optimum is not inside its size-c2 optimum."""

    instance: Instance
    c1: int
    c2: int
    opt_c1: Assortment
    opt_c2: Assortment
    generator_seed: int | None = None


def brute_force_opt(
    oracle: RevenueOracle,
    universe,
    capacity: int,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> ExactSolution:
    """Optimum by enumerating every assortment of size <= capacity.

    Ties break toward the lexicographically smallest id tuple. Refuses to
    run (never samples) if the enumeration would exceed the cap.
    """
    ids = sorted(set(universe))
    capacity = max(0, capacity)
    total = sum(comb(len(ids), k) for k in range(capacity + 1))
    if total > enumeration_cap:
        raise EnumerationCapError(
            f"enumerating {total} assortments exceeds the cap of {enumeration_cap}"
        )

    per_size: dict[int, tuple[Assortment, float]] = {}
    best_key: tuple[float, tuple[int, ...]] | None = None
    best: tuple[Assortment, float] | None = None
    for k in range(capacity + 1):
        for members in itertools.combinations(ids, k):
            assortment = Assortment(members)
            rev = oracle.evaluate(assortment)
            key = (-rev, members)
            if best_key is None or key < best_key:
                best_key = key
                best = (assortment, rev)
        per_size[k] = best  # best over sizes <= k: sizes are scanned in order
    return ExactSolution(assortment=best[0], revenue=best[1], per_size_optima=per_size)


def candidate_set_collection(instance: Instance, size: int) -> list[Assortment]:
    """All distinct top-margin sets of at most ``size`` products over u >= 0.

    The top set only changes where margin lines cross each other or cross
    zero, so probing each breakpoint and each interval between them finds
    every member of the collection (the empty set appears past the largest
    price). Distinct sets are returned in lexicographic order.
    """
    points = margin_breakpoints(instance)
    seen: set[tuple[int, ...]] = set()
    for u in [0.0, *points, *interval_offsets(points)]:
        seen.add(top_margin_set(instance, size, u).ids)
    return [Assortment(ids) for ids in sorted(seen)]


def candidate_set_opt(instance: Instance, capacity: int) -> ExactSolution:
    """MNL-specific optimum via the top-margin candidate collection.

    Evaluates exact MNL revenue on every candidate set of each size cap
    k = 0..capacity and keeps the best; agrees with brute force on the
    optimal revenue. The collection for the full capacity should hold at
    most N*C + 1 distinct sets; larger collections are logged, not fatal,
    since the bound's constant is a working assumption.
    """
    capacity = max(0, capacity)
    per_size: dict[int, tuple[Assortment, float]] = {}
    collection_size = None
    for k in range(capacity + 1):
        candidates = candidate_set_collection(instance, k)
        if k == capacity:
            collection_size = len(candidates)
            bound = instance.n * capacity + 1
            if collection_size > bound:
                logger.warning(
                    "candidate collection has %d sets, above the working bound %d (N=%d, C=%d)",
                    collection_size,
                    bound,
                    instance.n,
                    capacity,
                )
        best_key = None
        best = None
        for assortment in candidates:
            rev = mnl_revenue(instance, assortment)
            key = (-rev, assortment.ids)
            if best_key is None or key < best_key:
                best_key = key
                best = (assortment, rev)
        per_size[k] = best
    final = per_size[capacity]
    return ExactSolution(
        assortment=final[0],
        revenue=final[1],
        per_size_optima=per_size,
        candidate_collection_size=collection_size,
    )


def find_nesting_witness(
    seed: int,
    n: int,
    capacity: int,
    attempts: int,
    weight_range: tuple[float, float] = (0.1, 10.0),
    price_range: tuple[float, float] = (1.0, 100.0),
) -> NestingWitness | None:
    """Search random instances for a failure of the nesting property.

    Draws instances with per-attempt derived seeds, brute-forces the
    per-size optima, and returns the first pair c1 < c2 <= capacity whose
    optima do not nest. The found witness is re-verified against a fresh
    brute-force run before being returned. Returns None if all attempts
    nest.
    """
    for attempt in range(attempts):
        attempt_seed = derive_seed("nesting-witness", seed, attempt)
        spec = GeneratorSpec(
            n,
            weight_lo=weight_range[0],
            weight_hi=weight_range[1],
            price_lo=price_range[0],
            price_hi=price_range[1],
            seed=attempt_seed,
        )
        instance = generate_instance(spec)
        oracle = make_exact_oracle(instance)
        solution = brute_force_opt(oracle, instance.ids(), capacity)
        for c1 in range(1, capacity):
            opt_c1 = solution.per_size_optima[c1][0]
            for c2 in range(c1 + 1, capacity + 1):
                opt_c2 = solution.per_size_optima[c2][0]
                if not set(opt_c1.ids) <= set(opt_c2.ids):
                    recheck = brute_force_opt(oracle, instance.ids(), c2)
                    if (
                        recheck.per_size_optima[c1][0] == opt_c1
                        and recheck.per_size_optima[c2][0] == opt_c2
                    ):
                        return NestingWitness(
                            instance=instance,
                            c1=c1,
                            c2=c2,
                            opt_c1=opt_c1,
                            opt_c2=opt_c2,
                            generator_seed=attempt_seed,
                        )
    return None
