"""Capacitated MNL optima computed without the assortopt package.

Under MNL with a no-purchase weight of 1, an offer set S earns

    R(S) = sum_{i in S} p_i w_i / (1 + sum_{i in S} w_i).

R(S) >= R exactly when sum_{i in S} (p_i - R) w_i >= R, so the best revenue
R*_k over sets of at most k products is the fixed point of

    R  <-  R(top_k(R)),    top_k(R) = the k largest positive margins (p_i - R) w_i,

the form of the capacitated optimum behind StaticMNL (Rusmevichientong,
Shen & Shmoys 2010). Started at R = 0 the iteration is Dinkelbach's method:
below R*_k the top set earns strictly more than R (by at least
(R*_k - R) * w(S*)), and no set earns more than R*_k, so R rises through
distinct sets and stops at R*_k after finitely many steps.

``exhaustive_optima`` enumerates every subset instead; ``self_check``
compares the two on small random instances. Neither uses the program's
revenue formula, solvers or instance generator.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Relative tolerance for revenue comparisons between independent computations.
REL_TOL = 1e-9


def read_instance(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, prices, weights) of an instance file, ordered by product id."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    products = sorted(document["products"], key=lambda entry: entry["id"])
    ids = np.array([entry["id"] for entry in products], dtype=np.int64)
    prices = np.array([float(entry["price"]) for entry in products])
    weights = np.array([float(entry["weight"]) for entry in products])
    return ids, prices, weights


def revenue(prices: np.ndarray, weights: np.ndarray, members: np.ndarray) -> float:
    """R(S) for the products at index positions ``members``."""
    if len(members) == 0:
        return 0.0
    return math.fsum(prices[members] * weights[members]) / (1.0 + math.fsum(weights[members]))


def optimum(prices: np.ndarray, weights: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Best revenue over sets of at most ``k`` products, and one such set (index positions)."""
    best_rev, best = 0.0, np.zeros(0, dtype=np.int64)
    if k <= 0 or len(prices) == 0:
        return best_rev, best
    # every step moves to a different set with strictly higher revenue
    for _ in range(100_000):
        margins = (prices - best_rev) * weights
        top = np.argsort(-margins, kind="stable")[:k]
        top = top[margins[top] > 0.0]
        if top.size == 0:
            return best_rev, best
        rev = revenue(prices, weights, top)
        if not rev > best_rev:
            return best_rev, best
        best_rev, best = rev, np.sort(top)
    raise RuntimeError("fixed-point iteration did not settle")


def optima(prices: np.ndarray, weights: np.ndarray, kmax: int) -> list[float]:
    """R*_k for k = 0..kmax."""
    return [optimum(prices, weights, k)[0] for k in range(kmax + 1)]


def exhaustive_optima(prices: np.ndarray, weights: np.ndarray, kmax: int) -> list[float]:
    """R*_k for k = 0..kmax by scoring every subset (small n only)."""
    n = len(prices)
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    sizes = masks.sum(axis=1)
    revenues = (masks @ (prices * weights)) / (1.0 + masks @ weights)
    return [float(revenues[sizes <= k].max()) for k in range(kmax + 1)]


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def self_check(seed: int, instances: int = 60) -> list[str]:
    """Compare ``optimum`` with exhaustive enumeration on random instances with n <= 10.

    Weights are log-uniform and prices uniform over ranges wider than the
    program's defaults, so near-ties and tiny weights are exercised too.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    problems = []
    for index in range(instances):
        n = int(rng.integers(1, 11))
        weights = np.exp(rng.uniform(math.log(0.01), math.log(100.0), n))
        prices = rng.uniform(0.0, 100.0, n)
        fixed_point = optima(prices, weights, n)
        enumerated = exhaustive_optima(prices, weights, n)
        for k, (a, b) in enumerate(zip(fixed_point, enumerated)):
            if not close(a, b, 1e-12):
                problems.append(
                    f"reference self-check: instance {index} (n={n}) k={k}: "
                    f"fixed point {a!r} vs enumeration {b!r}"
                )
    return problems
