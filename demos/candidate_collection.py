"""The margin transform and the small candidate collection it induces.

Shifting every price by an offset u and weighting by the MNL weights
turns revenue comparisons into sums of per-product margins
(price - u) * weight. The "top k margins, positive only" set changes only
where margin lines cross each other or cross zero, so as u sweeps the
real line it traces out a collection of at most N*C + 1 assortments, one
of which is the exact optimum. That is the whole candidate-set solver.

Run: python3 demos/candidate_collection.py
"""

from math import comb

import numpy as np

from assortopt import (
    ExactMnlOracle,
    GeneratorSpec,
    brute_force_opt,
    candidate_set_collection,
    candidate_set_opt,
    generate_instance,
    margin_breakpoints,
    mnl_revenue,
    top_margin_set,
)

instance = generate_instance(GeneratorSpec(n=7, seed=31337))
capacity = 3

print(f"instance: {instance.n} products, capacity {capacity}")
breakpoints = margin_breakpoints(instance)
print(f"breakpoints of the top-set map: {len(breakpoints)} offsets "
      f"(pairwise crossings and zero crossings)")

# watch the top set shrink as the offset sweeps upward
print("\n  offset u   top set by margin")
for u in np.linspace(0.0, max(p.price for p in instance.products), 12):
    top = top_margin_set(instance, capacity, float(u))
    print(f"  {u:8.2f}   {top.ids}")

collection = candidate_set_collection(instance, capacity)
bound = instance.n * capacity + 1
print(f"\ndistinct candidate sets: {len(collection)} (working bound N*C+1 = {bound})")
for assortment in collection:
    print(f"  {str(assortment.ids):24} revenue {mnl_revenue(instance, assortment):9.5f}")

solution = candidate_set_opt(instance, capacity)
brute = brute_force_opt(ExactMnlOracle(instance), instance.ids(), capacity)
subsets = sum(comb(instance.n, k) for k in range(capacity + 1))
print(f"\ncandidate-set optimum: {solution.assortment.ids} revenue {solution.revenue:.6f}")
print(f"brute-force optimum:   {brute.assortment.ids} revenue {brute.revenue:.6f} "
      f"({subsets} subsets enumerated)")
print(f"agreement: {abs(solution.revenue - brute.revenue) <= 1e-9 * brute.revenue}")
