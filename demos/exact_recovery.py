"""Walk through one exact-oracle solve and compare it with brute force.

The greedy add-exchange search talks to the choice model only through a
revenue oracle. With exact MNL revenues, seed size 0 and exchange budget
C + 1, it lands on the brute-force optimum while issuing a small fraction
of the oracle calls an exhaustive search would need.

Run: python3 demos/exact_recovery.py
"""

from assortopt import (
    CountingOracle,
    ExactMnlOracle,
    GeneratorSpec,
    GreedyConfig,
    brute_force_opt,
    call_count_bound,
    generate_instance,
    greedy_opt,
)
from assortopt.reference import revenues_agree

instance = generate_instance(GeneratorSpec(n=10, seed=2024))
capacity = 4

print(f"instance: {instance.n} products, capacity {capacity}")
for p in instance.products:
    print(f"  product {p.id}: weight {p.weight:7.3f}  price {p.price:7.2f}")

# exhaustive reference: every assortment of size <= 4
counting = CountingOracle(ExactMnlOracle(instance))
brute = brute_force_opt(counting, instance.ids(), capacity)
print(f"\nbrute force: {brute.assortment.ids} revenue {brute.revenue:.6f} "
      f"({counting.stats.call_count} oracle calls)")
for k, (assortment, revenue) in sorted(brute.per_size_optima.items()):
    print(f"  best of size <= {k}: {assortment.ids} revenue {revenue:.6f}")

# greedy add-exchange search from the empty seed
config = GreedyConfig(seed_size=0, capacity=capacity, exchange_budget=capacity + 1)
report = greedy_opt(config, instance.ids(), ExactMnlOracle(instance), trace=True)
print(f"\ngreedy search: {report.best_assortment.ids} revenue {report.best_oracle_revenue:.6f}")
print(f"  oracle calls: {report.oracle_calls} "
      f"(analytic bound {call_count_bound(instance.n, config)})")

seed, records = report.traces[0]
print(f"  trace from seed {seed.ids or '()'}:")
for record in records:
    if record.action == "add":
        print(f"    step {record.step_index}: add {record.added} "
              f"-> {record.assortment_after.ids} at {record.revenue_after:.6f}")
    elif record.action == "exchange":
        print(f"    step {record.step_index}: swap in {record.added}, out {record.removed} "
              f"-> {record.assortment_after.ids} at {record.revenue_after:.6f}")

match = revenues_agree(report.best_oracle_revenue, brute.revenue)
print(f"\ngreedy equals brute force: {match}")
