"""Why pure-addition greedy fails: optima do not nest across capacities.

The committed witness instance has a best singleton that does not appear
in the best pair: a heavy, mid-priced product wins alone, but two light
high-priced products win together. An addition-only greedy locks onto the
singleton and can never let it go; allowing exchanges repairs exactly
this.

Run: python3 demos/nesting_failure.py
"""

import pathlib

from assortopt import (
    ExactMnlOracle,
    GreedyConfig,
    brute_force_opt,
    greedy_opt,
    mnl_revenue,
    naive_greedy,
)
from assortopt.io import load_instance

fixture = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "nesting_witness.json"
instance, meta = load_instance(str(fixture))
capacity = meta["capacity"]
oracle = ExactMnlOracle(instance)

print("witness instance:")
for p in instance.products:
    print(f"  product {p.id}: weight {p.weight:7.3f}  price {p.price:7.2f}")

brute = brute_force_opt(oracle, instance.ids(), capacity)
print("\nper-capacity optima (brute force):")
for k in range(1, capacity + 1):
    assortment, revenue = brute.per_size_optima[k]
    print(f"  size <= {k}: {assortment.ids} revenue {revenue:.4f}")

c1, c2 = meta["c1"], meta["c2"]
opt_c1, opt_c2 = brute.per_size_optima[c1][0], brute.per_size_optima[c2][0]
print(f"\nnesting fails: best of size <= {c1} is {opt_c1.ids}, "
      f"not contained in best of size <= {c2} = {opt_c2.ids}")

naive = naive_greedy(capacity, instance.ids(), oracle)
first_added = brute.per_size_optima[1][0]
print(f"\naddition-only greedy: {naive.ids} revenue {mnl_revenue(instance, naive):.4f}")
print(f"  its first step takes the best singleton {first_added.ids} and never lets go")

solve = greedy_opt(GreedyConfig(0, capacity, capacity + 1), instance.ids(), oracle, trace=True)
print(f"\nadd-exchange greedy: {solve.best_assortment.ids} "
      f"revenue {solve.best_oracle_revenue:.4f}")
for record in solve.traces[0][1]:
    if record.action == "exchange":
        print(f"  the exchange that escaped the trap: in {record.added}, out {record.removed} "
              f"-> {record.assortment_after.ids} at {record.revenue_after:.4f}")

shortfall = brute.revenue - mnl_revenue(instance, naive)
print(f"\nrevenue left on the table by the naive baseline: {shortfall:.4f} "
      f"({shortfall / brute.revenue:.2%})")
assert solve.best_assortment == brute.assortment
