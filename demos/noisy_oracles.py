"""Degrade the revenue oracle and watch the solver stay inside its guarantee.

Each assortment's estimate is scaled down by its own deterministic factor
in [0, eps], eps being the one noise level of the ``NoiseSpec``; the gap
bound reads the same eps. The solver's realized optimality gap (re-measured with
exact revenues) must stay below f = (W/w_opt) * 4*C*eps/(1 - eps) whenever
that bound is informative (f < 1). The exchange budget is raised to one
more than the worst-case slack-set size so the guarantee applies.

Run: python3 demos/noisy_oracles.py
"""

from assortopt import (
    GeneratorSpec,
    GreedyConfig,
    NoiseSpec,
    brute_force_opt,
    compute_bounds,
    generate_instance,
    greedy_opt,
    make_exact_oracle,
    make_noisy_oracle,
    max_slack_set_size,
    realized_gap,
)

capacity = 3
print(f"{'eps':>9} {'budget':>7} {'realized gap':>13} {'guarantee f':>12} {'within':>7}")

for eps in (0.0005, 0.001, 0.005, 0.01, 0.05):
    worst_gap = 0.0
    worst_f = 0.0
    budgets = []
    for index in range(40):
        instance = generate_instance(GeneratorSpec(8, seed=10_000 + index))
        exact = make_exact_oracle(instance)
        brute = brute_force_opt(exact, instance.ids(), capacity)

        bound = compute_bounds(instance, capacity, eps, brute)
        slack_size = max_slack_set_size(instance, capacity, 2.0 * bound.inputs.delta_cap)
        budget = max(capacity + 1, slack_size + 1)
        budgets.append(budget)

        noise = NoiseSpec(mode="seeded-uniform", eps=eps, seed=index)
        solve = greedy_opt(
            GreedyConfig(0, capacity, budget), instance.ids(), make_noisy_oracle(exact, noise)
        )
        gap = realized_gap(instance, solve.best_assortment, brute)

        if bound.f_value < 1.0 and gap > worst_gap:
            worst_gap = gap
            worst_f = bound.f_value

    within = worst_gap <= worst_f or worst_f == 0.0
    print(
        f"{eps:>9g} {max(budgets):>7} {worst_gap:>13.3e} "
        f"{worst_f:>12.3e} {'yes' if within else 'NO':>7}"
    )

print("\nworst realized gap per noise level, against the binding guarantee at that gap")
