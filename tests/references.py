"""Reference definitions that the tests pin the library against.

No CLI path, demo or benchmark runs these, so they live beside the tests
rather than in the package:

* the MNL choice probability, the cross-check of ``mnl_revenue``,
* the slack set at one offset, the definition ``max_slack_set_size``
  must meet at every probe,
* the probes themselves: one offset inside each interval between the
  breakpoints, over the full range (the sweeps list only a window of them),
* the nesting-witness search behind ``fixtures/nesting_witness.json``,
* the instance digest as ``json.dumps`` of the instance document, which
  ``io.instance_digest`` formats in one join.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from assortopt.errors import AssortoptError, ValidationError
from assortopt.generate import GeneratorSpec, derive_seed, generate_instance
from assortopt.instance import Assortment, Instance
from assortopt.io import instance_to_document
from assortopt.oracles import ExactMnlOracle, total_weight
from assortopt.reference import brute_force_opt
from assortopt.transform import scaled_margin, top_margin_set

#: Sentinel id for the no-purchase outcome (its weight is always 1).
NO_PURCHASE = 0


class InvalidChoiceError(ValidationError):
    """A choice outcome is neither a member of the assortment nor no-purchase."""

    code = "invalid-choice"


class UndefinedTopSetError(AssortoptError):
    """The top set is empty, so its minimum-margin member is undefined."""


def mnl_choice_prob(instance: Instance, assortment: Assortment, choice: int) -> float:
    """Probability that an arriving customer picks ``choice`` from the offer set.

    ``choice`` is a member product id or ``NO_PURCHASE``. Probabilities over
    the members plus no-purchase sum to 1.
    """
    denom = total_weight(instance, assortment)
    if choice == NO_PURCHASE:
        return 1.0 / denom
    if choice not in assortment:
        raise InvalidChoiceError(f"choice {choice} is not offered in {assortment.ids}")
    return instance.product(choice).weight / denom


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


@dataclass(frozen=True)
class NestingWitness:
    """An instance whose size-c1 optimum is not inside its size-c2 optimum."""

    instance: Instance
    c1: int
    c2: int
    opt_c1: Assortment
    opt_c2: Assortment
    generator_seed: int | None = None


def find_nesting_witness(seed: int, n: int, capacity: int, attempts: int) -> NestingWitness | None:
    """Search random instances for a failure of the nesting property.

    Draws instances with per-attempt derived seeds, brute-forces the
    per-size optima, and returns the first pair c1 < c2 <= capacity whose
    optima do not nest. The found witness is re-verified against a fresh
    brute-force run before being returned. Returns None if all attempts
    nest.
    """
    for attempt in range(attempts):
        attempt_seed = derive_seed("nesting-witness", seed, attempt)
        instance = generate_instance(GeneratorSpec(n, seed=attempt_seed))
        oracle = ExactMnlOracle(instance)
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


def instance_digest(instance: Instance) -> str:
    """SHA-256 of the instance's document less ``metadata``, as compact JSON with sorted keys."""
    doc = instance_to_document(instance)
    content = {key: value for key, value in doc.items() if key != "metadata"}
    payload = json.dumps(content, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
