"""Core domain types: products, instances, assortments.

An instance is a finite product universe where each product carries a
positive choice weight and a nonnegative price. The no-purchase option
always has weight 1 and is never stored as a product. An assortment is a
subset of product ids held in canonical ascending order; the canonical
comma-separated encoding is a stable contract (the noise hash keys on
it; the distinct-call counter keys on the id tuple).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .errors import InvalidAssortmentError, ValidationError


@dataclass(frozen=True)
class Product:
    """One product: identifier, MNL weight (> 0), price (>= 0)."""

    id: int
    weight: float
    price: float


@dataclass(frozen=True)
class Instance:
    """A product universe plus an optional default capacity."""

    products: tuple[Product, ...]
    capacity_default: int | None = None

    _by_id: dict[int, Product] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        by_id: dict[int, Product] = {}
        for prod in self.products:
            if not isinstance(prod.id, int) or isinstance(prod.id, bool) or prod.id < 1:
                raise ValidationError(
                    f"product id must be a positive integer, got {prod.id!r}", code="schema"
                )
            if prod.id in by_id:
                raise ValidationError(f"duplicate product id {prod.id}", code="duplicate-id")
            if not (isinstance(prod.weight, (int, float)) and math.isfinite(prod.weight) and prod.weight > 0):
                raise ValidationError(
                    f"product {prod.id}: weight must be finite and > 0, got {prod.weight!r}",
                    code="bad-weight",
                )
            if not (isinstance(prod.price, (int, float)) and math.isfinite(prod.price) and prod.price >= 0):
                raise ValidationError(
                    f"product {prod.id}: price must be finite and >= 0, got {prod.price!r}",
                    code="bad-price",
                )
            by_id[prod.id] = prod
        # keep products sorted by id so serialization and iteration are canonical
        object.__setattr__(self, "products", tuple(sorted(self.products, key=lambda p: p.id)))
        object.__setattr__(self, "_by_id", by_id)
        if self.capacity_default is not None:
            cap = self.capacity_default
            if not isinstance(cap, int) or isinstance(cap, bool) or not 1 <= cap <= len(by_id):
                raise ValidationError(
                    f"capacity must be an integer in 1..{len(by_id)}, got {cap!r}",
                    code="bad-capacity",
                )

    @classmethod
    def of(cls, triples: Iterable[tuple[int, float, float]], capacity: int | None = None) -> "Instance":
        """Build from (id, weight, price) triples."""
        return cls(tuple(Product(i, float(w), float(p)) for i, w, p in triples), capacity)

    @property
    def n(self) -> int:
        return len(self.products)

    def ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.products)

    def product(self, product_id: int) -> Product:
        try:
            return self._by_id[product_id]
        except KeyError:
            raise InvalidAssortmentError(f"unknown product id {product_id}") from None

    def products_of(self, product_ids: Iterable[int]) -> list[Product]:
        """The products with these ids, in order; the first unknown id raises as ``product`` does."""
        by_id = self._by_id
        try:
            return [by_id[i] for i in product_ids]
        except KeyError as exc:
            raise InvalidAssortmentError(f"unknown product id {exc.args[0]}") from None

    def top_weight_sum(self, k: int) -> float:
        """Sum of the k largest weights (all of them if k > n)."""
        if k <= 0:
            return 0.0
        weights = sorted((p.weight for p in self.products), reverse=True)
        return sum(weights[:k])


@dataclass(frozen=True, order=True)
class Assortment:
    """An offer set: unique product ids in ascending order.

    Ordering and hashing use the canonical id tuple, so assortments are
    usable as dict keys and sort lexicographically by member ids.
    """

    ids: tuple[int, ...] = ()

    def __post_init__(self):
        canonical = tuple(sorted(set(self.ids)))
        if canonical != tuple(self.ids):
            object.__setattr__(self, "ids", canonical)

    @classmethod
    def of(cls, members: Iterable[int]) -> "Assortment":
        return cls(tuple(members))

    def encode(self) -> str:
        """Canonical encoding: ascending ids, comma-separated ("" for empty)."""
        return ",".join(str(i) for i in self.ids)

    def after_move(self, entering: int, leaving: int | None = None) -> "Assortment":
        """The offer set after a move: add ``entering`` or, with ``leaving``, swap it in."""
        kept = self.ids if leaving is None else tuple(i for i in self.ids if i != leaving)
        return Assortment(kept + (entering,))

    def encode_moves(self, moves: Sequence[tuple[int, int | None]]) -> list[str]:
        """Canonical encodings of the sets the moves lead to, without building them.

        Entry i equals ``self.after_move(*moves[i]).encode()`` for every move
        whose ``entering`` is not a member and whose ``leaving`` (None for an
        addition) is one.
        """
        ids = self.ids
        texts = [str(i) for i in ids]
        index = {product_id: j for j, product_id in enumerate(ids)}
        # per leaving member (None: nobody leaves), the encodings of the rest
        # cut before each position: heads end in a comma, tails start with one;
        # built on a member's first move, as few of them may reach this
        affixes: dict[int | None, tuple[list[str], list[str]]] = {}

        def cut(leaving):
            rest = texts if leaving is None else texts[: index[leaving]] + texts[index[leaving] + 1:]
            heads = list(accumulate((t + "," for t in rest), initial=""))
            tails = list(accumulate(("," + t for t in reversed(rest)), lambda acc, t: t + acc, initial=""))
            affixes[leaving] = (heads, tails[::-1])
            return affixes[leaving]

        encodings = []
        for entering, leaving in moves:
            position = bisect_left(ids, entering)
            if leaving is not None and index[leaving] < position:
                position -= 1
            try:
                heads, tails = affixes[leaving]
            except KeyError:
                heads, tails = cut(leaving)
            encodings.append(heads[position] + str(entering) + tails[position])
        return encodings

    def __contains__(self, product_id: int) -> bool:
        return product_id in self.ids

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def optimum_key(solution: tuple[Assortment, float]) -> tuple[float, tuple[int, ...]]:
    """Tie rule for optima as a sort key: the highest revenue, then the smallest id tuple."""
    assortment, revenue = solution
    return (-revenue, assortment.ids)
