"""Exact dimension arithmetic for the alternating-sum formula.

Everything is integer arithmetic: signed powers of (possibly negative)
bases, binomials via math.comb, and a divisibility check before the one
division. The coefficient poset enters only through the size of its germ
closure and its automorphism count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closure import germ_closure
from .errors import DivisibilityViolation
from .poset import Poset, automorphism_count


@dataclass(frozen=True)
class DimQuery:
    """One evaluation point: a coefficient poset, the argument set size,
    and the dimension of the coefficient space."""

    poset: Poset
    x_size: int
    dim_v: int = 1

    def __post_init__(self):
        if self.x_size < 0:
            raise ValueError("x_size must be nonnegative")
        if self.dim_v < 1:
            raise ValueError("dim_v must be positive")


def g_size(e: Poset) -> int:
    return germ_closure(e).n


def alternating_sum(n_e: int, g: int, x: int) -> int:
    """Sum over i of (-1)^i C(n_e, i) (g - i)^x, with 0^0 = 1 and exact
    signed powers throughout."""
    total = 0
    for i in range(n_e + 1):
        base = g - i
        term = math.comb(n_e, i) * (1 if x == 0 else base**x)
        total += -term if i & 1 else term
    return total


def evaluate(q: DimQuery, g: int, aut: int) -> int:
    """The formula at q, given the closure size g of the chosen orientation
    of q.poset and its automorphism count aut."""
    total = q.dim_v * alternating_sum(q.poset.n, g, q.x_size)
    if total % aut:
        raise DivisibilityViolation(total, aut)
    return total // aut


def _oriented_g_size(p: Poset, orientation: str) -> int:
    if orientation not in ("e", "eop"):
        raise ValueError(f"unknown orientation {orientation!r}")
    return g_size(p if orientation == "e" else p.opposite())


def dimension(q: DimQuery, orientation: str = "e") -> int:
    """Evaluate the formula at q. orientation picks whether the closure
    size is taken from the poset itself ("e") or its opposite ("eop");
    the automorphism count is the same either way."""
    return evaluate(q, _oriented_g_size(q.poset, orientation), automorphism_count(q.poset))


def dimension_table(
    e: Poset, x_max: int, dim_v: int = 1, orientation: str = "e"
) -> list[int]:
    """Dimensions for |X| = 0 .. x_max, closing e and counting its
    automorphisms once for the whole table."""
    g, aut = _oriented_g_size(e, orientation), automorphism_count(e)
    return [evaluate(DimQuery(e, x, dim_v), g, aut) for x in range(x_max + 1)]
