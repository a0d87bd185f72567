"""Exact dimension arithmetic for the alternating-sum formula.

Everything is integer arithmetic: signed powers of (possibly negative)
bases, binomials via math.comb, and a divisibility check before the one
division. The coefficient poset enters only through the size of its germ
closure and its automorphism count.

Neither depends on the orientation: |G(Eᵒᵖ)| = |G(E)| for every finite
poset E, so the formula closes E itself and nothing else. The proof, for
U with lower bounds Bˡ and upper bounds Aᵘ taken inside U:

1. Λ(U) = {Bˡ : B ⊆ U}, with ∅ˡ = U; this is what closure._cuts(down, U)
   builds. Λ(Uᵒᵖ) = {Aᵘ : A ⊆ U}, which is _cuts(up, U). Since
   A ⊆ Bˡ ⟺ B ⊆ Aᵘ, X ↦ Xᵘ = intersect_rows(up, X, U) is a bijection
   Λ(U) → Λ(Uᵒᵖ), and Y ↦ Yˡ is its inverse (the two sides of one Galois
   connection: Davey & Priestley, Introduction to Lattices and Order,
   2nd ed., ch. 7; the extents and intents of Ganter & Wille, Formal
   Concept Analysis).
2. Swap u and v in the germ definition. "u = sup ]*,u[" and
   "v = inf ]v,*[" trade places, the two cone splits trade places, and
   [u,v] is the same chain. So (u, v) is a germ-cogerm pair of U exactly
   when (v, u) is one of Uᵒᵖ. Each germ has exactly one cogerm, so
   |Grm(Uᵒᵖ)| = |Grm(U)|.
3. |G(U)| = |Λ(U)| + |Grm(U)|, because the two families are disjoint and
   no two germs share a cut; closure._members raises InvariantViolation
   otherwise, so every closure the package returns satisfies this.

Hence g_size(Eᵒᵖ) = g_size(E), and with Aut(Eᵒᵖ) = Aut(E) the whole
table is the same for E and Eᵒᵖ.
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
    """The formula at q, given the closure size g of q.poset and its
    automorphism count aut."""
    total = q.dim_v * alternating_sum(q.poset.n, g, q.x_size)
    if total % aut:
        raise DivisibilityViolation(total, aut)
    return total // aut


def dimension(q: DimQuery) -> int:
    """Evaluate the formula at q."""
    return evaluate(q, g_size(q.poset), automorphism_count(q.poset))


def dimension_table(e: Poset, x_max: int, dim_v: int = 1) -> list[int]:
    """Dimensions for |X| = 0 .. x_max, closing e and counting its
    automorphisms once for the whole table."""
    g, aut = g_size(e), automorphism_count(e)
    return [evaluate(DimQuery(e, x, dim_v), g, aut) for x in range(x_max + 1)]
