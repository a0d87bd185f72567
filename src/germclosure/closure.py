"""The germ closure of a finite poset.

G(U) collects two families of lower sets of U, ordered by inclusion: the
cuts U_{<=B} over all subsets B (equivalently, all intersections of
principal lower sets, plus U itself for B empty), and the strict lower
cuts ]*,r[ of the germs r of U. The two families never overlap. U embeds
via u -> ]*,u], and for any germ extension S of U the map
s -> U_{<=s} is the one and only embedding of S onto a full subposet of
G(U) extending that.

U is a mask over an ambient poset and G(U) stays in its indices:
germ_closure(p) closes all of p, canonical_embed(s, U) closes U inside s,
and the embedding reads s's down-rows restricted to U. Nothing is copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvariantViolation, NotAGermExtension
from .germs import detects, germs_within, grm, grm_mask, is_germ_extension
from .lattice import Lattice
from .poset import (
    Poset, bit_indices, check_subset, inclusion_poset, intersect_rows, mask_of,
    sorted_by_size, stabilizer_chain,
)


def _cuts(down: Sequence[int], u_mask: int) -> set[int]:
    """The cuts U_{<=B} of U = u_mask under the ambient down rows: U and
    every intersection of the rows down[i] & U, i in U."""
    sets = {u_mask}
    for i in bit_indices(u_mask):
        row = down[i] & u_mask
        sets.update([m & row for m in sets])
    return sets


def lambda_sets(u: Poset) -> list[int]:
    """All cuts U_{<=B}, B over subsets of u, as masks sorted by
    (cardinality, bitmask)."""
    return sorted_by_size(_cuts(u.down, u.full_mask))


def ghat_sets(u: Poset) -> list[int]:
    """The strict lower cut of each germ of u, in germ order.

    Distinct germs cannot share a cut (the germ is the sup of its cut),
    but the list keeps one entry per germ so a collapse would be visible.
    """
    return [u.strict_down(rec.germ) for rec in grm(u)]


def closure_masks(
    up: Sequence[int], down: Sequence[int], u_mask: int
) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """G(U) for U = u_mask under the ambient rows, in ambient indices: the
    member masks sorted by (cardinality, bitmask) and germ_of, where
    germ_of[i] is the germ r when masks[i] is ]*,r[ and None for a cut.
    No witness is computed here; GermClosure.witness reads one where it
    is printed. Raises ValueError for a mask with bits outside the rows."""
    check_subset(len(up), u_mask)
    return _members(down, u_mask, germs_within(up, down, u_mask))


def _members(
    down: Sequence[int], u_mask: int, germs: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], tuple[int | None, ...]]:
    """closure_masks once the (germ, cogerm) pairs of U are known."""
    cuts = _cuts(down, u_mask)
    germ_of: dict[int, int | None] = dict.fromkeys(cuts)
    for r, _ in germs:
        cut = down[r] & u_mask & ~(1 << r)
        if cut in cuts:
            raise InvariantViolation("cut families overlap")
        if cut in germ_of:
            raise InvariantViolation("two germs share a strict lower cut")
        germ_of[cut] = r
    masks = tuple(sorted_by_size(germ_of))
    return masks, tuple(map(germ_of.get, masks))


@dataclass(frozen=True)
class GermClosure:
    """G(U) for the subset U of base: a family of lower sets of U,
    inclusion ordered, all in base's indices.

    masks[i] is the subset element i stands for; germ_of[i] is the germ r
    when masks[i] is the strict cut ]*,r[, and None for a cut U_{<=B},
    whose largest witness B witness(i) reads. The views below are built
    on first use.
    """

    base: Poset
    subset: int
    masks: tuple[int, ...]
    germ_of: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return len(self.masks)

    @cached_property
    def poset(self) -> Poset:
        """The set-labelled inclusion order; element i stands for masks[i]."""
        return inclusion_poset(self.base, self.masks)

    @cached_property
    def embed(self) -> tuple[int, ...]:
        """embed[k] is the element ]*,u] for the k-th element u of U."""
        down = self.base.down
        return tuple(self.index_of(down[u] & self.subset) for u in bit_indices(self.subset))

    def witness(self, i: int) -> int | None:
        """The largest B within U with U_{<=B} = masks[i] for a cut, that
        is, the elements of U above all of masks[i]; None for a germ cut,
        as lambda_witness says."""
        if self.germ_of[i] is not None:
            return None
        return intersect_rows(self.base.up, self.masks[i], self.subset)

    def index_of(self, mask: int) -> int:
        return self._by_mask[mask]

    @cached_property
    def _by_mask(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    def join(self, i: int, j: int) -> int:
        """Join of two elements: the intersection of every element
        containing both, which the closure always contains (U among them)."""
        union = self.masks[i] | self.masks[j]
        out = self.subset
        for m in self.masks:
            if union & ~m == 0:
                out &= m
        return self.index_of(out)


def germ_closure(u: Poset) -> GermClosure:
    """G(u) for all of u, built from grm(u)'s germs, so a poset whose
    germs were already found is not walked again."""
    germs = [(rec.germ, rec.cogerm) for rec in grm(u)]
    return GermClosure(u, u.full_mask, *_members(u.down, u.full_mask, germs))


def canonical_embed(s: Poset, u_mask: int) -> tuple[GermClosure, list[int]]:
    """G(U) for U = u_mask in s's indices, and the embedding j(t) = U_{<=t}
    of s into it.

    Raises NotAGermExtension unless s germ-extends U, and ValueError for
    a mask with bits outside s.
    """
    if not is_germ_extension(s, u_mask):
        raise NotAGermExtension("the ambient poset does not germ-extend the given subset")
    closure = GermClosure(s, u_mask, *closure_masks(s.up, s.down, u_mask))
    j = [closure.index_of(u_mask & row) for row in s.down]
    if len(set(j)) != s.n:
        raise InvariantViolation("canonical embedding is not injective")
    if not detects(s, u_mask):
        raise InvariantViolation("canonical embedding does not preserve the order both ways")
    return closure, j


def reconstruct_from_lattice(t: Lattice) -> tuple[GermClosure, list[int]]:
    """Strip the germs of the lattice t, close what is left, and exhibit
    the isomorphism t ≅ G(u) for u = t - Grm(t).

    Returns the closure of u in t's indices (base t.poset, subset u) and
    the index map t -> closure, checked to be an order isomorphism.
    """
    t_poset = t.poset
    closure, j = canonical_embed(t_poset, t_poset.full_mask & ~grm_mask(t_poset))
    if closure.n != t_poset.n:
        raise InvariantViolation(f"closure has {closure.n} elements but the input has {t_poset.n}")
    return closure, j


def aut_transport(closure: GermClosure) -> tuple[int, int]:
    """|Aut(u)| and |Aut(G(u))| for the closure of all of u = closure.base,
    checked equal via the two transports on the generators of both
    stabilizer chains: each base generator lifts to an automorphism of G(u)
    extending it on the embedded base, and each closure generator fixes the
    embedded base and restricts to an automorphism of u. Generators suffice
    (both transports are homomorphisms, restriction undoes lifting, equal
    orders make the two inverse). ValueError for a proper subset's closure."""
    u, (order_u, gens_u) = closure.base, stabilizer_chain(closure.base)
    if closure.subset != u.full_mask:
        raise ValueError("automorphism transport needs the closure of the whole base")
    by_mask, embed = closure._by_mask, closure.embed
    order_g, gens_g = stabilizer_chain(closure.poset)
    for alpha in gens_u:
        # alpha permutes u, so it keeps inclusion between masks both ways; its
        # action on the members is an automorphism of G(u) exactly when every
        # moved member is a member
        lift = [by_mask.get(mask_of(alpha[i] for i in bit_indices(m)), -1) for m in closure.masks]
        if -1 in lift:
            raise InvariantViolation("a lifted action is not an automorphism")
        if any(lift[embed[k]] != embed[a] for k, a in enumerate(alpha)):
            raise InvariantViolation("a lift does not extend its base automorphism")
    back = {e: k for k, e in enumerate(embed)}
    for gamma in gens_g:
        if {gamma[e] for e in embed} != back.keys():
            raise InvariantViolation("a closure automorphism moves the embedded base")
        # beta permutes u; it is an automorphism when it carries up rows to up rows
        beta = [back[gamma[e]] for e in embed]
        if any(mask_of(beta[j] for j in bit_indices(row)) != u.up[b] for row, b in zip(u.up, beta)):
            raise InvariantViolation("a restricted automorphism does not preserve the base order")
    if order_u != order_g:
        raise InvariantViolation(f"|Aut(base)| = {order_u} but |Aut(closure)| = {order_g}")
    return order_u, order_g
