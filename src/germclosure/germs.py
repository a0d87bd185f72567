"""Germ detection and germ extensions.

An element u of a poset is a germ when some v >= u satisfies three
conditions: u is the sup of everything strictly below it and v the inf of
everything strictly above it; the cone above u splits as [u,v] plus the
strict cone above v, and dually the cone below v splits as the strict cone
below u plus [u,v]; and [u,v] is totally ordered. The v is then unique
(the cogerm) and [u,v] is the connecting chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotAGermExtension
from .poset import Poset, bit_indices, check_subset, mask_of


@dataclass(frozen=True)
class GermRecord:
    poset: Poset
    germ: int
    cogerm: int
    chain: tuple[int, ...]

    def labels(self) -> tuple[str, str]:
        return self.poset.labels[self.germ], self.poset.labels[self.cogerm]


def cogerm_candidates(p: Poset, u: int) -> list[int]:
    """All v making u a germ. The defining conditions force at most one;
    callers may assert that."""
    # u = sup ]*,u[ iff the bounds match u's row; sup_of would give every
    # poset the grm cache keeps alive a row dict
    if p.upper_bounds(p.strict_down(u)) != p.up[u]:
        return []
    out = []
    for v in bit_indices(p.up[u]):
        if p.lower_bounds(p.strict_up(v)) != p.down[v]:
            continue
        seg = p.up[u] & p.down[v]
        if p.up[u] != seg | p.strict_up(v):
            continue
        if p.down[v] != p.strict_down(u) | seg:
            continue
        if any(seg & ~(p.up[i] | p.down[i]) for i in bit_indices(seg)):
            continue
        out.append(v)
    return out


def is_germ(p: Poset, u: int) -> GermRecord | None:
    cands = cogerm_candidates(p, u)
    assert len(cands) <= 1, f"germ {p.labels[u]} admits {len(cands)} cogerms"
    if not cands:
        return None
    v = cands[0]
    seg = sorted(bit_indices(p.up[u] & p.down[v]), key=lambda i: p.down[i].bit_count())
    return GermRecord(p, u, v, tuple(seg))


@lru_cache(maxsize=None)
def grm(p: Poset) -> tuple[GermRecord, ...]:
    """All germs of p with their cogerms and connecting chains."""
    return tuple(r for u in range(p.n) if (r := is_germ(p, u)) is not None)


def grm_mask(p: Poset) -> int:
    return mask_of(r.germ for r in grm(p))


def detects(p: Poset, u_mask: int) -> bool:
    """Whether comparisons in the ambient poset p are decided by the
    shadows of U = u_mask: s <= t iff U_{<=s} is a subset of U_{<=t}."""
    check_subset(p, u_mask)
    shadows = [u_mask & p.down[s] for s in range(p.n)]
    for s in range(p.n):
        for t in range(p.n):
            if p.leq(s, t) != (shadows[s] & ~shadows[t] == 0):
                return False
    return True


def is_germ_extension(p: Poset, u_mask: int) -> bool:
    """Whether every element of the ambient poset p outside U = u_mask
    is a germ of p."""
    check_subset(p, u_mask)
    return p.full_mask & ~u_mask & ~grm_mask(p) == 0


@dataclass(frozen=True)
class LambdaCase:
    """U_{<=s} is cut out by a subset B of U; witness is the largest one."""

    witness: int


@dataclass(frozen=True)
class GermCutCase:
    """U_{<=s} is the strict lower cut of a germ of U (ambient index)."""

    germ: int


ElementCase = LambdaCase | GermCutCase


def lambda_witness(p: Poset, u_mask: int, s: int) -> int | None:
    """Largest B within U with U_{<=B} == U_{<=s}, or None if no B works."""
    check_subset(p, u_mask)
    shadow = u_mask & p.down[s]
    b = u_mask & p.upper_bounds(shadow)
    return b if u_mask & p.lower_bounds(b) == shadow else None


def germ_cut_witness(p: Poset, u_mask: int, s: int) -> int | None:
    """A germ r of the subposet U whose strict cut ]*,r[ equals U_{<=s},
    or None. Indices are ambient."""
    check_subset(p, u_mask)
    shadow = u_mask & p.down[s]
    sub = p.full_subposet(u_mask)
    keep = p.sub_indices(u_mask)
    for rec in grm(sub):
        r = keep[rec.germ]
        if u_mask & p.strict_down(r) == shadow:
            return r
    return None


def classify(p: Poset, u_mask: int, s: int) -> ElementCase:
    """Whichever of the two shadow shapes holds for s, asserting the other
    one fails. Only meaningful when the ambient poset p germ-extends U."""
    if not is_germ_extension(p, u_mask):
        raise NotAGermExtension(
            "the ambient poset is not a germ extension of the given subset"
        )
    b = lambda_witness(p, u_mask, s)
    r = germ_cut_witness(p, u_mask, s)
    assert (b is None) != (r is None), (
        f"element {p.labels[s]} fits"
        f" {'both shapes' if b is not None else 'neither shape'}"
    )
    return LambdaCase(b) if b is not None else GermCutCase(r)
