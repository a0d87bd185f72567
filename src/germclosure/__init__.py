"""Germ closures of partial orders.

The package computes germs of a finite poset, builds the germ closure
G(U), embeds germ extensions canonically into it, reconstructs lattices
from their germ-free parts, decides germ extensibility of subsets of a
lattice, partitions the subset powerset into base intervals, and turns
all of that into an exactly evaluated dimension formula. A verification
harness replays every structural fact over exhaustively enumerated small
posets and lattices.
"""

from .closure import (
    GermClosure,
    aut_transport,
    canonical_embed,
    closure_masks,
    germ_closure,
    ghat_sets,
    lambda_sets,
    reconstruct_from_lattice,
)
from .documents import (
    PosetDocument,
    from_poset,
    load_document,
    parse_poset,
    parse_poset_json,
    serialize_poset,
    serialize_poset_json,
    to_poset,
)
from .dot import to_dot
from .embed import (
    EmbedResult,
    PartitionCell,
    alpha,
    irr_closure_equals_g_t,
    g_sharp,
    g_t,
    is_germ_extensible,
    unique_base,
    verify_partition,
)
from .enumeration import (
    CorpusSpec,
    corpus,
    enumerate_lattices,
    enumerate_posets,
    labelled_posets_by_extension,
)
from .errors import (
    CapExceeded,
    CycleError,
    DivisibilityViolation,
    DocumentSyntaxError,
    DuplicateLabel,
    InvariantViolation,
    NotAGermExtension,
    NotALattice,
    PosetError,
    UnknownLabel,
)
from .germs import (
    ElementCase,
    GermCutCase,
    GermRecord,
    LambdaCase,
    detects,
    germs_within,
    grm,
    grm_mask,
    is_germ_extension,
)
from .harness import PREDICATES, PredicateReport, run_suite
from .lattice import (
    Lattice,
    lambda_e,
    lower_set_lattice,
    r_inf,
    sigma_inf,
)
from .poset import Poset, antichain, automorphism_count, chain, isomorphisms
from .repdim import DimQuery, dimension, dimension_table, g_size

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
