"""Finite-lattice toolkit for rough-set Kleene algebras.

Builds rough-set algebras from tolerances induced by irredundant coverings,
decides regularity of pseudocomplemented Kleene structures, and constructs
and verifies the representation of every finite regular one as such a
rough-set algebra.
"""

from .posets import (
    Lattice,
    NotALattice,
    Poset,
    PosetError,
    bits,
    first_bad_triple,
    has_two_levels,
    is_distributive,
    join_irreducibles,
    mask_of,
    validate_order,
)
from .demorgan import (
    DeMorgan,
    DeMorganError,
    antitone_involutions,
    build_kleene_from_jposet,
    compute_g,
    is_kleene,
    neg_from_g,
    validate_demorgan,
)
from .pseudo import (
    DoubleP,
    check_M_D_N,
    compute_pseudocomplements,
    demorgan_pseudo_report,
    heyting_implications,
    is_regular,
    prime_filters,
    skeletons,
)
from .rough import (
    BoundsExceeded,
    Covering,
    RoughSetAlgebra,
    Tolerance,
    approximations,
    blocks_of,
    build_rs,
    build_rs_spatial,
    induced_irredundant_covering,
    is_irredundant,
    isolated_blocks,
    join_closure_pairs,
    rs_g_map,
    rs_join_irreducibles,
    skeleton_isomorphism_report,
    tolerance_from_covering,
)
from .represent import (
    NotKleene,
    NotRegular,
    RepresentationResult,
    build_similarity,
    represent,
    roundtrip_check,
)

__version__ = "0.1.0"
