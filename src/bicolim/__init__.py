"""Finite 2-categorical colimit calculator and decision procedures."""

from .fincat import (
    FinCat,
    Functor,
    NatTrans,
    NotInvertibleError,
    SizeGuardError,
    ValidationError,
    check_equivalence,
    functor_category,
    functor_is_equivalence,
    skeleton,
    validate_fincat,
)
from .twocat import (
    CatPseudoFunctor,
    SigmaClass,
    TwoCat,
    TwoFunctor,
    locally_discrete,
    sigma_closure,
    validate_pseudofunctor,
    validate_twocat,
)
from .filtered import (
    check_bifiltered,
    check_sigma_cofinal,
    check_sigma_filtered,
    triangle_completion,
    trivialization_check,
)
from .colim import (
    ColimitCat,
    Premorphism,
    bifiltered_bicolimit,
    elements_category,
    factor_cocone,
    premorphism_equal,
    sigma_bicolimit,
)
from .bilim import (
    arrow_cotensor,
    biequalizer,
    biproduct,
    pseudolimit_cocycle,
    split_pseudoidempotent,
)
from .flat import (
    check_flat,
    check_flat_preserves_bilimits,
    decompose_flat,
    representable_pseudofunctor,
)
from .compact import check_bicompact_against, lift_one_cell, lift_two_cell
from .lexkit import finite_limit_witnesses, is_lex_functor, verify_lex_bicolimit
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "CatPseudoFunctor",
    "ColimitCat",
    "FinCat",
    "Functor",
    "NatTrans",
    "NotInvertibleError",
    "Premorphism",
    "SigmaClass",
    "SizeGuardError",
    "TwoCat",
    "TwoFunctor",
    "ValidationError",
    "Verdict",
    "arrow_cotensor",
    "biequalizer",
    "bifiltered_bicolimit",
    "biproduct",
    "check_bicompact_against",
    "check_bifiltered",
    "check_equivalence",
    "check_flat",
    "check_flat_preserves_bilimits",
    "check_sigma_cofinal",
    "check_sigma_filtered",
    "decompose_flat",
    "elements_category",
    "factor_cocone",
    "finite_limit_witnesses",
    "functor_category",
    "functor_is_equivalence",
    "is_lex_functor",
    "lift_one_cell",
    "lift_two_cell",
    "locally_discrete",
    "premorphism_equal",
    "pseudolimit_cocycle",
    "representable_pseudofunctor",
    "sigma_bicolimit",
    "sigma_closure",
    "skeleton",
    "split_pseudoidempotent",
    "triangle_completion",
    "trivialization_check",
    "validate_fincat",
    "validate_pseudofunctor",
    "validate_twocat",
    "verify_lex_bicolimit",
]
