"""hopfqt: exact-arithmetic toolkit for finite-dimensional Hopf algebras of
dimension p*q^2 and the classification of their quasitriangular structures."""

from .exactfield import CycloNumber, cyclotomic_poly, nullspace, zeta
from .grouptool import (
    AbelianDecomposition,
    Bicharacter,
    FiniteGroup,
    ParameterError,
    build_group,
    enumerate_bicharacters,
    idempotents,
    lambda_set,
    largest_abelian_normal,
)
from .hopfcore import (
    AlgebraElement,
    HopfAlgebra,
    antipode_diagnostics,
    dual_hopf,
    dump_structure,
    group_algebra,
    group_likes_bismash,
    load_structure,
    verify_hopf_axioms,
)
from .bismash import (
    MatchedPair,
    build_bismash,
    dual_iso_check,
    dualize_trivial_action,
    make_A,
    make_B,
    validate_matched_pair,
)
from .qtlab import (
    BraidingForm,
    CertifiedR,
    braiding_A0_construct,
    braiding_A_search,
    eta,
    hopf_images,
    no_qt_B_dual,
    qt_B_enumerate,
    qt_group_algebra_enumerate,
    verify_coqt,
    verify_qt,
)

__version__ = "0.1.0"
