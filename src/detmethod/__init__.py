"""Real-analytic determinant method at desk scale.

Given an ideal and a height bound, construct integer auxiliary polynomials
vanishing at every integral (affine) or rational (projective) point of
bounded height, together with verifiable certificates.
"""

from .bounds import (
    D,
    DetBoundInput,
    ExponentBudget,
    choose_nu,
    ck_norm_bound,
    determinant_bound_exact,
)
from .engine import (
    AuxiliaryCertificate,
    FullRank,
    MonomialMatrix,
    PipelineReport,
    affine_pipeline,
    auxiliary_for_box,
    build_matrix,
    choose_delta,
    cover_and_construct,
    exact_kernel,
    theoretical_rho,
    verify_certificate,
)
from .errors import (
    BudgetExceededError,
    DegenerateIdealError,
    InputError,
    ParseError,
)
from .ideals import (
    GroebnerBasis,
    Ideal,
    a_estimates,
    affine_ordering_bound,
    all_sigmas,
    groebner,
    hilbert_function,
    homogenized_basis,
    monomials_of_degree,
    normal_form,
    staircase,
)
from .points import (
    HeightBox,
    PointSet,
    class_index,
    enumerate_affine,
    enumerate_projective,
)
from .polynomials import (
    Ordering,
    Polynomial,
    divides,
    format_polynomial,
    parse_polynomial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
