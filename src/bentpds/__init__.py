"""bentpds: exact construction and verification of vectorial dual-bent
functions over odd-characteristic fields and the partial difference sets
their preimages form."""

from .cyclo import CyclotomicInt, automorphism, conj_norm, conjugate, gauss_sum
from .field import CosetSet, Field, canonical_field
from .space import Space, prime_space
from .spectral import (
    BentClassification,
    DualBentCertificate,
    LformConverseReport,
    VectorialFunction,
    WalshSpectrum,
    anf,
    classify_bent,
    component,
    dual_bent_certificate,
    lform_exponents,
    lform_converse_check,
    walsh_full,
)
from .constructions import (
    ConstructedPair,
    diag_quad,
    mm_power,
    mm_qpoly,
    quad_trace,
    regular_spread,
    spread_bent,
    branched_quad_mm,
)
from .pds import (
    PdsParams,
    PreimageSet,
    SemiprimitiveInfo,
    SigmaReport,
    coset_preimage,
    gaussian_period,
    gaussian_period_semiprimitive,
    nonsquares_preimage,
    params_coset_union,
    params_match,
    params_subset,
    preimage,
    preimage_sizes,
    semiprimitive_check,
    sigma_predicates,
    squares_preimage,
    verify_pds_bruteforce,
    verify_pds_characters,
    zero_preimage,
)

__version__ = "0.1.0"
