"""Bott towers as smooth projective toric varieties, in exact arithmetic.

The package computes, over plain Python integers: Bott matrices and Bott
numbers of integral sequences (with a poset bridge through zeta and Moebius
matrices), the associated crosspolytope fans with smoothness / completeness /
Fano checks, affine chart monomial data, quotient and line-bundle character
data, integral cohomology ring presentations, and a classifier that recovers
tower data from a fan.  A ``bott`` command line exposes the same operations on
canonical JSON documents.
"""

from .bundles import (
    CharacterBundle,
    QuotientPresentation,
    SupportFunctionData,
    canonical_lambda,
    extend_sequence,
    hk_support,
    lambda_bundle,
    lambda_perp,
    quotient_presentation,
    support_function,
    tangent_splitting,
    xi_bundle,
)
from .classify import (
    ClassificationResult,
    classify,
    crosspolytope_check,
    find_opposite_pair,
    project,
)
from .render import render_svg
from .serialize import (
    classification_to_doc,
    encode_canonical,
    fan_from_doc,
    fan_to_doc,
    sequence_from_doc,
    sequence_to_doc,
)
from .charts import (
    DualChart,
    LaurentMonomial,
    chart_ring,
    dual_chart,
    dual_generators,
    index_sets,
    prefix_set,
    transition,
)
from .cohomology import (
    CohomologyClass,
    CohomologyRing,
    RingPresentation,
    betti,
    character_class,
    cohomology_ring,
    euler_characteristic,
    integrate,
    multiply,
    normal_form,
    presentation,
    ray_class,
    top_chern_class,
    total_chern_class,
)
from .errors import RejectionError, ValidationError
from .fans import (
    BottFan,
    GeneralFan,
    apply_unimodular,
    binary_codes,
    build_fan,
    fans_isomorphic,
    is_complete,
    is_fano,
    is_smooth,
    lift_with_support_function,
    primitive_collections,
)
from .sequences import (
    IntegralSequence,
    Poset,
    bott_matrix,
    bott_number,
    bott_number_moebius,
    c_matrix,
    lemma_identities,
    moebius_matrix,
    poset_to_sequence,
    zeta_matrix,
)

# every class and function imported above from the package's modules
__all__ = sorted(
    name for name, value in globals().items()
    if getattr(value, "__module__", "").startswith(__name__ + "."))

__version__ = "0.1.0"
