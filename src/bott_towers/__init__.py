"""Bott towers as smooth projective toric varieties, in exact arithmetic.

The package computes, over plain Python integers: Bott matrices and Bott
numbers of integral sequences (with a poset bridge through zeta and Moebius
matrices), the associated crosspolytope fans with smoothness / completeness /
Fano checks, affine chart monomial data, quotient and line-bundle character
data, integral cohomology ring presentations, and a classifier that recovers
tower data from a fan.  A ``bott`` command line exposes the same operations on
canonical JSON documents.

The public names are exported lazily (PEP 562): ``import bott_towers`` loads
no submodule, and the first use of a name imports the module defining it.
"""

import importlib
import sys
from types import ModuleType

_EXPORTS = {
    "bundles": ("CharacterBundle", "QuotientPresentation",
                "SupportFunctionData", "canonical_lambda", "extend_sequence",
                "hk_support", "lambda_bundle", "lambda_perp",
                "quotient_presentation", "support_function",
                "tangent_splitting", "xi_bundle"),
    "charts": ("DualChart", "LaurentMonomial", "chart_ring", "dual_chart",
               "dual_generators", "index_sets", "prefix_set", "transition"),
    "classify": ("ClassificationResult", "classify", "crosspolytope_check",
                 "find_opposite_pair", "project"),
    "cohomology": ("CohomologyClass", "CohomologyRing", "RingPresentation",
                   "betti", "character_class", "cohomology_ring",
                   "euler_characteristic", "integrate", "multiply",
                   "normal_form", "presentation", "ray_class",
                   "top_chern_class", "total_chern_class"),
    "errors": ("RejectionError", "ValidationError"),
    "fans": ("BottFan", "GeneralFan", "apply_unimodular", "binary_codes",
             "build_fan", "fans_isomorphic", "is_complete", "is_fano",
             "is_smooth", "lift_with_support_function",
             "primitive_collections"),
    "render": ("render_svg",),
    "sequences": ("IntegralSequence", "Poset", "bott_matrix", "bott_number",
                  "bott_number_moebius", "c_matrix", "lemma_identities",
                  "moebius_matrix", "poset_to_sequence", "zeta_matrix"),
    "serialize": ("classification_to_doc", "encode_canonical", "fan_from_doc",
                  "fan_to_doc", "sequence_from_doc", "sequence_to_doc"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    """The package keeps an exported name when a submodule of the same name
    (``classify``) is imported, which would otherwise bind the module."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
