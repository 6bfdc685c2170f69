"""Complementary traces of genus-2 double covers of elliptic curves.

For an elliptic curve E over F_q (odd characteristic at least 5) the package
computes the set of normalized L-functions of degree-2 covers C -> E with C of
genus 2, reported through the complementary trace: L_C = L_E * (1 - a'T + qT^2)
up to the functional equation.  Three independent routes are implemented and
cross-checked: a closed-form classification, an enumeration of 2-torsion
Galois-module gluing data, and a brute-force function-field search.
"""

__version__ = "0.1.0"

from .ffield import (
    FieldElement,
    FiniteField,
    IncompatibleFields,
    NotASquare,
    Polynomial,
    ZeroPolynomial,
    embedding,
    factor,
    field_of_order,
    is_square,
    make_field,
    roots,
    sqrt,
)
from .ecurve import (
    BadCharacteristic,
    EllipticCurve,
    FieldTooLarge,
    SingularCurve,
    curve_inventory,
    make_curve,
)
from .classify import (
    AdmissibleSet,
    DegreeNotCoprime,
    InvariantViolation,
    LambdaSet,
    NotAdmissible,
    OutOfHasseWindow,
    admissible_traces,
    hasse_window,
    kani_admissible,
    lambda_exact,
    lambda_formula,
    lambda_formula_resolved,
    lambda_set,
    ramification_solutions,
    weil_poly,
)
from .fforacle import (
    ZeroFunction,
    branch_degree,
    cover_census,
    lambda_oracle,
)

__all__ = [
    "AdmissibleSet",
    "BadCharacteristic",
    "DegreeNotCoprime",
    "EllipticCurve",
    "FieldElement",
    "FieldTooLarge",
    "FiniteField",
    "IncompatibleFields",
    "InvariantViolation",
    "LambdaSet",
    "NotASquare",
    "NotAdmissible",
    "OutOfHasseWindow",
    "Polynomial",
    "SingularCurve",
    "ZeroFunction",
    "ZeroPolynomial",
    "admissible_traces",
    "branch_degree",
    "cover_census",
    "curve_inventory",
    "embedding",
    "factor",
    "field_of_order",
    "hasse_window",
    "is_square",
    "kani_admissible",
    "lambda_exact",
    "lambda_formula",
    "lambda_formula_resolved",
    "lambda_oracle",
    "lambda_set",
    "make_curve",
    "make_field",
    "ramification_solutions",
    "roots",
    "sqrt",
    "weil_poly",
    "__version__",
]
