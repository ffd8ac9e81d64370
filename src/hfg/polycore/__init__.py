"""Exact polynomial arithmetic, Groebner bases, and ideal operations."""

from .groebner import groebner_basis, normal_form
from .ideals import (
    IdealPresentation,
    eliminate,
    hadamard_ideals,
    ideal_equal,
    ideal_from_json,
    ideal_intersection,
    ideal_power,
    ideal_to_json,
    irrelevant_power,
    join_ideals,
    linear_ideal,
)
from .poly import (
    PLANE,
    Polynomial,
    VariableBlock,
    format_rational,
    monomials_of_degree,
    parse_rational,
    variables,
)

__all__ = [
    "IdealPresentation",
    "PLANE",
    "Polynomial",
    "VariableBlock",
    "eliminate",
    "format_rational",
    "groebner_basis",
    "hadamard_ideals",
    "ideal_equal",
    "ideal_from_json",
    "ideal_intersection",
    "ideal_power",
    "ideal_to_json",
    "irrelevant_power",
    "join_ideals",
    "linear_ideal",
    "monomials_of_degree",
    "normal_form",
    "parse_rational",
    "variables",
]
