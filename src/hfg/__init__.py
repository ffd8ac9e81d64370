"""Exact toolkit for Hadamard fat grids in the projective plane.

Construct grids from weighted collinear point sets, read off their
closed-form invariants (degree tuple, corner sets, minimal free resolution,
generator patterns, extremal degrees, Waldschmidt constant, resurgence
certificate), and verify everything against independent elimination and
linear-algebra oracles.
"""
from __future__ import annotations

from .budget import Budget, DEFAULT_BUDGET
from .errors import (
    BlockMismatchError,
    BudgetExceededError,
    DomainError,
    GridError,
    HfgError,
    ParseError,
)
from .fatgrid import (
    FatGrid,
    GeneratorPattern,
    WeightedPointSet,
    abstract_grid,
    build_grid,
    expand_pattern,
    grid_from_json,
    grid_ideal_intersection,
    grid_to_json,
    symbolic_grid,
)
from .invariants import (
    AlphaTuple,
    CornerSets,
    ResolutionShifts,
    alpha_degree,
    alpha_tuple,
    beta_degree,
    corner_sets,
    generator_patterns,
    hilbert_from_resolution,
    invariants_report,
    is_totally_ordered,
    pattern_ideal,
    resolution,
    resurgence_certificate,
    s_tuples,
    tuples_from_multiplicities,
    waldschmidt,
)
from .polycore import (
    PLANE,
    IdealPresentation,
    Polynomial,
    VariableBlock,
    eliminate,
    groebner_basis,
    hadamard_ideals,
    hadamard_transform,
    hadamard_transform_ideal,
    ideal_equal,
    ideal_from_json,
    ideal_intersection,
    ideal_power,
    ideal_sum,
    ideal_to_json,
    irrelevant_power,
    join_ideals,
    normal_form,
)
from .projective import (
    Line,
    Point,
    delta_index,
    hadamard_line_point,
    hadamard_point,
    is_collinear,
    line_through,
    point_ideal,
    reciprocal,
)
from .report import CheckInstance, VerificationReport
from .verify import (
    check_grid_end_to_end,
    check_join_symbolic,
    check_lemma_irrelevant,
    check_point_power_product,
    exact_rank,
    hilbert_function_oracle,
    hilbert_series_oracle,
    vanishing_order,
)

__version__ = "0.1.0"
