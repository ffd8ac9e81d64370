from __future__ import annotations

import dataclasses
from itertools import combinations_with_replacement, product

import pytest

from hfg.budget import DEFAULT_BUDGET
from hfg.fatgrid import (
    WeightedPointSet,
    abstract_grid,
    build_grid,
    symbolic_multiplicities,
)

EXAMPLE_M = (2, 3, 3)
EXAMPLE_N = (2, 3, 4, 4)


def small_grid_profiles():
    """Every multiplicity profile with r, s <= 2 and entries <= 2, plus all
    1x1 profiles with multiplicities up to 3."""
    profiles = set()
    for r in (1, 2):
        for s in (1, 2):
            for m in product((1, 2), repeat=r):
                for n in product((1, 2), repeat=s):
                    profiles.add((tuple(sorted(m)), tuple(sorted(n))))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            profiles.add(((a,), (b,)))
    return sorted(profiles)


def rebuilt_symbolic_grid(g, t):
    """The t-th symbolic grid, built and validated anew from g's points
    with the multiplicities of ``symbolic_multiplicities``."""
    new_m, new_n = symbolic_multiplicities(g, t)
    return build_grid(
        WeightedPointSet.make(g.row_set.points, new_m),
        WeightedPointSet.make(g.col_set.points, new_n),
    )


def is_totally_ordered(tuples) -> bool:
    """True when the distinct tuples form a chain under entrywise
    comparison: the total-order lemma on a grid's truncation tuples."""
    distinct = sorted(set(tuple(t) for t in tuples))
    for a, b in combinations_with_replacement(distinct, 2):
        if not (
            all(x <= y for x, y in zip(a, b))
            or all(x >= y for x, y in zip(a, b))
        ):
            return False
    return True


@pytest.fixture(scope="session")
def example_grid():
    return abstract_grid(EXAMPLE_M, EXAMPLE_N)


@pytest.fixture(scope="session")
def example_budget():
    """Default budget with the grid cap raised enough for the 3x4 example."""
    return dataclasses.replace(DEFAULT_BUDGET, max_grid_multiplicity=64)


@pytest.fixture(scope="session")
def small_family():
    return [abstract_grid(m, n) for m, n in small_grid_profiles()]
