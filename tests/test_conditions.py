from __future__ import annotations

import ast
import itertools
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfg.conditions
import hfg.verify
from hfg.conditions import (
    _echelon_mod,
    _kernel_mod,
    _pack,
    _primes,
    _slot_reducer,
    _unpack,
    pivot_columns,
    point_conditions,
)
from hfg.invariants import resolution

SUITE = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _graded(top):
    """The chart columns x^a y^b, a + b <= top, at index C(a+b+1, 2) + b."""
    return [(a, e - a) for e in range(top + 1) for a in range(e, -1, -1)]


def test_condition_layer_imports_no_other_hfg_module():
    tree = ast.parse(Path(hfg.conditions.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not any(name.startswith((".", "hfg")) for name in imported), imported


# the chart points (s*p1/p0, s*p2/p0) of the points (1:2:3), (3:-2:5),
# (-4:1:-7) and (5:1:1) with the scales s = 1, 6, 8 and 5, and the origin
@pytest.mark.parametrize(
    "u, v",
    [(2, 3), (-4, 10), (-2, 14), (1, 1), (0, 0)],
    ids=["point0-1", "point1-6", "point2-8", "point3-5", "origin"],
)
@pytest.mark.parametrize("m", [1, 2, 4])
def test_one_point_imposes_the_closed_form_rank_on_every_degree(u, v, m):
    top = 6
    rows = list(point_conditions(u, v, m, _graded(top)))
    assert len(rows) == math.comb(m + 1, 2)
    assert all(len(row) == math.comb(top + 2, 2) for row in rows)
    pivots = pivot_columns(rows)
    for d in range(top + 1):
        rank = sum(1 for c in pivots if c < math.comb(d + 2, 2))
        assert rank == math.comb(min(m, d + 1) + 1, 2), (d, rank)


@SUITE
@given(
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(1, 5),
    st.lists(st.sampled_from(_graded(8)), unique=True, min_size=1),
)
def test_rows_at_a_subset_of_columns_are_the_graded_rows_read_there(
    u, v, m, columns
):
    graded = _graded(8)
    index = {c: k for k, c in enumerate(graded)}
    full = list(point_conditions(u, v, m, graded))
    sub = list(point_conditions(u, v, m, columns))
    assert sub == [[row[index[c]] for c in columns] for row in full]


_REDUCED_PRIMES = list(itertools.islice(_primes(), 3)) + [3, 5, 7, 11]


@SUITE
@given(st.sampled_from(_REDUCED_PRIMES), st.integers(1, 2000), st.data())
def test_slot_reducer_keeps_every_slot_congruent_and_below_2_to_the_k(p, n, data):
    # the slot bound of _echelon_mod for min(rows, width) = n
    k = p.bit_length()
    bound = p + (n * p << k)
    size = (bound.bit_length() + 7) // 8
    values = data.draw(st.lists(st.integers(0, bound - 1), min_size=1, max_size=40))
    reduced = _unpack(
        _slot_reducer(p, len(values), size)(_pack(values, size)), len(values), size
    )
    assert all(0 <= y < 1 << k and (y - x) % p == 0 for x, y in zip(values, reduced))


def test_example_kernel_residues_are_reduced_kernel_vectors(monkeypatch, example_grid):
    matrices = []
    monkeypatch.setattr(
        hfg.verify, "pivot_columns", lambda m: matrices.append(m) or pivot_columns(m)
    )
    top = max(resolution(example_grid).syzygy_twists)
    hfg.verify.hilbert_series_oracle(example_grid, top)
    [matrix] = matrices
    width = len(matrix[0])
    # the first prime, and small primes whose reduced slots can reach p
    for p in _REDUCED_PRIMES[:1] + [5, 11]:
        pivots, tails, size = _echelon_mod(matrix, p)
        needed = [j for j in range(width) if j not in pivots]
        kernel = _kernel_mod(pivots, tails, size, width, needed, p)
        for j, residues in zip(needed, kernel):
            assert all(0 <= x < p for x in residues)
            entries = dict(zip(pivots, residues))
            entries[j] = 1
            for row in matrix:
                assert sum(row[c] * x for c, x in entries.items()) % p == 0
