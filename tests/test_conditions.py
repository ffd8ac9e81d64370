from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import hfg.conditions
from hfg.conditions import pivot_columns, point_conditions


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
    rows = list(point_conditions(u, v, m, top))
    assert len(rows) == math.comb(m + 1, 2)
    assert all(len(row) == math.comb(top + 2, 2) for row in rows)
    pivots = pivot_columns(rows)
    for d in range(top + 1):
        rank = sum(1 for c in pivots if c < math.comb(d + 2, 2))
        assert rank == math.comb(min(m, d + 1) + 1, 2), (d, rank)
