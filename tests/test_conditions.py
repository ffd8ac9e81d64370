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


@pytest.mark.parametrize(
    "point, scale",
    [((1, 2, 3), 1), ((3, -2, 5), 6), ((-4, 1, -7), 8), ((5, 1, 1), 5)],
)
@pytest.mark.parametrize("m", [1, 2, 4])
def test_one_point_imposes_the_closed_form_rank_on_every_degree(point, scale, m):
    top = 6
    rows = list(point_conditions(point, m, top, scale))
    assert len(rows) == math.comb(m + 1, 2)
    assert all(len(row) == math.comb(top + 2, 2) for row in rows)
    pivots = pivot_columns(rows)
    for d in range(top + 1):
        rank = sum(1 for c in pivots if c < math.comb(d + 2, 2))
        assert rank == math.comb(min(m, d + 1) + 1, 2), (d, rank)
