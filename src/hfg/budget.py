"""Work budgets for the exact (and potentially expensive) computations.

The library refuses work beyond these caps with BudgetExceededError rather
than running open-ended Groebner or elimination jobs.  Callers can pass a
custom Budget to raise a cap deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError


@dataclass(frozen=True)
class Budget:
    # cap on the total multiplicity sum(m_ij) of a grid handed to the
    # intersection oracle
    max_grid_multiplicity: int = 24
    # cap on the total degree of direct Groebner inputs inside verification
    # checks
    max_groebner_degree: int = 12
    # cap on either dimension of an exact rank computation
    max_matrix_dim: int = 2000

    def check_grid(self, total_multiplicity: int) -> None:
        if total_multiplicity > self.max_grid_multiplicity:
            raise BudgetExceededError(
                f"grid total multiplicity {total_multiplicity} exceeds budget "
                f"{self.max_grid_multiplicity}; raise it with --budget-degree"
            )

    def check_groebner(self, max_degree: int) -> None:
        if max_degree > self.max_groebner_degree:
            raise BudgetExceededError(
                f"Groebner input of total degree {max_degree} exceeds budget "
                f"{self.max_groebner_degree}"
            )

    def check_matrix(self, rows: int, cols: int) -> None:
        if rows > self.max_matrix_dim or cols > self.max_matrix_dim:
            raise BudgetExceededError(
                f"matrix of shape {rows}x{cols} exceeds budget "
                f"{self.max_matrix_dim}x{self.max_matrix_dim}"
            )


DEFAULT_BUDGET = Budget()
