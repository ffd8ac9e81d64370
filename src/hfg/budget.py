"""Work budgets for the exact (and potentially expensive) computations.

There are two caps.  The grid cap bounds the total multiplicity T of a grid
that ``hfg verify`` hands to its oracles; ``--budget-degree N`` sets it, and
it is checked once, by ``grid_check_plan``, before any unit runs.  T <= N
also bounds the rank oracle's matrix: its top degree is the largest syzygy
twist, at most T + 1, so the matrix has at most C(N+1, 2) rows and
C(N+3, 2) columns.  The Groebner-degree cap bounds the total degree of
direct Groebner inputs inside verification checks: ``hfg verify`` skips the
power instances over it, the other checks refuse.  Callers can pass a
custom Budget to raise a cap deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError


@dataclass(frozen=True)
class Budget:
    # cap on the total multiplicity sum(m_ij) of a grid checked by
    # ``grid_check_plan``
    max_grid_multiplicity: int = 24
    # cap on the total degree of direct Groebner inputs inside verification
    # checks
    max_groebner_degree: int = 12

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


DEFAULT_BUDGET = Budget()
