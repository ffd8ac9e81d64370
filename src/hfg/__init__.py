"""Exact toolkit for Hadamard fat grids in the projective plane.

Construct grids from weighted collinear point sets, read off their
closed-form invariants (degree tuple, corner sets, minimal free resolution,
generator patterns, extremal degrees, Waldschmidt constant, resurgence
certificate), and verify everything against independent elimination and
linear-algebra oracles.  The package root holds only ``__version__``;
every other name is imported from its submodule.
"""

__version__ = "0.1.0"
