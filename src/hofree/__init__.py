"""hofree: exact and Monte-Carlo tools for higher-order free probability.

Subpackages cover exact combinatorics of partitioned permutations, classical
(tensor) cumulants, first-order free probability, spectral measures of U(n)
irreducible representations, unitarily invariant random-matrix sampling with
an exact Weingarten oracle, and the macroscopic/microscopic trace-cumulant
relation.
"""

__version__ = "0.1.0"
