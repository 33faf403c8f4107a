"""Independent reference computations that the tests check fast paths
against; no code in `src` calls them."""

from fractions import Fraction

from hofree.repunitary import ShiftedWeight


def natural_moment_via_matrix(l: ShiftedWeight, k: int) -> Fraction:
    """(1/n) * (sum of all entries of (L + J)^k), J strictly upper of -1:
    the k-th moment of the natural spectral measure of l."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    n = l.n
    m = [[l.entries[i] if i == j else (-1 if j > i else 0)
          for j in range(n)] for i in range(n)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        power = [[sum(power[i][t] * m[t][j] for t in range(n))
                  for j in range(n)] for i in range(n)]
    return Fraction(sum(sum(row) for row in power), n)
