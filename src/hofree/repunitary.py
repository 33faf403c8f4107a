"""Exact spectral data of U(n) irreducible representations.

Irreducibles are indexed by their shifted highest weight l (strictly
decreasing integers, l_i = lambda_i + n - i); ordinary highest weights appear
only at API boundaries.  The module computes Weyl dimensions, the uniform
("naive") and weighted ("natural") spectral measures, the conversion
between their moments (one truncated exp or log of a power series in the
power sums), tensor-product decompositions from one horizontal-strip step
(Pieri is one strip; Littlewood-Richardson one per letter of the second
factor, equal tableau states merged), restriction to smaller unitary groups
(interlacing chains counted by composing one-step branchings at small
weights; branch means at any weight interpolated from those), and the exact
mean and covariance of the naive-measure moments of a component drawn with
probability multiplicity times dimension over the total dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, prod
from numbers import Integral
from typing import Sequence

from .errors import GuardError, InvariantError
from .partperm import integer_partitions

LR_MAX_RANK = 8
LR_MAX_CELLS = 40
PUSHFORWARD_MAX_COMPONENTS = 10 ** 7


@dataclass(frozen=True, order=True)
class ShiftedWeight:
    """Strictly decreasing integer vector indexing a U(n) irreducible."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))
        # the exact type test first: the ABC check is slow, and is only the
        # fallback for bool and numpy integers
        if not all(type(x) is int or isinstance(x, Integral)
                   for x in self.entries):
            raise ValueError(f"entries must be integers: {self.entries}")
        if any(a <= b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError(f"entries must be strictly decreasing: {self.entries}")

    @classmethod
    def from_highest_weight(cls, lam: Sequence[int]) -> "ShiftedWeight":
        n = len(lam)
        if any(a < b for a, b in zip(lam, lam[1:])):
            raise ValueError(f"highest weight must be weakly decreasing: {lam}")
        return cls(tuple(x + n - 1 - i for i, x in enumerate(lam)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def highest_weight(self) -> tuple[int, ...]:
        n = self.n
        return tuple(x - (n - 1 - i) for i, x in enumerate(self.entries))

    def shift(self, s: int) -> "ShiftedWeight":
        """The determinant twist: all entries moved by s."""
        return ShiftedWeight(tuple(x + s for x in self.entries))

    def power_sum(self, k: int) -> int:
        return sum(x ** k for x in self.entries)


def weyl_dimension(l: ShiftedWeight) -> int:
    """dim = prod_{i<j} (l_i - l_j) / (j - i); always an exact integer."""
    entries = l.entries
    num = 1
    den = 1
    n = len(entries)
    for i in range(n):
        for j in range(i + 1, n):
            num *= entries[i] - entries[j]
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"Weyl product not divisible at {entries}")
    return dim


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported signed measure; atoms sorted by location."""

    atoms: tuple[tuple[object, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "AtomicMeasure":
        merged: dict = {}
        for loc, w in pairs:
            merged[loc] = merged.get(loc, 0) + w
        atoms = tuple(sorted((loc, w) for loc, w in merged.items() if w != 0))
        return cls(atoms)

    def moment(self, k: int):
        return sum(w * loc ** k for loc, w in self.atoms)

    def translate(self, s) -> "AtomicMeasure":
        return AtomicMeasure(tuple((loc + s, w) for loc, w in self.atoms))

    def dilate(self, eps) -> "AtomicMeasure":
        return AtomicMeasure.from_pairs((eps * loc, w) for loc, w in self.atoms)


def naive_spectral_measure(l: ShiftedWeight) -> AtomicMeasure:
    """Uniform weight 1/n on each entry of the shifted weight."""
    w = Fraction(1, l.n)
    return AtomicMeasure.from_pairs((x, w) for x in l.entries)


def zelobenko_weights(l: ShiftedWeight) -> tuple[Fraction, ...]:
    """gamma_i = (1/n) prod_{j != i} (1 - 1/(l_i - l_j)); sums to one."""
    n = l.n
    out = []
    for i, li in enumerate(l.entries):
        g = Fraction(1, n)
        for j, lj in enumerate(l.entries):
            if j != i:
                d = li - lj
                g *= Fraction(d - 1, d)
        out.append(g)
    if sum(out) != 1:
        raise InvariantError(f"Zelobenko weights of {l.entries} do not sum "
                             f"to one")
    return tuple(out)


def natural_spectral_measure(l: ShiftedWeight) -> AtomicMeasure:
    """Atoms gamma_i at l_i; atoms of weight zero are dropped."""
    return AtomicMeasure.from_pairs(zip(l.entries, zelobenko_weights(l)))


# -- conversion between naive and natural moments ----------------------------
#
# By residues, sum_i gamma_i / (z - l_i) = (1 - prod_j (z-1-l_j)/(z-l_j)) / n.
# In w = 1/z, with p_0 = n and d_k = p_k(l+1) - p_k(l) = sum_{s<k} C(k,s) p_s,
#     n * sum_{k>=0} m_k w^(k+1) = 1 - exp(-sum_{k>=1} d_k w^k / k),
# m_k the natural moments (m_0 = 1).  Naive -> natural is one truncated exp,
# natural -> naive the matching log.

def naive_to_natural_moments(n: int, naive: Sequence) -> list:
    """Natural moments m_1..m_K from naive moments of the same weight
    (p_s = n * naive_s): the exp recurrence k f_k = sum_j j g_j f_{k-j} with
    g_k = -d_k / k, and n m_k = -f_{k+1}."""
    p = [Fraction(n)] + [n * Fraction(x) for x in naive]
    g = [0] + [Fraction(-sum(comb(k, s) * p[s] for s in range(k)), k)
               for k in range(1, len(p) + 1)]
    f = [Fraction(1)]
    for k in range(1, len(g)):
        f.append(Fraction(sum(j * g[j] * f[k - j] for j in range(1, k + 1)), k))
    return [-x / n for x in f[2:]]


def natural_to_naive_moments(n: int, natural: Sequence) -> list:
    """Inverse of naive_to_natural_moments: the log recurrence gives d_k,
    and d_k = k p_{k-1} + sum_{s<k-1} C(k, s) p_s is solved for p_{k-1}."""
    f = [Fraction(1), Fraction(-n)] + [-n * Fraction(x) for x in natural]
    g = [0]
    p: list = []
    for k in range(1, len(f)):
        g.append(f[k] - Fraction(sum(j * g[j] * f[k - j] for j in range(1, k)), k))
        p.append((-k * g[k] - sum(comb(k, s) * p[s] for s in range(k - 1))) / k)
    return [x / n for x in p[1:]]


# -- weighted decompositions --------------------------------------------------

@dataclass(frozen=True)
class WeightedDecomposition:
    """Multiset of irreducible components: shifted weight -> multiplicity."""

    n: int
    components: tuple[tuple[ShiftedWeight, int], ...]

    @classmethod
    def from_dict(cls, n: int, table: dict) -> "WeightedDecomposition":
        items = tuple(sorted(((l, m) for l, m in table.items() if m),
                             key=lambda t: t[0].entries, reverse=True))
        if any(l.n != n for l, _ in items):
            raise ValueError("component rank mismatch")
        if any(m < 0 for _, m in items):
            raise ValueError("multiplicities must be positive")
        return cls(n, items)

    def __len__(self):
        return len(self.components)

    def total_dimension(self) -> int:
        return sum(m * weyl_dimension(l) for l, m in self.components)

    def distribution(self) -> list[tuple[ShiftedWeight, Fraction]]:
        """P(l) = mult * dim / total dim; exact, sums to one."""
        if not self.components:
            raise ValueError("empty decomposition has no distribution")
        total = self.total_dimension()
        return [(l, Fraction(m * weyl_dimension(l), total))
                for l, m in self.components]


# -- tensor products ----------------------------------------------------------

def _check_highest_weight(lam, n):
    lam = tuple(int(x) for x in lam)
    if len(lam) != n:
        raise ValueError(f"expected {n} entries, got {len(lam)}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"highest weight must be weakly decreasing: {lam}")
    return lam


def _strips(shape: tuple[int, ...], size: int,
            ballot: tuple[int, ...] | None = None):
    """Every horizontal strip of `size` boxes on the partition `shape`, as
    (new shape, running box counts by row), depth first.  With `ballot`,
    the previous letter's running counts in a Littlewood-Richardson
    tableau, the count through row j is at most ballot[j - 1] (0 in row 0).
    Row j takes at least what the rows below it cannot hold, and a ballot
    that leaves no room yields nothing at once, so no branch is abandoned.

    >>> list(_strips((1, 1, 0), 2))
    [((2, 1, 1), (1, 1, 2)), ((3, 1, 0), (2, 2, 2))]
    >>> list(_strips((2, 1, 0), 1, ballot=(1, 2, 2)))
    [((2, 1, 1), (0, 0, 1)), ((2, 2, 0), (0, 1, 1))]
    """
    n = len(shape)
    # cap[j]: the most boxes rows 0..j may hold; the rows after j hold at
    # most the sum of their gaps, shape[j] - shape[-1]
    cap = (size,) * n if ballot is None else (0,) + ballot[:-1]
    if any(size > c + x - shape[-1] for c, x in zip(cap, shape)):
        return
    stack = [(0, size, (), ())]
    while stack:
        j, left, new, cum = stack.pop()
        if j == n:
            yield new, cum
            continue
        done = size - left
        hi = min(left, cap[j] - done, shape[j - 1] - shape[j] if j else left)
        for a in range(hi, max(0, left - shape[j] + shape[-1]) - 1, -1):
            stack.append((j + 1, left - a, new + (shape[j] + a,),
                          cum + (done + a,)))


def lr_tensor_decompose(lam: Sequence[int], mu: Sequence[int],
                        n: int) -> WeightedDecomposition:
    """Decomposition of the tensor product of two irreducibles by counting
    Littlewood-Richardson skew tableaux (column-strict fillings whose
    reverse reading word is a ballot sequence): one `_strips` step per
    letter, the previous letter's running counts as the ballot bound, with
    equal (shape, counts) states merged after every letter.

    Negative entries are handled by twisting both factors with a power of the
    determinant character, decomposing, and shifting back.
    """
    lam = _check_highest_weight(lam, n)
    mu = _check_highest_weight(mu, n)
    if n > LR_MAX_RANK:
        raise GuardError(f"tensor decomposition is limited to n <= {LR_MAX_RANK}")
    s = -min(lam[-1], 0)
    t = -min(mu[-1], 0)
    lam2 = tuple(x + s for x in lam)
    mu2 = tuple(x + t for x in mu)
    if sum(mu2) > sum(lam2):
        lam2, mu2 = mu2, lam2
    if sum(mu2) > LR_MAX_CELLS:
        raise GuardError(
            f"tensor decomposition needs a factor with at most {LR_MAX_CELLS} "
            f"cells after the determinant twist; got {sum(mu2)}")

    # (shape, running counts of the last letter) -> number of tableaux;
    # the next letter's strips depend on nothing else, so equal states merge
    states = {(lam2, None): 1}
    for size in mu2:
        step: dict = {}
        for (shape, ballot), c in states.items():
            for key in _strips(shape, size, ballot):
                step[key] = step.get(key, 0) + c
        states = step
    table: dict[ShiftedWeight, int] = {}
    for (shape, _), c in states.items():
        l = ShiftedWeight.from_highest_weight(tuple(x - s - t for x in shape))
        table[l] = table.get(l, 0) + c
    result = WeightedDecomposition.from_dict(n, table)
    lhs = weyl_dimension(ShiftedWeight.from_highest_weight(lam)) \
        * weyl_dimension(ShiftedWeight.from_highest_weight(mu))
    if lhs != result.total_dimension():
        raise InvariantError(f"LR dimension identity violated for "
                             f"{lam} x {mu}")
    return result


def pieri_decompose(lam: Sequence[int], row: int, n: int) -> WeightedDecomposition:
    """Tensor with the one-row representation of the given length: components
    are lam + horizontal strips of that size, each with multiplicity one."""
    lam = _check_highest_weight(lam, n)
    if row < 0:
        raise ValueError("row length must be nonnegative")
    return WeightedDecomposition.from_dict(n, {
        ShiftedWeight.from_highest_weight(shape): 1
        for shape, _ in _strips(lam, row)})


# -- restriction to U(m) ------------------------------------------------------

def _chain_counts(entries: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """Number of chains of interlacing shifted weights from entries down to
    each shifted U(m) weight, by composing one-step branchings: one step from
    l reaches each v in the box prod_i [l_{i+1}, l_i) once.  The box grows
    with the gaps of l, so this is meant for small weights."""
    counts = {entries: 1}
    for _ in range(len(entries) - m):
        step: dict[tuple[int, ...], int] = {}
        for l, c in counts.items():
            for v in product(*map(range, l[1:], l[:-1])):
                step[v] = step.get(v, 0) + c
        counts = step
    return counts


def restriction_mean_moments(l: ShiftedWeight, m: int,
                             orders: Sequence[int]) -> list:
    """Exact expectations of the naive-measure moments of a random
    restricted component, without enumerating the support of l.

    E[p_k(u)], for u the shifted weight of a random U(m) component, is a
    symmetric polynomial of degree <= k in the shifted weight l: one step of
    branching sums Delta(v) g(v) over the box prod_i [l_{i+1}, l_i), an
    alternant of Faulhaber polynomials divisible by Delta(l) (the finite-n
    quantized compression of Bufetov-Gorin, arXiv:1311.5780).  The
    polynomial is interpolated exactly from its enumerated values on the
    staircase `_staircase(n, K)`, K the largest order, checked at
    rho + (K + 1, 0, ..., 0), and evaluated at l.
    """
    n = l.n
    if not 1 <= m < n:
        raise ValueError(f"target rank must satisfy 1 <= m < {n}")
    orders = tuple(orders)
    if not all(isinstance(k, Integral) and k >= 0 for k in orders):
        raise ValueError(f"orders must be nonnegative integers: {orders}")
    degree = max(orders, default=0)
    basis = _elementary_basis(n, degree)
    r = len(basis)
    # Integer rows [e_mu(s) | E p_k(s) | 0], scaled by dim(s), for the
    # staircase weights s, in forward-eliminated form: (pivot column, row).
    # Every row in their span is [a | b | 0] with a . C = b, C the
    # coefficients.  The staircase is unisolvent, so every row takes a pivot.
    pivots: list[tuple[int, list[int]]] = []
    for s in _staircase(n, degree):
        row = _eliminate(_sample_row(s, m, orders,
                                     _elementary_row(s, basis, degree)),
                         pivots)
        col = next((j for j, x in enumerate(row[:r]) if x), None)
        if col is None:
            raise InvariantError(
                f"staircase weight {s} takes no new pivot in the U({n}) -> "
                f"U({m}) moment interpolation")
        pivots.append((col, row))
    held = (n + degree,) + tuple(range(n - 2, -1, -1))
    if any(_eliminate(_sample_row(held, m, orders,
                                  _elementary_row(held, basis, degree)),
                      pivots)):
        raise InvariantError(
            f"U({n}) -> U({m}) moment interpolant disagrees with the "
            f"enumeration at the held-out weight {held}")
    # [e_mu(l) | 0 | 1] eliminates to [0 | -t E p_k(l) | t] for some t != 0
    at_l = _eliminate(_elementary_row(l.entries, basis, degree)
                      + [0] * len(orders) + [1], pivots)
    return [Fraction(-x, at_l[-1] * m) for x in at_l[r:-1]]


def _sample_row(entries: tuple[int, ...], m: int, orders: tuple[int, ...],
                basis_row: list[int]) -> list[int]:
    """[dim * e_mu | dim * E p_k(u) | 0] at one sample weight, u the shifted
    weight of a random U(m) component, by counting interlacing chains."""
    sums = [0] * len(orders)
    total = 0
    for v, count in _chain_counts(entries, m).items():
        w = ShiftedWeight(v)
        weight = count * weyl_dimension(w)
        total += weight
        for a, k in enumerate(orders):
            sums[a] += weight * w.power_sum(k)
    if total != weyl_dimension(ShiftedWeight(entries)):
        raise InvariantError(f"restriction weights of {entries} do not sum "
                             f"to the dimension")
    return [total * x for x in basis_row] + sums + [0]


def _elementary_basis(n: int, degree: int) -> list[tuple[int, ...]]:
    """Partitions mu with |mu| <= degree and parts <= n.  The products e_mu
    of elementary symmetric polynomials form a basis of the symmetric
    polynomials of degree <= degree in n variables; power sums p_mu do not,
    as they become linearly dependent once n < |mu|.  Their conjugates are
    the partitions of `_staircase`, so the staircase has one point per
    basis element, and those points determine the coefficients."""
    return [mu for k in range(degree + 1) for mu in integer_partitions(k)
            if max(mu, default=0) <= n]


def _staircase(n: int, degree: int) -> list[tuple[int, ...]]:
    """The shifted weights rho + lambda, rho = (n-1, ..., 1, 0), of the
    partitions lambda with |lambda| <= degree and at most n parts, smallest
    first.  The shifted Schur function s*_mu, a symmetric polynomial of
    degree |mu| in the shifted weight, vanishes at rho + lambda unless mu is
    contained in lambda, and not at rho + mu (Okounkov-Olshanski,
    arXiv:q-alg/9605042).  So the s*_mu of these lambda form a triangular
    basis, and a symmetric polynomial of degree <= degree in n variables is
    determined by its values here.

    >>> _staircase(2, 2)
    [(1, 0), (2, 0), (3, 0), (2, 1)]
    """
    return [tuple(x + n - 1 - i
                  for i, x in enumerate(lam + (0,) * (n - len(lam))))
            for k in range(degree + 1) for lam in integer_partitions(k)
            if len(lam) <= n]


def _elementary_row(entries: Sequence[int], basis, degree: int) -> list[int]:
    """e_mu(entries) for each mu in the basis."""
    e = [1] + [0] * degree
    for x in entries:
        for j in range(degree, 0, -1):
            e[j] += x * e[j - 1]
    return [prod(e[p] for p in mu) for mu in basis]


def _eliminate(row: list[int], pivots) -> list[int]:
    """Fraction-free: combine row with the pivot rows until it vanishes in
    every pivot column; the result is a nonzero multiple of row minus pivot
    rows, which are used only as far as row reaches."""
    for col, prow in pivots:
        f = row[col]
        if f:
            g = gcd(f, prow[col])
            row = [prow[col] // g * a - f // g * b for a, b in zip(row, prow)]
            g = gcd(*row)
            if g > 1:
                row = [a // g for a in row]
    return row


# -- exact statistics of the component distribution ---------------------------

@dataclass(frozen=True)
class PushforwardStats:
    """Exact mean and covariance of the naive spectral-measure moments of a
    random irreducible component, one entry per order."""

    orders: tuple[int, ...]
    mean: tuple
    cov: tuple


def pushforward_stats(d: WeightedDecomposition,
                      orders: Sequence[int]) -> PushforwardStats:
    """Exact mean and covariance of the naive moments m_k = p_k(l) / n of a
    component l drawn with probability mult*dim/dim, from the dim-weighted
    sums of p_a(l) and p_a(l) p_b(l)."""
    if len(d) == 0:
        raise ValueError("empty decomposition")
    if len(d) > PUSHFORWARD_MAX_COMPONENTS:
        raise GuardError("decomposition exceeds the component guard")
    orders = tuple(orders)
    r = len(orders)
    total = 0
    sums = [0] * r
    pair_sums = [[0] * r for _ in range(r)]     # upper triangle a <= b
    for l, mult in d.components:
        w = mult * weyl_dimension(l)
        total += w
        u = [l.power_sum(k) for k in orders]
        for a in range(r):
            wa = w * u[a]
            sums[a] += wa
            row = pair_sums[a]
            for b in range(a, r):
                row[b] += wa * u[b]
    n = d.n
    mean = tuple(Fraction(s, total * n) for s in sums)
    cov = tuple(tuple(Fraction(pair_sums[min(a, b)][max(a, b)], total * n * n)
                      - mean[a] * mean[b] for b in range(r))
                for a in range(r))
    return PushforwardStats(orders=orders, mean=mean, cov=cov)
