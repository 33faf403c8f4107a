"""Exact spectral data of U(n) irreducible representations.

Irreducibles are indexed by their shifted highest weight l (strictly
decreasing integers, l_i = lambda_i + n - i); ordinary highest weights appear
only at API boundaries.  The module computes Weyl dimensions, the uniform
("naive") and weighted ("natural") spectral measures, the conversion
between their moments (one truncated exp or log of a power series in the
power sums), Littlewood-Richardson tensor decompositions from one
horizontal-strip step per letter, and, from shifted Schur functions at any
n, the exact mean and covariance of the naive-measure moments of a random
component of V_lambda (x) V_(r) and the branch means of a restriction to U(m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, perm, prod
from numbers import Integral
from typing import Sequence

from .errors import GuardError, InvariantError
from .partperm import _content_product, integer_partitions

LR_MAX_RANK = 8
LR_MAX_CELLS = 40
SHIFTED_SCHUR_MAX_DEGREE = 20


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
                        n: int) -> dict[ShiftedWeight, int]:
    """Decomposition of the tensor product of two irreducibles, as a table
    {component: multiplicity}, by counting Littlewood-Richardson skew
    tableaux (column-strict fillings whose reverse reading word is a ballot
    sequence): one `_strips` step per letter, the previous letter's running
    counts as the ballot bound, with equal (shape, counts) states merged
    after every letter.

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
    lhs = weyl_dimension(ShiftedWeight.from_highest_weight(lam)) \
        * weyl_dimension(ShiftedWeight.from_highest_weight(mu))
    if lhs != sum(c * weyl_dimension(l) for l, c in table.items()):
        raise InvariantError(f"LR dimension identity violated for "
                             f"{lam} x {mu}")
    return table


def pieri_component_count(lam: Sequence[int], row: int, n: int) -> int:
    """Number of components of V_lam (x) V_(row): strips of `row` boxes, row
    j >= 1 taking a_j <= g_j = lam_(j-1) - lam_j and row 0 the rest; ways[s]
    counts the a of sum s <= min(row, sum(g) - row - 1), a -> g - a the rest."""
    lam = _check_highest_weight(lam, n)
    if row < 0:
        raise ValueError("row length must be nonnegative")
    gaps = [a - b for a, b in zip(lam, lam[1:])]
    top = min(row, sum(gaps) - row - 1)
    ways = [1] if top >= 0 else []
    for g in gaps:
        prefix = [0, *accumulate(ways)]
        ways = [prefix[min(s, len(ways) - 1) + 1] - prefix[max(0, s - g)]
                for s in range(min(len(ways) - 1 + g, top) + 1)]
    return sum(ways) if top == row else prod(g + 1 for g in gaps) - sum(ways)


# -- shifted Schur functions --------------------------------------------------
#
# The s*_kappa (Okounkov-Olshanski, arXiv:q-alg/9605042), |kappa| <= D and at
# most n parts, span the symmetric polynomials of degree <= D in the shifted
# weight.  By s_lam(1 + x) / s_lam(1^n) = sum s*_kappa(lam) s_kappa(x) /
# (n)_kappa, a component drawn with probability multiplicity times dimension
# over the total has E s*_kappa = (m)_kappa / (n)_kappa s*_kappa(lam) on
# restriction to U(m) (x_(m+1..n) = 0; Bufetov-Gorin, arXiv:1311.5780), and
# E s*_kappa = (n)_kappa sum s*_alpha(lam) r_(j) / ((n)_alpha (n)_(j)) in
# V_lam (x) V_(r), over the horizontal strips kappa / alpha of j boxes, where
# r_(j) = r (r-1) ... (r-j+1) = s*_(j)(r, 0, ...).

def _staircase(n: int, degree: int) -> list[tuple[int, ...]]:
    """rho + nu for the nodes nu, the keys of _growth(degree, min(n, degree)).

    >>> _staircase(2, 2)
    [(1, 0), (2, 0), (3, 0), (2, 1)]
    """
    return [tuple(x + n - 1 - i for i, x in enumerate(nu + (0,) * (n - len(nu))))
            for nu in _growth(degree, min(n, degree))]


@lru_cache(maxsize=8)
def _growth(degree: int, rows: int) -> dict:
    """kappa -> [(kappa + strip, contents of the strip's boxes)] over the
    partitions of at most `degree` boxes and `rows` parts, smallest first
    (the nodes, and the basis s*_kappa), and the strips that stay there."""
    out = {}
    for kappa in [lam for k in range(degree + 1)
                  for lam in integer_partitions(k) if len(lam) <= rows]:
        shape = kappa + (0,)
        out[kappa] = [
            (grown, tuple(j - i for i, (a, b) in enumerate(zip(shape, new))
                          for j in range(a, b)))
            for size in range(degree - sum(kappa) + 1)
            for new, _ in _strips(shape, size)
            if len(grown := tuple(x for x in new if x)) <= rows]
    return out


def _shifted_schur(lam: Sequence[int], degree: int, rows: int) -> dict:
    """s*_kappa(lam) for the kappa of _growth(degree, rows), rows <= degree:
    the sum over the fillings of kappa by 1..n, weakly decreasing along rows
    and strictly down columns, of the product over the boxes of lam_t -
    content, t the box's entry.  The boxes holding t form a horizontal
    strip, added for t = n down to 1.  s*_kappa(nu) = 0 unless kappa lies
    in nu, and s*_nu(nu) is nu's hook product:

    >>> at = _shifted_schur((2, 1, 0), 3, 3)
    >>> at[(2, 1)], at[(3,)], at[(1, 1, 1)], at[(1,)]
    (3, 0, 0, 3)
    """
    growth = _growth(degree, rows)
    values = {(): 1}
    for x in reversed(lam):
        step: dict = {}
        for kappa, v in values.items():
            for grown, contents in growth[kappa]:
                step[grown] = step.get(grown, 0) + v * prod(x - c for c in contents)
        values = step
    return values


@lru_cache(maxsize=8)
def _node_values(degree: int, rows: int) -> dict:
    """kappa -> {nu: s*_kappa(nu)} over the nodes nu that contain kappa:
    |nu|_(|kappa|) f(kappa, nu) / f^nu (Okounkov-Olshanski), f counting the
    ways to grow kappa (or nothing) into nu box by box, whatever n is."""
    boxes = {kappa: [grown for grown, contents in steps if len(contents) == 1]
             for kappa, steps in _growth(degree, rows).items()}
    values: dict = {}
    for kappa in boxes:
        counts = {kappa: 1}
        for nu in boxes:      # smallest first: counts[nu] is final when read
            for grown in boxes[nu] if nu in counts else ():
                counts[grown] = counts.get(grown, 0) + counts[nu]
        if not kappa:
            f = counts      # f^nu, the ways to grow nu from nothing
        values[kappa] = {}
        for nu, c in counts.items():
            values[kappa][nu], rem = divmod(perm(sum(nu), sum(kappa)) * c, f[nu])
            if rem:
                raise InvariantError(f"s*_{kappa}({nu}) is not an integer")
    return values


def _node_weights(degree: int, rows: int, expected: dict) -> list:
    """Node weights with sum_nu w_nu s*_kappa(nu) = expected[kappa] =
    E s*_kappa, so E f = sum_nu w_nu f(rho + nu) for every symmetric f of
    degree <= degree in the shifted weight; solved from the largest kappa."""
    values = _node_values(degree, rows)
    w: dict = {}
    for kappa in reversed(values):
        at = values[kappa]
        w[kappa] = (expected[kappa] - sum(v * w[nu] for nu, v in at.items()
                                          if nu != kappa)) / at[kappa]
    return [w[nu] for nu in values]


def _orders_and_degree(orders: Sequence[int], per_order: int) -> tuple:
    orders = tuple(orders)
    if not all(isinstance(k, Integral) and k >= 0 for k in orders):
        raise ValueError(f"orders must be nonnegative integers: {orders}")
    # the nodes, and their time and memory, grow like the partitions of degree
    degree = per_order * max(orders, default=0)
    if degree > SHIFTED_SCHUR_MAX_DEGREE:
        raise GuardError(f"moments of degree {degree} exceed the shifted "
                         f"Schur guard of {SHIFTED_SCHUR_MAX_DEGREE}")
    return orders, degree


# -- exact statistics of the component distribution ---------------------------

@dataclass(frozen=True)
class PushforwardStats:
    """Exact mean and covariance of the naive spectral-measure moments of a
    random irreducible component, one entry per order."""

    orders: tuple[int, ...]
    mean: tuple
    cov: tuple


def pieri_stats(lam: Sequence[int], row: int, n: int,
                orders: Sequence[int]) -> PushforwardStats:
    """Exact mean and covariance of the naive moments p_k(l) / n of a random
    component l of V_lam (x) V_(row) (probability multiplicity times
    dimension over the total), by the tensor rule at nodes of degree twice
    the largest order."""
    lam = _check_highest_weight(lam, n)
    if row < 0:
        raise ValueError("row length must be nonnegative")
    orders, degree = _orders_and_degree(orders, 2)
    rows = min(n, degree)
    at_lam = _shifted_schur(lam, degree, rows)
    growth = _growth(degree, rows)
    sums = dict.fromkeys(growth, 0)
    for alpha, steps in growth.items():
        a = Fraction(at_lam[alpha], _content_product(n, alpha))
        for kappa, c in steps:
            sums[kappa] += a * perm(row, len(c)) / _content_product(n, (len(c),))
    w = _node_weights(degree, rows, {
        kappa: s * _content_product(n, kappa) for kappa, s in sums.items()})
    u = [[sum(x ** k for x in s) for k in orders] for s in _staircase(n, degree)]
    r = len(orders)
    mean = tuple(sum(wv * p[a] for wv, p in zip(w, u)) / n for a in range(r))
    cov = tuple(tuple(sum(wv * p[a] * p[b] for wv, p in zip(w, u)) / (n * n)
                      - mean[a] * mean[b] for b in range(r))
                for a in range(r))
    return PushforwardStats(orders=orders, mean=mean, cov=cov)


def restriction_mean_moments(l: ShiftedWeight, m: int,
                             orders: Sequence[int]) -> list:
    """Exact means of the naive moments p_k(u) / m of u, the shifted weight
    of a random U(m) component of the restriction of l, by the restriction
    rule at nodes of degree K, K the largest order; at m = n, p_k(l) / n."""
    n = l.n
    if not 1 <= m <= n:
        raise ValueError(f"target rank must satisfy 1 <= m <= {n}")
    orders, degree = _orders_and_degree(orders, 1)
    rows = min(m, degree)
    at_l = _shifted_schur(l.highest_weight(), degree, rows)
    w = _node_weights(degree, rows, {
        kappa: Fraction(_content_product(m, kappa) * at_l[kappa],
                        _content_product(n, kappa))
        for kappa in _growth(degree, rows)})
    return [sum(wv * sum(x ** k for x in s)
                for wv, s in zip(w, _staircase(m, degree))) / m for k in orders]
