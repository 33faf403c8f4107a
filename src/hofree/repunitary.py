"""Exact spectral data of U(n) irreducible representations.

Irreducibles are indexed by their shifted highest weight l (strictly
decreasing integers, l_i = lambda_i + n - i); ordinary highest weights appear
only at API boundaries.  The module computes Weyl dimensions, the uniform
("naive") and weighted ("natural") spectral measures, the triangular
conversion between their moments, tensor-product decompositions
(Littlewood-Richardson and the one-row Pieri special case), restriction to
smaller unitary groups, and exact statistics of the probability distribution
that weights each irreducible component by multiplicity times dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, prod
from typing import Sequence

from .cumulants import MomentTable, moments_to_cumulants
from .errors import GuardError, InvariantError

LR_MAX_RANK = 8
LR_MAX_CELLS = 40
PUSHFORWARD_MAX_COMPONENTS = 10 ** 7
# entries kept by the Weyl-dimension cache; bounds its memory
WEYL_CACHE_SIZE = 1 << 16


@dataclass(frozen=True, order=True)
class ShiftedWeight:
    """Strictly decreasing integer vector indexing a U(n) irreducible."""

    entries: tuple[int, ...]

    def __post_init__(self):
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


@lru_cache(maxsize=WEYL_CACHE_SIZE)
def _weyl_dimension_cached(entries: tuple[int, ...]) -> int:
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


def weyl_dimension(l: ShiftedWeight) -> int:
    """dim = prod_{i<j} (l_i - l_j) / (j - i); always an exact integer."""
    return _weyl_dimension_cached(l.entries)


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

    def total(self):
        return sum(w for _, w in self.atoms)

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


def natural_moment_via_matrix(l: ShiftedWeight, k: int) -> Fraction:
    """(1/n) * (sum of all entries of (L + J)^k), J strictly upper of -1."""
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


# -- conversion between naive and natural moments ----------------------------

def _series_mul(a, b, qmax, smax):
    out: dict = {}
    for (qa, sa), ca in a.items():
        for (qb, sb), cb in b.items():
            q, s = qa + qb, sa + sb
            if q <= qmax and s <= smax:
                out[(q, s)] = out.get((q, s), Fraction(0)) + ca * cb
    return out


def _chain_sums(n: int, psums: Sequence, qmax: int, smax: int) -> dict:
    """T[(q, s)] = sum over q-element subsets S of the spectrum of the
    complete homogeneous polynomial h_s on S, from power sums alone.

    Generating function: prod_i (1 + u/(1 - t x_i)); its logarithm is
    sum_r (-1)^(r-1) u^r/r * sum_s binom(s+r-1, r-1) p_s t^s with p_0 = n.
    """
    p = [Fraction(n)] + [Fraction(x) for x in psums]
    log_g: dict = {}
    for r in range(1, qmax + 1):
        base = Fraction((-1) ** (r - 1), r)
        for s in range(0, smax + 1):
            if s >= len(p):
                break
            c = base * comb(s + r - 1, r - 1) * p[s]
            if c:
                log_g[(r, s)] = log_g.get((r, s), Fraction(0)) + c
    total = {(0, 0): Fraction(1)}
    term = {(0, 0): Fraction(1)}
    for m in range(1, qmax + 1):
        term = _series_mul(term, log_g, qmax, smax)
        term = {k: v / m for k, v in term.items()}
        for k, v in term.items():
            total[k] = total.get(k, Fraction(0)) + v
    return total


def naive_to_natural_moments(n: int, naive: Sequence) -> list:
    """Natural moments m_1..m_K from naive moments of the same weight.

    Implements the triangular expansion of n*m_k in the power sums of the
    shifted weight (p_0 = n, p_s = n * naive_s).
    """
    order = len(naive)
    psums = [n * Fraction(x) for x in naive]
    t = _chain_sums(n, psums, order + 1, order)
    out = []
    for k in range(1, order + 1):
        total = Fraction(0)
        for q in range(1, k + 2):
            s = k - q + 1
            if s >= 0:
                total += (-1) ** (q - 1) * t.get((q, s), Fraction(0))
        out.append(total / n)
    return out


def natural_to_naive_moments(n: int, natural: Sequence) -> list:
    """Inverse of naive_to_natural_moments, solved order by order."""
    order = len(natural)
    psums: list = []
    out = []
    for k in range(1, order + 1):
        t = _chain_sums(n, psums, k + 1, k - 1)
        correction = Fraction(0)
        for q in range(2, k + 2):
            s = k - q + 1
            if s >= 0:
                correction += (-1) ** (q - 1) * t.get((q, s), Fraction(0))
        p_k = n * Fraction(natural[k - 1]) - correction
        psums.append(p_k)
        out.append(p_k / n)
    return out


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


def sample_component(d: WeightedDecomposition, rng) -> ShiftedWeight:
    """Exact inverse-CDF draw in the deterministic component order."""
    total = d.total_dimension()
    t = _uniform_below(rng, total)
    acc = 0
    for l, m in d.components:
        acc += m * weyl_dimension(l)
        if t < acc:
            return l
    raise InvariantError("component weights do not sum to the total dimension")


def _uniform_below(rng, bound: int) -> int:
    # unbiased big-integer uniform draw via rejection on raw bits
    nbits = bound.bit_length()
    nbytes = (nbits + 7) // 8
    excess = nbytes * 8 - nbits
    while True:
        t = int.from_bytes(rng.bytes(nbytes), "big") >> excess
        if t < bound:
            return t


# -- tensor products ----------------------------------------------------------

def _check_highest_weight(lam, n):
    lam = tuple(int(x) for x in lam)
    if len(lam) != n:
        raise ValueError(f"expected {n} entries, got {len(lam)}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"highest weight must be weakly decreasing: {lam}")
    return lam


def lr_tensor_decompose(lam: Sequence[int], mu: Sequence[int],
                        n: int) -> WeightedDecomposition:
    """Decomposition of the tensor product of two irreducibles by enumeration
    of Littlewood-Richardson skew tableaux (column-strict fillings whose
    reverse reading word is a ballot sequence).

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

    counts: dict[tuple[int, ...], int] = {}

    def place_letter(letter, shape):
        # distribute mu2[letter] cells of this letter row by row
        amount = mu2[letter]
        placements: list[tuple[int, ...]] = []

        def rows(j, prev_cum, cum, current, left):
            if j == n:
                if left == 0:
                    placements.append(tuple(current))
                return
            hi = left
            if j > 0:
                hi = min(hi, shape[j - 1] - shape[j])      # horizontal strip
            if letter > 0:
                # ballot: count of this letter through row j cannot exceed
                # the previous letter's count through row j-1
                bound = prev_cum[j - 1] if j > 0 else 0
                hi = min(hi, bound - cum)
            for a in range(0, hi + 1):
                current.append(shape[j] + a)
                rows(j + 1, prev_cum, cum + a, current, left - a)
                current.pop()

        prev_cum = cum_counts[letter - 1] if letter > 0 else None
        rows(0, prev_cum, 0, [], amount)
        return placements

    def dfs(letter, shape):
        if letter == len(mu2):
            counts[shape] = counts.get(shape, 0) + 1
            return
        for new_shape in place_letter(letter, shape):
            cum = []
            acc = 0
            for j in range(n):
                acc += new_shape[j] - shape[j]
                cum.append(acc)
            cum_counts.append(cum)
            dfs(letter + 1, new_shape)
            cum_counts.pop()

    cum_counts: list[list[int]] = []
    dfs(0, lam2)

    table = {ShiftedWeight.from_highest_weight(
        tuple(x - s - t for x in shape)): c for shape, c in counts.items()}
    result = WeightedDecomposition.from_dict(n, table)
    lhs = _weyl_dimension_cached(ShiftedWeight.from_highest_weight(lam).entries) \
        * _weyl_dimension_cached(ShiftedWeight.from_highest_weight(mu).entries)
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
    out: dict[ShiftedWeight, int] = {}

    def rows(j, current, left):
        if j == n:
            if left == 0:
                shape = tuple(current)
                out[ShiftedWeight.from_highest_weight(shape)] = 1
            return
        hi = left if j == 0 else min(left, lam[j - 1] - lam[j])
        for a in range(0, hi + 1):
            current.append(lam[j] + a)
            rows(j + 1, current, left - a)
            current.pop()

    rows(0, [], row)
    return WeightedDecomposition.from_dict(n, out)


# -- restriction to U(m) ------------------------------------------------------

def _integer_determinant(mat: list[list[int]]) -> int:
    # Bareiss fraction-free elimination
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def interlacing_chain_count(lam: Sequence[int], target: Sequence[int]) -> int:
    """Number of chains of interlacing weights from lam (n entries) down to
    target (m entries), i.e. column-strict skew fillings of lam/target with
    n - m letters; computed by the Lindstrom-Gessel-Viennot determinant."""
    n, m = len(lam), len(target)
    steps = n - m
    if steps < 0:
        raise ValueError("target must have fewer rows")
    padded = list(target) + [lam[-1]] * steps   # pad at the ambient minimum

    def h(d):
        if d < 0:
            return 0
        return comb(d + steps - 1, d) if steps > 0 else int(d == 0)

    mat = [[h(lam[i] - padded[j] - i + j) for j in range(n)] for i in range(n)]
    return _integer_determinant(mat)


def _restriction_support(lam: Sequence[int], m: int):
    """Weights of U(m) reachable from lam by iterated interlacing, with their
    chain-count-times-dimension weights, in DFS order."""
    n = len(lam)
    steps = n - m

    def rec(i, current):
        if i == m:
            count = interlacing_chain_count(lam, current)
            if count:
                w = ShiftedWeight.from_highest_weight(tuple(current))
                yield w, count * weyl_dimension(w)
            return
        lo, hi = lam[i + steps], lam[i]
        if current:
            hi = min(hi, current[-1])
        for v in range(hi, lo - 1, -1):
            current.append(v)
            yield from rec(i + 1, current)
            current.pop()

    yield from rec(0, [])


def branch_chain(l: ShiftedWeight, m: int) -> list[tuple[ShiftedWeight, Fraction]]:
    """Restriction to U(m) (1 <= m < n): the composition of one-step
    branchings; probabilities are chain-count times dimension over dim."""
    n = l.n
    if not 1 <= m < n:
        raise ValueError(f"target rank must satisfy 1 <= m < {n}")
    dim_l = weyl_dimension(l)
    out = []
    total = 0
    for w, weight in _restriction_support(l.highest_weight(), m):
        total += weight
        out.append((w, Fraction(weight, dim_l)))
    if total != dim_l:
        raise InvariantError(f"branching weights of {l.entries} do not sum "
                             f"to the dimension")
    return out


def restriction_mean_moments(l: ShiftedWeight, m: int, orders: Sequence[int],
                             eps=1) -> list:
    """Exact expectations of the dilated naive-measure moments of a random
    restricted component, without enumerating the support of l.

    E[p_k(u)], for u the shifted weight of a random U(m) component, is a
    symmetric polynomial of degree <= k in the shifted weight l: one step of
    branching sums Delta(v) g(v) over the box prod_i [l_{i+1}, l_i), an
    alternant of Faulhaber polynomials divisible by Delta(l) (the finite-n
    quantized compression of Bufetov-Gorin, arXiv:1311.5780).  The
    polynomial is interpolated exactly from its enumerated values at small
    sample weights, checked at one more sample, and evaluated at l.
    """
    n = l.n
    if not 1 <= m < n:
        raise ValueError(f"target rank must satisfy 1 <= m < {n}")
    orders = tuple(orders)
    degree = max(orders, default=0)
    basis = _elementary_basis(n, degree)
    r = len(basis)
    # Integer rows [e_mu(s) | E p_k(s) | 0], scaled by dim(s), for the kept
    # samples s, in forward-eliminated form: (pivot column, row).  Every row
    # in their span is [a | b | 0] with a . C = b, C the coefficients.  A
    # sample is kept when its e_mu row is independent of the kept ones.
    pivots: list[tuple[int, list[int]]] = []
    samples = _sample_weights(n, degree)
    for s in samples:
        row = _elementary_row(s, basis, degree)
        col = next((j for j, x in enumerate(_eliminate(row, pivots)) if x),
                   None)
        if col is None:
            continue
        pivots.append((col, _eliminate(_sample_row(s, m, orders, row),
                                       pivots)))
        if len(pivots) == r:
            break
    else:
        raise InvariantError(f"sample weights do not determine the U({n}) "
                             f"-> U({m}) moment polynomials")
    held = next(samples, None)
    if held is None:
        raise InvariantError(f"no held-out sample weight for U({n}) -> U({m})")
    if any(_eliminate(_sample_row(held, m, orders,
                                  _elementary_row(held, basis, degree)),
                      pivots)):
        raise InvariantError(
            f"U({n}) -> U({m}) moment interpolant disagrees with the "
            f"enumeration at the held-out weight {held}")
    # [e_mu(l) | 0 | 1] eliminates to [0 | -t E p_k(l) | t] for some t != 0
    at_l = _eliminate(_elementary_row(l.entries, basis, degree)
                      + [0] * len(orders) + [1], pivots)
    return [Fraction(-at_l[r + a], at_l[-1] * m) * eps ** k
            for a, k in enumerate(orders)]


def _sample_row(entries: tuple[int, ...], m: int, orders: tuple[int, ...],
                basis_row: list[int]) -> list[int]:
    """[dim * e_mu | dim * E p_k(u) | 0] at one sample weight, u the shifted
    weight of a random U(m) component, by enumerating the restriction
    support."""
    l = ShiftedWeight(entries)
    sums = [0] * len(orders)
    total = 0
    for w, weight in _restriction_support(l.highest_weight(), m):
        total += weight
        for a, k in enumerate(orders):
            sums[a] += weight * w.power_sum(k)
    if total != weyl_dimension(l):
        raise InvariantError(f"restriction weights of {entries} do not sum "
                             f"to the dimension")
    return [total * x for x in basis_row] + sums + [0]


def _elementary_basis(n: int, degree: int) -> list[tuple[int, ...]]:
    """Partitions mu with |mu| <= degree and parts <= n.  The products e_mu
    of elementary symmetric polynomials form a basis of the symmetric
    polynomials of degree <= degree in n variables; power sums p_mu do not,
    as they become linearly dependent once n < |mu|."""
    def parts(rest, cap):
        yield ()
        for first in range(min(rest, cap), 0, -1):
            for tail in parts(rest - first, first):
                yield (first,) + tail
    return list(parts(degree, n))


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


def _sample_weights(n: int, degree: int):
    """Small shifted weights, cheapest to enumerate first: the entries
    (n-1, ..., 1, 0) moved by an offset c, with neighbouring gaps 1 + g_i,
    in order of size sum(g_i) + |c|.  The g_i range over 0..top with
    top = max(2, degree // 2), so that one gap takes degree // 2 + 1 values,
    as a polynomial of that degree in the square of a gap needs (n = 2)."""
    top = max(2, degree // 2)

    def excesses(slots, total):
        if total > top * slots:
            return
        if slots == 0:
            yield ()
            return
        for first in range(min(total, top) + 1):
            for tail in excesses(slots - 1, total - first):
                yield (first,) + tail

    for size in range(top * (n - 1) + degree + 2):
        for excess in range(min(size, top * (n - 1)) + 1):
            c = size - excess
            for gaps in excesses(n - 1, excess):
                for offset in ((c, -c) if c else (0,)):
                    entries = [offset]
                    for g in reversed(gaps):
                        entries.append(entries[-1] + 1 + g)
                    yield tuple(reversed(entries))


# -- exact statistics of the component distribution ---------------------------

@dataclass(frozen=True)
class PushforwardStats:
    """Exact mean, covariance and third joint cumulants of spectral-measure
    moments of a random irreducible component."""

    orders: tuple[int, ...]
    mean: tuple
    cov: tuple
    third: dict

    def variance(self, order: int):
        i = self.orders.index(order)
        return self.cov[i][i]


def _component_moment_numerators(l: ShiftedWeight, orders, which):
    # returns integers u_k with moment m_k = u_k / n
    if which == "naive":
        return [l.power_sum(k) for k in orders]
    if which == "natural":
        vals = []
        for k in orders:
            v = natural_moment_via_matrix(l, k) * l.n
            if v.denominator != 1:
                raise InvariantError(f"natural moment numerator of "
                                     f"{l.entries} is not an integer")
            vals.append(v.numerator)
        return vals
    raise ValueError("measure kind must be 'naive' or 'natural'")


def pushforward_stats(d: WeightedDecomposition, eps, orders: Sequence[int],
                      which: str = "naive") -> PushforwardStats:
    """Exact joint cumulants (to third order) of the moments of the dilated
    spectral measure of a component drawn with probability mult*dim/dim."""
    if len(d) == 0:
        raise ValueError("empty decomposition")
    if len(d) > PUSHFORWARD_MAX_COMPONENTS:
        raise GuardError("decomposition exceeds the component guard")
    orders = tuple(orders)
    r = len(orders)
    n = d.n
    # index tuples a <= b <= c of the products of length <= 3, in the order
    # the accumulation loop visits them
    keys = []
    for a in range(r):
        keys.append((a,))
        for b in range(a, r):
            keys.append((a, b))
            keys += [(a, b, c) for c in range(b, r)]
    total = 0
    sums = [0] * len(keys)
    for l, mult in d.components:
        w = mult * weyl_dimension(l)
        total += w
        u = _component_moment_numerators(l, orders, which)
        i = 0
        for a in range(r):
            wa = w * u[a]
            sums[i] += wa
            i += 1
            for b in range(a, r):
                wab = wa * u[b]
                sums[i] += wab
                i += 1
                for c in range(b, r):
                    sums[i] += wab * u[c]
                    i += 1

    moment = {key: Fraction(s, total * n ** len(key))
              for key, s in zip(keys, sums)}
    cumulant = {key: moments_to_cumulants(MomentTable.from_function(
        len(key), lambda sub: moment[tuple(key[j] for j in sub)])).top()
        for key in keys}
    scale = [eps ** k for k in orders]
    scaled_mean = tuple(cumulant[(a,)] * scale[a] for a in range(r))
    cov = tuple(tuple(cumulant[(min(a, b), max(a, b))] * scale[a] * scale[b]
                      for b in range(r)) for a in range(r))
    third = {(orders[a], orders[b], orders[c]):
             cumulant[(a, b, c)] * scale[a] * scale[b] * scale[c]
             for (a, b, c) in (key for key in keys if len(key) == 3)}
    return PushforwardStats(orders=orders, mean=scaled_mean, cov=cov,
                            third=third)
