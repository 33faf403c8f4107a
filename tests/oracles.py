"""Independent reference computations that the tests check fast paths
against; no code in `src` calls them."""

import functools
import itertools
from fractions import Fraction
from math import comb

import numpy as np

from hofree import repunitary, rmt
from hofree.cumulants import CumulantTable, MomentTable, moments_to_cumulants
from hofree.errors import GuardError, InvariantError
from hofree.partperm import (
    Permutation,
    SetPartition,
    _num_cycles,
    contiguous_cycles,
    integer_partitions,
    partitioned_permutations,
)
from hofree.repunitary import PushforwardStats, ShiftedWeight, weyl_dimension

PUSHFORWARD_MAX_COMPONENTS = 10 ** 7
EIGENVALUE_RESIDUAL_TOL = 1e-10


def eigenvalues(x) -> np.ndarray:
    """Sorted eigenvalues; the residual ||Xv - lambda v|| is checked against
    the documented tolerance.  Non-finite input is refused.  The oracle that
    the tests check `rmt.power_traces` and `rmt.corner_traces` against."""
    mat = np.asarray(x)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"matrix of shape {mat.shape} has non-finite entries")
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on shape {mat.shape}: {exc}")
    scale = max(1.0, float(np.linalg.norm(mat)))
    residual = np.linalg.norm(mat @ vecs - vecs * vals, axis=0).max()
    if residual > EIGENVALUE_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds "
            f"{EIGENVALUE_RESIDUAL_TOL:.1e} * {scale:.3e}")
    return vals


def corner_by_qr(spec: rmt.EnsembleSpec, rng, m: int) -> np.ndarray:
    """Leading m-by-m block of X = eps * U diag(l) U*, 1 <= m <= n, drawn as
    W* diag(eps * l) W for the n-by-m Haar isometry W of the phase-fixed thin
    QR of an n-by-m Ginibre draw; at m = n it is U diag(eps * l) U*, the
    draw of `rmt.sample_matrix`.  The QR corner whose traces
    `rmt.corner_traces` reads from the same draws without a QR."""
    eigs = float(spec.eps) * rmt._draw_atom(spec, rng)
    z = rmt._ginibre(spec.n, rng, m)
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    w = q * (d / np.abs(d))
    x = (w * eigs) @ w.conj().T if m == spec.n else (w.conj().T * eigs) @ w
    return (x + x.conj().T) / 2


def complement_corner(spec: rmt.EnsembleSpec, rng, m: int) -> np.ndarray:
    """(I - Q) D (I - Q) from the draws of a corner with 2m > n: Q projects
    onto the range of the n-by-(n - m) Ginibre draw, so the matrix has the
    corner's m eigenvalues and n - m zeros."""
    eigs = float(spec.eps) * rmt._draw_atom(spec, rng)
    z = rmt._ginibre(spec.n, rng, spec.n - m)
    zh = z.conj().T
    p = np.eye(spec.n) - z @ np.linalg.solve(zh @ z, zh)
    x = p @ (eigs[:, None] * p)
    return (x + x.conj().T) / 2


def distribution(d: dict) -> dict:
    """P(l) = mult * dim / total dim for a table {component: multiplicity};
    exact, sums to one."""
    total = sum(m * weyl_dimension(l) for l, m in d.items())
    return {l: Fraction(m * weyl_dimension(l), total) for l, m in d.items()}


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


def entry_moment_by_weingarten_sum(spec: rmt.EnsembleSpec, pairs) -> Fraction:
    """E[X_{i1 j1} ... X_{ik jk}] for X = eps * U diag(l) U* by the
    Weingarten double sum over sigma, tau in S_k of Wg(sigma tau^-1)
    p_tau(l), sigma running over the matches rows[m] = cols[sigma(m)]: the
    enumeration that `rmt.exact_entry_moment` diagonalises on characters."""
    k = len(pairs)
    if k == 0:
        return Fraction(1)
    wg = rmt.weingarten_table(k, spec.n)
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    perms = list(itertools.permutations(range(k)))
    matches = [s for s in perms if all(rows[m] == cols[s[m]] for m in range(k))]
    if not matches:
        return Fraction(0)
    tau_weight = {}
    for tau in perms:
        inverse = sorted(range(k), key=tau.__getitem__)
        w = sum(wg[Permutation(tuple(s[j] for j in inverse)).cycle_type()]
                for s in matches)
        if w:
            tau_weight[tau] = w
    total = 0
    for eigs, prob in spec.atoms:
        atom_total = 0
        for tau, w in tau_weight.items():
            term = w
            for c in Permutation(tau).cycle_type():
                term = term * sum(x ** c for x in eigs)
            atom_total = atom_total + term
        total = total + prob * atom_total
    return total * spec.eps ** k


def complement_words(p: int) -> dict:
    """Tr (D - QD)^p = Tr D^p + sum of c Tr(N_b1 ... N_bj) over the items
    ((b1, ..., bj), c) of this table, N_b = G^-1 Z*D^bZ.  A word of the
    expansion with QD at positions s1 < ... < sj (j >= 1) rotates to
    Q D^b1 ... Q D^bj, the bi the cyclic gaps between the si, whose trace is
    Tr(N_b1 ... N_bj); the gaps are stored as their least rotation and c
    sums the signs (-1)^j.

    >>> complement_words(2)
    {(2,): -2, (1, 1): 1}
    """
    table = {}
    for mask in range(1, 2 ** p):
        at = [i for i in range(p) if mask >> i & 1]
        gaps = [b - a for a, b in zip(at, at[1:])] + [at[0] + p - at[-1]]
        word = min(tuple(gaps[i:] + gaps[:i]) for i in range(len(gaps)))
        table[word] = table.get(word, 0) + (-1) ** len(gaps)
    return table


def complement_traces_by_words(eigs, z, powers) -> list:
    """Tr (D - QD)^p for each p, D = diag(eigs) and Q the projection onto
    the range of the n-by-r draw Z, by the 2^p - 1 words of
    `complement_words`, the oracle of the resolvent recursion that
    `rmt.corner_traces` runs for corners with 2m > n."""
    zh = z.conj().T
    ginv = np.linalg.inv(zh @ z)
    nb = {b: ginv @ (zh * eigs ** b) @ z for b in range(1, max(powers) + 1)}
    return [np.sum(eigs ** p) + sum(
                c * np.trace(functools.reduce(np.matmul, map(nb.get, word)))
                for word, c in complement_words(p).items())
            for p in powers]


def entry_cumulants(spec: rmt.EnsembleSpec, pairs) -> CumulantTable:
    """Joint classical cumulants of the designated entries over every subset
    of positions, exact through the Weingarten oracle; k_V of the entries is
    .value(V), whether or not the pairing refines V."""
    def moment(subset):
        return rmt.exact_entry_moment(spec, [pairs[i] for i in subset])

    return moments_to_cumulants(MomentTable.from_function(len(pairs), moment))


def kappa_by_pair(spec: rmt.EnsembleSpec, k: int) -> dict:
    """kappa_(V,pi) for every (V, pi), in enumeration order, read off one
    entry-cumulant table per cycle type mu, over every subset of positions:
    X and SXS* have the same law for every permutation matrix S, so for
    pi = s rho s^-1 (rho = contiguous_cycles(*mu)) it is rho's value at
    s^-1 V, with s and s^-1 V built for every pair.  `hof.kappa_exact`
    takes one cumulant of cycle products per block type instead."""
    tables = {mu: entry_cumulants(
                  spec, list(enumerate(contiguous_cycles(*mu).images)))
              for mu in integer_partitions(k)}
    values = {}
    for vp in partitioned_permutations(k):
        pi = vp.permutation
        s = sum(sorted(pi.cycles(), key=len, reverse=True), ())
        moved = SetPartition.from_blocks(
            k, [[s.index(m) for m in blk] for blk in vp.partition.blocks()])
        values[vp] = tables[pi.cycle_type()].value(moved)
    return values


def compositions(k: int):
    """Every ordered pattern of positive powers summing to k."""
    if k == 0:
        yield ()
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


def macro_by_pair(values: dict, n: int, powers):
    """The sum of kappa_(V,pi) n^(#(gamma pi^-1)) over every (V, pi) of
    `values` whose partition joins with the cycles of gamma to the full
    partition, one join and one cycle count per pair, where
    `hof.macro_from_micro` sums one term per distinct (class, cycle count)."""
    gamma = contiguous_cycles(*powers)
    full = SetPartition.full(sum(powers))
    total = 0
    for vp, kappa in values.items():
        if kappa == 0 or vp.partition.join(gamma.cycle_partition()) != full:
            continue
        inv = vp.permutation.inverse().images
        cycles = _num_cycles([gamma.images[j] for j in inv])
        total = total + kappa * Fraction(n) ** cycles
    return total


def _chain_counts(entries: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """Number of chains of interlacing shifted weights from entries down to
    each shifted U(m) weight, by composing one-step branchings: one step from
    l reaches each v in the box prod_i [l_{i+1}, l_i) once.  The box grows
    with the gaps of l, so this is meant for small weights."""
    counts = {entries: 1}
    for _ in range(len(entries) - m):
        step: dict[tuple[int, ...], int] = {}
        for l, c in counts.items():
            for v in itertools.product(*map(range, l[1:], l[:-1])):
                step[v] = step.get(v, 0) + c
        counts = step
    return counts


def branch_chain(l: ShiftedWeight, m: int) -> list[tuple[ShiftedWeight, Fraction]]:
    """Restriction to U(m) (1 <= m < n): the composition of one-step
    branchings, weights in descending order; probabilities are chain-count
    times dimension over dim.  Its cost grows with the product of the gaps of
    l, so it is meant for small weights (`restriction_mean_moments` gives the
    branch means at any weight)."""
    n = l.n
    if not 1 <= m < n:
        raise ValueError(f"target rank must satisfy 1 <= m < {n}")
    dim_l = weyl_dimension(l)
    out = []
    total = 0
    for v, count in sorted(_chain_counts(l.entries, m).items(), reverse=True):
        w = ShiftedWeight(v)
        weight = count * weyl_dimension(w)
        total += weight
        out.append((w, Fraction(weight, dim_l)))
    if total != dim_l:
        raise InvariantError(f"branching weights of {l.entries} do not sum "
                             f"to the dimension")
    return out


def det_fraction(mat):
    mat = [row[:] for row in mat]
    n = len(mat)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if mat[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            out = -out
        out *= mat[c][c]
        inv = Fraction(1) / mat[c][c]
        for r in range(c + 1, n):
            f = mat[r][c] * inv
            for cc in range(c, n):
                mat[r][cc] -= f * mat[c][cc]
    return out


def interlacing_chain_count(lam, target):
    """Chains of interlacing weights from lam down to target, i.e.
    column-strict skew fillings of lam/target with n - m letters, by the
    Lindstrom-Gessel-Viennot determinant of complete homogeneous counts."""
    n, m = len(lam), len(target)
    steps = n - m
    padded = list(target) + [lam[-1]] * steps   # pad at the ambient minimum

    def h(d):
        if d < 0:
            return 0
        return comb(d + steps - 1, d) if steps > 0 else int(d == 0)

    mat = [[h(lam[i] - padded[j] - i + j) for j in range(n)] for i in range(n)]
    det = det_fraction(mat)
    assert det.denominator == 1
    return det.numerator


def restriction_support_oracle(lam, m):
    """U(m) weights reachable from the highest weight lam by interlacing,
    descending, each with chain count times dimension: a DFS over targets,
    one LGV count each."""
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


def enumerated_restriction_means(l: ShiftedWeight, m: int, orders) -> list:
    """E p_k(u) / m over the support of `restriction_support_oracle`, the
    enumeration that `restriction_mean_moments` replaces."""
    total = 0
    sums = [0] * len(orders)
    for w, weight in restriction_support_oracle(l.highest_weight(), m):
        total += weight
        for a, k in enumerate(orders):
            sums[a] += weight * w.power_sum(k)
    return [Fraction(s, total * m) for s in sums]


def pieri_decompose(lam, row: int, n: int) -> dict:
    """Tensor with the one-row representation of the given length: components
    are lam + horizontal strips of that size, each with multiplicity one."""
    lam = repunitary._check_highest_weight(lam, n)
    if row < 0:
        raise ValueError("row length must be nonnegative")
    return {ShiftedWeight.from_highest_weight(shape): 1
            for shape, _ in repunitary._strips(lam, row)}


def pushforward_stats(d: dict, orders) -> PushforwardStats:
    """Exact mean and covariance of the naive moments m_k = p_k(l) / n of a
    component l drawn with probability mult*dim/dim, from the dim-weighted
    sums of p_a(l) and p_a(l) p_b(l) over every component: the enumeration
    that `repunitary.pieri_stats` replaces."""
    if len(d) == 0:
        raise ValueError("empty decomposition")
    if len(d) > PUSHFORWARD_MAX_COMPONENTS:
        raise GuardError("decomposition exceeds the component guard")
    orders = tuple(orders)
    r = len(orders)
    total = 0
    sums = [0] * r
    pair_sums = [[0] * r for _ in range(r)]     # upper triangle a <= b
    for l, mult in d.items():
        w = mult * weyl_dimension(l)
        total += w
        u = [l.power_sum(k) for k in orders]
        for a in range(r):
            wa = w * u[a]
            sums[a] += wa
            row = pair_sums[a]
            for b in range(a, r):
                row[b] += wa * u[b]
    n = next(iter(d)).n
    mean = tuple(Fraction(s, total * n) for s in sums)
    cov = tuple(tuple(Fraction(pair_sums[min(a, b)][max(a, b)], total * n * n)
                      - mean[a] * mean[b] for b in range(r))
                for a in range(r))
    return PushforwardStats(orders=orders, mean=mean, cov=cov)


def lr_tensor_oracle(lam, mu, n: int) -> dict:
    """V_lam (x) V_mu by walking every Littlewood-Richardson skew tableau
    of content mu on lam, one at a time: each letter's cells are placed row
    by row as a horizontal strip, a branch is dropped when its letter
    cannot finish, and equal tableau prefixes are never merged.  Weakly
    decreasing integer weights; negative entries are twisted away by a
    power of the determinant and twisted back."""
    s = -min(lam[-1], 0)
    t = -min(mu[-1], 0)
    lam2 = tuple(x + s for x in lam)
    mu2 = tuple(x + t for x in mu)
    if sum(mu2) > sum(lam2):
        lam2, mu2 = mu2, lam2
    counts: dict = {}
    cum_counts: list = []

    def place_letter(letter, shape):
        placements = []

        def rows(j, cum, current, left):
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
                hi = min(hi, (cum_counts[-1][j - 1] if j > 0 else 0) - cum)
            for a in range(hi + 1):
                current.append(shape[j] + a)
                rows(j + 1, cum + a, current, left - a)
                current.pop()

        rows(0, 0, [], mu2[letter])
        return placements

    def dfs(letter, shape):
        if letter == len(mu2):
            counts[shape] = counts.get(shape, 0) + 1
            return
        for new_shape in place_letter(letter, shape):
            cum = [0]
            for j in range(n):
                cum.append(cum[-1] + new_shape[j] - shape[j])
            cum_counts.append(cum[1:])
            dfs(letter + 1, new_shape)
            cum_counts.pop()

    dfs(0, lam2)
    return {ShiftedWeight.from_highest_weight(tuple(x - s - t for x in shape)): c
            for shape, c in counts.items()}
