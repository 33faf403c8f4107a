"""Classical (tensor) multivariate cumulants over the set-partition lattice.

Moment and cumulant tables are multiplicative functionals on set partitions:
the value at a partition is the product of the values of its blocks.  Tables
are therefore stored per sorted subset of positions.  For matrix arguments the
expectation is the normalized trace of the ordered product, computed in exact
rational arithmetic; sampled tables invert empirical moments by the same recursion.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .partperm import SetPartition


@functools.lru_cache(maxsize=16)
def _subsets_by_size(k):
    out = [()]
    for i in range(k):
        out += [s + (i,) for s in out]
    return tuple(sorted((s for s in out if s), key=lambda s: (len(s), s)))


@functools.lru_cache(maxsize=16)
def _subset_set(k):
    return frozenset(_subsets_by_size(k))


@dataclass(frozen=True)
class _SubsetTable:
    """Scalar for every nonempty sorted subset of {0..k-1}; multiplicative
    extension to set partitions."""

    order: int
    values: Mapping[tuple[int, ...], object]

    def __post_init__(self):
        if self.values.keys() != _subset_set(self.order):
            raise ValueError("table must cover every nonempty subset exactly once")

    def block_value(self, subset):
        return self.values[tuple(sorted(subset))]

    def value(self, v: SetPartition):
        if v.size != self.order:
            raise ValueError("partition size does not match table order")
        result = 1
        for blk in v.blocks():
            result = result * self.block_value(blk)
        return result

    def top(self):
        return self.block_value(tuple(range(self.order)))


class MomentTable(_SubsetTable):
    """E_V: per-block joint moments, extended multiplicatively."""

    @classmethod
    def from_function(cls, k: int, joint_moment: Callable) -> "MomentTable":
        """joint_moment(subset) is the expectation of the ordered product of
        the variables at the given (sorted) positions."""
        return cls(k, {s: joint_moment(s) for s in _subsets_by_size(k)})

    @classmethod
    def from_partition_values(cls, k: int, table: Mapping) -> "MomentTable":
        """Build from a full map SetPartition -> value; rejects input that is
        not multiplicative over blocks."""
        values = {}
        for part, val in table.items():
            if part.num_blocks() == 1:
                values[part.blocks()[0]] = val
        candidate = cls(k, values)
        for part, val in table.items():
            if candidate.value(part) != val:
                raise ValueError(f"moment table is not multiplicative at {part}")
        return candidate


class CumulantTable(_SubsetTable):
    """k_V: per-block joint cumulants, extended multiplicatively."""


def _split_off_first(subset):
    """(B, S minus B) for every proper subset B of S that contains min S."""
    first, rest = subset[0], subset[1:]
    for r in range(len(rest)):
        for picks in itertools.combinations(rest, r):
            yield (first,) + picks, tuple(e for e in rest if e not in picks)


def moments_to_cumulants(m: MomentTable) -> CumulantTable:
    """Invert sum_{W <= V} k_W = E_V subset by subset: grouping the
    partitions of S by the block B that holds min S gives
    k(S) = E(S) - sum k(B) E(S minus B) over the proper such B."""
    values = {}
    for subset in _subsets_by_size(m.order):
        total = m.values[subset]
        for block, others in _split_off_first(subset):
            total = total - values[block] * m.values[others]
        values[subset] = total
    return CumulantTable(m.order, values)


def cumulants_to_moments(c: CumulantTable) -> MomentTable:
    """E_V = sum_{W <= V} k_W, per subset by the same recursion:
    E(S) = k(S) + sum k(B) E(S minus B)."""
    values = {}
    for subset in _subsets_by_size(c.order):
        total = c.values[subset]
        for block, others in _split_off_first(subset):
            total = total + c.values[block] * values[others]
        values[subset] = total
    return MomentTable(c.order, values)


def cumulant_of_products(c: CumulantTable, grouping: SetPartition):
    """Joint cumulant of the blockwise products (Leonov-Shiryaev).  A joint
    moment of the products is the moment of the union of their blocks, which
    for an interval grouping keeps the positions in order; the grouped moment
    table is then inverted by the same recursion."""
    if grouping.size != c.order:
        raise ValueError("grouping size does not match table order")
    blocks = grouping.blocks()
    for blk in blocks:
        if list(blk) != list(range(blk[0], blk[-1] + 1)):
            raise ValueError("grouping must be an interval partition")
    m = cumulants_to_moments(c)
    grouped = MomentTable.from_function(
        len(blocks), lambda t: m.block_value([e for j in t for e in blocks[j]]))
    return moments_to_cumulants(grouped).top()


# -- exact matrix arguments ------------------------------------------------

def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(n))
                       for j in range(n)) for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def normalized_trace(a) -> Fraction:
    return Fraction(sum(a[i][i] for i in range(len(a))), len(a))


def matrix_moment_table(matrices: Sequence) -> MomentTable:
    """Moments of a tuple of square matrices under the normalized trace,
    products taken left-to-right in the listed order."""
    def joint(subset):
        prod = matrices[subset[0]]
        for i in subset[1:]:
            prod = mat_mul(prod, matrices[i])
        return normalized_trace(prod)
    return MomentTable.from_function(len(matrices), joint)


def merge_adjacent(w: SetPartition, i: int) -> SetPartition:
    """Merge elements i and i+1 of {0..k-1} into one and relabel the rest."""
    blocks = []
    for blk in w.blocks():
        blocks.append([e if e <= i else e - 1 for e in blk if e != i + 1])
    return SetPartition.from_blocks(w.size - 1, blocks)


def commutator_cumulant_sides(matrices: Sequence, i: int, w: SetPartition):
    """Both sides of the swap/commutator identity for tensor cumulants.

    Returns (k_W(..., a_i, a_{i+1}, ...) - k_W(..., a_{i+1}, a_i, ...),
             k_{W'}(..., [a_i, a_{i+1}], ...))
    where W' merges positions i and i+1.  W must connect i and i+1.
    """
    k = len(matrices)
    if not (0 <= i < k - 1):
        raise ValueError("position out of range")
    if not w.same_block(i, i + 1):
        raise ValueError("partition does not connect i and i+1")
    swapped = list(matrices)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    lhs = (moments_to_cumulants(matrix_moment_table(matrices)).value(w)
           - moments_to_cumulants(matrix_moment_table(swapped)).value(w))

    bracket = mat_sub(mat_mul(matrices[i], matrices[i + 1]),
                      mat_mul(matrices[i + 1], matrices[i]))
    merged = list(matrices[:i]) + [bracket] + list(matrices[i + 2:])
    w_merged = merge_adjacent(w, i)
    rhs = moments_to_cumulants(matrix_moment_table(merged)).value(w_merged)
    return lhs, rhs


# -- sample-based estimation -----------------------------------------------

@dataclass(frozen=True)
class CumulantEstimate:
    value: complex
    stderr: float


def sample_cumulants(samples: np.ndarray) -> CumulantTable:
    """Plug-in joint cumulants of every subset of the columns of a
    (replicas, k) array.

    Orders >= 2 are inverted from the moments of the centered data: joint
    cumulants are translation invariant, and centering removes the
    cancellation error that would otherwise leave round-off residue on
    deterministic input.  The centered first moments vanish, so they enter
    the recursion as 0; the order-1 entries are the column means.
    """
    k = samples.shape[1]
    centered = samples - samples.mean(axis=0, keepdims=True)
    moments = MomentTable.from_function(
        k, lambda s: 0 if len(s) == 1
        else np.mean(np.prod(centered[:, list(s)], axis=1)))
    values = dict(moments_to_cumulants(moments).values)
    for i in range(k):
        values[(i,)] = np.mean(samples[:, i])
    return CumulantTable(k, values)


def bootstrap(samples: np.ndarray, statistic: Callable, n_boot: int,
              rng: np.random.Generator):
    """Point values of statistic(samples), a list, and a nonparametric
    bootstrap standard error for each entry: n_boot resamples of the rows,
    drawn from rng.  The spreads of the real and imaginary parts add in
    quadrature."""
    point = statistic(samples)
    reps = samples.shape[0]
    boots = np.empty((len(point), n_boot), dtype=complex)
    for b in range(n_boot):
        idx = rng.integers(0, reps, size=reps)
        boots[:, b] = statistic(samples[idx])
    stderr = [float(np.sqrt(np.var(row.real, ddof=1) + np.var(row.imag, ddof=1)))
              for row in boots]
    return point, stderr


def estimate_cumulants(samples: np.ndarray, columns: Sequence[int],
                       n_boot: int = 200,
                       rng: np.random.Generator | None = None) -> CumulantEstimate:
    """Plug-in estimate of the joint cumulant of the selected columns, with a
    nonparametric-bootstrap standard error.

    The plug-in estimator (empirical moments, then the subset recursion) is
    biased at O(1/replicas); at the replica counts used here the bias is
    negligible against the Monte-Carlo noise.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need a 2d array with at least 2 replicas")
    if not 1 <= len(columns) <= 4:
        raise ValueError("estimation is supported for joint orders 1 to 4")
    if not all(0 <= c < samples.shape[1] for c in columns):
        raise ValueError(f"columns must lie in [0, {samples.shape[1]}): {columns}")
    if rng is None:
        rng = np.random.default_rng(0)
    (value,), (stderr,) = bootstrap(
        samples[:, list(columns)], lambda s: [sample_cumulants(s).top()],
        n_boot, rng)
    return CumulantEstimate(value=value, stderr=stderr)
