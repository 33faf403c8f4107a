"""Permutations, set partitions and partitioned permutations of {0, ..., k-1}.

A partitioned permutation is a pair (V, pi) of a set partition V and a
permutation pi whose cycles are contained in blocks of V.  The module provides
the lattice operations and Mobius function of the partition lattice, the
length functions, the partial product and partial order of partitioned
permutations, conjugation with its complete invariant (the multiset of
per-block cycle types), and exhaustive enumeration, whose set partitions
all come from one streaming walk over those of a permutation's cycles.

All values are immutable and hashable, all operations are pure.  Values a
type stores beside its fields (a permutation's cycles and inverse, a pair's
length) are not fields: equality and hashing see the fields alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import GuardError

# Exhaustive enumeration beyond this ground-set size is refused:
# Bell(9) * 9! pairs is not a desk-scale computation.
ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation: ``images[i]`` is the image of i.

    One cycle walk at construction refuses anything but a permutation of
    0..k-1 and stores the cycles; ``inverse()`` is stored on first use.
    Neither is a field: ``==`` and ``hash`` see only ``images``.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = self.images
        if not isinstance(images, tuple):
            images = tuple(images)
            object.__setattr__(self, "images", images)
        k = len(images)
        seen = [False] * k
        cycles = []
        for start in range(k):
            if seen[start]:
                continue
            seen[start] = True
            cyc = [start]
            j = images[start]
            # a repeated image ends some walk on an element already seen
            while j != start:
                if not 0 <= j < k or seen[j]:
                    raise ValueError(f"not a permutation of 0..{k - 1}: {images}")
                seen[j] = True
                cyc.append(j)
                j = images[j]
            cycles.append(tuple(cyc))
        object.__setattr__(self, "_cycles", tuple(cycles))
        object.__setattr__(self, "_inverse", None)

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(k)))

    @classmethod
    def from_cycles(cls, k: int, *cycles: Sequence[int]) -> "Permutation":
        """Build a permutation of {0..k-1} from disjoint cycles.

        >>> Permutation.from_cycles(3, (0, 1)).images
        (1, 0, 2)
        """
        images = list(range(k))
        seen: set[int] = set()
        for cyc in cycles:
            if not cyc or not all(0 <= a < k for a in cyc):
                raise ValueError(f"not a nonempty cycle in 0..{k - 1}: {cyc}")
            if seen & set(cyc):
                raise ValueError("cycles are not disjoint")
            seen |= set(cyc)
            for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
                images[a] = b
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if len(self.images) != len(other.images):
            raise ValueError("ground-set mismatch")
        return Permutation(tuple(map(self.images.__getitem__, other.images)))

    def inverse(self) -> "Permutation":
        if self._inverse is None:
            inv = [0] * len(self.images)
            for i, j in enumerate(self.images):
                inv[j] = i
            object.__setattr__(self, "_inverse", Permutation(tuple(inv)))
        return self._inverse

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        return self._cycles

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self._cycles), reverse=True))

    def num_cycles(self) -> int:
        return len(self._cycles)

    def cycle_partition(self) -> "SetPartition":
        """The partition C(pi) whose blocks are the cycles."""
        return SetPartition.from_blocks(len(self.images), self._cycles)

    def length(self) -> int:
        """k minus the number of cycles (minimal transposition count)."""
        return len(self.images) - len(self._cycles)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0..k-1} in canonical form.

    ``block_of[i]`` is the smallest element of the block containing i; block
    ids are therefore fixed points of ``block_of``.
    """

    block_of: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.block_of, tuple):
            object.__setattr__(self, "block_of", tuple(self.block_of))
        for i, b in enumerate(self.block_of):
            if not 0 <= b <= i or self.block_of[b] != b:
                raise ValueError(f"not in canonical form: {self.block_of}")

    @classmethod
    def discrete(cls, k: int) -> "SetPartition":
        return cls(tuple(range(k)))

    @classmethod
    def full(cls, k: int) -> "SetPartition":
        return cls((0,) * k) if k else cls(())

    @classmethod
    def from_blocks(cls, k: int, blocks) -> "SetPartition":
        block_of = [-1] * k
        for blk in blocks:
            m = min(blk)
            for i in blk:
                if block_of[i] != -1:
                    raise ValueError("blocks overlap")
                block_of[i] = m
        if -1 in block_of:
            raise ValueError("blocks do not cover the ground set")
        return cls(tuple(block_of))

    @property
    def size(self) -> int:
        return len(self.block_of)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as sorted tuples, ordered by their minima."""
        by_id: dict[int, list[int]] = {}
        for i, b in enumerate(self.block_of):
            by_id.setdefault(b, []).append(i)
        return tuple(tuple(by_id[b]) for b in sorted(by_id))

    def num_blocks(self) -> int:
        return len(set(self.block_of))

    def length(self) -> int:
        return self.size - self.num_blocks()

    def same_block(self, i: int, j: int) -> bool:
        return self.block_of[i] == self.block_of[j]

    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self is contained in a block of other."""
        if self.size != other.size:
            raise ValueError("ground-set mismatch")
        return all(other.block_of[i] == other.block_of[b]
                   for i, b in enumerate(self.block_of))

    def join(self, other: "SetPartition") -> "SetPartition":
        """Least upper bound in the refinement order."""
        if len(self.block_of) != len(other.block_of):
            raise ValueError("ground-set mismatch")
        return SetPartition(_join_cycles(self.block_of, other.block_of))

    def meet(self, other: "SetPartition") -> "SetPartition":
        """Greatest lower bound in the refinement order."""
        if self.size != other.size:
            raise ValueError("ground-set mismatch")
        seen: dict[tuple[int, int], int] = {}
        block_of = []
        for i in range(self.size):
            key = (self.block_of[i], other.block_of[i])
            block_of.append(seen.setdefault(key, i))
        return SetPartition(tuple(block_of))

    __or__ = join
    __and__ = meet


def set_partitions(k: int) -> Iterator[SetPartition]:
    """All set partitions of {0..k-1}, the coarsenings of the identity, in
    lexicographic order of canonical form.

    >>> [p.block_of for p in set_partitions(3)]
    [(0, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    """
    if k < 0:
        raise ValueError(f"the ground-set size must be nonnegative; got {k}")
    for block_of, _ in _coarsenings(range(k)):
        yield SetPartition(block_of)


def _mobius_whole(m: int) -> int:
    # mu(0_m, 1_m) = (-1)^(m-1) (m-1)!
    return (-1) ** (m - 1) * math.factorial(m - 1)


def mobius(a: SetPartition, b: SetPartition) -> int:
    """Mobius function of the interval [a, b] of the partition lattice.

    The interval is a product of whole partition lattices, one per block of b,
    so the value depends only on the number of a-blocks inside each b-block.
    """
    if not a.refines(b):
        raise ValueError("a does not refine b")
    a_ids = {}
    for i, blk in enumerate(a.block_of):
        a_ids.setdefault(blk, b.block_of[i])
    counts: dict[int, int] = {}
    for b_id in a_ids.values():
        counts[b_id] = counts.get(b_id, 0) + 1
    result = 1
    for m in counts.values():
        result *= _mobius_whole(m)
    return result


def interval(a: SetPartition, b: SetPartition) -> Iterator[SetPartition]:
    """All c with a <= c <= b: the coarsenings of a's blocks that refine b."""
    if not a.refines(b):
        raise ValueError("a does not refine b")
    images = Permutation.from_cycles(a.size, *a.blocks()).images
    for block_of, _ in _coarsenings(images):
        c = SetPartition(block_of)
        if c.refines(b):
            yield c


@dataclass(frozen=True)
class PartitionedPermutation:
    """A pair (V, pi) with every cycle of pi contained in a block of V."""

    partition: SetPartition
    permutation: Permutation

    def __post_init__(self):
        block_of = self.partition.block_of
        images = self.permutation.images
        if len(block_of) != len(images):
            raise ValueError("ground-set mismatch")
        # each cycle lies in one block iff every i shares a block with pi(i)
        if any(block_of[i] != block_of[j] for i, j in enumerate(images)):
            raise ValueError("permutation cycles are not contained in blocks")
        object.__setattr__(self, "_length", self.permutation.length() + 2 * (
            self.permutation.num_cycles() - self.partition.num_blocks()))

    @classmethod
    def minimal(cls, perm: Permutation) -> "PartitionedPermutation":
        """(0, pi): the partition is exactly the cycles of pi."""
        return cls(perm.cycle_partition(), perm)

    @property
    def size(self) -> int:
        return self.permutation.size

    def length(self) -> int:
        """|pi| + 2 (#pi - #V)."""
        return self._length


def product_pp(a: PartitionedPermutation,
               b: PartitionedPermutation) -> PartitionedPermutation | None:
    """Partial product: (Va v Vb, pia*pib) if lengths add up, else None."""
    if a.size != b.size:
        raise ValueError("ground-set mismatch")
    result = PartitionedPermutation(a.partition.join(b.partition),
                                    a.permutation * b.permutation)
    if a.length() + b.length() != result.length():
        return None
    return result


def _num_cycles(images: Sequence[int]) -> int:
    """Number of cycles of a permutation in one-line form, known to be valid."""
    seen = [False] * len(images)
    count = 0
    for start in range(len(images)):
        if not seen[start]:
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = images[j]
    return count


def _join_cycles(block_of: Sequence[int], images: Sequence[int]) -> tuple[int, ...]:
    """Canonical ``block_of`` of V with i and images[i] merged for every i,
    for V in canonical form: V v C(sigma) for a permutation's one-line form,
    V v W for W's ``block_of``.  Labels stay block minima."""
    label = list(block_of)
    for i, j in enumerate(images):
        lo, hi = label[i], label[j]
        if lo != hi:
            if lo > hi:
                lo, hi = hi, lo
            label = [lo if x == hi else x for x in label]
    return tuple(label)


def leq_pp(a: PartitionedPermutation, b: PartitionedPermutation) -> bool:
    """True iff a * (0, sigma) = b for sigma = pia^-1 pib.  Not transitive in
    general.  That product is (Va v C(sigma), pib), always a valid pair, so
    it is b iff Va v C(sigma) = Vb and the lengths add up."""
    b_images = b.permutation.images
    k = len(b_images)
    if len(a.permutation.images) != k:
        raise ValueError("ground-set mismatch")
    inv = a.permutation.inverse().images
    sigma = [inv[j] for j in b_images]
    return (a.length() + k - _num_cycles(sigma) == b.length()
            and _join_cycles(a.partition.block_of, sigma) == b.partition.block_of)


def conjugate_pp(a: PartitionedPermutation, s: Permutation) -> PartitionedPermutation:
    """Relabel the ground set by s: pi -> s pi s^-1, blocks mapped through s."""
    perm = s * a.permutation * s.inverse()
    blocks = [[s(i) for i in blk] for blk in a.partition.blocks()]
    return PartitionedPermutation(
        SetPartition.from_blocks(a.size, blocks), perm)


def conjugacy_key(a: PartitionedPermutation):
    """The sorted multiset of per-block cycle types: shared exactly by
    conjugate partitioned permutations, because a relabeling can send blocks
    of one cycle type to each other, and cycles of one length to each other
    in cyclic order."""
    block_of = a.partition.block_of
    types: dict[int, list[int]] = {}
    for cyc in a.permutation.cycles():
        types.setdefault(block_of[cyc[0]], []).append(len(cyc))
    return tuple(sorted(tuple(sorted(t, reverse=True)) for t in types.values()))


def are_conjugate(a: PartitionedPermutation, b: PartitionedPermutation) -> bool:
    """True iff some relabeling s maps a to b."""
    if a.size != b.size:
        raise ValueError("ground-set mismatch")
    return conjugacy_key(a) == conjugacy_key(b)


def integer_partitions(k: int) -> list[tuple[int, ...]]:
    """Partitions of k as non-increasing tuples, in reverse lexicographic
    order: the cycle types of S_k.

    >>> integer_partitions(3)
    [(3,), (2, 1), (1, 1, 1)]
    """
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return list(rec(k, k))


def _content_product(n: int, kappa: tuple[int, ...]) -> int:
    """(n)_kappa, the product over the boxes (i, j) of kappa of n + j - i:
    s_kappa(1^n) times kappa's hook product, 0 when kappa has over n parts.

    >>> _content_product(3, (2, 1)), _content_product(1, (1, 1))
    (24, 0)
    """
    return math.prod(n + j - i for i, part in enumerate(kappa) for j in range(part))


def contiguous_cycles(*lengths: int) -> Permutation:
    """The permutation (0,...,p1-1)(p1,...,p1+p2-1)... on {0..sum-1}.

    >>> contiguous_cycles(2, 1).images
    (1, 0, 2)
    >>> contiguous_cycles(3, 2).images
    (1, 2, 0, 4, 3)
    """
    if any(p < 1 for p in lengths):
        raise ValueError("cycle lengths must be positive")
    images = []
    start = 0
    for p in lengths:
        images.extend(list(range(start + 1, start + p)) + [start])
        start += p
    return Permutation(tuple(images))


def partitioned_permutations(k: int) -> Iterator[PartitionedPermutation]:
    """All (V, pi) on {0..k-1}, lexicographic in (canonical V, one-line pi)."""
    if k > ENUMERATION_LIMIT:
        raise GuardError(
            f"enumeration of partitioned permutations is limited to "
            f"k <= {ENUMERATION_LIMIT}; got k = {k}")
    for v in set_partitions(k):
        blocks = v.blocks()
        perms = []
        for choice in itertools.product(
                *(itertools.permutations(blk) for blk in blocks)):
            images = [0] * k
            for blk, perm_blk in zip(blocks, choice):
                for src, dst in zip(blk, perm_blk):
                    images[src] = dst
            perms.append(tuple(images))
        for images in sorted(perms):
            yield PartitionedPermutation(v, Permutation(images))


def _coarsenings(images: Sequence[int]) -> Iterator[tuple]:
    """(V.block_of, |(V, pi)| = k + #pi - 2 #V) of every V >= C(pi), for pi
    = images: each set partition of pi's cycles once, a block labelled by
    its least element, in lexicographic order of V.  The walk streams: it
    holds one path of labels and their siblings, not every V."""
    cycle_of, mins = [-1] * len(images), []
    for m in range(len(images)):
        j = m
        while cycle_of[j] < 0:
            cycle_of[j] = len(mins)
            j = images[j]
        if cycle_of[m] == len(mins):
            mins.append(m)
    k, n = len(images), len(mins)
    if not n:
        yield (), 0
        return
    # depth first, children in increasing label order, so lexicographic in V;
    # the last cycle's labels are yielded, not stacked
    stack = [((), ())]          # (the first cycles' block labels, labels used)
    while stack:
        label, used = stack.pop()
        m = mins[len(label)]
        if len(label) + 1 < n:
            stack.append((label + (m,), used + (m,)))
            stack.extend([(label + (b,), used) for b in reversed(used)])
            continue
        for b in used + (m,):
            full = label + (b,)
            yield (tuple([full[c] for c in cycle_of]),
                   k + n - 2 * (len(used) + (b == m)))
