"""Permutations, set partitions and partitioned permutations of {0, ..., k-1}.

A partitioned permutation is a pair (V, pi) of a set partition V and a
permutation pi whose cycles are contained in blocks of V.  The module provides
the lattice operations and Mobius function of the partition lattice, the
length functions, the partial product and partial order of partitioned
permutations, conjugation, and exhaustive enumeration.

All values are immutable and hashable, all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import GuardError

# Exhaustive enumeration/search beyond this ground-set size is refused:
# Bell(9) * 9! pairs is not a desk-scale computation.
ENUMERATION_LIMIT = 8


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation: ``images[i]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
        k = len(self.images)
        if sorted(self.images) != list(range(k)):
            raise ValueError(f"not a permutation of 0..{k - 1}: {self.images}")

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
        if self.size != other.size:
            raise ValueError("ground-set mismatch")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        return self._cycles

    @functools.cached_property
    def _cycles(self) -> tuple[tuple[int, ...], ...]:
        # once per instance; not a field, so == and hash see only images
        out = []
        seen = [False] * self.size
        for start in range(self.size):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self._cycles), reverse=True))

    def num_cycles(self) -> int:
        return len(self._cycles)

    def cycle_partition(self) -> "SetPartition":
        """The partition C(pi) whose blocks are the cycles."""
        return SetPartition.from_blocks(self.size, self._cycles)

    def length(self) -> int:
        """k minus the number of cycles (minimal transposition count)."""
        return self.size - self.num_cycles()


@dataclass(frozen=True)
class SetPartition:
    """A partition of {0..k-1} in canonical form.

    ``block_of[i]`` is the smallest element of the block containing i; block
    ids are therefore fixed points of ``block_of``.
    """

    block_of: tuple[int, ...]

    def __post_init__(self):
        for i, b in enumerate(self.block_of):
            if b > i or self.block_of[b] != b:
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
        if self.size != other.size:
            raise ValueError("ground-set mismatch")
        # labels stay block minima: merging two groups keeps the smaller
        label = list(self.block_of)
        for i, b in enumerate(other.block_of):
            lo, hi = sorted((label[i], label[b]))
            if lo != hi:
                label = [lo if x == hi else x for x in label]
        return SetPartition(tuple(label))

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
    """All set partitions of {0..k-1}, in lexicographic order of canonical form."""
    if k == 0:
        yield SetPartition(())
        return

    def rec(prefix: list[int], ids: list[int]):
        i = len(prefix)
        if i == k:
            yield SetPartition(tuple(prefix))
            return
        for b in ids:
            yield from rec(prefix + [b], ids)
        yield from rec(prefix + [i], ids + [i])

    yield from rec([0], [0])


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
    """All partitions c with a <= c <= b, built blockwise inside b."""
    if not a.refines(b):
        raise ValueError("a does not refine b")
    groups: dict[int, list[int]] = {}
    seen = set()
    for i, blk in enumerate(a.block_of):
        if blk not in seen:
            seen.add(blk)
            groups.setdefault(b.block_of[i], []).append(blk)
    group_ids = sorted(groups)
    per_group = []
    for g in group_ids:
        ids = groups[g]
        ways = []
        for p in set_partitions(len(ids)):
            ways.append(tuple(tuple(ids[i] for i in blk) for blk in p.blocks()))
        per_group.append(ways)
    a_blocks = {min(blk): blk for blk in a.blocks()}
    for choice in itertools.product(*per_group):
        merged = []
        for ways in choice:
            for id_group in ways:
                merged.append([e for bid in id_group for e in a_blocks[bid]])
        yield SetPartition.from_blocks(a.size, merged)


@dataclass(frozen=True)
class PartitionedPermutation:
    """A pair (V, pi) with every cycle of pi contained in a block of V."""

    partition: SetPartition
    permutation: Permutation

    def __post_init__(self):
        if self.partition.size != self.permutation.size:
            raise ValueError("ground-set mismatch")
        if not self.permutation.cycle_partition().refines(self.partition):
            raise ValueError("permutation cycles are not contained in blocks")

    @classmethod
    def minimal(cls, perm: Permutation) -> "PartitionedPermutation":
        """(0, pi): the partition is exactly the cycles of pi."""
        return cls(perm.cycle_partition(), perm)

    @property
    def size(self) -> int:
        return self.permutation.size

    def length(self) -> int:
        """|pi| + 2 (#pi - #V)."""
        return (self.permutation.length()
                + 2 * (self.permutation.num_cycles() - self.partition.num_blocks()))


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


def leq_pp(a: PartitionedPermutation, b: PartitionedPermutation) -> bool:
    """True iff a * (0, sigma) = b for sigma = pia^-1 pib.  Not transitive in
    general.  That product is (Va v C(sigma), pib), always a valid pair, so
    it is b iff Va v C(sigma) = Vb and the lengths add up."""
    if a.size != b.size:
        raise ValueError("ground-set mismatch")
    sigma = a.permutation.inverse() * b.permutation
    return (a.length() + sigma.length() == b.length()
            and a.partition.join(sigma.cycle_partition()) == b.partition)


def conjugate_pp(a: PartitionedPermutation, s: Permutation) -> PartitionedPermutation:
    """Relabel the ground set by s: pi -> s pi s^-1, blocks mapped through s."""
    perm = s * a.permutation * s.inverse()
    blocks = [[s(i) for i in blk] for blk in a.partition.blocks()]
    return PartitionedPermutation(
        SetPartition.from_blocks(a.size, blocks), perm)


def _conjugacy_fingerprint(a: PartitionedPermutation):
    # Invariant under relabeling: per block, (size, cycle lengths inside).
    out = []
    for blk in a.partition.blocks():
        members = set(blk)
        lens = sorted(len(c) for c in a.permutation.cycles() if c[0] in members)
        out.append((len(blk), tuple(lens)))
    return tuple(sorted(out))


def are_conjugate(a: PartitionedPermutation, b: PartitionedPermutation) -> bool:
    """True iff some relabeling s maps a to b (exhaustive search over s)."""
    if a.size != b.size:
        raise ValueError("ground-set mismatch")
    if a.size > ENUMERATION_LIMIT:
        raise GuardError(
            f"conjugacy search is exhaustive and limited to k <= {ENUMERATION_LIMIT}")
    if _conjugacy_fingerprint(a) != _conjugacy_fingerprint(b):
        return False
    for images in itertools.permutations(range(a.size)):
        if conjugate_pp(a, Permutation(images)) == b:
            return True
    return False


def conjugacy_key(a: PartitionedPermutation):
    """Canonical key shared exactly by conjugate partitioned permutations."""
    if a.size > ENUMERATION_LIMIT:
        raise GuardError(
            f"conjugacy canonicalization is limited to k <= {ENUMERATION_LIMIT}")
    best = None
    for s in itertools.permutations(range(a.size)):
        c = conjugate_pp(a, Permutation(s))
        key = (c.partition.block_of, c.permutation.images)
        if best is None or key < best:
            best = key
    return best


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
        perms = []
        for choice in itertools.product(
                *(itertools.permutations(blk) for blk in v.blocks())):
            images = [0] * k
            for blk, perm_blk in zip(v.blocks(), choice):
                for src, dst in zip(blk, perm_blk):
                    images[src] = dst
            perms.append(tuple(images))
        for images in sorted(perms):
            yield PartitionedPermutation(v, Permutation(images))
