import itertools
import math

import pytest

from hofree.errors import GuardError
from hofree.partperm import (
    ENUMERATION_LIMIT,
    Permutation,
    PartitionedPermutation,
    SetPartition,
    are_conjugate,
    conjugacy_key,
    conjugate_pp,
    contiguous_cycles,
    interval,
    leq_pp,
    mobius,
    partitioned_permutations,
    product_pp,
    set_partitions,
)


def brute_force_pp_count(k):
    """Oracle: count pairs (V, pi) with every cycle of pi inside a block of V.

    Independent of the library: partitions are generated by assigning each
    element a block label, permutations come from itertools.
    """
    def all_label_partitions(k):
        for labels in itertools.product(range(k), repeat=k):
            # keep only canonical labelings: label = min element of the class
            ok = True
            for i, lab in enumerate(labels):
                if lab > i or labels[lab] != lab:
                    ok = False
                    break
            if ok:
                yield labels

    count = 0
    for labels in all_label_partitions(k):
        for images in itertools.permutations(range(k)):
            # every cycle inside one class
            good = True
            for i, j in enumerate(images):
                if labels[i] != labels[j]:
                    good = False
                    break
            if good:
                count += 1
    return count


def test_cycles_and_cycle_partition():
    e3 = Permutation.identity(3)
    assert e3.cycles() == ((0,), (1,), (2,))
    assert e3.cycle_partition() == SetPartition.discrete(3)

    c = Permutation.from_cycles(3, (0, 1, 2))
    assert c.cycles() == ((0, 1, 2),)
    assert c.cycle_partition() == SetPartition.full(3)

    t = Permutation.from_cycles(3, (0, 1))
    assert t.cycle_partition() == SetPartition.from_blocks(3, [(0, 1), (2,)])


def test_stored_cycles_match_a_cycle_walk():
    for k in range(1, 6):
        for images in itertools.permutations(range(k)):
            walk, label = [], [None] * k
            for start in range(k):
                j, cyc = start, []
                while label[j] is None:
                    label[j] = start
                    cyc.append(j)
                    j = images[j]
                if cyc:
                    walk.append(tuple(cyc))
            p = Permutation(images)
            for _ in range(2):
                assert p.cycles() == tuple(walk)
                assert p.num_cycles() == len(walk)
                assert p.length() == k - len(walk)
                assert p.cycle_partition().block_of == tuple(label)
            fresh = Permutation(images)
            assert fresh == p and hash(fresh) == hash(p)
            assert {fresh: 1}[p] == 1


def test_permutation_length():
    assert Permutation.identity(4).length() == 0
    assert Permutation.from_cycles(3, (0, 1, 2)).length() == 2
    assert Permutation.from_cycles(4, (0, 1), (2, 3)).length() == 2


def test_length_is_minimal_transposition_count():
    # BFS in the Cayley graph generated by all transpositions, k <= 5
    for k in range(1, 6):
        transpositions = [Permutation.from_cycles(k, (i, j))
                          for i in range(k) for j in range(i + 1, k)]
        dist = {Permutation.identity(k): 0}
        frontier = [Permutation.identity(k)]
        while frontier:
            nxt = []
            for p in frontier:
                for t in transpositions:
                    q = t * p
                    if q not in dist:
                        dist[q] = dist[p] + 1
                        nxt.append(q)
            frontier = nxt
        assert len(dist) == math.factorial(k)
        for p, d in dist.items():
            assert p.length() == d


def test_lattice_operations():
    a = SetPartition.from_blocks(3, [(0, 1), (2,)])
    b = SetPartition.from_blocks(3, [(0,), (1, 2)])
    assert a.join(SetPartition.discrete(3)) == a
    assert (a | b) == SetPartition.full(3)
    assert (a & b) == SetPartition.discrete(3)
    assert a.refines(SetPartition.full(3))
    assert not a.refines(b)
    with pytest.raises(ValueError):
        a.join(SetPartition.discrete(4))


def test_join_is_the_least_upper_bound():
    # brute force over set_partitions(k): the one common upper bound whose
    # own upper bounds are all the common ones
    for k in range(1, 6):
        parts = list(set_partitions(k))
        above = {a: frozenset(c for c in parts if a.refines(c)) for a in parts}
        for a in parts:
            for b in parts:
                common = above[a] & above[b]
                least = [c for c in common if above[c] == common]
                assert least == [a.join(b)]


def test_set_partition_enumeration_counts_and_order():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for k, expected in enumerate(bell):
        parts = list(set_partitions(k))
        assert len(parts) == expected
        assert len(set(parts)) == expected
        keys = [p.block_of for p in parts]
        assert keys == sorted(keys)


def test_mobius_small_values():
    assert mobius(SetPartition.discrete(2), SetPartition.discrete(2)) == 1
    assert mobius(SetPartition.discrete(2), SetPartition.full(2)) == -1
    assert mobius(SetPartition.discrete(3), SetPartition.full(3)) == 2
    # closed form on the whole lattice: (-1)^(m-1) (m-1)!
    for m in range(1, 7):
        expected = (-1) ** (m - 1) * math.factorial(m - 1)
        assert mobius(SetPartition.discrete(m), SetPartition.full(m)) == expected
    with pytest.raises(ValueError):
        mobius(SetPartition.full(2), SetPartition.discrete(2))


def test_mobius_interval_sums_vanish():
    # sum_{a <= c <= b} mu(a, c) = 0 whenever a < b, exhaustively for k <= 5
    for k in range(1, 6):
        parts = list(set_partitions(k))
        for a in parts:
            for b in parts:
                if not a.refines(b):
                    continue
                total = sum(mobius(a, c) for c in interval(a, b))
                assert total == (1 if a == b else 0)


def test_partitioned_permutation_validation_and_length():
    full2 = SetPartition.full(2)
    swap = Permutation.from_cycles(2, (0, 1))
    assert PartitionedPermutation(SetPartition.discrete(3),
                                  Permutation.identity(3)).length() == 0
    assert PartitionedPermutation.minimal(
        Permutation.from_cycles(3, (0, 1, 2))).length() == 2
    assert PartitionedPermutation(full2, Permutation.identity(2)).length() == 2
    assert PartitionedPermutation(full2, swap).length() == 1
    with pytest.raises(ValueError):
        PartitionedPermutation(SetPartition.discrete(2), swap)


def test_length_pp_dominates_permutation_length():
    for k in range(1, 6):
        for vp in partitioned_permutations(k):
            assert vp.length() >= vp.permutation.length()
            minimal = vp.partition == vp.permutation.cycle_partition()
            assert (vp.length() == vp.permutation.length()) == minimal


def test_product_pp_examples():
    swap = Permutation.from_cycles(2, (0, 1))
    a = PartitionedPermutation.minimal(swap)
    prod = product_pp(a, a)
    assert prod == PartitionedPermutation(SetPartition.full(2),
                                          Permutation.identity(2))
    b = PartitionedPermutation(SetPartition.full(2), Permutation.identity(2))
    assert product_pp(b, a) is None
    # right identity: (C(e), e)
    ident = PartitionedPermutation.minimal(Permutation.identity(2))
    assert product_pp(a, ident) == a


def test_leq_pp_examples_and_reflexivity():
    swap = Permutation.from_cycles(2, (0, 1))
    bottom = PartitionedPermutation.minimal(Permutation.identity(2))
    top = PartitionedPermutation(SetPartition.full(2), swap)
    middle = PartitionedPermutation(SetPartition.full(2), Permutation.identity(2))
    assert leq_pp(bottom, top)
    assert not leq_pp(middle, top)
    for k in range(1, 6):
        for vp in partitioned_permutations(k):
            assert leq_pp(vp, vp)


def test_leq_pp_is_the_partial_product_test():
    # leq_pp compares lengths and partitions only; the oracle builds the
    # product a * (0, pia^-1 pib) and compares it with b
    for k in range(1, 5):
        pps = list(partitioned_permutations(k))
        for a, b in itertools.product(pps, repeat=2):
            step = PartitionedPermutation.minimal(
                a.permutation.inverse() * b.permutation)
            assert leq_pp(a, b) == (product_pp(a, step) == b), (a, b)


def test_leq_pp_antisymmetric_and_not_transitive():
    for k in range(1, 5):
        elems = list(partitioned_permutations(k))
        for a in elems:
            for b in elems:
                if leq_pp(a, b) and leq_pp(b, a):
                    assert a == b

    # a concrete non-transitive triple must exist for some k <= 6
    def find_triple(max_k):
        for k in range(2, max_k + 1):
            elems = list(partitioned_permutations(k))
            for a, b in itertools.permutations(elems, 2):
                if not leq_pp(a, b):
                    continue
                for c in elems:
                    if leq_pp(b, c) and not leq_pp(a, c):
                        return a, b, c
        return None

    triple = find_triple(3)
    assert triple is not None
    a, b, c = triple
    assert leq_pp(a, b) and leq_pp(b, c) and not leq_pp(a, c)


def test_conjugation():
    a = PartitionedPermutation(SetPartition.full(2),
                               Permutation.from_cycles(2, (0, 1)))
    assert conjugate_pp(a, Permutation.identity(2)) == a
    assert conjugate_pp(a, Permutation.from_cycles(2, (0, 1))) == a

    x = PartitionedPermutation(SetPartition.from_blocks(3, [(0, 1), (2,)]),
                               Permutation.from_cycles(3, (0, 1)))
    y = PartitionedPermutation(SetPartition.from_blocks(3, [(0, 2), (1,)]),
                               Permutation.from_cycles(3, (0, 2)))
    assert conjugate_pp(x, Permutation.from_cycles(3, (1, 2))) == y
    assert are_conjugate(x, y)
    assert not are_conjugate(x, PartitionedPermutation.minimal(
        Permutation.identity(3)))


def test_conjugacy_is_equivalence_and_length_invariant():
    # ground truth orbits from the conjugation action itself
    for k in range(1, 5):
        elems = list(partitioned_permutations(k))
        key = {vp: conjugacy_key(vp) for vp in elems}
        for a in elems:
            for b in elems:
                assert are_conjugate(a, b) == (key[a] == key[b])
        for a in elems:
            for s in itertools.permutations(range(k)):
                assert key[conjugate_pp(a, Permutation(s))] == key[a]
                assert conjugate_pp(a, Permutation(s)).length() == a.length()


def test_contiguous_cycles():
    assert contiguous_cycles(2) == Permutation.from_cycles(2, (0, 1))
    assert contiguous_cycles(2, 1) == Permutation.from_cycles(3, (0, 1))
    assert contiguous_cycles(3, 2) == Permutation.from_cycles(5, (0, 1, 2), (3, 4))
    with pytest.raises(ValueError):
        contiguous_cycles(2, 0)


def test_enumeration_counts_match_brute_force():
    assert sum(1 for _ in partitioned_permutations(1)) == 1
    assert sum(1 for _ in partitioned_permutations(2)) == 3
    assert sum(1 for _ in partitioned_permutations(3)) == 13
    for k in range(1, 5):
        assert sum(1 for _ in partitioned_permutations(k)) == brute_force_pp_count(k)


def test_enumeration_is_deterministic_unique_and_guarded():
    elems = list(partitioned_permutations(4))
    assert elems == list(partitioned_permutations(4))
    assert len(set(elems)) == len(elems)
    keys = [(vp.partition.block_of, vp.permutation.images) for vp in elems]
    assert keys == sorted(keys)
    with pytest.raises(GuardError):
        next(partitioned_permutations(ENUMERATION_LIMIT + 1))
