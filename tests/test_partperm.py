import copy
import itertools
import math
import pickle

import pytest

from hofree.errors import GuardError
from hofree.partperm import (
    ENUMERATION_LIMIT,
    _coarsenings,
    Permutation,
    PartitionedPermutation,
    SetPartition,
    conjugacy_key,
    contiguous_cycles,
    leq_pp,
    partitioned_permutations,
    set_partitions,
)
from hofree.repunitary import ShiftedWeight, weyl_dimension

from oracles import are_conjugate, conjugate_pp, interval, mobius, product_pp


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


def test_one_walk_accepts_exactly_the_permutations():
    # oracle: the sorted check the walk replaced, over every tuple of
    # entries in -2..k+1 (negative, in range and out of range), k <= 4
    for k in range(5):
        for images in itertools.product(range(-2, k + 2), repeat=k):
            if sorted(images) == list(range(k)):
                assert Permutation(images).images == images
            else:
                with pytest.raises(ValueError, match="not a permutation"):
                    Permutation(images)


def test_from_cycles_refuses_empty_and_out_of_range_cycles():
    for cycles in [((0, 5),), ((),), ((0, 1), ()), ((-1, 0),), ((3,),)]:
        with pytest.raises(ValueError, match="not a nonempty cycle"):
            Permutation.from_cycles(3, *cycles)


def test_inverse_is_built_once_and_correct():
    for k in range(1, 6):
        e = Permutation.identity(k)
        for images in itertools.permutations(range(k)):
            p = Permutation(images)
            inv = p.inverse()
            assert inv.images == tuple(images.index(i) for i in range(k))
            assert p * inv == e and inv * p == e
            assert p.inverse() is inv


def test_pickle_copy_equality_and_hash_ignore_stored_values():
    for k in range(1, 5):
        for vp in partitioned_permutations(k):
            p = vp.permutation
            p.inverse()
            fresh_p = Permutation(p.images)
            fresh_vp = PartitionedPermutation(vp.partition, fresh_p)
            assert fresh_p == p and hash(fresh_p) == hash(p)
            assert fresh_vp == vp and hash(fresh_vp) == hash(vp)
            for copied in (pickle.loads(pickle.dumps(vp)), copy.deepcopy(vp)):
                assert copied == vp and hash(copied) == hash(vp)
                assert copied.length() == vp.length()
                assert copied.permutation == p
                assert hash(copied.permutation) == hash(p)
                assert copied.permutation.cycles() == p.cycles()
                assert copied.permutation.inverse() == p.inverse()


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


def test_set_partition_refuses_labels_outside_zero_to_i():
    for block_of in [(0, -1), (-1,), (0, 2, 2), (0, 0, -3)]:
        with pytest.raises(ValueError, match="canonical form"):
            SetPartition(block_of)


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
    # Bell(k) distinct partitions in increasing canonical form: every one of
    # them, in lexicographic order
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for k, expected in enumerate(bell):
        parts = list(set_partitions(k))
        assert len(parts) == expected
        assert len(set(parts)) == expected
        keys = [p.block_of for p in parts]
        assert keys == sorted(keys)


def test_set_partitions_stream():
    # the walk holds one path of labels, not the Bell(30) partitions
    assert next(iter(set_partitions(30))) == SetPartition.full(30)


def test_negative_ground_set_sizes_refused():
    for enumerate_k in (set_partitions, partitioned_permutations):
        with pytest.raises(ValueError, match="nonnegative"):
            list(enumerate_k(-1))


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
    # interval(a, b) is every c with a <= c <= b once, and sum_{a <= c <= b}
    # mu(a, c) = 0 whenever a < b, exhaustively for k <= 5
    for k in range(1, 6):
        parts = list(set_partitions(k))
        for a in parts:
            for b in parts:
                if not a.refines(b):
                    continue
                between = list(interval(a, b))
                assert len(set(between)) == len(between)
                assert set(between) == {c for c in parts
                                        if a.refines(c) and c.refines(b)}
                total = sum(mobius(a, c) for c in between)
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


def test_partitioned_permutation_refuses_exactly_the_non_refining_pairs():
    # oracle: C(pi) refines V, the check the blockwise test replaced
    for k in range(1, 5):
        for v in set_partitions(k):
            for images in itertools.permutations(range(k)):
                p = Permutation(images)
                if p.cycle_partition().refines(v):
                    assert PartitionedPermutation(v, p).partition == v
                else:
                    with pytest.raises(ValueError, match="not contained"):
                        PartitionedPermutation(v, p)


def test_stored_length_matches_the_formula():
    for k in range(1, 6):
        for vp in partitioned_permutations(k):
            images, seen, cycles = vp.permutation.images, set(), 0
            for start in range(k):
                if start not in seen:
                    cycles += 1
                    j = start
                    while j not in seen:
                        seen.add(j)
                        j = images[j]
            blocks = len(set(vp.partition.block_of))
            assert vp.length() == (k - cycles) + 2 * (cycles - blocks)


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


def test_conjugacy_key_classes_are_the_relabeling_orbits():
    for k in range(1, 6):
        relabelings = [Permutation(s) for s in itertools.permutations(range(k))]
        orbit = {}
        for a in partitioned_permutations(k):
            if a not in orbit:
                members = frozenset(conjugate_pp(a, s) for s in relabelings)
                orbit.update(dict.fromkeys(members, members))
        classes = {}
        for a in orbit:
            classes.setdefault(conjugacy_key(a), set()).add(a)
        assert set(map(frozenset, classes.values())) == set(orbit.values())
        elems = list(orbit)
        for a in elems:
            for b in elems:
                assert are_conjugate(a, b) == (b in orbit[a])


def test_conjugacy_beyond_the_enumeration_limit():
    k = 10
    blocks = [(0, 1, 2, 3), (4, 5, 6), (7, 8), (9,)]
    a = PartitionedPermutation(SetPartition.from_blocks(k, blocks),
                               Permutation.from_cycles(k, (0, 1), (2, 3), (4, 5, 6)))
    s = Permutation((3, 7, 9, 0, 5, 1, 8, 2, 4, 6))
    assert are_conjugate(a, conjugate_pp(a, s))
    # same blocks and cycle type, but the two 2-cycles in different blocks
    b = PartitionedPermutation(SetPartition.from_blocks(k, blocks),
                               Permutation.from_cycles(k, (0, 1), (4, 5, 6), (7, 8)))
    assert a.permutation.cycle_type() == b.permutation.cycle_type()
    assert not are_conjugate(a, b)


def test_contiguous_cycles():
    assert contiguous_cycles(2) == Permutation.from_cycles(2, (0, 1))
    assert contiguous_cycles(2, 1) == Permutation.from_cycles(3, (0, 1))
    assert contiguous_cycles(3, 2) == Permutation.from_cycles(5, (0, 1, 2), (3, 4))
    with pytest.raises(ValueError):
        contiguous_cycles(2, 0)


def test_left_and_right_quotients_have_equal_cycle_counts():
    # gamma pi^-1 = pi (pi^-1 gamma) pi^-1 is conjugate to pi^-1 gamma, so the
    # triangle sweep of hof.hof_check counts the cycles of one of them
    for k in range(1, 6):
        perms = [Permutation(p) for p in itertools.permutations(range(k))]
        for pi in perms:
            for gamma in perms:
                assert (pi.inverse() * gamma).num_cycles() == \
                    (gamma * pi.inverse()).num_cycles()


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


def test_enumeration_is_every_refining_pair_in_order():
    # every (V, pi) with pi inside the blocks of V, sorted by (canonical V,
    # one-line pi), with its length
    for k in range(1, 7):
        pairs = [(vp.partition.block_of, vp.permutation.images, vp.length())
                 for vp in partitioned_permutations(k)]
        brute = sorted(
            (v.block_of, images,
             Permutation(images).length()
             + 2 * (Permutation(images).num_cycles() - v.num_blocks()))
            for v in set_partitions(k)
            for images in itertools.permutations(range(k))
            if all(v.block_of[i] == v.block_of[j] for i, j in enumerate(images)))
        assert pairs == brute, k
    with pytest.raises(GuardError):
        next(partitioned_permutations(ENUMERATION_LIMIT + 1))


def test_coarsenings_are_the_pairs_of_each_permutation():
    # hof_check's triangle sweep reads every (V, pi) as pi's coarsenings:
    # exactly the V with (V, pi) enumerated, each once, with |(V, pi)|, in
    # the same order
    for k in range(1, 7):
        by_pi = {}
        for vp in partitioned_permutations(k):
            by_pi.setdefault(vp.permutation.images, []).append(
                (vp.partition.block_of, vp.length()))
        assert len(by_pi) == math.factorial(k)
        for images, pairs in by_pi.items():
            assert list(_coarsenings(images)) == pairs, images


def test_value_types_built_from_lists_store_tuples():
    # a list input is stored as a tuple, so the value is hashable and equal
    # to the one built from a tuple
    for value, tupled, field in (
            (Permutation([1, 0]), Permutation((1, 0)), "images"),
            (SetPartition([0, 0]), SetPartition((0, 0)), "block_of"),
            (ShiftedWeight([3, 1, 0]), ShiftedWeight((3, 1, 0)), "entries")):
        assert isinstance(getattr(value, field), tuple)
        assert value == tupled and hash(value) == hash(tupled)
    assert weyl_dimension(ShiftedWeight([3, 1, 0])) == 3
