import itertools
import random
from fractions import Fraction

import pytest

from hofree.errors import GuardError
from hofree.hof import (
    entry_cumulants,
    kappa_exact,
    kappa_mc,
    macro_from_micro,
    scaling_exponent,
    trace_cumulant_direct,
    verify_trace_cumulant_identity,
)
from hofree.partperm import (
    PartitionedPermutation,
    Permutation,
    SetPartition,
    conjugacy_key,
    contiguous_cycles,
    leq_pp,
    partitioned_permutations,
    set_partitions,
)
from hofree.rmt import EnsembleSpec, exact_entry_moment


FIXED = EnsembleSpec.fixed((3, 1, 0, -2), eps=Fraction(1, 2))
MIXED = EnsembleSpec.mixture([((3, 1, 0, -2), Fraction(1, 3)),
                              ((2, 2, -1, -1), Fraction(2, 3))],
                             eps=Fraction(1, 2))


def pp(blocks, cycles, k):
    return PartitionedPermutation(
        SetPartition.from_blocks(k, blocks),
        Permutation.from_cycles(k, *cycles))


def test_first_order_kappa():
    table = kappa_exact(FIXED, 1)
    vp = pp([(0,)], [], 1)
    assert table.value(vp) == Fraction(1, 2) * Fraction(2, 4)


def test_kappa_vanishes_when_cycles_leave_blocks():
    # entry cumulants k_V(X_{0 pi(0)}, ...) vanish whenever pi does not
    # refine V, for every partition/permutation pair
    for spec in (FIXED, MIXED):
        for v in set_partitions(3):
            for images in itertools.permutations(range(3)):
                perm = Permutation(images)
                if perm.cycle_partition().refines(v):
                    continue
                pairs = [(m, perm(m)) for m in range(3)]
                assert entry_cumulants(spec, pairs).value(v) == 0


def test_kappa_exact_is_the_product_of_block_cumulants():
    # each block's cumulant from its own moment table, as the definition
    # k_V = product over the blocks of V reads
    for spec, k in [(FIXED, 1), (FIXED, 2), (FIXED, 3), (MIXED, 1),
                    (MIXED, 2), (MIXED, 3), (MIXED, 4)]:
        for vp, value in kappa_exact(spec, k).items():
            expected = 1
            for blk in vp.partition.blocks():
                pairs = [(m, vp.permutation(m)) for m in blk]
                expected = expected * entry_cumulants(spec, pairs).top()
            assert value == expected


def per_permutation_kappa(spec, k):
    # kappa_(V,pi) from one entry-cumulant table per permutation pi
    tables = {pi: entry_cumulants(spec, [(m, pi(m)) for m in range(k)])
              for pi in map(Permutation, itertools.permutations(range(k)))}
    return {vp: tables[vp.permutation].value(vp.partition)
            for vp in partitioned_permutations(k)}


def assert_constant_on_classes(values):
    by_class = {}
    for vp, value in values.items():
        by_class.setdefault(conjugacy_key(vp), set()).add(value)
    for key, seen in by_class.items():
        assert len(seen) == 1, key


def test_kappa_constant_on_conjugacy_classes():
    for spec in (FIXED, MIXED):
        for k in (2, 3):
            assert_constant_on_classes(kappa_exact(spec, k).values)
    # kappa_exact reads every pi off one table per cycle type, so it is
    # class-invariant by construction: the invariance it relies on is
    # checked on tables built per permutation
    for spec in hof_check_spectra(4):
        for k in range(1, 5):
            assert_constant_on_classes(per_permutation_kappa(spec, k))


def test_kappa_guards():
    with pytest.raises(GuardError):
        kappa_exact(FIXED, 5)
    small = EnsembleSpec.fixed((1, 0))
    with pytest.raises(GuardError):
        kappa_exact(small, 3)


def hof_check_spectra(n):
    # the fixed and two-atom mixed spectra of experiments.hof_check
    top = tuple(range(n, 0, -1))
    alt = tuple(x + (1 if i % 2 == 0 else -1) for i, x in enumerate(top))
    return (EnsembleSpec.fixed(top, eps=Fraction(1, n)),
            EnsembleSpec.mixture([(top, Fraction(1, 2)), (alt, Fraction(1, 2))],
                                 eps=Fraction(1, n)))


def test_kappa_exact_shared_moments_match_per_permutation_tables():
    # kappa_exact's table, one entry-cumulant table per cycle type with the
    # entry moments rmt shares by index pattern, against tables built per
    # pi, at every size the benchmark workload checks
    for n in range(4, 9):
        for spec in hof_check_spectra(n):
            for k in range(1, 5):
                expected = per_permutation_kappa(spec, k)
                assert kappa_exact(spec, k).values == expected, (n, k)


def test_exact_entry_moment_is_invariant_under_index_relabelling():
    # rmt caches entry-moment weights by which indices coincide, so one
    # relabelling of rows and columns together must leave every moment unchanged
    rng = random.Random(16)
    for spec in hof_check_spectra(5):
        for _ in range(40):
            k = rng.randint(1, 4)
            pairs = [(rng.randrange(5), rng.randrange(5)) for _ in range(k)]
            s = rng.sample(range(5), 5)
            relabelled = [(s[i], s[j]) for i, j in pairs]
            assert (exact_entry_moment(spec, relabelled)
                    == exact_entry_moment(spec, pairs)), pairs


def test_macro_single_term():
    table = kappa_exact(FIXED, 1)
    got = macro_from_micro(table, (1,))
    assert got == Fraction(1, 2) * 2
    assert got == trace_cumulant_direct(FIXED, (1,))


def test_macro_deterministic_trace_cases():
    spec = EnsembleSpec.fixed((2, 1, -1), eps=Fraction(1, 3))
    table2 = kappa_exact(spec, 2)
    # single trace of the square: deterministic value eps^2 p_2
    assert macro_from_micro(table2, (2,)) == Fraction(1, 9) * 6
    # fixed spectrum: the covariance of two traces vanishes identically
    assert macro_from_micro(table2, (1, 1)) == 0


def test_trace_cumulant_identity_exact_small_grid():
    patterns = [(1,), (2,), (3,), (1, 1), (1, 2), (1, 1, 1)]
    for spec_n3 in (EnsembleSpec.fixed((2, 0, -1), eps=Fraction(1, 2)),
                    EnsembleSpec.mixture([((2, 0, -1), Fraction(1, 4)),
                                          ((1, 1, 0), Fraction(3, 4))],
                                         eps=Fraction(1, 2))):
        for pattern in patterns:
            lhs, rhs = verify_trace_cumulant_identity(spec_n3, pattern)
            assert lhs == rhs


def test_trace_cumulant_direct_mixture():
    # k_1(Tr X^2) for a two-atom mixture is the probability-weighted average
    spec = MIXED
    expected = (Fraction(1, 3) * Fraction(1, 4) * 14
                + Fraction(2, 3) * Fraction(1, 4) * 10)
    assert trace_cumulant_direct(spec, (2,)) == expected


def test_scaling_exponent_examples():
    swap = Permutation.from_cycles(2, (0, 1))
    assert scaling_exponent(pp([(0,), (1,)], [], 2), swap) == 0
    assert scaling_exponent(pp([(0, 1)], [], 2), swap) == 2
    for k, cycles in ((3, [(0, 1, 2)]), (5, [(0, 1, 2, 3, 4)])):
        gamma = Permutation.from_cycles(k, *cycles)
        self_vp = PartitionedPermutation.minimal(gamma)
        assert scaling_exponent(self_vp, gamma) == 0
    # |(1, gamma)| read from gamma equals the length of the built pair
    for k in range(1, 5):
        for gamma in map(Permutation, itertools.permutations(range(k))):
            top = PartitionedPermutation(SetPartition.full(k), gamma)
            for vp in partitioned_permutations(k):
                step = (gamma * vp.permutation.inverse()).length()
                assert (scaling_exponent(vp, gamma)
                        == step + vp.length() - top.length())


def partitions_of_integer(k):
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return rec(k, k)


def test_triangle_inequality_small():
    # over the summand set of the trace-cumulant formula: V join C(gamma)
    # must be the full partition
    full = {k: SetPartition.full(k) for k in range(1, 5)}
    for k in range(1, 5):
        elems = list(partitioned_permutations(k))
        for ctype in partitions_of_integer(k):
            gamma = contiguous_cycles(*ctype)
            gamma_part = gamma.cycle_partition()
            top = PartitionedPermutation(full[k], gamma)
            for vp in elems:
                below = leq_pp(vp, top)
                if vp.partition.join(gamma_part) != full[k]:
                    assert not below
                    continue
                e = scaling_exponent(vp, gamma)
                assert e >= 0
                assert (e == 0) == below


def test_kappa_mc_matches_exact():
    spec = EnsembleSpec.fixed((2, 1, -1, -2))
    k = 2
    targets = [pp([(0, 1)], [(0, 1)], 2), pp([(0, 1)], [], 2)]
    estimates = kappa_mc(spec, targets, replicas=4000, seed=12, n_boot=100)
    table = kappa_exact(spec, 2)
    for vp in targets:
        est = estimates[vp]
        exact = complex(table.value(vp))
        assert abs(est.value - exact) <= 3 * est.stderr + 1e-12


def test_kappa_mc_zero_spectrum():
    spec = EnsembleSpec.fixed((0, 0, 0, 0))
    targets = [pp([(0, 1)], [(0, 1)], 2)]
    estimates = kappa_mc(spec, targets, replicas=1500, seed=3, n_boot=50)
    assert abs(estimates[targets[0]].value) <= 1e-20


def test_kappa_mc_replica_guard():
    with pytest.raises(ValueError):
        kappa_mc(FIXED, [pp([(0,)], [], 1)], replicas=10, seed=0)


def test_kappa_mc_refuses_empty_targets():
    with pytest.raises(ValueError, match="at least one target"):
        kappa_mc(FIXED, [], replicas=1000, seed=0)
