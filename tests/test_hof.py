import itertools
import random
from fractions import Fraction

import pytest

from hofree.errors import GuardError
from hofree.hof import (
    _cycle_row,
    block_cumulants,
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
    _join_cycles,
    conjugacy_key,
    contiguous_cycles,
    integer_partitions,
    leq_pp,
    partitioned_permutations,
    set_partitions,
)
from hofree.rmt import EnsembleSpec, exact_entry_moment

from oracles import compositions, entry_cumulants, kappa_by_pair, macro_by_pair


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
    assert table[vp] == Fraction(1, 2) * Fraction(2, 4)


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
            assert_constant_on_classes(kappa_exact(spec, k))
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
    with pytest.raises(GuardError):
        block_cumulants(small, 3)


def hof_check_spectra(n):
    # the fixed and two-atom mixed spectra of hof.hof_check
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
                assert kappa_exact(spec, k) == expected, (n, k)


def test_kappa_and_assembly_match_the_per_pair_loops():
    # kappa_exact and macro_from_micro read a plan made once per order;
    # the loops over every (V, pi) that they replaced are the oracle, for
    # every pattern of order <= 4 at every size the benchmark checks
    for n in range(4, 9):
        for spec in hof_check_spectra(n):
            cumulants = block_cumulants(spec, 4)
            for k in range(1, 5):
                table, expected = kappa_exact(spec, k), kappa_by_pair(spec, k)
                assert list(table.items()) == list(expected.items()), (n, k)
                for powers in compositions(k):
                    assert (macro_from_micro(cumulants, n, powers)
                            == macro_by_pair(expected, n, powers)), (n, powers)
    # float eigenvalues and eps: the same values up to rounding, relative
    floats = EnsembleSpec.mixture([((1.25, -0.5, 0.75, 2.0, -1.5), 0.25),
                                   ((0.1, 0.2, -2.3, 1.7, 0.4), 0.75)], eps=0.3)
    cumulants = block_cumulants(floats, 4)
    for k in range(1, 5):
        table, expected = kappa_exact(floats, k), kappa_by_pair(floats, k)
        assert list(table) == list(expected)
        for vp, value in expected.items():
            assert abs(table[vp] - value) <= 1e-12 * abs(value), vp
        for powers in compositions(k):
            want = macro_by_pair(expected, floats.n, powers)
            got = macro_from_micro(cumulants, floats.n, powers)
            assert abs(got - want) <= 1e-12 * abs(want), powers


def test_entry_moments_vanish_off_unions_of_cycles():
    # the fact kappa_exact rests on: over positions S of rho =
    # contiguous_cycles(*mu), the product of the X_{i rho(i)} has mean 0
    # unless S is a union of cycles of rho (its row and column indices
    # differ), and otherwise the mean of the contiguous cycles of its lengths
    zeros = unions = 0
    for spec in hof_check_spectra(5):
        for k in range(1, 6):
            for mu in integer_partitions(k):
                rho = contiguous_cycles(*mu)
                for r in range(1, k + 1):
                    for subset in itertools.combinations(range(k), r):
                        moment = exact_entry_moment(
                            spec, [(i, rho(i)) for i in subset])
                        tau = sorted((len(c) for c in rho.cycles()
                                      if set(c) <= set(subset)), reverse=True)
                        if sum(tau) < r:
                            zeros += 1
                            assert moment == 0, (mu, subset)
                        else:
                            unions += 1
                            gamma = contiguous_cycles(*tau)
                            assert moment == exact_entry_moment(
                                spec, list(enumerate(gamma.images))), (mu, subset)
    assert (zeros, unions) == (416, 224)


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
    got = macro_from_micro(block_cumulants(FIXED, 1), FIXED.n, (1,))
    assert got == Fraction(1, 2) * 2
    assert got == trace_cumulant_direct(FIXED, (1,))


def test_macro_deterministic_trace_cases():
    spec = EnsembleSpec.fixed((2, 1, -1), eps=Fraction(1, 3))
    table2 = block_cumulants(spec, 2)
    # single trace of the square: deterministic value eps^2 p_2
    assert macro_from_micro(table2, spec.n, (2,)) == Fraction(1, 9) * 6
    # fixed spectrum: the covariance of two traces vanishes identically
    assert macro_from_micro(table2, spec.n, (1, 1)) == 0


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


def test_cycle_row_counts_the_cycles_of_gamma_pi_inverse():
    # hof_check's triangle sweep reads every #(gamma pi^-1) from this row;
    # a count of gamma pi or pi gamma would differ here
    for k in range(1, 6):
        gammas = [contiguous_cycles(*c) for c in integer_partitions(k)]
        for images in itertools.permutations(range(k)):
            inv = Permutation(images).inverse()
            row = _cycle_row(images, [g.images for g in gammas])
            assert list(row) == [(g * inv).num_cycles() for g in gammas]


def test_join_with_pi_inverse_gamma_is_the_join_with_gamma():
    # the triangle sweep rests on V >= C(pi) giving V v C(pi^-1 gamma) =
    # V v C(gamma), so that leq_pp(vp, (1, gamma)) is e == 0 and V v C(gamma)
    # = 1; checked for every gamma in S_k, not only the contiguous ones
    for k in range(1, 6):
        full = SetPartition.full(k)
        gammas = list(map(Permutation, itertools.permutations(range(k))))
        for vp in partitioned_permutations(k):
            block_of = vp.partition.block_of
            inv = vp.permutation.inverse()
            for gamma in gammas:
                joined = _join_cycles(block_of, gamma.images)
                assert _join_cycles(block_of, (inv * gamma).images) == joined
                e = scaling_exponent(vp, gamma)
                below = e == 0 and joined == full.block_of
                assert below == leq_pp(vp, PartitionedPermutation(full, gamma))


def test_kappa_mc_matches_exact():
    spec = EnsembleSpec.fixed((2, 1, -1, -2))
    k = 2
    targets = [pp([(0, 1)], [(0, 1)], 2), pp([(0, 1)], [], 2)]
    estimates = kappa_mc(spec, targets, replicas=4000, seed=12, n_boot=100)
    table = kappa_exact(spec, 2)
    for vp in targets:
        est = estimates[vp]
        exact = complex(table[vp])
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
