import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from hofree.cumulants import (
    CumulantTable,
    MomentTable,
    commutator_cumulant_sides,
    cumulant_of_products,
    cumulants_to_moments,
    estimate_cumulants,
    merge_adjacent,
    moments_to_cumulants,
    sample_cumulants,
)
from hofree.partperm import SetPartition, mobius, set_partitions


class Discrete:
    """Finite joint distribution with exact rational probabilities."""

    def __init__(self, outcomes):
        # outcomes: list of (prob, tuple of values)
        self.outcomes = outcomes
        assert sum(p for p, _ in outcomes) == 1

    def moment(self, subset):
        return sum(p * Fraction(int(np.prod([1]))) *
                   _prod(vals[i] for i in subset)
                   for p, vals in self.outcomes)

    def table(self, k):
        return MomentTable.from_function(k, self.moment)


def _prod(it):
    out = Fraction(1)
    for x in it:
        out *= x
    return out


def rational_rng_values(rng, count, maxnum=6, maxden=4):
    return [Fraction(rng.randint(-maxnum, maxnum), rng.randint(1, maxden))
            for _ in range(count)]


def test_first_and_second_cumulants():
    rng = random.Random(1)
    a, b, ab = rational_rng_values(rng, 3)
    m = MomentTable(2, {(0,): a, (1,): b, (0, 1): ab})
    c = moments_to_cumulants(m)
    assert c.block_value((0,)) == a
    assert c.block_value((0, 1)) == ab - a * b


def test_third_cumulant_of_centered_variable():
    # centered two-point variable: P(x=2)=1/3, P(x=-1)=2/3
    d = Discrete([(Fraction(1, 3), (Fraction(2),)),
                  (Fraction(2, 3), (Fraction(-1),))])
    x3 = d.moment((0,)) * 0 + sum(p * v[0] ** 3 for p, v in d.outcomes)
    assert d.moment((0,)) == 0
    m = MomentTable.from_function(3, lambda s: sum(
        p * v[0] ** len(s) for p, v in d.outcomes))
    c = moments_to_cumulants(m)
    assert c.block_value((0, 1, 2)) == x3


def test_roundtrip_exact_on_random_rational_tables():
    rng = random.Random(7)
    for k in range(1, 6):
        subsets = [tuple(sorted(s))
                   for r in range(1, k + 1)
                   for s in itertools.combinations(range(k), r)]
        values = dict(zip(subsets, rational_rng_values(rng, len(subsets))))
        m = MomentTable(k, values)
        assert cumulants_to_moments(moments_to_cumulants(m)).values == m.values
        c = CumulantTable(k, values)
        assert moments_to_cumulants(cumulants_to_moments(c)).values == c.values


def test_moments_to_cumulants_matches_mobius_sum():
    # definition: k(S) = sum over partitions p of S of mu(p, 1_S) E_p
    rng = random.Random(19)
    for k in range(1, 6):
        m = MomentTable.from_function(
            k, lambda s: Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        got = moments_to_cumulants(m)
        for subset in m.values:
            expected = 0
            for p in set_partitions(len(subset)):
                term = mobius(p, SetPartition.full(len(subset)))
                for blk in p.blocks():
                    term = term * m.block_value([subset[i] for i in blk])
                expected = expected + term
            assert got.block_value(subset) == expected


def test_gaussian_fourth_moment():
    sigma2 = Fraction(3, 2)
    values = {}
    for r in range(1, 5):
        for s in itertools.combinations(range(4), r):
            values[s] = sigma2 if r == 2 else Fraction(0)
    m = cumulants_to_moments(CumulantTable(4, values))
    assert m.block_value((0, 1, 2, 3)) == 3 * sigma2 ** 2


def test_constant_variable_moments():
    mu = Fraction(5, 3)
    for k in range(1, 5):
        values = {}
        for r in range(1, k + 1):
            for s in itertools.combinations(range(k), r):
                values[s] = mu if r == 1 else Fraction(0)
        m = cumulants_to_moments(CumulantTable(k, values))
        assert m.top() == mu ** k


def test_non_multiplicative_partition_map_rejected():
    pairs = SetPartition.from_blocks(2, [(0, 1)])
    table = {SetPartition.discrete(2): Fraction(1),
             pairs: Fraction(1),
             }
    # E_{0} must equal E(a)E(b); set single values inconsistently
    full = {p: Fraction(2) for p in set_partitions(2)}
    full[SetPartition.discrete(2)] = Fraction(5)
    with pytest.raises(ValueError):
        MomentTable.from_partition_values(2, full)


def test_cumulant_of_products_pair():
    rng = random.Random(3)
    ka, kb, kab = rational_rng_values(rng, 3)
    c = CumulantTable(2, {(0,): ka, (1,): kb, (0, 1): kab})
    grouped = cumulant_of_products(c, SetPartition.full(2))
    assert grouped == kab + ka * kb
    # trivial grouping: no products taken
    assert cumulant_of_products(c, SetPartition.discrete(2)) == kab


def test_cumulant_of_products_independence():
    # (a1, a2) independent of a3; k(a1 a2, a3) must vanish
    pair = [(Fraction(1, 4), (Fraction(1), Fraction(2))),
            (Fraction(3, 4), (Fraction(-2), Fraction(1, 2)))]
    third = [(Fraction(1, 2), Fraction(3)), (Fraction(1, 2), Fraction(-1))]
    joint = [(p * q, vals + (w,)) for p, vals in pair for q, w in third]
    d = Discrete(joint)
    c = moments_to_cumulants(d.table(3))
    grouping = SetPartition.from_blocks(3, [(0, 1), (2,)])
    assert cumulant_of_products(c, grouping) == 0


def test_cumulant_of_products_agrees_with_direct_expansion():
    rng = random.Random(11)
    outcomes = []
    probs = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    for p in probs:
        outcomes.append((p, tuple(rational_rng_values(rng, 4, maxnum=3))))
    d = Discrete(outcomes)
    c = moments_to_cumulants(d.table(4))
    for blocks in [[(0, 1), (2, 3)], [(0, 1, 2), (3,)], [(0,), (1, 2), (3,)]]:
        grouping = SetPartition.from_blocks(4, blocks)
        expanded = Discrete([(p, tuple(_prod(v[i] for i in blk)
                                       for blk in blocks))
                             for p, v in outcomes])
        direct = moments_to_cumulants(
            expanded.table(len(blocks))).top()
        assert cumulant_of_products(c, grouping) == direct


def test_cumulant_of_products_matches_leonov_shiryaev_sum():
    # definition: k(products over the blocks of G) = sum of k_W over the
    # partitions W whose join with G is the full partition
    rng = random.Random(23)
    for k in range(1, 6):
        subsets = [s for r in range(1, k + 1)
                   for s in itertools.combinations(range(k), r)]
        c = CumulantTable(k, dict(zip(subsets, rational_rng_values(
            rng, len(subsets)))))
        full = SetPartition.full(k)
        for cuts in itertools.chain.from_iterable(
                itertools.combinations(range(1, k), r) for r in range(k)):
            bounds = (0, *cuts, k)
            grouping = SetPartition.from_blocks(
                k, [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])])
            expected = 0
            for w in set_partitions(k):
                if w.join(grouping) == full:
                    expected = expected + c.value(w)
            assert cumulant_of_products(c, grouping) == expected


def test_cumulant_of_products_requires_interval_grouping():
    c = CumulantTable(3, {s: Fraction(1) for s in
                          [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]})
    with pytest.raises(ValueError):
        cumulant_of_products(c, SetPartition.from_blocks(3, [(0, 2), (1,)]))


def random_rational_matrix(rng, d):
    return tuple(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(d)) for _ in range(d))


def test_merge_adjacent():
    w = SetPartition.from_blocks(4, [(0, 3), (1, 2)])
    assert merge_adjacent(w, 1) == SetPartition.from_blocks(3, [(0, 2), (1,)])


def test_commutator_identity_commuting_case():
    rng = random.Random(5)
    d = random_rational_matrix(rng, 2)
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(2)) for i in range(2))
    lhs, rhs = commutator_cumulant_sides([d, ident], 0, SetPartition.full(2))
    assert lhs == 0 and rhs == 0


def test_commutator_identity_exact():
    rng = random.Random(17)
    for d in (2, 3):
        for _ in range(10):
            mats = [random_rational_matrix(rng, d) for _ in range(2)]
            lhs, rhs = commutator_cumulant_sides(mats, 0, SetPartition.full(2))
            assert lhs == rhs
    for _ in range(10):
        mats = [random_rational_matrix(rng, 2) for _ in range(3)]
        for i in (0, 1):
            for w in set_partitions(3):
                if w.same_block(i, i + 1):
                    lhs, rhs = commutator_cumulant_sides(mats, i, w)
                    assert lhs == rhs


def test_commutator_identity_requires_connection():
    rng = random.Random(2)
    mats = [random_rational_matrix(rng, 2) for _ in range(3)]
    with pytest.raises(ValueError):
        commutator_cumulant_sides(mats, 0, SetPartition.from_blocks(
            3, [(0, 2), (1,)]))


def mobius_plugin_cumulant(samples):
    # the plug-in cumulant as a Mobius sum over set partitions of the
    # centered data; partitions with a singleton block contribute 0
    k = samples.shape[1]
    if k == 1:
        return np.mean(samples[:, 0])
    samples = samples - samples.mean(axis=0, keepdims=True)
    total = 0
    for p in set_partitions(k):
        if any(len(blk) == 1 for blk in p.blocks()):
            continue
        term = mobius(p, SetPartition.full(k))
        for blk in p.blocks():
            term = term * np.mean(np.prod(samples[:, list(blk)], axis=1))
        total = total + term
    return total


def test_sample_cumulants_match_mobius_plugin():
    rng = np.random.default_rng(31)
    for trial in range(120):
        k = 1 + trial % 4
        x = rng.standard_normal((40, k)) + 2.0
        if trial % 2:
            x = x + 1j * rng.standard_normal((40, k))
        if trial % 3 == 0 and k > 1:
            x[:, -1] = x[:, 0]      # repeated column
        table = sample_cumulants(x)
        assert table.top() == mobius_plugin_cumulant(x)
        # the entries of a column subset are the plug-ins of those columns;
        # a column selection is column-major, so select from a column-major
        # copy to keep the summation order of the column means
        x = np.asfortranarray(x)
        table = sample_cumulants(x)
        for subset, value in table.values.items():
            assert value == mobius_plugin_cumulant(x[:, list(subset)])


def test_estimate_constant_samples():
    samples = np.ones((50, 2))
    est = estimate_cumulants(samples, (0, 1), n_boot=20)
    assert est.value == 0
    assert est.stderr == 0


def test_estimate_gaussian_variance():
    rng = np.random.default_rng(123)
    samples = rng.standard_normal((100_000, 1))
    est = estimate_cumulants(np.hstack([samples, samples]), (0, 1),
                             n_boot=100, rng=np.random.default_rng(5))
    assert abs(est.value - 1.0) <= 3 * est.stderr


def test_estimate_product_of_independent_normals():
    rng = np.random.default_rng(99)
    x = rng.standard_normal(100_000)
    y = rng.standard_normal(100_000)
    xy = (x * y)[:, None]
    mean_est = estimate_cumulants(xy, (0,), n_boot=100,
                                  rng=np.random.default_rng(7))
    assert abs(mean_est.value) <= 3 * mean_est.stderr
    var_est = estimate_cumulants(np.hstack([xy, xy]), (0, 1), n_boot=100,
                                 rng=np.random.default_rng(8))
    assert abs(var_est.value - 1.0) <= 3 * var_est.stderr


def test_estimate_requires_replicas():
    with pytest.raises(ValueError):
        estimate_cumulants(np.ones((1, 2)), (0,))


def test_estimate_refuses_joint_orders_outside_one_to_four():
    samples = np.arange(10.0).reshape(5, 2)
    for columns in ([], (0, 1, 0, 1, 0)):
        with pytest.raises(ValueError, match="joint orders 1 to 4"):
            estimate_cumulants(samples, columns)


def test_estimate_refuses_columns_outside_the_array():
    # numpy would wrap -1 to the last column and raise IndexError for 5
    samples = np.arange(10.0).reshape(5, 2)
    for columns in ((-1,), (5,), (0, 2)):
        with pytest.raises(ValueError, match=r"columns must lie in \[0, 2\)"):
            estimate_cumulants(samples, columns)
