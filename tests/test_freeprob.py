import math
import random
from fractions import Fraction

import pytest

from hofree.freeprob import (
    atomic_moments,
    free_compress,
    free_convolve,
    free_cumulants_to_moments,
    moments_to_free_cumulants,
    semicircle_moments,
)
from hofree.partperm import set_partitions


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def is_noncrossing_bruteforce(p):
    # crossing: a < b < c < d with a,c in one block and b,d in another
    k = p.size
    for a in range(k):
        for b in range(a + 1, k):
            for c in range(b + 1, k):
                for d in range(c + 1, k):
                    if (p.same_block(a, c) and p.same_block(b, d)
                            and not p.same_block(a, b)):
                        return False
    return True


def moments_over_noncrossing_partitions(kappa):
    # oracle: m_n = sum over non-crossing partitions of {0..n-1} of the
    # product of kappa_|block|, the partitions filtered by brute force
    moments = []
    for n in range(1, len(kappa) + 1):
        total = 0
        for p in set_partitions(n):
            if is_noncrossing_bruteforce(p):
                term = 1
                for blk in p.blocks():
                    term = term * kappa[len(blk) - 1]
                total = total + term
        moments.append(total)
    return moments


def test_transforms_match_noncrossing_partition_sums():
    # the oracle counts Catalan(n) non-crossing partitions
    assert moments_over_noncrossing_partitions([1] * 8) == \
        [catalan(n) for n in range(1, 9)]
    rng = random.Random(41)
    for order in range(1, 9):
        kappa = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(order)]
        expected = moments_over_noncrossing_partitions(kappa)
        assert free_cumulants_to_moments(kappa) == expected
        assert moments_to_free_cumulants(expected) == kappa


def test_semicircle_catalan_moments():
    moments = semicircle_moments(Fraction(1), 10)
    assert moments == [0, 1, 0, 2, 0, 5, 0, 14, 0, 42]
    assert moments[1::2] == [catalan(k) for k in range(1, 6)]


def test_semicircle_moments_are_catalan_to_order_30():
    moments = semicircle_moments(Fraction(1), 30)
    assert moments[0::2] == [0] * 15
    assert moments[1::2] == [catalan(k) for k in range(1, 16)]
    assert moments_to_free_cumulants(moments) == [0, 1] + [0] * 28


def test_point_mass_cumulants():
    c = Fraction(7, 3)
    moments = [c ** n for n in range(1, 7)]
    kappa = moments_to_free_cumulants(moments)
    assert kappa == [c, 0, 0, 0, 0, 0]


def test_bernoulli_free_cumulants():
    atoms = [(Fraction(1), Fraction(1, 2)), (Fraction(-1), Fraction(1, 2))]
    moments = atomic_moments(atoms, 4)
    assert moments == [0, 1, 0, 1]
    kappa = moments_to_free_cumulants(moments)
    assert kappa == [0, 1, 0, -1]


def test_transforms_are_mutually_inverse():
    rng = random.Random(23)
    for _ in range(20):
        k = rng.randint(1, 8)
        seq = [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
               for _ in range(k)]
        assert moments_to_free_cumulants(free_cumulants_to_moments(seq)) == seq
        assert free_cumulants_to_moments(moments_to_free_cumulants(seq)) == seq


def test_convolve_with_point_mass_translates():
    s = Fraction(3, 2)
    delta = [s ** n for n in range(1, 5)]
    mu = atomic_moments([(Fraction(2), Fraction(1, 3)),
                         (Fraction(-1), Fraction(2, 3))], 4)
    out = free_convolve(delta, mu)
    assert out[0] == mu[0] + s
    assert out[1] == mu[1] + 2 * s * mu[0] + s ** 2


def test_semicircle_plus_semicircle():
    sc = semicircle_moments(Fraction(1), 4)
    out = free_convolve(sc, sc)
    assert out == [0, 2, 0, 8]


def test_bernoulli_plus_bernoulli_is_arcsine():
    bern = atomic_moments([(1, Fraction(1, 2)), (-1, Fraction(1, 2))], 6)
    out = free_convolve(bern, bern)
    # arcsine law on [-2, 2]: m_{2k} = C(2k, k)
    assert out == [0, 2, 0, 6, 0, 20]


def test_convolution_commutative_associative():
    rng = random.Random(5)
    seqs = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
            for _ in range(3)]
    a, b, c = seqs
    assert free_convolve(a, b) == free_convolve(b, a)
    assert free_convolve(free_convolve(a, b), c) == \
        free_convolve(a, free_convolve(b, c))


def test_compress_identity_and_point_mass():
    mu = atomic_moments([(Fraction(2), Fraction(1, 2)),
                         (Fraction(0), Fraction(1, 2))], 6)
    assert free_compress(mu, Fraction(1)) == mu
    c = Fraction(-4, 3)
    delta = [c ** n for n in range(1, 6)]
    assert free_compress(delta, Fraction(1, 2)) == delta


def test_compress_semicircle():
    sc = semicircle_moments(Fraction(1), 4)
    out = free_compress(sc, Fraction(1, 2))
    assert out == [0, Fraction(1, 2), 0, Fraction(1, 2)]


def test_compress_composition_law():
    rng = random.Random(9)
    mu = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(8)]
    a1, a2 = Fraction(2, 3), Fraction(3, 4)
    twice = free_compress(free_compress(mu, a1), a2)
    once = free_compress(mu, a1 * a2)
    assert twice == once


def test_compress_alpha_range():
    with pytest.raises(ValueError):
        free_compress([0, 1], Fraction(0))
    with pytest.raises(ValueError):
        free_compress([0, 1], Fraction(3, 2))


def test_compress_refuses_an_order_beyond_the_moments():
    # as free_convolve does, instead of returning fewer moments than asked
    assert len(free_compress([1, 2, 3], Fraction(1, 2), 2)) == 2
    with pytest.raises(ValueError, match="requested order"):
        free_compress([1, 2, 3], Fraction(1, 2), 5)


def test_compress_refuses_an_order_below_one():
    # an order below 1 would otherwise be read as a slice end
    for order in (-1, 0):
        with pytest.raises(ValueError, match=r"is outside \[1, "):
            free_compress([1, 2, 3], Fraction(1, 2), order)


def test_convolve_refuses_an_order_below_one():
    # an order below 1 would otherwise be read as a slice end
    for order in (-1, 0):
        with pytest.raises(ValueError, match=r"is outside \[1, "):
            free_convolve([1, 2], [1, 2], order)


def test_convolution_matches_matrix_monte_carlo():
    # spectra of two independent 256x256 conjugated reflections: the sum's
    # empirical moments match the free convolution within 3 standard errors
    import numpy as np
    from hofree import rmt

    n, reps = 256, 300
    half = n // 2
    eigs_a = (1,) * half + (-1,) * half
    eigs_b = (1,) * half + (-1,) * half
    spec_a = rmt.EnsembleSpec.fixed(eigs_a)
    spec_b = rmt.EnsembleSpec.fixed(eigs_b)
    bern = atomic_moments([(1, Fraction(1, 2)), (-1, Fraction(1, 2))], 6)
    target = free_convolve(bern, bern, 6)
    values = rmt.trace_statistics((spec_a, spec_b), range(1, 7), reps,
                                  314).values
    for i in range(6):
        se = values[:, i].std(ddof=1) / np.sqrt(reps)
        atol = 1e-9 * max(1.0, abs(float(target[i])))
        assert abs(values[:, i].mean() - float(target[i])) <= 3 * se + atol
