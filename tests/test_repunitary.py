import itertools
import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from hofree import repunitary
from hofree.errors import GuardError, InvariantError
from hofree.experiments import RESTRICTION_AMPLITUDE, bulk_profile
from hofree.repunitary import (
    AtomicMeasure,
    ShiftedWeight,
    WeightedDecomposition,
    branch_chain,
    interlacing_chain_count,
    lr_tensor_decompose,
    naive_spectral_measure,
    naive_to_natural_moments,
    natural_moment_via_matrix,
    natural_spectral_measure,
    natural_to_naive_moments,
    pieri_decompose,
    pushforward_stats,
    restriction_mean_moments,
    sample_component,
    weyl_dimension,
    zelobenko_weights,
)


def sw(*entries):
    return ShiftedWeight(tuple(entries))


def random_weight(rng, n, lo=-6, hi=9):
    lam = sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True)
    return tuple(lam)


# -- oracles -----------------------------------------------------------------

def interlacers_oracle(lam):
    ranges = [range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1)]
    for choice in itertools.product(*ranges):
        if all(a >= b for a, b in zip(choice, choice[1:])):
            yield choice


def dimension_oracle(lam, memo={}):
    # number of interlacing chains down to a single row, counted recursively
    if len(lam) == 1:
        return 1
    key = tuple(lam)
    if key not in memo:
        memo[key] = sum(dimension_oracle(lp) for lp in interlacers_oracle(lam))
    return memo[key]


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


def schur_value(shifted, xs):
    # Weyl character formula: det(x_i^{l_j}) / det(x_i^{n-1-j})
    n = len(xs)
    num = det_fraction([[x ** e for e in shifted] for x in xs])
    den = det_fraction([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    return num / den


def decomposition_character(d, xs):
    return sum(m * schur_value(l.entries, xs) for l, m in d.components)


# -- shifted weights and dimensions -------------------------------------------

def test_shift_roundtrip_and_examples():
    assert ShiftedWeight.from_highest_weight((0, 0)) == sw(1, 0)
    assert ShiftedWeight.from_highest_weight((2, 1, 0)) == sw(4, 2, 0)
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 6)
        lam = random_weight(rng, n)
        assert ShiftedWeight.from_highest_weight(lam).highest_weight() == lam
    with pytest.raises(ValueError):
        ShiftedWeight.from_highest_weight((0, 1))
    with pytest.raises(ValueError):
        ShiftedWeight((1, 1))


def test_weyl_dimension_small():
    assert weyl_dimension(sw(1, 0)) == 1
    assert weyl_dimension(sw(2, 0)) == 2
    assert weyl_dimension(sw(3, 0)) == 3
    assert weyl_dimension(ShiftedWeight.from_highest_weight((1, 0, 0))) == 3


def test_weyl_dimension_matches_chain_count_oracle():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        lam = random_weight(rng, n, lo=-3, hi=5)
        l = ShiftedWeight.from_highest_weight(lam)
        assert weyl_dimension(l) == dimension_oracle(lam)


# -- spectral measures ---------------------------------------------------------

def test_naive_measure_and_dilation():
    m = naive_spectral_measure(sw(1, 0))
    assert m.atoms == ((0, Fraction(1, 2)), (1, Fraction(1, 2)))
    assert m.moment(0) == 1
    l = sw(5, 2, -1)
    eps = Fraction(1, 3)
    scaled_first = naive_spectral_measure(l).dilate(eps)
    scaled_entries = AtomicMeasure.from_pairs(
        (eps * x, Fraction(1, 3)) for x in l.entries)
    assert scaled_first == scaled_entries


def test_zelobenko_weights_examples():
    assert zelobenko_weights(sw(7)) == (Fraction(1),)
    assert zelobenko_weights(sw(1, 0)) == (Fraction(0), Fraction(1))
    assert zelobenko_weights(sw(2, 0)) == (Fraction(1, 4), Fraction(3, 4))


def test_zelobenko_weights_sum_to_one_randomized():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        entries = sorted(rng.sample(range(-40, 60), n), reverse=True)
        assert sum(zelobenko_weights(ShiftedWeight(tuple(entries)))) == 1


def test_natural_measure_examples():
    assert natural_spectral_measure(sw(1, 0)).atoms == ((0, Fraction(1)),)
    m = natural_spectral_measure(sw(2, 0))
    assert m.atoms == ((0, Fraction(3, 4)), (2, Fraction(1, 4)))
    assert m.moment(1) == Fraction(1, 2)
    assert m.moment(2) == 1


def test_natural_measure_translation_identity():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 6)
        entries = tuple(sorted(rng.sample(range(-20, 30), n), reverse=True))
        s = rng.randint(-7, 7)
        l = ShiftedWeight(entries)
        assert natural_spectral_measure(l.shift(s)) == \
            natural_spectral_measure(l).translate(s)


def test_natural_moment_via_matrix_examples():
    assert natural_moment_via_matrix(sw(2, 0), 1) == Fraction(1, 2)
    assert natural_moment_via_matrix(sw(2, 0), 2) == 1
    assert natural_moment_via_matrix(sw(1, 0), 2) == 0
    assert natural_moment_via_matrix(sw(1, 0), 0) == 1


def test_natural_moments_two_code_paths_agree():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 8)
        entries = tuple(sorted(rng.sample(range(-15, 25), n), reverse=True))
        l = ShiftedWeight(entries)
        measure = natural_spectral_measure(l)
        for k in range(0, 11):
            assert measure.moment(k) == natural_moment_via_matrix(l, k)


# -- moment conversion ---------------------------------------------------------

def naive_moments_of(l, order):
    return [Fraction(l.power_sum(k), l.n) for k in range(1, order + 1)]


def test_conversion_first_moment_closed_form():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 7)
        entries = tuple(sorted(rng.sample(range(-10, 20), n), reverse=True))
        l = ShiftedWeight(entries)
        naive = naive_moments_of(l, 1)
        natural = naive_to_natural_moments(n, naive)
        assert natural[0] == naive[0] - Fraction(n - 1, 2)


def test_conversion_matches_matrix_route():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(1, 6)
        entries = tuple(sorted(rng.sample(range(-12, 18), n), reverse=True))
        l = ShiftedWeight(entries)
        naive = naive_moments_of(l, 6)
        natural = naive_to_natural_moments(n, naive)
        expected = [natural_moment_via_matrix(l, k) for k in range(1, 7)]
        assert natural == expected


def test_conversion_frozen_example():
    assert naive_to_natural_moments(2, [Fraction(1), Fraction(2)]) == \
        [Fraction(1, 2), Fraction(1)]


def test_conversion_roundtrip():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(1, 7)
        entries = tuple(sorted(rng.sample(range(-12, 18), n), reverse=True))
        naive = naive_moments_of(ShiftedWeight(entries), 6)
        there = naive_to_natural_moments(n, naive)
        back = natural_to_naive_moments(n, there)
        assert back == naive


# -- tensor decompositions ------------------------------------------------------

def u2_tensor_oracle(a, b):
    # Clebsch-Gordan for U(2): (a1,a2) x (b1,b2) has components
    # (a1+b1-i, a2+b2+i), i = 0..min(a1-a2, b1-b2), all multiplicity one.
    out = {}
    for i in range(min(a[0] - a[1], b[0] - b[1]) + 1):
        lam = (a[0] + b[0] - i, a[1] + b[1] + i)
        out[ShiftedWeight.from_highest_weight(lam)] = 1
    return out


def test_lr_u2_clebsch_gordan():
    d = lr_tensor_decompose((1, 0), (1, 0), 2)
    expected = {ShiftedWeight.from_highest_weight((2, 0)): 1,
                ShiftedWeight.from_highest_weight((1, 1)): 1}
    assert dict(d.components) == expected
    rng = random.Random(8)
    for _ in range(25):
        a = random_weight(rng, 2, lo=-4, hi=6)
        b = random_weight(rng, 2, lo=-4, hi=6)
        d = lr_tensor_decompose(a, b, 2)
        assert dict(d.components) == u2_tensor_oracle(a, b)


def test_lr_with_trivial_factor():
    lam = (3, 1, 0)
    d = lr_tensor_decompose(lam, (0, 0, 0), 3)
    assert dict(d.components) == {ShiftedWeight.from_highest_weight(lam): 1}


def test_lr_u3_example():
    d = lr_tensor_decompose((1, 0, 0), (1, 0, 0), 3)
    expected = {ShiftedWeight.from_highest_weight((2, 0, 0)): 1,
                ShiftedWeight.from_highest_weight((1, 1, 0)): 1}
    assert dict(d.components) == expected
    assert d.total_dimension() == 9


def test_lr_character_identity():
    # sum of multiplicities times Schur characters equals the product of the
    # factors' characters, at random rational points
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(6):
            a = random_weight(rng, n, lo=-2, hi=4)
            b = random_weight(rng, n, lo=-2, hi=4)
            d = lr_tensor_decompose(a, b, n)
            xs = []
            while len(set(xs)) != n:
                xs = [Fraction(rng.randint(1, 9), rng.randint(1, 7))
                      for _ in range(n)]
            lhs = schur_value(ShiftedWeight.from_highest_weight(a).entries, xs) \
                * schur_value(ShiftedWeight.from_highest_weight(b).entries, xs)
            assert decomposition_character(d, xs) == lhs


def test_lr_guards():
    with pytest.raises(GuardError):
        lr_tensor_decompose((1,) * 9, (1,) * 9, 9)
    with pytest.raises(GuardError):
        lr_tensor_decompose((50, 0), (41, 0), 2)


def test_pieri_examples_and_agreement_with_lr():
    d = pieri_decompose((1, 0), 1, 2)
    assert dict(d.components) == {ShiftedWeight.from_highest_weight((2, 0)): 1,
                                  ShiftedWeight.from_highest_weight((1, 1)): 1}
    assert dict(pieri_decompose((2, 1, 0), 0, 3).components) == \
        {ShiftedWeight.from_highest_weight((2, 1, 0)): 1}
    assert dict(pieri_decompose((0, 0), 2, 2).components) == \
        {ShiftedWeight.from_highest_weight((2, 0)): 1}
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 4)
        lam = random_weight(rng, n, lo=0, hi=5)
        k = rng.randint(0, 6)
        mu = (k,) + (0,) * (n - 1)
        assert pieri_decompose(lam, k, n).components == \
            lr_tensor_decompose(lam, mu, n).components


def test_distribution_examples():
    d = lr_tensor_decompose((1, 0), (1, 0), 2)
    dist = dict(d.distribution())
    assert dist[sw(3, 0)] == Fraction(3, 4)
    assert dist[sw(2, 1)] == Fraction(1, 4)
    d3 = lr_tensor_decompose((1, 0, 0), (1, 0, 0), 3)
    dist3 = dict(d3.distribution())
    assert dist3[ShiftedWeight.from_highest_weight((2, 0, 0))] == Fraction(6, 9)
    assert dist3[ShiftedWeight.from_highest_weight((1, 1, 0))] == Fraction(3, 9)
    single = WeightedDecomposition.from_dict(2, {sw(4, 1): 3})
    assert single.distribution() == [(sw(4, 1), Fraction(1))]


def test_sample_component():
    single = WeightedDecomposition.from_dict(2, {sw(4, 1): 2})
    rng = np.random.default_rng(0)
    assert all(sample_component(single, rng) == sw(4, 1) for _ in range(10))

    d = lr_tensor_decompose((1, 0), (1, 0), 2)
    draws = 100_000
    rng = np.random.default_rng(42)
    hits = sum(sample_component(d, rng) == sw(3, 0) for _ in range(draws))
    p = 0.75
    sigma = (draws * p * (1 - p)) ** 0.5
    assert abs(hits - draws * p) <= 3 * sigma

    r1 = np.random.default_rng(7)
    r2 = np.random.default_rng(7)
    seq1 = [sample_component(d, r1) for _ in range(50)]
    seq2 = [sample_component(d, r2) for _ in range(50)]
    assert seq1 == seq2


# -- branching -----------------------------------------------------------------

def one_step(w):
    return branch_chain(w, w.n - 1)


def test_branch_one_step_examples():
    steps = dict(one_step(ShiftedWeight.from_highest_weight((1, 0))))
    assert steps == {ShiftedWeight((1,)): Fraction(1, 2),
                     ShiftedWeight((0,)): Fraction(1, 2)}
    rigid = dict(one_step(ShiftedWeight.from_highest_weight((2, 2, 2))))
    assert rigid == {ShiftedWeight.from_highest_weight((2, 2)): Fraction(1)}
    u3 = dict(one_step(ShiftedWeight.from_highest_weight((1, 0, 0))))
    assert u3 == {ShiftedWeight.from_highest_weight((1, 0)): Fraction(2, 3),
                  ShiftedWeight.from_highest_weight((0, 0)): Fraction(1, 3)}


def test_one_step_support_matches_bruteforce_interlacing():
    # the full one-step support, with weights dim(w)/dim(l) counted by chains
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 5)
        lam = random_weight(rng, n, lo=-3, hi=5)
        expected = {ShiftedWeight.from_highest_weight(w):
                    Fraction(dimension_oracle(w), dimension_oracle(lam))
                    for w in interlacers_oracle(lam)}
        got = dict(one_step(ShiftedWeight.from_highest_weight(lam)))
        assert got == expected


def test_interlacing_chain_count_matches_bruteforce():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(2, 4)
        lam = random_weight(rng, n, lo=-3, hi=5)
        m = rng.randint(1, n - 1)
        brute = {}
        frontier = {lam: 1}
        for _ in range(n - m):
            nxt = {}
            for w, c in frontier.items():
                for lp in interlacers_oracle(w):
                    nxt[lp] = nxt.get(lp, 0) + c
            frontier = nxt
        brute = frontier
        for target, count in brute.items():
            assert interlacing_chain_count(lam, target) == count


def test_branch_chain_matches_one_step_composition():
    rng = random.Random(25)
    for _ in range(10):
        n = rng.randint(3, 4)
        lam = random_weight(rng, n, lo=-2, hi=4)
        l = ShiftedWeight.from_highest_weight(lam)
        chain = dict(branch_chain(l, n - 2))
        composed: dict = {}
        for w1, p1 in one_step(l):
            for w2, p2 in one_step(w1):
                composed[w2] = composed.get(w2, Fraction(0)) + p1 * p2
        assert chain == composed
        assert sum(chain.values()) == 1


def test_branch_chain_range_validation():
    with pytest.raises(ValueError):
        branch_chain(sw(2, 0), 2)
    with pytest.raises(ValueError):
        branch_chain(sw(2, 0), 0)


def test_branch_chain_total_is_checked_without_assert(monkeypatch):
    # a lost component must raise, also under python -O
    support = repunitary._restriction_support
    monkeypatch.setattr(repunitary, "_restriction_support",
                        lambda lam, m: list(support(lam, m))[1:])
    with pytest.raises(InvariantError):
        branch_chain(ShiftedWeight.from_highest_weight((2, 1, 0)), 1)


# -- restriction moments by interpolation ---------------------------------------

def enumerated_restriction_means(l, m, orders):
    # the support enumeration the interpolation replaces
    total = 0
    sums = [0] * len(orders)
    for w, weight in repunitary._restriction_support(l.highest_weight(), m):
        total += weight
        for a, k in enumerate(orders):
            sums[a] += weight * w.power_sum(k)
    return [Fraction(s, total * m) for s in sums]


def test_restriction_mean_moments_match_enumeration():
    rng = random.Random(31)
    for n in range(2, 7):
        for m in range(1, n):
            for _ in range(2):
                # negative entries included; orders up to 4 exceed n at n < 4
                lam = random_weight(rng, n, lo=-4, hi=4)
                l = ShiftedWeight.from_highest_weight(lam)
                orders = (1, 2, 3, 4)
                assert restriction_mean_moments(l, m, orders) == \
                    enumerated_restriction_means(l, m, orders), (lam, m)
    for n, m in ((3, 2), (6, 3)):
        l = ShiftedWeight.from_highest_weight(
            bulk_profile(n, RESTRICTION_AMPLITUDE))
        assert restriction_mean_moments(l, m, (1, 2, 3, 4)) == \
            enumerated_restriction_means(l, m, (1, 2, 3, 4))


def test_restriction_mean_moments_orders_and_dilation():
    l = ShiftedWeight.from_highest_weight((5, 2, -1))
    exact = enumerated_restriction_means(l, 2, (3, 1, 6))
    eps = Fraction(1, 7)
    assert restriction_mean_moments(l, 2, (3, 1, 6), eps) == \
        [x * eps ** k for x, k in zip(exact, (3, 1, 6))]
    assert restriction_mean_moments(l, 2, ()) == []
    with pytest.raises(ValueError):
        restriction_mean_moments(l, 3, (1,))


def test_restriction_interpolant_held_out_check_raises(monkeypatch):
    # the sample row after the r basis rows is the held-out one; corrupt it
    sample_row = repunitary._sample_row
    r = len(repunitary._elementary_basis(4, 3))
    calls = []

    def corrupted(entries, m, orders, basis_row):
        row = sample_row(entries, m, orders, basis_row)
        calls.append(entries)
        if len(calls) == r + 1:
            row[r] += 1
        return row

    monkeypatch.setattr(repunitary, "_sample_row", corrupted)
    with pytest.raises(InvariantError, match="held-out"):
        restriction_mean_moments(sw(9, 5, 2, 0), 2, (1, 2, 3))
    assert len(calls) == r + 1


# -- pushforward statistics ------------------------------------------------------

def test_pushforward_single_component_is_deterministic():
    d = WeightedDecomposition.from_dict(3, {sw(5, 2, 0): 4})
    stats = pushforward_stats(d, Fraction(1), (1, 2))
    assert stats.cov == ((0, 0), (0, 0))
    assert all(v == 0 for v in stats.third.values())
    assert stats.mean[0] == Fraction(7, 3)


def test_pushforward_clebsch_gordan_frozen_values():
    d = lr_tensor_decompose((1, 0), (1, 0), 2)
    stats = pushforward_stats(d, Fraction(1), (2,))
    # shifted weights (3,0) and (2,1): naive second moments 9/2 and 5/2
    assert stats.mean[0] == Fraction(4)
    assert stats.variance(2) == Fraction(3, 4)


def test_pushforward_scaling_and_natural_kind():
    d = lr_tensor_decompose((1, 0), (1, 0), 2)
    eps = Fraction(1, 2)
    stats = pushforward_stats(d, eps, (1, 2))
    unscaled = pushforward_stats(d, Fraction(1), (1, 2))
    assert stats.mean[0] == eps * unscaled.mean[0]
    assert stats.mean[1] == eps ** 2 * unscaled.mean[1]
    assert stats.cov[1][1] == eps ** 4 * unscaled.cov[1][1]
    nat = pushforward_stats(d, Fraction(1), (1,), which="natural")
    expected = sum(p * natural_spectral_measure(l).moment(1)
                   for l, p in d.distribution())
    assert nat.mean[0] == expected


def test_pushforward_third_cumulant_matches_direct():
    # every covariance and third cumulant of the naive moments of orders
    # 1..3, against the textbook formulas on the exact distribution
    orders = (1, 2, 3)
    for a, b in [((2, 0), (2, 0)), ((2, 1, 0), (1, 1, 0)),
                 ((3, 1, 0), (2, 0, 0))]:
        d = lr_tensor_decompose(a, b, len(a))
        stats = pushforward_stats(d, Fraction(1), orders)
        dist = [(p, [naive_spectral_measure(l).moment(k) for k in orders])
                for l, p in d.distribution()]

        def e(*idx):
            return sum(p * prod(v[i] for i in idx) for p, v in dist)

        for i, j in itertools.product(range(3), repeat=2):
            assert stats.cov[i][j] == e(i, j) - e(i) * e(j)
        for i, j, k in itertools.combinations_with_replacement(range(3), 3):
            assert stats.third[(orders[i], orders[j], orders[k])] == (
                e(i, j, k) - e(i) * e(j, k) - e(j) * e(i, k) - e(k) * e(i, j)
                + 2 * e(i) * e(j) * e(k))
