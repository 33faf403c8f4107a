import itertools
import random
from fractions import Fraction
from math import perm, prod

import numpy as np
import pytest

from hofree import repunitary
from hofree.errors import GuardError, InvariantError
from hofree.experiments import RESTRICTION_AMPLITUDE, bulk_profile, row_profile
from hofree.repunitary import (
    AtomicMeasure,
    ShiftedWeight,
    lr_tensor_decompose,
    naive_spectral_measure,
    naive_to_natural_moments,
    natural_spectral_measure,
    natural_to_naive_moments,
    pieri_component_count,
    pieri_stats,
    restriction_mean_moments,
    weyl_dimension,
    zelobenko_weights,
)

import oracles
from oracles import (
    branch_chain,
    det_fraction,
    distribution,
    enumerated_restriction_means,
    interlacing_chain_count,
    lr_tensor_oracle,
    natural_moment_via_matrix,
    pieri_decompose,
    pushforward_stats,
    restriction_support_oracle,
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


def schur_value(shifted, xs):
    # Weyl character formula: det(x_i^{l_j}) / det(x_i^{n-1-j})
    n = len(xs)
    num = det_fraction([[x ** e for e in shifted] for x in xs])
    den = det_fraction([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    return num / den


def decomposition_character(d, xs):
    return sum(m * schur_value(l.entries, xs) for l, m in d.items())


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
    for entries in ((2.5, 0.5), (2.0, 0), (Fraction(3), 1)):
        with pytest.raises(ValueError, match="integers"):
            ShiftedWeight(entries)


def test_shifted_weight_accepts_every_integral_type():
    # the exact int test is only a fast path: bool and numpy integers pass
    # through the Integral fallback
    for entries in ((3, 1), (True, False), (np.int64(3), np.int32(1))):
        assert ShiftedWeight(entries).entries == entries


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


def test_conversion_roundtrip_on_arbitrary_rationals():
    # the generating-function identity is polynomial in the power sums, so
    # both directions invert each other on sequences that come from no weight
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 9)
        seq = [Fraction(rng.randint(-40, 40), rng.randint(1, 9))
               for _ in range(rng.randint(0, 8))]
        assert natural_to_naive_moments(n, naive_to_natural_moments(n, seq)) == seq
        assert naive_to_natural_moments(n, natural_to_naive_moments(n, seq)) == seq


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
    assert d == expected
    rng = random.Random(8)
    for _ in range(25):
        a = random_weight(rng, 2, lo=-4, hi=6)
        b = random_weight(rng, 2, lo=-4, hi=6)
        d = lr_tensor_decompose(a, b, 2)
        assert d == u2_tensor_oracle(a, b)


def test_lr_with_trivial_factor():
    lam = (3, 1, 0)
    d = lr_tensor_decompose(lam, (0, 0, 0), 3)
    assert d == {ShiftedWeight.from_highest_weight(lam): 1}


def test_lr_u3_example():
    d = lr_tensor_decompose((1, 0, 0), (1, 0, 0), 3)
    expected = {ShiftedWeight.from_highest_weight((2, 0, 0)): 1,
                ShiftedWeight.from_highest_weight((1, 1, 0)): 1}
    assert d == expected
    assert sum(m * weyl_dimension(l) for l, m in d.items()) == 9


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


def test_lr_dimension_identity_is_checked(monkeypatch):
    # a strip walk that loses a component is refused, not returned
    strips = repunitary._strips
    monkeypatch.setattr(repunitary, "_strips",
                        lambda *args: itertools.islice(strips(*args), 1))
    with pytest.raises(InvariantError, match="LR dimension identity"):
        lr_tensor_decompose((1, 0), (1, 0), 2)


def test_pieri_examples_and_agreement_with_lr():
    d = pieri_decompose((1, 0), 1, 2)
    assert d == {ShiftedWeight.from_highest_weight((2, 0)): 1,
                 ShiftedWeight.from_highest_weight((1, 1)): 1}
    assert pieri_decompose((2, 1, 0), 0, 3) == \
        {ShiftedWeight.from_highest_weight((2, 1, 0)): 1}
    assert pieri_decompose((0, 0), 2, 2) == \
        {ShiftedWeight.from_highest_weight((2, 0)): 1}
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(2, 4)
        lam = random_weight(rng, n, lo=0, hi=5)
        k = rng.randint(0, 6)
        mu = (k,) + (0,) * (n - 1)
        assert pieri_decompose(lam, k, n) == lr_tensor_decompose(lam, mu, n)


def test_lr_bulk_times_bulk_matches_oracle():
    # (12,10,7,5,2,0) x (6,5,4,2,1,0): 2,322 components, many with
    # multiplicity above one, so merged tableau states are counted
    lam, mu = bulk_profile(6, 1.0), bulk_profile(6, 0.5)
    d = lr_tensor_decompose(lam, mu, 6)
    assert len(d) == 2322
    assert max(d.values()) > 1
    assert d == lr_tensor_oracle(lam, mu, 6)


def test_distribution_examples():
    d = lr_tensor_decompose((1, 0), (1, 0), 2)
    dist = distribution(d)
    assert dist[sw(3, 0)] == Fraction(3, 4)
    assert dist[sw(2, 1)] == Fraction(1, 4)
    d3 = lr_tensor_decompose((1, 0, 0), (1, 0, 0), 3)
    dist3 = distribution(d3)
    assert dist3[ShiftedWeight.from_highest_weight((2, 0, 0))] == Fraction(6, 9)
    assert dist3[ShiftedWeight.from_highest_weight((1, 1, 0))] == Fraction(3, 9)
    assert distribution({sw(4, 1): 3}) == {sw(4, 1): Fraction(1)}


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


def test_branch_chain_matches_lgv_oracle():
    # composed one-step branching against the LGV support enumeration,
    # order included
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 6)
        lam = random_weight(rng, n, lo=-4, hi=6)
        l = ShiftedWeight.from_highest_weight(lam)
        dim_l = weyl_dimension(l)
        for m in range(1, n):
            expected = [(w, Fraction(weight, dim_l))
                        for w, weight in restriction_support_oracle(lam, m)]
            assert branch_chain(l, m) == expected, (lam, m)


def test_branch_chain_total_is_checked_without_assert(monkeypatch):
    # a lost component must raise, also under python -O
    counts = oracles._chain_counts
    monkeypatch.setattr(oracles, "_chain_counts", lambda entries, m: dict(
        list(counts(entries, m).items())[1:]))
    with pytest.raises(InvariantError):
        branch_chain(ShiftedWeight.from_highest_weight((2, 1, 0)), 1)


# -- shifted Schur functions and the moments read from them ---------------------

def falling(x, k):
    return prod(x - t for t in range(k))


def shifted_schur_by_determinant(kappa, lam):
    # Okounkov-Olshanski's ratio of determinants of falling factorials in
    # the shifted weight l: det[l_i_(kappa_j + n-1-j)] / det[l_i_(n-1-j)]
    n = len(lam)
    kappa = kappa + (0,) * (n - len(kappa))
    l = ShiftedWeight.from_highest_weight(lam).entries
    return det_fraction([[falling(x, k + n - 1 - j) for j, k in enumerate(kappa)]
                         for x in l]) \
        / det_fraction([[falling(x, n - 1 - j) for j in range(n)] for x in l])


def hook_product(nu):
    conj = [sum(1 for part in nu if part > j) for j in range(max(nu, default=0))]
    return prod(nu[i] - j + conj[j] - i - 1
                for i in range(len(nu)) for j in range(nu[i]))


def contains(nu, kappa):
    return len(kappa) <= len(nu) and all(a >= b for a, b in zip(nu, kappa))


def test_shifted_schur_matches_the_determinant_formula():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, 4)
        lam = random_weight(rng, n, lo=-3, hi=5)
        rows = min(n, 4)
        at = repunitary._shifted_schur(lam, 4, rows)
        assert sorted(at) == sorted(repunitary._growth(4, rows))
        for kappa, value in at.items():
            assert value == shifted_schur_by_determinant(kappa, lam), (lam, kappa)


def test_node_values_are_the_shifted_schur_functions_at_the_nodes():
    # the chain-count formula against the reverse-tableau sum at each node,
    # also with fewer rows than boxes: both vanish unless kappa lies in nu,
    # and s*_nu(nu) is the hook product
    for degree, rows in ((6, 6), (7, 3)):
        values = repunitary._node_values(degree, rows)
        nodes = list(repunitary._growth(degree, rows))
        assert list(values) == nodes
        for nu in nodes:
            at = repunitary._shifted_schur(nu + (0,) * (rows - len(nu)),
                                           degree, rows)
            for kappa in nodes:
                assert (nu in values[kappa]) == contains(nu, kappa)
                assert values[kappa].get(nu, 0) == at[kappa], (kappa, nu)
            assert values[nu][nu] == hook_product(nu)


def test_shifted_schur_is_stable_under_a_zero_entry():
    # s*_kappa(x, 0) = s*_kappa(x) for kappa with at most len(x) parts
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 5)
        lam = random_weight(rng, n, lo=0, hi=7)
        rows = min(n, 5)
        at = repunitary._shifted_schur(lam, 5, rows)
        assert repunitary._shifted_schur(lam + (0,), 5, rows) == at


def test_node_value_remainder_raises(monkeypatch):
    # |nu|_(|kappa|) f^(nu/kappa) divides by f^nu; a remainder must raise,
    # also under python -O
    monkeypatch.setattr(repunitary, "perm", lambda a, b: perm(a, b) + 1)
    with pytest.raises(InvariantError, match="not an integer"):
        repunitary._node_values.__wrapped__(3, 3)


def test_shifted_schur_degree_guard():
    with pytest.raises(GuardError, match="shifted Schur guard"):
        pieri_stats((2, 1, 0), 3, 3, range(1, 12))
    with pytest.raises(GuardError, match="shifted Schur guard"):
        restriction_mean_moments(sw(5, 2, 0), 2, (21,))


def test_pieri_stats_match_the_enumeration():
    # the bulk profile, and a weight with negative entries at orders 0 and 5
    # (tests/test_properties.py draws random weights)
    cases = [(bulk_profile(n), row_profile(n), n, (1, 2, 3, 4))
             for n in range(1, 7)] + [((4, 1, -2, -5), 9, 4, (0, 3, 1, 5))]
    for lam, row, n, orders in cases:
        d = pieri_decompose(lam, row, n)
        assert pieri_stats(lam, row, n, orders) == pushforward_stats(d, orders)
        assert pieri_component_count(lam, row, n) == len(d)


def test_pieri_stats_at_a_size_beyond_the_enumeration():
    # n = 64: every component has p_1 = p_1(l_lam) + row, so p_1 has no
    # variance
    n = 64
    lam, row = bulk_profile(n), row_profile(n)
    stats = pieri_stats(lam, row, n, (1, 2, 3, 4))
    l = ShiftedWeight.from_highest_weight(lam)
    assert stats.mean[0] == Fraction(l.power_sum(1) + row, n)
    assert stats.cov[0][0] == 0
    assert all(stats.cov[k][k] >= 0 for k in range(4))
    assert stats.cov[3][3] > 0


def test_pieri_inputs_are_checked():
    with pytest.raises(ValueError, match="nonnegative"):
        pieri_stats((1, 0), -1, 2, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        pieri_component_count((1, 0), -1, 2)
    with pytest.raises(ValueError, match="nonnegative integers"):
        pieri_stats((1, 0), 1, 2, (-1,))
    with pytest.raises(ValueError, match="weakly decreasing"):
        pieri_stats((0, 1), 1, 2, (1,))



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


def test_restriction_mean_moments_on_the_staircase_to_order_8():
    # degree 8 exceeds n, so the basis drops partitions with parts above n
    rng = random.Random(47)
    orders = tuple(range(1, 9))
    for n in (3, 4):
        for m in range(1, n):
            for _ in range(2):
                lam = random_weight(rng, n, lo=-3, hi=3)
                l = ShiftedWeight.from_highest_weight(lam)
                assert restriction_mean_moments(l, m, orders) == \
                    enumerated_restriction_means(l, m, orders), (lam, m)


def test_restriction_mean_moments_orders():
    l = ShiftedWeight.from_highest_weight((5, 2, -1))
    assert restriction_mean_moments(l, 2, (3, 1, 6)) == \
        enumerated_restriction_means(l, 2, (3, 1, 6))
    assert restriction_mean_moments(l, 2, ()) == []
    assert restriction_mean_moments(l, 2, (0, 2)) == \
        [1] + enumerated_restriction_means(l, 2, (2,))
    # at m = n the component is l itself
    assert restriction_mean_moments(l, 3, (3, 1, 6)) == [
        Fraction(l.power_sum(k), 3) for k in (3, 1, 6)]
    for m in (0, 4):
        with pytest.raises(ValueError, match="1 <= m <= 3"):
            restriction_mean_moments(l, m, (1,))
    for orders in ((-1,), (1, -2), (1.5,), ("2",)):
        with pytest.raises(ValueError, match="nonnegative integers"):
            restriction_mean_moments(l, 2, orders)


# -- pushforward statistics ------------------------------------------------------

def test_pushforward_single_component_is_deterministic():
    stats = pushforward_stats({sw(5, 2, 0): 4}, (1, 2))
    assert stats.cov == ((0, 0), (0, 0))
    assert stats.mean[0] == Fraction(7, 3)


def test_pushforward_clebsch_gordan_frozen_values():
    d = lr_tensor_decompose((1, 0), (1, 0), 2)
    stats = pushforward_stats(d, (2,))
    # shifted weights (3,0) and (2,1): naive second moments 9/2 and 5/2
    assert stats.mean[0] == Fraction(4)
    assert stats.cov[0][0] == Fraction(3, 4)


def test_pushforward_refuses_empty_and_oversized_decompositions(monkeypatch):
    with pytest.raises(ValueError, match="empty decomposition"):
        pushforward_stats({}, (1,))
    monkeypatch.setattr(oracles, "PUSHFORWARD_MAX_COMPONENTS", 1)
    with pytest.raises(GuardError, match="component guard"):
        pushforward_stats(lr_tensor_decompose((1, 0), (1, 0), 2), (1,))


def test_pushforward_covariance_matches_direct():
    # every covariance of the naive moments of orders 1..3, against the
    # textbook formula on the exact distribution
    orders = (1, 2, 3)
    for a, b in [((2, 0), (2, 0)), ((2, 1, 0), (1, 1, 0)),
                 ((3, 1, 0), (2, 0, 0))]:
        d = lr_tensor_decompose(a, b, len(a))
        stats = pushforward_stats(d, orders)
        dist = [(p, [naive_spectral_measure(l).moment(k) for k in orders])
                for l, p in distribution(d).items()]

        def e(*idx):
            return sum(p * prod(v[i] for i in idx) for p, v in dist)

        for i, j in itertools.product(range(3), repeat=2):
            assert stats.cov[i][j] == e(i, j) - e(i) * e(j)
