"""Acceptance suite: one test per criterion, at the stated tolerances.

Shared conventions: exact checks compare Fractions with ==; Monte-Carlo
checks pin the master seed and compare within 3 standard errors (plus a tiny
absolute guard where the target quantity is deterministic and the standard
error collapses to rounding noise).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hofree import hof, rmt
from hofree.cumulants import (
    commutator_cumulant_sides,
    estimate_cumulants,
)
from hofree.errors import GuardError
from hofree.experiments import (
    bulk_profile,
    naive_moments_of_weight,
    row_profile,
    trace_patterns,
    RESTRICTION_AMPLITUDE,
)
from hofree.freeprob import (
    atomic_moments,
    free_compress,
    free_convolve,
    free_cumulants_to_moments,
    moments_to_free_cumulants,
    semicircle_moments,
)
from hofree.partperm import (
    PartitionedPermutation,
    Permutation,
    SetPartition,
    contiguous_cycles,
    leq_pp,
    partitioned_permutations,
    set_partitions,
)
from hofree.repunitary import (
    ShiftedWeight,
    naive_to_natural_moments,
    natural_to_naive_moments,
    natural_spectral_measure,
    pieri_stats,
    restriction_mean_moments,
    zelobenko_weights,
)

from oracles import natural_moment_via_matrix

SCHEDULE = (2, 4, 6, 8)
ORDERS = (1, 2, 3, 4)


@pytest.fixture(scope="session")
def tensor_profile_stats():
    """Exact unscaled mean/covariance of naive moments of the random tensor
    component, for the default Pieri profile; shared by criteria 7 and 9."""
    out = {}
    for n in SCHEDULE:
        lam = bulk_profile(n)
        row = row_profile(n)
        out[n] = (lam, row, pieri_stats(lam, row, n, ORDERS))
    return out


def integer_partitions(k):
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return list(rec(k, k))


def test_criterion_01_partitioned_permutation_suite():
    start = time.time()
    # enumeration counts against an independent oracle:
    # sum over cycle counts of stirling1(k, c) * bell(c)
    def stirling1_row(k):
        row = [0] * (k + 1)
        row[0] = 1
        for m in range(1, k + 1):
            new = [0] * (k + 1)
            for c in range(1, m + 1):
                new[c] = row[c - 1] + (m - 1) * row[c]
            row = new
        return row

    def bell(c):
        b = [1]
        for m in range(c):
            b.append(sum(math.comb(m, j) * b[j] for j in range(m + 1)))
        return b[c]

    for k in range(1, 7):
        expected = sum(stirling1_row(k)[c] * bell(c) for c in range(1, k + 1))
        assert sum(1 for _ in partitioned_permutations(k)) == expected
    assert sum(1 for _ in partitioned_permutations(3)) == 13

    # triangle inequality, exhaustively over the summand set of the
    # trace-cumulant formula, all cycle types, k <= 6
    for k in range(1, 7):
        full = SetPartition.full(k)
        elems = list(partitioned_permutations(k))
        for ctype in integer_partitions(k):
            gamma = contiguous_cycles(*ctype)
            gamma_part = gamma.cycle_partition()
            top = PartitionedPermutation(full, gamma)
            for vp in elems:
                below = leq_pp(vp, top)
                if vp.partition.join(gamma_part) != full:
                    assert not below
                    continue
                exponent = hof.scaling_exponent(vp, gamma)
                assert exponent >= 0
                assert (exponent == 0) == below
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 1 exceeded its 2 minute budget: {elapsed:.0f}s"
    print(f"\nPASS criterion 1: enumeration + triangle inequality ({elapsed:.1f}s)")


def test_criterion_02_zelobenko_identities():
    start = time.time()
    rng = random.Random(12345)
    for _ in range(1000):
        n = rng.randint(1, 30)
        entries = tuple(sorted(rng.sample(range(-60, 90), n), reverse=True))
        assert sum(zelobenko_weights(ShiftedWeight(entries))) == 1

    for _ in range(40):
        n = rng.randint(1, 8)
        entries = tuple(sorted(rng.sample(range(-25, 35), n), reverse=True))
        l = ShiftedWeight(entries)
        measure = natural_spectral_measure(l)
        for k in range(0, 11):
            assert measure.moment(k) == natural_moment_via_matrix(l, k)
    elapsed = time.time() - start
    assert elapsed < 60, f"criterion 2 exceeded its 1 minute budget: {elapsed:.0f}s"
    print(f"\nPASS criterion 2: Zelobenko weight identities ({elapsed:.1f}s)")


def test_criterion_03_moment_conversion():
    rng = random.Random(777)
    for _ in range(60):
        n = rng.randint(1, 9)
        entries = tuple(sorted(rng.sample(range(-20, 30), n), reverse=True))
        l = ShiftedWeight(entries)
        naive = [Fraction(l.power_sum(k), n) for k in range(1, 7)]
        natural = naive_to_natural_moments(n, naive)
        assert natural_to_naive_moments(n, natural) == naive
        assert natural[0] == naive[0] - Fraction(n - 1, 2)
    print("\nPASS criterion 3: naive/natural conversion roundtrip + closed form")


def test_criterion_04_commutator_identity():
    rng = random.Random(2718)

    def random_matrix(d):
        return tuple(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(d)) for _ in range(d))

    checked = 0
    for trial in range(100):
        d = 2 if trial % 2 == 0 else 3
        count = rng.randint(2, 3)
        mats = [random_matrix(d) for _ in range(count)]
        for i in range(count - 1):
            for w in set_partitions(count):
                if not w.same_block(i, i + 1):
                    continue
                lhs, rhs = commutator_cumulant_sides(mats, i, w)
                assert lhs == rhs
                checked += 1
    assert checked >= 100
    print(f"\nPASS criterion 4: commutator identity exact on {checked} cases")


def test_criterion_05_trace_cumulant_identity_exact():
    start = time.time()
    checked = 0
    for n in (3, 4, 5):
        top = tuple(range(2 * n, 0, -2))
        alt = tuple(x + (1 if i % 2 == 0 else -1) for i, x in enumerate(top))
        specs = [
            rmt.EnsembleSpec.fixed(top, eps=Fraction(1, n)),
            rmt.EnsembleSpec.mixture([(top, Fraction(1, 3)),
                                      (alt, Fraction(2, 3))],
                                     eps=Fraction(1, n)),
        ]
        # the entry patterns X_{m, pi(m)} need k <= n (Weingarten regime)
        max_order = min(4, n)
        for spec in specs:
            for pattern in trace_patterns(max_order):
                lhs, rhs = hof.verify_trace_cumulant_identity(spec, pattern)
                assert lhs == rhs, (n, pattern)
                checked += 1
    # outside the regime the oracle must refuse, not extrapolate
    with pytest.raises(GuardError):
        hof.kappa_exact(rmt.EnsembleSpec.fixed((2, 1, 0)), 4)
    elapsed = time.time() - start
    assert elapsed < 600, f"criterion 5 exceeded its 10 minute budget: {elapsed:.0f}s"
    print(f"\nPASS criterion 5: exact trace-cumulant identity on {checked} "
          f"cases ({elapsed:.1f}s)")


def test_criterion_06_weingarten_oracle():
    # Gram identity
    for k in (1, 2, 3, 4):
        for n in (4, 5, 6):
            table = rmt.weingarten_table(k, n)
            perms = list(itertools.permutations(range(k)))
            for sigma in perms:
                total = Fraction(0)
                for tau in perms:
                    inv = [0] * k
                    for i, j in enumerate(tau):
                        inv[j] = i
                    st = tuple(sigma[x] for x in inv)
                    total += table.of_permutation(st) \
                        * Fraction(n) ** _num_cycles(tau)
                assert total == (1 if sigma == tuple(range(k)) else 0)
    # closed forms at k <= 2
    for n in (4, 5, 6):
        assert rmt.weingarten_table(1, n).of_type((1,)) == Fraction(1, n)
        t2 = rmt.weingarten_table(2, n)
        assert t2.of_type((1, 1)) == Fraction(1, n * n - 1)
        assert t2.of_type((2,)) == Fraction(-1, n * (n * n - 1))

    # Monte-Carlo entry moments at n = 4, 1e5 replicas, 3 bootstrap SEs
    spec = rmt.EnsembleSpec.fixed((2, 1, -1, -2))
    reps = 100_000
    patterns = [[(0, 0)], [(0, 1), (1, 0)], [(0, 0), (1, 1)],
                [(0, 1), (1, 2), (2, 0)]]
    data = np.empty((reps, len(patterns)), dtype=complex)
    for r in range(reps):
        x = rmt.sample_matrix(spec, rmt.replica_rng(60, r))
        for c, pairs in enumerate(patterns):
            v = 1.0
            for i, j in pairs:
                v = v * x[i, j]
            data[r, c] = v
    for c, pairs in enumerate(patterns):
        exact = complex(rmt.exact_entry_moment(spec, pairs))
        est = estimate_cumulants(data, (c,), n_boot=100,
                                 rng=np.random.default_rng(61))
        assert abs(est.value - exact) <= 3 * est.stderr
    print("\nPASS criterion 6: Weingarten Gram identity, closed forms, MC check")


def _num_cycles(images):
    seen = [False] * len(images)
    out = 0
    for i in range(len(images)):
        if not seen[i]:
            out += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = images[j]
    return out


def test_criterion_07_tensor_vs_free_convolution(tensor_profile_stats):
    start = time.time()
    gap_by_n = {}
    for n in SCHEDULE:
        lam, row, stats = tensor_profile_stats[n]
        la = ShiftedWeight.from_highest_weight(lam)
        lb = ShiftedWeight.from_highest_weight((row,) + (0,) * (n - 1))
        target = free_convolve(naive_moments_of_weight(la, 4),
                               naive_moments_of_weight(lb, 4), 4)
        gaps = [abs(float(stats.mean[i] - target[i])) / abs(float(target[i]))
                for i in range(4)]
        gap_by_n[n] = gaps

        # Monte-Carlo sums at the matching n agree with the convolution
        eps = float(n) ** -1.5
        spec_a = rmt.EnsembleSpec.fixed(la.entries, eps=eps)
        spec_b = rmt.EnsembleSpec.fixed(lb.entries, eps=eps)
        table = rmt.trace_statistics((spec_a, spec_b), ORDERS,
                                     replicas=4000, seed=20240)
        for i, k in enumerate(ORDERS):
            col = table.column(k)
            se = float(col.std(ddof=1) / np.sqrt(len(col)))
            want = float(target[i]) * eps ** k
            atol = 1e-9 * max(1.0, abs(want))
            assert abs(float(col.mean()) - want) <= 3 * se + atol, (n, k)

    # relative gap <= 15% at n = 8 for every k <= 4
    assert all(g <= 0.15 for g in gap_by_n[8]), gap_by_n[8]
    # monotonically nonincreasing along the schedule
    seq = [max(gap_by_n[n]) for n in SCHEDULE]
    assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:])), seq
    elapsed = time.time() - start
    assert elapsed < 1800, f"criterion 7 exceeded its 30 minute budget: {elapsed:.0f}s"
    print(f"\nPASS criterion 7: tensor means vs free convolution, gaps "
          f"{[round(x, 4) for x in seq]} ({elapsed:.0f}s)")


def test_criterion_08_restriction_vs_compression():
    start = time.time()
    alpha = Fraction(1, 2)
    gap_by_n = {}
    for n in (4, 6, 8):
        lam = bulk_profile(n, RESTRICTION_AMPLITUDE)
        l = ShiftedWeight.from_highest_weight(lam)
        m = n // 2
        branch = restriction_mean_moments(l, m, ORDERS)
        target = free_compress(naive_moments_of_weight(l, 4), alpha)
        gap_by_n[n] = [abs(float(branch[i] - target[i]))
                       / abs(float(target[i])) for i in range(4)]
    assert all(g <= 0.15 for g in gap_by_n[8]), gap_by_n[8]

    # corner Monte Carlo at n = 256, the pure matrix limit, within 3 SEs of
    # the compression target
    n, reps = 256, 400
    lam = bulk_profile(n, RESTRICTION_AMPLITUDE)
    l = ShiftedWeight.from_highest_weight(lam)
    eps = float(n) ** -1.5
    spec = rmt.EnsembleSpec.fixed(l.entries, eps=eps)
    target = free_compress([float(x) * eps ** k for k, x in
                            enumerate(naive_moments_of_weight(l, 4), 1)],
                           0.5)
    values = rmt.trace_statistics(spec, ORDERS, reps, 2024, m=n // 2).values
    for i in range(4):
        se = values[:, i].std(ddof=1) / np.sqrt(reps)
        assert abs(values[:, i].mean() - target[i]) <= 3 * se, (n, i)
    elapsed = time.time() - start
    print(f"\nPASS criterion 8: restriction vs compression, gaps at n=8 "
          f"{[round(x, 4) for x in gap_by_n[8]]} ({elapsed:.0f}s)")


def test_criterion_09_fluctuations(tensor_profile_stats):
    start = time.time()
    # matrix side: sum of two bulk ensembles, n in {8, 16, 32}, 1e4 replicas
    scaled_var = {}
    third = {}
    for n in (8, 16, 32):
        eps = float(n) ** -1.5
        la = ShiftedWeight.from_highest_weight(bulk_profile(n, 2.0)).entries
        lb = ShiftedWeight.from_highest_weight(bulk_profile(n, 1.5)).entries
        table = rmt.trace_statistics(
            (rmt.EnsembleSpec.fixed(la, eps=eps),
             rmt.EnsembleSpec.fixed(lb, eps=eps)),
            (1, 2, 3), replicas=10_000, seed=777)
        scaled_var[n] = float(np.var(table.column(2), ddof=1)) * n * n
        third[n] = {}
        for p in (1, 2, 3):
            scaled = (n * table.column(p))[:, None]
            est = estimate_cumulants(scaled, (0, 0, 0), n_boot=60,
                                     rng=np.random.default_rng(n))
            third[n][p] = (float(est.value.real), est.stderr)
    ratios = [scaled_var[16] / scaled_var[8], scaled_var[32] / scaled_var[16]]
    assert all(0.7 <= r <= 1.3 for r in ratios), ratios
    for p in (1, 2, 3):
        first, first_se = third[8][p]
        last, last_se = third[32][p]
        decreasing = abs(last) < abs(first)
        consistent_with_zero = abs(last) <= 3 * last_se and \
            abs(first) <= 3 * first_se
        assert decreasing or consistent_with_zero, (p, third)

    # representation side: exact scaled variances on the Pieri profile
    rep_var = {}
    for n in (4, 6, 8):
        _, _, stats = tensor_profile_stats[n]
        eps = float(n) ** -1.5
        rep_var[n] = [float(stats.cov[i][i]) * eps ** (2 * k) * n * n
                      for i, k in enumerate((1, 2))]

    def stable(a, b, tol=0.30):
        if abs(a) < 1e-12 and abs(b) < 1e-12:
            return True
        return abs(a - b) <= tol * max(abs(a), abs(b))

    for i in range(2):
        assert stable(rep_var[4][i], rep_var[6][i]), (i, rep_var)
        assert stable(rep_var[6][i], rep_var[8][i]), (i, rep_var)

    # matrix-side counterpart at n = 8: the matched sum ensemble
    n = 8
    eps = float(n) ** -1.5
    la = ShiftedWeight.from_highest_weight(bulk_profile(n)).entries
    lb = ShiftedWeight.from_highest_weight(
        (row_profile(n),) + (0,) * (n - 1)).entries
    table = rmt.trace_statistics(
        (rmt.EnsembleSpec.fixed(la, eps=eps),
         rmt.EnsembleSpec.fixed(lb, eps=eps)),
        (1, 2), replicas=10_000, seed=1234)
    for i, k in enumerate((1, 2)):
        matrix_var = float(np.var(table.column(k), ddof=1)) * n * n
        assert stable(rep_var[8][i], matrix_var), (k, rep_var[8][i], matrix_var)
    elapsed = time.time() - start
    print(f"\nPASS criterion 9: fluctuation scaling, matrix ratios "
          f"{[round(r, 3) for r in ratios]} ({elapsed:.0f}s)")


def test_criterion_10_free_probability_kernel():
    sc = semicircle_moments(Fraction(1), 10)
    catalan = [math.comb(2 * j, j) // (j + 1) for j in range(1, 6)]
    assert sc[::2] == [0] * 5
    assert sc[1::2] == catalan

    bern = atomic_moments([(1, Fraction(1, 2)), (-1, Fraction(1, 2))], 4)
    conv = free_convolve(bern, bern)
    assert conv[1] == 2 and conv[3] == 6

    rng = random.Random(31415)
    for _ in range(10):
        moments = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                   for _ in range(8)]
        a1 = Fraction(rng.randint(1, 5), rng.randint(5, 9))
        a2 = Fraction(rng.randint(1, 5), rng.randint(5, 9))
        assert free_compress(free_compress(moments, a1), a2) == \
            free_compress(moments, a1 * a2)
        assert moments_to_free_cumulants(
            free_cumulants_to_moments(moments)) == moments
    print("\nPASS criterion 10: free probability kernel exact values")
