import itertools
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hofree import rmt
from hofree.errors import GuardError
from hofree.partperm import Permutation, integer_partitions
from hofree.repunitary import ShiftedWeight, weyl_dimension
from hofree.rmt import (
    EnsembleSpec,
    WEINGARTEN_MAX_ORDER,
    corner_traces,
    exact_entry_moment,
    haar_unitary,
    replica_rng,
    sample_matrix,
    sum_independent,
    trace_statistics,
    weingarten_table,
)
import oracles
from oracles import (
    complement_corner,
    complement_traces_by_words,
    corner_by_qr,
    eigenvalues,
    entry_moment_by_weingarten_sum,
)


def test_haar_unitary_is_unitary():
    rng = replica_rng(1, 0)
    for n in (1, 2, 5, 16):
        u = haar_unitary(n, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) <= 1e-12


def test_replica_rng_refuses_keys_outside_64_bits():
    # a key is never reduced mod 2^64, so no two seeds share a stream
    for seed, replica in ((-1, 0), (2 ** 64, 0), (2 ** 64 + 1, 0), (1, -1),
                          (1, 2 ** 64)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\^64\)"):
            replica_rng(seed, replica)
    top = replica_rng(2 ** 64 - 1, 2 ** 64 - 1).standard_normal(4)
    assert not np.array_equal(top, replica_rng(1, 0).standard_normal(4))


def test_haar_first_and_second_entry_moments():
    n, reps = 4, 20_000
    entries = np.empty(reps, dtype=complex)
    for r in range(reps):
        entries[r] = haar_unitary(n, replica_rng(7, r))[0, 0]
    # E U11 = 0 by phase symmetry, E |U11|^2 = 1/n
    se_mean = entries.std() / np.sqrt(reps)
    assert abs(entries.mean()) <= 3 * se_mean
    sq = np.abs(entries) ** 2
    se_sq = sq.std() / np.sqrt(reps)
    assert abs(sq.mean() - 1 / n) <= 3 * se_sq


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec.mixture([((1, 0), Fraction(1, 2)),
                              ((0, -1), Fraction(1, 3))])
    with pytest.raises(ValueError):
        EnsembleSpec(n=3, atoms=(((1, 0), Fraction(1)),))
    with pytest.raises(ValueError, match="empty"):
        EnsembleSpec.mixture([])
    # a signed mixture summing to one is not a law to draw from
    with pytest.raises(ValueError, match="nonnegative"):
        EnsembleSpec.mixture([((1, 0), Fraction(3, 2)),
                              ((0, 1), Fraction(-1, 2))])
    spec = EnsembleSpec.fixed((3, 1, 0), eps=Fraction(1, 2))
    assert spec.n == 3
    assert spec.atom_power_sum(0, 2) == 10


def test_sample_matrix_has_prescribed_spectrum():
    spec = EnsembleSpec.fixed((5, 2, -1, -3), eps=Fraction(1, 4))
    rng = replica_rng(3, 0)
    x = sample_matrix(spec, rng)
    got = eigenvalues(x)
    want = np.array([-3, -1, 2, 5]) / 4
    assert np.max(np.abs(got - want)) <= 1e-10


def test_fixed_spectrum_traces_are_deterministic():
    spec = EnsembleSpec.fixed((2, 0, -2))
    values = []
    for r in range(5):
        x = sample_matrix(spec, replica_rng(11, r))
        values.append(np.trace(x).real)
    assert np.allclose(values, 0.0, atol=1e-12)
    table = trace_statistics(spec, (2,), replicas=64, seed=5)
    assert np.allclose(table.column(2), 8 / 3, atol=1e-12)
    assert table.column(2).std() <= 1e-13


def test_mixture_frequencies():
    spec = EnsembleSpec.mixture([((1, 0), Fraction(1, 2)),
                                 ((3, 0), Fraction(1, 2))])
    reps = 4000
    hits = 0
    for r in range(reps):
        eigs = eigenvalues(sample_matrix(spec, replica_rng(17, r)))
        hits += abs(eigs[-1] - 3.0) < 1e-9
    sigma = (reps * 0.25) ** 0.5
    assert abs(hits - reps / 2) <= 3 * sigma


def test_sum_independent():
    zero = EnsembleSpec.fixed((0, 0, 0))
    other = EnsembleSpec.fixed((4, 1, -2))
    s = sum_independent(zero, other, replica_rng(2, 0))
    assert np.max(np.abs(np.sort(eigenvalues(s)) - np.array([-2, 1, 4]))) <= 1e-10
    # deterministic trace additivity for fixed spectra
    a = EnsembleSpec.fixed((2, 1, 0))
    b = EnsembleSpec.fixed((5, -1, -1))
    for r in range(3):
        x = sum_independent(a, b, replica_rng(9, r))
        assert abs(np.trace(x).real - (3 + 3)) <= 1e-10
    with pytest.raises(ValueError):
        sum_independent(a, EnsembleSpec.fixed((1, 0)), replica_rng(0, 0))


def test_corner():
    # every corner draw is Hermitian and its spectrum interlaces eps * l
    # (Cauchy): a[j] <= b[j] <= a[j + n - m], both sorted ascending
    for eigs in ((3, 1, 0, -1, -4), (2, 2, 0, -1, -3)):
        spec = EnsembleSpec.fixed(eigs, eps=Fraction(1, 2))
        a = np.sort(np.array(eigs, dtype=float) / 2)
        n = spec.n
        for m in range(1, n + 1):
            for r in range(50):
                x = corner_by_qr(spec, replica_rng(4, r), m)
                assert x.shape == (m, m)
                assert np.array_equal(x, x.conj().T)
                b = eigenvalues(x)
                assert np.all(a[:m] <= b + 1e-12), (eigs, m, r)
                assert np.all(b <= a[n - m:] + 1e-12), (eigs, m, r)
    for m in (0, 6, -1, 9):
        with pytest.raises(ValueError):
            corner_by_qr(spec, replica_rng(4, 0), m)
        with pytest.raises(ValueError, match=rf"got n = 5 and m = {m}$"):
            corner_traces(spec, [replica_rng(4, 0)], m, (1,))
        with pytest.raises(ValueError):
            trace_statistics(spec, (1,), replicas=2, seed=0, m=m)
    with pytest.raises(ValueError, match="corners of sums"):
        trace_statistics((spec, spec), (1,), replicas=2, seed=0, m=2)


def test_full_draw_is_the_conjugation_formula():
    # m = n keeps the draw of U diag(l) U* bit for bit
    eigs = (5, 2, -1, -3)
    spec = EnsembleSpec.fixed(eigs, eps=Fraction(1, 4))
    for r in range(5):
        rng = replica_rng(12, r)
        rng.random()                                  # the atom draw
        z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        z /= np.sqrt(2.0)
        q, upper = np.linalg.qr(z)
        d = np.diagonal(upper)
        u = q * (d / np.abs(d))
        x = (u * (0.25 * np.array(eigs, dtype=float))) @ u.conj().T
        x = (x + x.conj().T) / 2
        assert np.array_equal(sample_matrix(spec, replica_rng(12, r)), x)
        assert np.array_equal(corner_by_qr(spec, replica_rng(12, r), 4), x)
        # a full-size corner's traces are the spectrum's
        tr_d = [np.mean((0.25 * np.array(eigs)) ** p) for p in (2, 1)]
        assert np.array_equal(
            corner_traces(spec, [replica_rng(12, r)], 4, (2, 1))[0], tr_d)
    assert np.array_equal(
        trace_statistics(spec, (1, 2, 3), replicas=5, seed=12, m=4).values,
        trace_statistics(spec, (1, 2, 3), replicas=5, seed=12).values)


def test_corner_entry_moments_match_weingarten():
    # corner entries are entries of X: their moments are the exact ones
    spec = EnsembleSpec.fixed((2, 1, -1, -2))
    reps = 20_000
    pairs_list = [[(0, 0)], [(0, 1), (1, 0)], [(0, 0), (1, 1)],
                  [(0, 1), (1, 2), (2, 0)], [(2, 2), (2, 2)],
                  [(0, 1)], [(0, 1), (0, 1)], [(1, 2), (1, 2), (2, 1)]]
    samples = np.empty((reps, len(pairs_list)), dtype=complex)
    for r in range(reps):
        x = corner_by_qr(spec, replica_rng(35, r), 3)
        for c, pairs in enumerate(pairs_list):
            samples[r, c] = np.prod([x[i, j] for i, j in pairs])
    for c, pairs in enumerate(pairs_list):
        vals = samples[:, c]
        exact = complex(exact_entry_moment(spec, pairs))
        se = max(vals.real.std(), vals.imag.std()) / np.sqrt(reps)
        assert abs(vals.mean().real - exact.real) <= 3 * se + 1e-12, pairs
        assert abs(vals.mean().imag - exact.imag) <= 3 * se + 1e-12, pairs


def test_eigenvalues_small_cases():
    assert np.allclose(eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1, 2, 3])
    assert np.allclose(eigenvalues(np.array([[0, 1], [1, 0]], dtype=float)),
                       [-1, 1])


def test_eigenvalues_residual_guard(monkeypatch):
    # a residual above the tolerance times max(1, ||X||) is refused, not
    # returned
    x = sample_matrix(EnsembleSpec.fixed(range(8, 0, -1)), replica_rng(9, 0))
    assert np.allclose(eigenvalues(x), range(1, 9))
    monkeypatch.setattr(oracles, "EIGENVALUE_RESIDUAL_TOL", 1e-30)
    with pytest.raises(RuntimeError, match="eigensolver residual"):
        eigenvalues(x)


def test_trace_statistics_thread_count_invariance():
    spec = EnsembleSpec.mixture([((2, 0, -1), Fraction(1, 2)),
                                 ((1, 1, -2), Fraction(1, 2))], eps=0.5)
    t1 = trace_statistics(spec, (1, 2), replicas=40, seed=21, threads=1)
    t4 = trace_statistics(spec, (1, 2), replicas=40, seed=21, threads=4)
    assert np.array_equal(t1.values, t4.values)
    c1 = trace_statistics(spec, (1, 2), replicas=40, seed=21, threads=1, m=2)
    c2 = trace_statistics(spec, (1, 2), replicas=40, seed=21, threads=2, m=2)
    assert np.array_equal(c1.values, c2.values)
    assert not np.array_equal(c1.values, t1.values)
    # corners run in blocks of replicas: on each path (m = n, 2m <= n and
    # 2m > n), a count that is no multiple of the block gives the same rows
    # for 1 and 2 threads, each that of a one-replica block on its stream,
    # bit for bit at m = n and up to round-off of the stacked calls
    wide = EnsembleSpec.mixture([(range(12, 0, -1), Fraction(1, 2)),
                                 (range(-6, 6), Fraction(1, 2))],
                                eps=Fraction(1, 8))
    powers = (1, 2, 3, 4)
    for m in (12, 4, 8):
        block = rmt._corner_block(12, m, max(powers))
        assert 1 < block < 400
        replicas = 2 * block + 3
        t1 = trace_statistics(wide, powers, replicas, seed=22, threads=1, m=m)
        t2 = trace_statistics(wide, powers, replicas, seed=22, threads=2, m=m)
        assert np.array_equal(t1.values, t2.values)
        rows = np.array([corner_traces(wide, [replica_rng(22, r)], m, powers)[0]
                         for r in range(replicas)])
        if m == 12:
            assert np.array_equal(t1.values, rows)
        else:
            assert np.allclose(t1.values, rows, rtol=1e-12, atol=0), m


def test_power_traces_match_eigenvalue_powers():
    # trace_statistics rows, from trace products Tr AB of matrix powers (and,
    # for a corner m < n, of the QR-free similar matrix or the complement's
    # resolvent recursion), equal the eigenvalue powers of the same draws up
    # to round-off; the oracle of a corner with 2m > n is (I - Q) D (I - Q)
    powers = (4, 1, 8, 3, 2, 2, 7, 5, 6, 1)
    fixed = EnsembleSpec.fixed((3, 1, 0, -1, -4), eps=Fraction(1, 2))
    mixture = EnsembleSpec.mixture([((2, 0, -1, 1), Fraction(1, 3)),
                                    ((1, 1, -2, 0), Fraction(2, 3))], eps=0.7)
    other = EnsembleSpec.fixed((5, -1, -1, 0, 2))
    large = EnsembleSpec.mixture([(range(32, -32, -1), Fraction(1, 2)),
                                  (range(-20, 44), Fraction(1, 2))],
                                 eps=Fraction(1, 16))

    def corner(spec, m):
        if 2 * m > spec.n and m < spec.n:
            return lambda rng: complement_corner(spec, rng, m)
        return lambda rng: corner_by_qr(spec, rng, m)

    cases = [(fixed, None, 6, lambda rng: sample_matrix(fixed, rng)),
             (mixture, None, 6, lambda rng: sample_matrix(mixture, rng)),
             ((fixed, other), None, 6,
              lambda rng: sum_independent(fixed, other, rng))]
    # at n = 64: the boundary 2m = n of the direct side, and m = n - 1
    cases += [(large, m, 2, corner(large, m)) for m in (32, 33, 63)]
    cases += [(spec, m, 6, corner(spec, m))
              for spec in (fixed, mixture) for m in range(1, spec.n + 1)]
    for spec, m, reps, draw in cases:
        table = trace_statistics(spec, powers, replicas=reps, seed=31, m=m)
        # the plug-in cumulants read the last bits of the layout, so every
        # path returns the same one
        assert table.values.shape == (reps, len(powers))
        assert table.values.dtype == np.float64
        assert table.values.flags.c_contiguous
        for r in range(reps):
            eigs = eigenvalues(draw(replica_rng(31, r)))
            norm = max(1.0, float(np.abs(eigs).max()))
            for i, p in enumerate(powers):
                want = np.sum(eigs ** p) / (m or len(eigs))
                assert abs(table.values[r, i] - want) <= 1e-12 * norm ** p, \
                    (spec, m, r, p)


def test_complement_recursion_matches_the_word_expansion():
    # for 2m > n, corner_traces reads Tr C^p from a resolvent recursion; on
    # the same draws it equals the 2^p - 1 words of Tr (D - QD)^p.  Both
    # subtract from Tr D^p; spectra in [1, 2 + 1/n] keep Tr C^p within a
    # factor n (2 + 1/n)^p / m of it, so the tolerance can be relative
    powers = tuple(range(1, 13))
    for n, m in ((3, 2), (4, 3), (5, 3), (6, 5), (8, 5), (12, 7), (16, 15),
                 (40, 21)):
        top = tuple(range(2 * n, n, -1))
        alt = tuple(x + (1 if i % 2 == 0 else -1) for i, x in enumerate(top))
        spec = EnsembleSpec.mixture(
            [(top, Fraction(1, 2)), (alt, Fraction(1, 2))], eps=Fraction(1, n))
        for r in range(3):
            got = corner_traces(spec, [replica_rng(7, r)], m, powers)[0] * m
            rng = replica_rng(7, r)
            eigs = float(spec.eps) * rmt._draw_atom(spec, rng)
            want = complement_traces_by_words(
                eigs, rmt._ginibre([rng], n, n - m)[0], powers)
            for p, g, w in zip(powers, got, want):
                assert abs(g - w) <= 1e-12 * abs(w), (n, m, r, p)


def test_corner_trace_means_match_exact_moments():
    # E tr C^p of the m-by-m corner is a sum of exact entry moments over the
    # index cycles i1 -> i2 -> ... -> ip -> i1 in the corner; the complement
    # side (2m > n) and the direct side (2m <= n) both meet it within 3 SE
    powers = (1, 2, 3, 4)
    reps = 20_000
    for eigs, m in (((3, 1, 0, -1, -2), 3), ((2, 1, 1, 0, -1, -3), 4),
                    ((2, 1, 1, 0, -1, -3), 3)):
        spec = EnsembleSpec.fixed(eigs, eps=Fraction(1, 2))
        table = trace_statistics(spec, powers, replicas=reps, seed=41, m=m)
        for p in powers:
            exact = sum(exact_entry_moment(spec, list(zip(ix, ix[1:] + ix[:1])))
                        for ix in itertools.product(range(m), repeat=p)) / m
            col = table.column(p)
            se = col.std() / np.sqrt(reps)
            assert abs(col.mean() - float(exact)) <= 3 * se, (eigs, m, p)


def test_non_finite_traces_and_matrices_refused():
    huge = EnsembleSpec.fixed((1e200, 0, -1))
    with warnings.catch_warnings():
        # the refusal is the finiteness check, with no overflow warning
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"tr X\^2 of replica 0 is not finite"):
            trace_statistics(huge, (1, 2), replicas=5, seed=0)
        for m in (1, 2):
            with pytest.raises(ValueError,
                               match=r"tr X\^2 of replica 0 is not finite"):
                trace_statistics(huge, (1, 2), replicas=5, seed=0, m=m)
        # the refusal names the global replica, past the first block on
        # every corner path (m = 1, 2 and 3)
        rare = EnsembleSpec.mixture([((1e200, 0, -1), Fraction(1, 1000)),
                                     ((1, 0, -1), Fraction(999, 1000))])
        first = next(r for r in range(2000)
                     if rmt._atom_index(rare, replica_rng(1, r)) == 0)
        assert first == 1924
        for m in (1, 2, 3):
            assert first >= rmt._corner_block(3, m, 2)
            with pytest.raises(ValueError,
                               match=rf"tr X\^2 of replica {first} is not"):
                trace_statistics(rare, (1, 2), replicas=2000, seed=1, m=m)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues(np.array([[1.0, 0.0], [0.0, bad]]))


def test_weingarten_small_closed_forms():
    for n in (1, 3, 6):
        assert weingarten_table(1, n)[(1,)] == Fraction(1, n)
    for n in (2, 4, 7):
        t = weingarten_table(2, n)
        assert t[(1, 1)] == Fraction(1, n * n - 1)
        assert t[(2,)] == Fraction(-1, n * (n * n - 1))


def test_weingarten_gram_identity():
    for k in (1, 2, 3, 4):
        for n in (4, 5, 6):
            table = weingarten_table(k, n)
            for sigma in itertools.permutations(range(k)):
                total = Fraction(0)
                for tau in itertools.permutations(range(k)):
                    inv = [0] * k
                    for i, j in enumerate(tau):
                        inv[j] = i
                    st = tuple(sigma[x] for x in inv)
                    total += (table[Permutation(st).cycle_type()]
                              * Fraction(n) ** _ncycles(tau))
                assert total == (1 if sigma == tuple(range(k)) else 0)


def _ncycles(images):
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


def test_weingarten_guards():
    with pytest.raises(GuardError):
        weingarten_table(3, 2)
    with pytest.raises(GuardError):
        weingarten_table(WEINGARTEN_MAX_ORDER + 1, 20)


def _z(mu):
    return math.prod(c ** m * math.factorial(m) for c, m in Counter(mu).items())


def test_character_orthogonality():
    # sum_mu chi^lam(mu) chi^nu(mu) / z_mu = [lam = nu]
    for k in range(1, 7):
        classes = integer_partitions(k)
        for lam, nu in itertools.product(classes, repeat=2):
            total = sum(Fraction(rmt._character(lam, mu) * rmt._character(nu, mu),
                                 _z(mu)) for mu in classes)
            assert total == (lam == nu), (lam, nu)


def test_schur_dimension_is_the_weyl_dimension():
    # the coefficients 1 / (n)_lam are chi^lam(1) / (k! s_lam(1^n)), with
    # s_lam(1^n) by Weyl's dimension formula as the oracle
    for k in range(1, 6):
        for n in range(k, 9):
            want = [Fraction(rmt._character(lam, (1,) * k), math.factorial(k)
                             * weyl_dimension(ShiftedWeight.from_highest_weight(
                                 lam + (0,) * (n - len(lam)))))
                    for lam in integer_partitions(k)]
            assert list(rmt._weingarten_coefficients(k, n)) == want, (k, n)


def test_entry_moment_of_one_haar_entry():
    # X = U diag(1, 0, ..., 0) U* has X_00 = |U_00|^2, and
    # E |U_00|^(2k) = k! (n - 1)! / (n + k - 1)!
    for n in range(1, 8):
        spec = EnsembleSpec.fixed((1,) + (0,) * (n - 1))
        for k in range(1, min(n, 5) + 1):
            want = Fraction(math.factorial(k) * math.factorial(n - 1),
                            math.factorial(n + k - 1))
            assert exact_entry_moment(spec, [(0, 0)] * k) == want, (n, k)


def test_entry_moment_matches_the_weingarten_double_sum():
    # the character formula against the sigma, tau enumeration it replaced;
    # the columns are a shuffle of the rows, so most patterns are nonzero
    rng = random.Random(17)
    cases = nonzero = 0
    for k in range(1, 6):
        for n in range(k, 8):
            for case in range(14):
                rows = [rng.randrange(n) for _ in range(k)]
                pairs = list(zip(rows, rng.sample(rows, k)))
                atoms = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(n)] for _ in range(2)]
                if case % 2:
                    spec = EnsembleSpec.mixture(
                        zip(atoms, (Fraction(1, 3), Fraction(2, 3))),
                        eps=Fraction(2, 3))
                else:
                    spec = EnsembleSpec.fixed(atoms[0], eps=Fraction(2, 3))
                exact = exact_entry_moment(spec, pairs)
                assert exact == entry_moment_by_weingarten_sum(spec, pairs), \
                    (spec, pairs)
                cases += 1
                nonzero += exact != 0
    assert cases >= 300 and nonzero >= cases // 2
    # with a float spectrum the two summation orders differ in the last bits:
    # agreement to 1e-12 of the value, or of the scale max|l|^k near zero
    for k in range(1, 6):
        for n in range(k, 8):
            rows = [rng.randrange(n) for _ in range(k)]
            pairs = list(zip(rows, rng.sample(rows, k)))
            spec = EnsembleSpec.fixed([rng.uniform(-2, 2) for _ in range(n)])
            exact = exact_entry_moment(spec, pairs)
            assert isinstance(exact, float)
            assert math.isclose(exact, entry_moment_by_weingarten_sum(spec, pairs),
                                rel_tol=1e-12, abs_tol=1e-12 * 2 ** k), (spec, pairs)


def test_entry_moment_first_order():
    spec = EnsembleSpec.fixed((4, 1, -2), eps=Fraction(1, 3))
    assert exact_entry_moment(spec, [(0, 0)]) == Fraction(1, 3) * Fraction(3, 3)
    assert exact_entry_moment(spec, [(1, 1)]) == Fraction(1, 3)
    assert exact_entry_moment(spec, [(0, 1)]) == 0


def test_entry_moments_recover_matrix_power_traces():
    # sum_j E X_{0j} X_{j0} = E (X^2)_{00} = eps^2 p_2 / n, and the
    # off-diagonal analogue vanishes; same at third order
    spec = EnsembleSpec.fixed((3, 1, 0, -2), eps=Fraction(1, 2))
    n = spec.n
    p2 = spec.atom_power_sum(0, 2)
    p3 = spec.atom_power_sum(0, 3)
    total = sum(exact_entry_moment(spec, [(0, j), (j, 0)]) for j in range(n))
    assert total == Fraction(1, 4) * Fraction(p2, n)
    off = sum(exact_entry_moment(spec, [(0, j), (j, 1)]) for j in range(n))
    assert off == 0
    total3 = sum(exact_entry_moment(spec, [(0, j), (j, m), (m, 0)])
                 for j in range(n) for m in range(n))
    assert total3 == Fraction(1, 8) * Fraction(p3, n)


def test_entry_moment_mixture_is_atomwise_average():
    a = EnsembleSpec.fixed((2, 0, -1))
    b = EnsembleSpec.fixed((5, 3, 1))
    mix = EnsembleSpec.mixture([((2, 0, -1), Fraction(1, 3)),
                                ((5, 3, 1), Fraction(2, 3))])
    for pairs in ([(0, 0)], [(0, 1), (1, 0)], [(0, 0), (1, 1)]):
        want = (Fraction(1, 3) * exact_entry_moment(a, pairs)
                + Fraction(2, 3) * exact_entry_moment(b, pairs))
        assert exact_entry_moment(mix, pairs) == want


def test_entry_moment_matches_monte_carlo():
    spec = EnsembleSpec.fixed((2, 1, -1, -2))
    reps = 60_000
    pairs_list = [[(0, 0)], [(0, 1), (1, 0)], [(0, 0), (1, 1)],
                  [(0, 1), (1, 2), (2, 0)]]
    samples = {tuple(p): np.empty(reps, dtype=complex) for p in pairs_list}
    for r in range(reps):
        x = sample_matrix(spec, replica_rng(33, r))
        for pairs in pairs_list:
            v = 1.0
            for i, j in pairs:
                v = v * x[i, j]
            samples[tuple(pairs)][r] = v
    for pairs in pairs_list:
        vals = samples[tuple(pairs)]
        exact = complex(exact_entry_moment(spec, pairs))
        se = max(vals.real.std(), vals.imag.std()) / np.sqrt(reps)
        assert abs(vals.mean().real - exact.real) <= 3 * se + 1e-12
        assert abs(vals.mean().imag - exact.imag) <= 3 * se + 1e-12


def test_unitary_invariance_of_eigenvalue_statistics():
    spec = EnsembleSpec.fixed((4, 2, 0, -1), eps=0.25)
    w = haar_unitary(4, replica_rng(100, 0))
    for r in range(5):
        x = sample_matrix(spec, replica_rng(55, r))
        conj = w @ x @ w.conj().T
        assert np.max(np.abs(eigenvalues(conj) - eigenvalues(x))) <= 1e-10


def test_unitary_invariance_of_entry_statistics():
    # conjugating replicas by one fixed unitary leaves entry moments alone
    spec = EnsembleSpec.fixed((3, 1, -1, -3))
    w = haar_unitary(4, replica_rng(101, 0))
    reps = 20_000
    plain = np.empty(reps, dtype=complex)
    conjugated = np.empty(reps, dtype=complex)
    for r in range(reps):
        x = sample_matrix(spec, replica_rng(66, r))
        y = w @ x @ w.conj().T
        plain[r] = x[0, 1] * x[1, 0]
        conjugated[r] = y[0, 1] * y[1, 0]
    se = (plain.real.std() + conjugated.real.std()) / np.sqrt(reps)
    assert abs(plain.mean().real - conjugated.mean().real) <= 3 * se
