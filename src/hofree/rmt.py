"""Unitarily invariant random matrices with prescribed spectra.

Monte-Carlo sampling (Haar unitaries via phase-fixed QR, conjugated spectra,
sums, per-replica trace tables) runs in 64-bit complex floating point; the
Weingarten oracle for exact Haar integrals of products of matrix entries
sums characters of S_k in exact rationals, one value per cycle type.  The
regimes never mix.

No path runs an eigensolve.  A sum's normalized traces tr X^p come from
products of matrix powers (`power_traces`).  A single ensemble's come with
no QR (`corner_traces`): at full size they are the drawn spectrum's; for a
corner with 2m <= n from a matrix similar to it, built from an n-by-m
Ginibre draw; for 2m > n from (n - m)-sized algebra on an n-by-(n - m) draw
whose complement is the corner's subspace.

Replica r of a run with master seed s draws from the counter-based Philox
stream keyed by (s, r), so results are reproducible and independent of any
parallel schedule.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import GuardError
from .partperm import Permutation, _content_product, integer_partitions

WEINGARTEN_MAX_ORDER = 5


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based stream for one replica; streams are independent."""
    if not (0 <= seed < 2 ** 64 and 0 <= replica < 2 ** 64):
        raise ValueError(f"seed and replica must lie in [0, 2^64): {seed}, {replica}")
    key = np.array([seed, replica], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _ginibre(n: int, rng, m: int) -> np.ndarray:
    """n-by-m complex normals, real parts first, for 1 <= m <= n."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n; got n = {n} and m = {m}")
    z = np.empty((n, m), dtype=complex)
    z.real = rng.standard_normal((n, m))
    z.imag = rng.standard_normal((n, m))
    return z


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly Haar-distributed unitary: QR of a complex Ginibre matrix with
    the diagonal of R normalized to positive reals."""
    z = _ginibre(n, rng, n)
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class EnsembleSpec:
    """X = eps * U diag(l) U* with U Haar; the spectrum l is either fixed or
    drawn from a finite mixture with rational probabilities."""

    n: int
    atoms: tuple[tuple[tuple, Fraction], ...]
    eps: object = 1

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("spectrum mixture is empty")
        if any(len(eigs) != self.n for eigs, _ in self.atoms):
            raise ValueError("every spectrum atom needs exactly n eigenvalues")
        if any(p < 0 for _, p in self.atoms):
            raise ValueError("mixture probabilities must be nonnegative")
        if sum(p for _, p in self.atoms) != 1:
            raise ValueError("mixture probabilities must sum to one")

    @classmethod
    def fixed(cls, eigs: Sequence, eps=1) -> "EnsembleSpec":
        eigs = tuple(eigs)
        return cls(n=len(eigs), atoms=((eigs, Fraction(1)),), eps=eps)

    @classmethod
    def mixture(cls, pairs, eps=1) -> "EnsembleSpec":
        atoms = tuple((tuple(eigs), Fraction(p)) for eigs, p in pairs)
        if not atoms:
            raise ValueError("spectrum mixture is empty")
        return cls(n=len(atoms[0][0]), atoms=atoms, eps=eps)

    def atom_power_sum(self, atom_index: int, k: int):
        eigs, _ = self.atoms[atom_index]
        return sum(x ** k for x in eigs)


def _draw_atom(spec: EnsembleSpec, rng) -> np.ndarray:
    u = rng.random()
    acc = 0.0
    for eigs, p in spec.atoms:
        acc += float(p)
        if u < acc:
            return np.asarray(eigs, dtype=float)
    return np.asarray(spec.atoms[-1][0], dtype=float)


def sample_matrix(spec: EnsembleSpec, rng) -> np.ndarray:
    """X = eps * U diag(l) U* for a drawn spectrum atom l and a fresh Haar
    unitary U."""
    eigs = float(spec.eps) * _draw_atom(spec, rng)
    u = haar_unitary(spec.n, rng)
    x = (u * eigs) @ u.conj().T
    return (x + x.conj().T) / 2       # remove floating-point drift


def sum_independent(spec_a: EnsembleSpec, spec_b: EnsembleSpec,
                    rng) -> np.ndarray:
    """diag(eps_a l_a) + X_b from one Haar draw: the sum of independent
    draws from the two ensembles up to conjugation (U A U* + V B V* is
    U (A + W B W*) U* with W = U*V Haar and independent of U), so its
    spectrum and traces have the sum's law; its entries do not."""
    if spec_a.n != spec_b.n:
        raise ValueError("summands must have the same size")
    a = float(spec_a.eps) * _draw_atom(spec_a, rng)
    return np.diag(a) + sample_matrix(spec_b, rng)


def power_traces(x, powers: Sequence[int]) -> np.ndarray:
    """Normalized traces tr X^p = (1/m) Tr X^p of an m-by-m X, one per entry
    of `powers`, with no eigensolve: Tr X^p = Tr AB for A = X^floor(p/2) and
    B = X^ceil(p/2), and tr X from the diagonal.  Up to the largest power P
    it forms X^2, ..., X^ceil(P/2): one for P <= 4.

    >>> power_traces(np.diag([2.0, -1.0, 0.0]), (3, 1, 2, 2))
    array([2.33333333, 0.33333333, 1.66666667, 1.66666667])
    """
    x = np.asarray(x)
    m = x.shape[0]
    power = [None, x]
    for _ in range((max(powers) + 1) // 2 - 1):
        power.append(power[-1] @ x)
    return np.array([(x.trace() if p == 1
                      else np.einsum("ij,ji->", power[p // 2],
                                     power[p - p // 2])).real / m
                     for p in powers])


def corner_traces(spec: EnsembleSpec, rng, m: int, powers) -> np.ndarray:
    """Normalized traces of the m-by-m corner W*DW, D = diag(eps l), of
    1 <= m <= n, with no QR.  For 2m <= n the n-by-m Ginibre draw Z has the
    phase-fixed thin QR Z = WR, W an n-by-m Haar isometry, and W*DW is
    similar to Y = (Z*Z)^-1 Z*DZ, whose traces these are.  For 2m > n the
    draw is an n-by-(n - m) Ginibre Z whose complement is the Haar
    m-subspace: with Q = Z G^-1 Z* and G = Z*Z, Tr (W*DW)^p =
    Tr (D - QD)^p, read off N_b = G^-1 Z*D^bZ by the resolvent recursion of
    `_add_complement_traces`.  For m = n they are tr D^p."""
    n = spec.n
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n; got n = {n} and m = {m}")
    eigs = float(spec.eps) * _draw_atom(spec, rng)
    # a spectrum that overflows gives inf or nan traces, which the caller
    # refuses; the arithmetic that carries them there does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        if 2 * m <= n:
            z = _ginibre(n, rng, m)
            zh = z.conj().T
            gram, t = zh @ z, (zh * eigs) @ z
            del z, zh       # keeps n-by-m arrays out of the solve's peak memory
            y = np.linalg.solve(gram, t)
            return power_traces(y, powers)
        traces = {p: np.sum(eigs ** p) for p in powers}
        if m < n:
            _add_complement_traces(traces, eigs, _ginibre(n, rng, n - m))
        return np.array([traces[p].real for p in powers]) / m


def _add_complement_traces(traces: dict, eigs: np.ndarray, z: np.ndarray):
    """Add Tr (D - QD)^p - Tr D^p to traces[p] = Tr D^p for each p, from the
    n-by-r draw Z.  QD = ZB with B = G^-1 Z*D, and by Sylvester's identity
    log det(1 - w(D - ZB)) = log det(1 - wD) + log det F(w), where
    F(w) = I_r + B(1 - wD)^-1 Zw = I_r + sum_b N_b w^b; the w-derivative
    gives Tr (D - QD)^p = Tr D^p - sum_(b <= p) b Tr(R_(p-b) N_b), the R_q
    the coefficients of F^-1: R_0 = I, R_q = -sum_(b <= q) N_b R_(q-b).
    One r-by-n by n-by-(P + 1)r product for G and every Z*D^aZ, a <= P, one
    r-by-r inverse, and r-by-r products: N_b for b < P and (P - 1)(P - 2)/2
    for the R_q; Tr N_p is read off G^-1 and Z*D^pZ."""
    n, r = z.shape
    top = max(traces)
    scaled = z[:, None, :] * (eigs[:, None] ** np.arange(top + 1))[:, :, None]
    blocks = (z.conj().T @ scaled.reshape(n, (top + 1) * r)).reshape(
        r, top + 1, r)
    del scaled
    ginv = np.linalg.inv(blocks[:, 0])
    nb = [None] + [ginv @ blocks[:, b] for b in range(1, top)]
    res = [None]                        # R_q, with R_0 = I left implicit
    for q in range(1, top):
        res.append(-nb[q] - sum(nb[b] @ res[q - b] for b in range(1, q)))
    for p in traces:
        traces[p] -= p * np.einsum("ij,ji->", ginv, blocks[:, p]) + sum(
            b * np.einsum("ij,ji->", res[p - b], nb[b]) for b in range(1, p))


def map_replicas(f, replicas: int, seed: int, threads: int = 1) -> np.ndarray:
    """Array whose row r is f applied to replica r's stream, in replica
    order.  With threads > 1 the rows are computed on a thread pool; each row
    depends on its own stream only, so the result is the same for any thread
    count."""
    def row(r: int):
        return f(replica_rng(seed, r))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(row, range(replicas))))
    return np.array([row(r) for r in range(replicas)])


@dataclass(frozen=True)
class TraceTable:
    """Per-replica normalized traces tr X^p = (1/m) Tr X^p of an m-by-m X,
    from `corner_traces` or, for sums, `power_traces`."""

    powers: tuple[int, ...]
    values: np.ndarray            # shape (replicas, len(powers))

    def column(self, p: int) -> np.ndarray:
        return self.values[:, self.powers.index(p)]


def trace_statistics(spec, powers: Sequence[int], replicas: int, seed: int,
                     threads: int = 1, m: int | None = None) -> TraceTable:
    """Monte-Carlo table of normalized traces of X, or of its leading m-by-m
    corner, by `corner_traces` (for m = n the spectrum's, exact after the
    atom draw); `spec` is an EnsembleSpec or a pair of them (summed
    independently by `sum_independent`, and then without a corner)."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    powers = tuple(powers)
    if not powers or min(powers) < 1:
        raise ValueError(f"trace powers must be at least 1; got {powers}")
    if isinstance(spec, EnsembleSpec):
        def traces(rng):
            return corner_traces(spec, rng, spec.n if m is None else m, powers)
    else:
        if m is not None:
            raise ValueError("corners of sums are not sampled")

        def traces(rng):
            # as in corner_traces, an overflow is refused below, unwarned
            with np.errstate(over="ignore", invalid="ignore"):
                return power_traces(sum_independent(*spec, rng), powers)

    values = map_replicas(traces, replicas, seed, threads)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, i = bad[0]
        raise ValueError(f"tr X^{powers[i]} of replica {r} is not finite "
                         f"({values[r, i]})")
    return TraceTable(powers=powers, values=values)


# -- Weingarten oracle ---------------------------------------------------------

@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """chi^lam(mu), the irreducible character of S_k at cycle type mu, by
    Murnaghan-Nakayama: sum (-1)^height chi^(lam less hook)(mu[1:]) over the
    rim hooks of length r = mu[0].  On the beta-set {lam_i + len(lam) - 1 - i}
    a hook moves a bead b to a free b - r >= 0; its height is the beads passed.

    >>> [_character((2, 1), mu) for mu in integer_partitions(3)]
    [-1, 0, 2]
    """
    if not mu:
        return 1
    r, top = mu[0], len(lam) - 1
    beta = {x + top - i for i, x in enumerate(lam)}
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            left = sorted(beta - {b} | {b - r}, reverse=True)
            total += (-1) ** sum(b - r < c < b for c in beta) * _character(
                tuple(x - top + i for i, x in enumerate(left)), mu[1:])
    return total


@lru_cache(maxsize=64)
def _weingarten_coefficients(k: int, n: int) -> tuple[Fraction, ...]:
    """1 / (n)_lam for lam in `integer_partitions(k)` order, (n)_lam the
    content product: Wg(., n) = (1/k!) sum_lam chi^lam(1) chi^lam / (n)_lam,
    as chi^lam(1) / (k! s_lam(1^n)) = 1 / (n)_lam, both sides over lam's
    hook product.  As n >= k, every (n)_lam is positive."""
    if not 1 <= k <= WEINGARTEN_MAX_ORDER:
        raise GuardError(
            f"Weingarten table is limited to 1 <= k <= {WEINGARTEN_MAX_ORDER}")
    if n < k:
        raise GuardError(
            f"Gram form is singular for n < k (n = {n}, k = {k}); refusing")
    return tuple(Fraction(1, _content_product(n, lam))
                 for lam in integer_partitions(k))


@lru_cache(maxsize=64)
def weingarten_table(k: int, n: int) -> dict:
    """Exact Weingarten function of S_k by cycle type, {mu: Wg(mu, n)}, from
    the characters: Wg(mu, n) = (1/k!) sum_lam chi^lam(1) chi^lam(mu) / (n)_lam.
    Wg(sigma, n) is table[Permutation(sigma).cycle_type()].

    Defining identity: sum_tau Wg(sigma tau^-1) n^(#tau) = [sigma = id], the
    inverse of the Gram form G(sigma, tau) = n^(#(sigma tau^-1)).
    Refused for n < k, where the Gram form is singular.
    """
    terms = list(zip(integer_partitions(k), _weingarten_coefficients(k, n)))
    return {mu: sum(c * _character(lam, (1,) * k) * _character(lam, mu)
                    for lam, c in terms) / math.factorial(k)
            for mu in integer_partitions(k)}


@lru_cache(maxsize=4096)
def _pattern_weights(pattern: tuple[int, ...], n: int) -> tuple[Fraction, ...]:
    """Per lam in `integer_partitions(k)` order, 1 / (n)_lam times the sum
    of chi^lam(sigma) over the sigma with rows[m] = cols[sigma(m)], for the
    pattern rows + cols; empty when no sigma matches.  Guards k and n."""
    k = len(pattern) // 2
    coefficients = _weingarten_coefficients(k, n)
    types = [Permutation(s).cycle_type() for s in itertools.permutations(range(k))
             if all(pattern[m] == pattern[k + s[m]] for m in range(k))]
    return tuple(c * sum(_character(lam, t) for t in types) for lam, c in
                 zip(integer_partitions(k), coefficients)) if types else ()


@lru_cache(maxsize=256)
def _schur_values(eigs: tuple, k: int) -> tuple:
    """s_lam(l) = sum_mu chi^lam(mu) p_mu(l) / z_mu per lam in
    `integer_partitions(k)` order; z_mu = prod c^m m! over the parts c, m each."""
    power = [sum(x ** c for x in eigs) for c in range(k + 1)]
    terms = [(mu, math.prod(power[c] for c in mu),
              math.prod(c ** m * math.factorial(m) for c, m in Counter(mu).items()))
             for mu in integer_partitions(k)]
    return tuple(sum(Fraction(_character(lam, mu), z) * p for mu, p, z in terms)
                 for lam in integer_partitions(k))


def exact_entry_moment(spec: EnsembleSpec, pairs: Sequence[tuple[int, int]]):
    """Exact E[X_{i1 j1} ... X_{ik jk}] for X = eps * U diag(l) U*.

    The Weingarten sum of Wg(sigma tau^-1) p_tau(l) over tau and the sigma
    with rows[m] = cols[sigma(m)] convolves class functions, so it is
    eps^k sum_lam w_lam s_lam(l) on characters, w_lam = sum_sigma
    chi^lam(sigma) / (n)_lam.  The w_lam are cached by the
    pattern of the pairs (rows, then columns, relabelled by first
    appearance); a mixture is averaged atom by atom.  Exact (Fraction)
    whenever the eigenvalues and eps are rational.
    """
    k = len(pairs)
    if k == 0:
        return Fraction(1)
    n = spec.n
    label: dict = {}
    pattern = tuple(label.setdefault(x, len(label))
                    for x in [i for i, _ in pairs] + [j for _, j in pairs])
    weights = _pattern_weights(pattern, n)                 # guards k and n
    if any(not 0 <= v < n for pair in pairs for v in pair):
        raise ValueError("entry indices out of range")
    if not weights:
        return Fraction(0)
    total = sum(prob * sum(w * s for w, s in zip(weights, _schur_values(eigs, k)))
                for eigs, prob in spec.atoms)
    return total * spec.eps ** k
