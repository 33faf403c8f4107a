"""Unitarily invariant random matrices with prescribed spectra.

Monte-Carlo sampling (Haar unitaries via phase-fixed QR, conjugated spectra,
sums, corners, eigenvalues, per-replica trace tables) runs in 64-bit complex
floating point; the Weingarten oracle for exact Haar integrals of products of
matrix entries runs entirely in rational arithmetic.  The two regimes never
mix.

Replica r of a run with master seed s draws from the counter-based Philox
stream keyed by (s, r), so results are reproducible and independent of any
parallel schedule.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import cumulants
from .errors import GuardError
from .partperm import Permutation, contiguous_cycles, integer_partitions

WEINGARTEN_MAX_ORDER = 5
EIGENVALUE_RESIDUAL_TOL = 1e-10


def replica_rng(seed: int, replica: int = 0) -> np.random.Generator:
    """Counter-based stream for one replica; streams are independent."""
    key = np.array([seed % 2 ** 64, replica % 2 ** 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_unitary(n: int, rng: np.random.Generator,
                 m: int | None = None) -> np.ndarray:
    """Exactly Haar-distributed unitary: QR of a complex Ginibre matrix with
    the diagonal of R normalized to positive reals.  With m < n, only its
    first m columns, an n-by-m isometry, from the thin QR of an n-by-m
    Ginibre matrix."""
    m = n if m is None else m
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n; got n = {n} and m = {m}")
    z = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
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

    def spec_hash(self) -> str:
        text = repr((self.n, self.atoms, str(self.eps)))
        return hashlib.sha1(text.encode()).hexdigest()[:12]

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


def sample_matrix(spec: EnsembleSpec, rng, m: int | None = None) -> np.ndarray:
    """Leading m-by-m block (default: all) of X = eps * U diag(l) U*, for a
    drawn spectrum atom l and a fresh Haar unitary U.  A corner m < n is
    W* diag(eps * l) W for an n-by-m Haar isometry W, which has the same law
    and costs no n-by-n QR."""
    m = spec.n if m is None else m
    eigs = float(spec.eps) * _draw_atom(spec, rng)
    u = haar_unitary(spec.n, rng, m)
    if m == spec.n:
        x = (u * eigs) @ u.conj().T
    else:
        x = (u.conj().T * eigs) @ u
    return (x + x.conj().T) / 2       # remove floating-point drift


def sum_independent(spec_a: EnsembleSpec, spec_b: EnsembleSpec,
                    rng) -> np.ndarray:
    """Sum of independent draws from the two ensembles."""
    if spec_a.n != spec_b.n:
        raise ValueError("summands must have the same size")
    return sample_matrix(spec_a, rng) + sample_matrix(spec_b, rng)


def eigenvalues(x) -> np.ndarray:
    """Sorted eigenvalues; the residual ||Xv - lambda v|| is checked against
    the documented tolerance."""
    mat = np.asarray(x)
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed on shape {mat.shape}: {exc}")
    scale = max(1.0, float(np.linalg.norm(mat)))
    residual = np.linalg.norm(mat @ vecs - vecs * vals, axis=0).max()
    if residual > EIGENVALUE_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds "
            f"{EIGENVALUE_RESIDUAL_TOL:.1e} * {scale:.3e}")
    return vals


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
    """Per-replica normalized traces tr X^p = (1/n) sum of eigenvalue powers."""

    n: int
    eps: float
    powers: tuple[int, ...]
    values: np.ndarray            # shape (replicas, len(powers))
    seed: int
    label: str

    @property
    def replicas(self) -> int:
        return self.values.shape[0]

    def column(self, p: int) -> np.ndarray:
        return self.values[:, self.powers.index(p)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "eps", "seed", "spec"])
            writer.writerow([self.n, repr(self.eps), self.seed, self.label])
            writer.writerow(["replica", "p", "value"])
            for r in range(self.replicas):
                for i, p in enumerate(self.powers):
                    writer.writerow([r, p, repr(float(self.values[r, i]))])

    def estimate_cumulant(self, pattern: Sequence[int], n_boot: int = 200,
                          boot_seed: int = 0) -> cumulants.CumulantEstimate:
        """Joint cumulant of (tr X^{p}) for the given pattern of powers."""
        cols = [self.powers.index(p) for p in pattern]
        return cumulants.estimate_cumulants(
            self.values, cols, n_boot=n_boot,
            rng=np.random.default_rng(boot_seed))


def trace_statistics(spec, powers: Sequence[int], replicas: int, seed: int,
                     threads: int = 1, m: int | None = None) -> TraceTable:
    """Monte-Carlo table of normalized traces of X, or of its leading m-by-m
    corner; `spec` is an EnsembleSpec or a pair of them (summed
    independently, and then without a corner)."""
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    powers = tuple(powers)
    if any(p < 1 for p in powers):
        raise ValueError(f"trace powers must be at least 1; got {powers}")
    if isinstance(spec, EnsembleSpec):
        first, label = spec, spec.spec_hash()

        def draw(rng):
            return sample_matrix(spec, rng, m)
    else:
        if m is not None:
            raise ValueError("corners of sums are not sampled")
        first, label = spec[0], "+".join(s.spec_hash() for s in spec)

        def draw(rng):
            return sum_independent(*spec, rng)

    def traces(rng) -> np.ndarray:
        eigs = eigenvalues(draw(rng))
        return np.array([np.mean(eigs ** p) for p in powers])

    return TraceTable(n=first.n if m is None else m, eps=float(first.eps),
                      powers=powers,
                      values=map_replicas(traces, replicas, seed, threads),
                      seed=seed, label=label)


# -- Weingarten oracle ---------------------------------------------------------

@dataclass(frozen=True)
class WeingartenTable:
    """Wg(sigma, n) per conjugacy class of S_k: the inverse of the Gram form
    G(sigma, tau) = n^(#(sigma tau^-1)) on the group algebra."""

    order: int
    n: int
    values: dict

    def of_type(self, cycle_type: tuple[int, ...]) -> Fraction:
        return self.values[tuple(cycle_type)]

    def of_permutation(self, images: tuple[int, ...]) -> Fraction:
        return self.values[Permutation(tuple(images)).cycle_type()]


def _solve_rational(a, b):
    # Gaussian elimination over Fraction
    m = len(a)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [aug[r][m] for r in range(m)]


@lru_cache(maxsize=None)
def _symmetric_group(k: int):
    """S_k in itertools order: the permutations, their cycle types, and the
    index table quotient[a][b] of perms[a] * perms[b]^-1."""
    perms = tuple(Permutation(p) for p in itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    inverses = [p.inverse() for p in perms]
    quotient = tuple(tuple(index[a * b] for b in inverses) for a in perms)
    return perms, tuple(p.cycle_type() for p in perms), quotient


@lru_cache(maxsize=None)
def weingarten_table(k: int, n: int) -> WeingartenTable:
    """Exact Weingarten function by a linear solve on class functions.

    Defining identity: sum_tau Wg(sigma tau^-1) n^(#tau) = [sigma = id].
    Refused for n < k, where the Gram form is singular.
    """
    if not 1 <= k <= WEINGARTEN_MAX_ORDER:
        raise GuardError(
            f"Weingarten table is limited to 1 <= k <= {WEINGARTEN_MAX_ORDER}")
    if n < k:
        raise GuardError(
            f"Gram form is singular for n < k (n = {n}, k = {k}); refusing")
    classes = integer_partitions(k)
    index = {c: i for i, c in enumerate(classes)}
    perms, types, quotient = _symmetric_group(k)
    a = [[Fraction(0)] * len(classes) for _ in classes]
    for ci, ctype in enumerate(classes):
        row = quotient[perms.index(contiguous_cycles(*ctype))]
        for t, ttype in enumerate(types):
            a[ci][index[types[row[t]]]] += Fraction(n) ** len(ttype)
    rhs = [Fraction(1) if ctype == (1,) * k else Fraction(0)
           for ctype in classes]
    sol = _solve_rational(a, rhs)
    return WeingartenTable(order=k, n=n,
                           values={c: sol[i] for i, c in enumerate(classes)})


def exact_entry_moment(spec: EnsembleSpec, pairs: Sequence[tuple[int, int]]):
    """Exact E[X_{i1 j1} ... X_{ik jk}] for X = eps * U diag(l) U*.

    Expands the Haar integral through the Weingarten formula; a spectrum
    mixture is averaged atom by atom.  Exact (Fraction) whenever the
    eigenvalues and eps are rational.
    """
    k = len(pairs)
    if k == 0:
        return Fraction(1)
    n = spec.n
    wg = weingarten_table(k, n)           # guards k and n
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    if any(not 0 <= v < n for v in rows + cols):
        raise ValueError("entry indices out of range")
    perms, types, quotient = _symmetric_group(k)
    matches = [a for a, s in enumerate(perms)
               if all(rows[m] == cols[s.images[m]] for m in range(k))]
    if not matches:
        return Fraction(0)
    wg_of = [wg.values[t] for t in types]
    tau_weight = {}
    for tau in range(len(perms)):
        w = Fraction(0)
        for sigma in matches:
            w += wg_of[quotient[sigma][tau]]
        if w:
            tau_weight[tau] = w
    total = 0
    for atom_index, (eigs, prob) in enumerate(spec.atoms):
        psums = {}
        atom_total = 0
        for tau, w in tau_weight.items():
            term = w
            for c in types[tau]:
                if c not in psums:
                    psums[c] = spec.atom_power_sum(atom_index, c)
                term = term * psums[c]
            atom_total = atom_total + term
        total = total + prob * atom_total
    return total * spec.eps ** k
