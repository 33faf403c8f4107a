"""First-order free probability in moment coordinates.

Moment sequences are plain sequences (m_1, ..., m_K) with m_0 = 1 implicit;
free cumulant sequences are shaped likewise.  Everything is truncated at a
declared order K, so no analytic R-transform machinery is needed: the
transforms solve the moment-cumulant recursion order by order, free additive
convolution adds free cumulants orderwise, and compression by a free
projector of trace alpha rescales kappa_m by alpha^(m-1).
"""

from __future__ import annotations

from typing import Sequence


def _power_coefficients(m: list, powers: list) -> list:
    """[z^(n-s)] M(z)^s for s = 1..n, where M(z) = sum_i m[i] z^i.

    m = [1, m_1, ..., m_(n-1)]: the coefficients read no moment of order n.
    powers[s] holds the coefficients of M(z)^s found by the previous calls
    (start with [[1]]); each call extends them by one degree, so a whole
    transform to order K costs O(K^3) operations.
    """
    n = len(m)
    powers[0].append(0)
    for s in range(1, n):
        prev, j = powers[s - 1], n - s
        powers[s].append(sum(m[i] * prev[j - i] for i in range(j + 1)))
    powers.append([1])
    return [powers[s][n - s] for s in range(1, n + 1)]


def free_cumulants_to_moments(kappa: Sequence) -> list:
    """m_n = sum_s kappa_s [z^(n-s)] M(z)^s (Nica-Speicher), order by order."""
    m, powers = [1], [[1]]
    for _ in kappa:
        coeffs = _power_coefficients(m, powers)
        m.append(sum(kappa[s] * c for s, c in enumerate(coeffs)))
    return m[1:]


def moments_to_free_cumulants(moments: Sequence) -> list:
    """Inverse of free_cumulants_to_moments: the s = n term of the moment
    recursion is kappa_n itself, so each order solves for one cumulant."""
    m, powers, kappa = [1], [[1]], []
    for n in range(1, len(moments) + 1):
        coeffs = _power_coefficients(m, powers)
        kappa.append(moments[n - 1]
                     - sum(kappa[s] * c for s, c in enumerate(coeffs[:-1])))
        m.append(moments[n - 1])
    return kappa


def free_convolve(a: Sequence, b: Sequence, order: int | None = None) -> list:
    """Moments of the free additive convolution, to the requested order."""
    top = min(len(a), len(b))
    if order is None:
        order = top
    if not 1 <= order <= top:
        raise ValueError(f"the requested order {order} is outside [1, {top}]")
    ka = moments_to_free_cumulants(list(a)[:order])
    kb = moments_to_free_cumulants(list(b)[:order])
    return free_cumulants_to_moments([x + y for x, y in zip(ka, kb)])


def free_compress(moments: Sequence, alpha, order: int | None = None) -> list:
    """Moments after compression by a free projector of trace alpha:
    kappa_m -> alpha^(m-1) kappa_m in free-cumulant coordinates."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if order is None:
        order = len(moments)
    if not 1 <= order <= len(moments):
        raise ValueError(f"the requested order {order} is outside [1, {len(moments)}]")
    kappa = moments_to_free_cumulants(list(moments)[:order])
    scaled = [alpha ** m * k for m, k in enumerate(kappa)]
    return free_cumulants_to_moments(scaled)


def atomic_moments(atoms: Sequence[tuple], order: int) -> list:
    """Moments of a finitely supported measure given as (location, weight)."""
    return [sum(w * x ** n for x, w in atoms) for n in range(1, order + 1)]


def semicircle_moments(variance, order: int) -> list:
    """Moments of the centered semicircle law (kappa_2 = variance)."""
    kappa = ([0, variance] + [0] * (order - 2)) if order >= 2 else [0] * order
    return free_cumulants_to_moments(kappa[:order])

