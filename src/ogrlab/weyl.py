"""Dimension and degree of the orthogonal Grassmannian via root systems.

The coordinate ring of the space of isotropic k-planes in n-space is graded
by irreducible SO(n)-representations; the dimension formula over the
positive roots gives the Hilbert function exactly, and its leading behaviour
gives the projective degree.  Everything here is evaluated in exact rational
arithmetic and asserted integral.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import EmptinessError, InputError, InternalInvariantError
from .exact_core import binom
from .limits import DEGREE, require


@lru_cache(maxsize=None)
def _root_data(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """2 rho (2 rho_i = n - 2 - 2i) and the positive roots e_i + s e_j of SO(n), rank
    m = n // 2, as (i, j, s): e_i - e_j, e_i + e_j for i < j, then e_i as (i, i, 0)
    for odd n."""
    if n < 2:
        raise InputError("need n >= 2")
    m = n // 2
    roots = [(i, j, s) for i in range(m) for j in range(i + 1, m) for s in (-1, 1)]
    roots += [(i, i, 0) for i in range(m)] if n % 2 else []
    return tuple(n - 2 - 2 * i for i in range(m)), tuple(roots)


def _slopes(k: int, n: int) -> list[Fraction]:
    """Ratios <lambda, a>/<rho, a> over positive roots a with nonzero pairing.

    lambda = e_1 + ... + e_k.  Each ratio c contributes a linear factor
    (1 + c*l) to the graded dimension.
    """
    two_rho, roots = _root_data(n)
    if k < 0:
        raise InputError(f"k={k} is negative")
    if k > len(two_rho):
        raise InputError(f"k={k} exceeds the rank {len(two_rho)} of SO({n})")
    out = []
    for i, j, s in roots:
        lam = (i < k) + s * (j < k)
        if lam:
            out.append(Fraction(2 * lam, two_rho[i] + s * two_rho[j]))
    return out


def weyl_dim(k: int, n: int, ell: int) -> int:
    """Dimension of the degree-ell graded piece: product of (1 + ell*c)."""
    if n < 2 * k:
        raise EmptinessError(f"no isotropic {k}-planes in {n}-space")
    if ell < 0:
        raise InputError("degree must be nonnegative")
    val = Fraction(1)
    for c in _slopes(k, n):
        val *= 1 + ell * c
    if val.denominator != 1:
        raise InternalInvariantError(f"non-integral dimension {val} at ({k},{n},{ell})")
    return int(val)


def ogr_dimension(k: int, n: int) -> int:
    """k(n-k) - k(k+1)/2, the dimension of the isotropic Grassmannian."""
    if n < 2 * k:
        raise EmptinessError(f"no isotropic {k}-planes in {n}-space")
    return k * (n - k) - k * (k + 1) // 2


def hilbert_polynomial(k: int, n: int) -> list[Fraction]:
    """Coefficients [c0, ..., cD] of the Hilbert polynomial in the grading.

    Expands the product of the linear factors from the dimension formula;
    the degree D equals ogr_dimension(k, n).
    """
    if n <= 2 * k:
        raise InputError("Hilbert polynomial computed only for n > 2k")
    coeffs = [Fraction(1)]
    for c in _slopes(k, n):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a
            nxt[i + 1] += a * c
        coeffs = nxt
    if len(coeffs) - 1 != ogr_dimension(k, n):
        raise InternalInvariantError("Hilbert polynomial degree mismatch")
    return coeffs


def ogr_degree(k: int, n: int) -> int:
    """Projective degree in the Plucker embedding, by the closed product form.

    The even and odd cases are dispatched separately; each product is D!
    times the product of the nonzero factor slopes of the graded dimension
    formula, so the result always agrees with D! times the leading Hilbert
    coefficient.
    """
    if n <= 2 * k:
        raise InputError("degree defined here only for n > 2k")
    m = n // 2
    D = ogr_dimension(k, n)
    val = Fraction(math.factorial(D))
    if n % 2 == 0:
        for i in range(1, k + 1):
            for j in range(k + 1, m + 1):
                val *= Fraction(1, (2 * m - i - j) * (j - i))
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                val *= Fraction(2, 2 * m - i - j)
    else:
        for i in range(1, k + 1):
            val *= Fraction(2, 2 * m - 2 * i + 1)
        for i in range(1, k + 1):
            for j in range(k + 1, m + 1):
                val *= Fraction(1, (2 * m - i - j + 1) * (j - i))
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                val *= Fraction(2, 2 * m - i - j + 1)
    if val.denominator != 1 or val <= 0:
        raise InternalInvariantError(f"degree formula gave {val} at ({k},{n})")
    return int(val)


def degree_report(k: int, n: int) -> dict:
    """Machine-readable dimension/degree/Hilbert summary used by the CLI."""
    require(DEGREE, k, n)
    hp = hilbert_polynomial(k, n)
    return {
        "k": k,
        "n": n,
        "dim": ogr_dimension(k, n),
        "degree": ogr_degree(k, n),
        "hilbert": [str(c) for c in hp],
    }


def standard_monomial_prediction(k: int, n: int) -> int:
    """Degree-2 quotient dimension as the two-binomial difference (k >= 2)."""
    if k < 2 or n < 2 * k:
        raise InputError("need n >= 2k and k >= 2")
    total = Fraction(binom(n + 1, k + 1) * binom(n, k - 1), k)
    total -= Fraction(binom(n + 1, k) * binom(n, k - 2), k - 1)
    if total.denominator != 1:
        raise InternalInvariantError("binomial count is not integral")
    return int(total)
