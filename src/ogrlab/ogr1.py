"""Cells, closures, parametrization and canonical form of the line case.

Lines isotropic for the alternating form with nonnegative coordinates form
a curvy product of two simplices: a cell is a choice of nonempty odd support
and nonempty even support.  The cell parametrization uses the rational
tanh/sech substitution so the defining quadric holds identically; the
canonical-form checks are the only floating-point code in this module.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PoleError
from .exact_core import binom
from .forms_points import PluckerVector
from .weyl import ogr_dimension


@dataclass(frozen=True)
class Cell1:
    """Cell with odd support A and even support B, both nonempty."""

    A: tuple[int, ...]
    B: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.A) + len(self.B) - 2

    def to_json(self) -> dict:
        return {"A": list(self.A), "B": list(self.B), "dim": self.dimension}


def _nonempty_subsets(ground):
    out = []
    for mask in range(1, 1 << len(ground)):
        out.append(tuple(g for i, g in enumerate(ground) if mask >> i & 1))
    out.sort(key=lambda s: (len(s), s))
    return out


def cells(n: int) -> list[Cell1]:
    """All (2^p - 1)(2^q - 1) cells, p odd coordinates and q even ones."""
    if n < 2:
        raise InputError("need n >= 2")
    if n > 12:
        raise InputError("cells are listed at desk scale: n <= 12 (3969 of them)")
    odds = tuple(range(1, n + 1, 2))
    evens = tuple(range(2, n + 1, 2))
    return [
        Cell1(A, B)
        for A in _nonempty_subsets(odds)
        for B in _nonempty_subsets(evens)
    ]


def make_cell(A, B, n: int) -> Cell1:
    A, B = tuple(sorted(A)), tuple(sorted(B))
    if not A or not B:
        raise InputError("both supports must be nonempty")
    if any(a % 2 == 0 or not 1 <= a <= n for a in A):
        raise InputError("A must consist of odd coordinates in [1, n]")
    if any(b % 2 == 1 or not 1 <= b <= n for b in B):
        raise InputError("B must consist of even coordinates in [1, n]")
    return Cell1(A, B)


def cycle_of(cell: Cell1, n: int) -> tuple[int, ...]:
    """The unique single-excedance cycle on the support: each support element
    maps to the next smaller one, the minimum to the maximum."""
    support = sorted(cell.A + cell.B)
    perm = list(range(1, n + 1))
    for i, s in enumerate(support):
        perm[s - 1] = support[i - 1] if i > 0 else support[-1]
    return tuple(perm)


def cell_leq(c: Cell1, d: Cell1) -> bool:
    return set(c.A) <= set(d.A) and set(c.B) <= set(d.B)


def closure_cells(cell: Cell1) -> list[Cell1]:
    """All cells in the closure: nonempty subsets of both supports."""
    return [
        Cell1(A, B)
        for A in _nonempty_subsets(cell.A)
        for B in _nonempty_subsets(cell.B)
    ]


def face_vector(n: int) -> list[int]:
    """Cell counts by dimension 0 .. n-2."""
    p = (n + 1) // 2
    q = n // 2
    top = p + q - 2
    out = [0] * (top + 1)
    for c in cells(n):
        out[c.dimension] += 1
    return out


def simplex_product_f_vector(p: int, q: int) -> list[int]:
    """Face counts of a product of simplices with p and q vertices:
    an (i, j)-face pair contributes to dimension i + j."""
    out = [0] * (p + q - 1)
    for i in range(p):
        for j in range(q):
            out[i + j] += binom(p, i + 1) * binom(q, j + 1)
    return out


def hasse_edges(n: int) -> list[tuple[Cell1, Cell1]]:
    """Covering pairs (c, d) with c one dimension below d."""
    cs = cells(n)
    out = []
    for d in cs:
        for c in closure_cells(d):
            if c.dimension == d.dimension - 1:
                out.append((c, d))
    return out


# ---------------------------------------------------------------------------
# Exact parametrization
# ---------------------------------------------------------------------------

def _tanh_like(u: Fraction) -> Fraction:
    return (u * u - 1) / (u * u + 1)


def _sech_like(u: Fraction) -> Fraction:
    return 2 * u / (u * u + 1)


def _sphere_coords(params, size):
    """Positive coordinates on the unit sphere in `size` variables from
    size-1 parameters, each > 1; the squared sum is exactly 1."""
    if len(params) != size - 1:
        raise InputError(f"need {size - 1} parameters, got {len(params)}")
    ps = [Fraction(u) for u in params]
    if any(u <= 1 for u in ps):
        raise InputError("parameters must be rationals > 1")
    coords = []
    running = Fraction(1)
    for u in ps:
        coords.append(_tanh_like(u) * running)
        running *= _sech_like(u)
    coords.append(running)
    return coords


def parametrize_cell(cell: Cell1, n: int, u_params, v_params) -> PluckerVector:
    """Exact point of the open cell: odd-support coordinates on one unit
    sphere, even-support coordinates on another, zeros elsewhere."""
    xa = _sphere_coords(u_params, len(cell.A))
    xb = _sphere_coords(v_params, len(cell.B))
    coords = {}
    for a, v in zip(cell.A, xa):
        coords[(a,)] = v
    for b, v in zip(cell.B, xb):
        coords[(b,)] = v
    return PluckerVector(1, n, coords)


def quadric_residual(p: PluckerVector) -> Fraction:
    """Alternating-form value: sum over odd coordinates of x^2 minus sum
    over even coordinates; zero exactly on the quadric."""
    total = Fraction(0)
    for i in range(1, p.n + 1):
        v = p.get((i,))
        total += v * v * ((-1) ** (i - 1))
    return total


# ---------------------------------------------------------------------------
# Canonical form numerics (pluses-first chart)
# ---------------------------------------------------------------------------

def canonical_coeff(us, p: int):
    """Coefficient of the canonical form in the chart x_1 = 1.

    us maps j to the chart coordinate u_j = x_j / x_1 for 2 <= j <= n, the
    p plus-signature coordinates first; the coefficient is
    (1 + u_2^2 + ... + u_p^2) / (u_2 ... u_{n-1} u_n^2).  Exact on
    Fractions; on floats the operations run in this fixed order.  The
    denominator vanishes on the chart divisors, so a zero coordinate raises
    PoleError.
    """
    if any(u == 0 for u in us.values()):
        raise PoleError("canonical coefficient has a pole at zero coordinates")
    n = max(us)
    num = 1 + sum(us[j] ** 2 for j in range(2, p + 1))
    return num / (_prod(us, range(2, n)) * us[n] ** 2)


def residue_check(n: int, i: int, seed: int = 0, trials: int = 20,
                  rel_tol: float = 1e-6, approach: float = 1e-4) -> dict:
    """Numeric residue of the canonical form at the divisor u_i = 0.

    Approaches the divisor along on-quadric points and compares the scalar
    residue with the boundary coefficient displayed by the recursive
    structure: u_i * coeff for simple poles, and the u_2-corrected double
    pole at the last coordinate.  Wedge-orientation signs are not part of
    the scalar comparison.
    """
    p = (n + 1) // 2
    if not 2 <= i <= n:
        raise InputError("divisor index must be in [2, n]")
    if i == n and (p < 2 or p + 1 >= n):
        raise InputError(
            "double-pole check needs at least two plus signs and a minus "
            "coordinate before u_n")
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        us = {}
        if i == n:
            for j in range(2, p + 1):
                us[j] = rng.uniform(0.1, 0.4)
            for j in range(p + 1, n):
                us[j] = rng.uniform(1.5, 2.5)
            t = approach * rng.uniform(0.5, 1.5)

            def solve_u2(un):
                rhs = sum(us[j] ** 2 for j in range(p + 1, n)) + un ** 2 - 1.0
                rhs -= sum(us[j] ** 2 for j in range(3, p + 1))
                return math.sqrt(rhs)

            us[n] = t
            us[2] = solve_u2(t)
            observed = us[n] ** 2 * canonical_coeff(us, p) / us[2]
            us[n] = 0.0
            us[2] = solve_u2(0.0)
            target = (1 + sum(us[j] ** 2 for j in range(2, p + 1))) / (
                us[2] ** 2 * _prod(us, range(3, n))
            )
        else:
            for j in range(2, p + 1):
                us[j] = rng.uniform(1.0, 2.0)
            for j in range(p + 1, n):
                us[j] = rng.uniform(0.1, 0.5)
            t = approach * rng.uniform(0.5, 1.5)
            us[i] = t

            def solve_un():
                rhs = 1.0 + sum(us[j] ** 2 for j in range(2, p + 1))
                rhs -= sum(us[j] ** 2 for j in range(p + 1, n))
                return math.sqrt(rhs)

            us[n] = solve_un()
            observed = t * canonical_coeff(us, p)
            us[i] = 0.0
            us[n] = solve_un()
            target = (1 + sum(us[j] ** 2 for j in range(2, p + 1))) / (
                us[n] ** 2 * _prod(us, (j for j in range(2, n) if j != i))
            )
        err = abs(observed - target) / abs(target)
        worst = max(worst, err)
    return {"n": n, "divisor": i, "max_rel_err": worst, "ok": worst < rel_tol}


def _prod(us, idxs):
    out = 1
    for j in idxs:
        out *= us[j]
    return out


def interior_points(n: int, seed: int, count: int):
    """Random on-quadric chart points (pluses first), as dicts u_2..u_n."""
    p = (n + 1) // 2
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        us = {j: rng.uniform(0.8, 1.8) for j in range(2, p + 1)}
        for j in range(p + 1, n):
            us[j] = rng.uniform(0.2, 0.8)
        rhs = 1.0 + sum(us[j] ** 2 for j in range(2, p + 1))
        rhs -= sum(us[j] ** 2 for j in range(p + 1, n))
        if rhs <= 1e-9:
            continue
        us[n] = math.sqrt(rhs)
        out.append(us)
    return out


def top_dimension(n: int) -> int:
    """Top cell dimension; agrees with the variety dimension for k = 1."""
    top = max(c.dimension for c in cells(n))
    if top != n - 2 or top != ogr_dimension(1, n):
        raise InputError("unexpected top dimension")
    return top
