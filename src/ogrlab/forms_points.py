"""Quadratic forms, Plucker vectors, and exact sampling of isotropic planes.

Sampling works in a hyperbolic chart: the free entries of [Id | X] determine
the remaining corner entries linearly, after which an exact change of basis
carries the hyperbolic form to the requested one.  Points produced this way
satisfy every defining quadric with zero residual, which the generator
modules rely on for vanishing tests.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import (
    DegenerateInputError,
    EmptinessError,
    InputError,
    NotAPointError,
    SizeMismatchError,
    UnsupportedFormError,
)
from .exact_core import (
    GaussianRational,
    I_UNIT,
    Mat,
    clear_denominators,
    cleared_minors,
    cleared_value,
    colex_ranks,
    fraction_str,
    ksubsets,
    rand_matrix,
    rand_rational,
    signed_extensions,
    subset_complement,
)


@dataclass(frozen=True)
class QuadraticForm:
    """Nondegenerate symmetric bilinear form: a +/-1 diagonal or the
    antidiagonal (split hyperbolic) matrix."""

    n: int
    diag: tuple[int, ...] | None  # None means antidiagonal of ones
    label: str

    @classmethod
    def standard(cls, n: int) -> "QuadraticForm":
        return cls(n, (1,) * n, "standard")

    @classmethod
    def alternating(cls, n: int) -> "QuadraticForm":
        return cls(n, tuple((-1) ** i for i in range(n)), "alternating")

    @classmethod
    def signed_subset(cls, flipped, n: int) -> "QuadraticForm":
        s = set(flipped)
        if not s <= set(range(1, n + 1)):
            raise InputError("sign subset must lie in [1, n]")
        return cls(n, tuple(-1 if i in s else 1 for i in range(1, n + 1)),
                   f"signed{sorted(s)}")

    @classmethod
    def hyperbolic(cls, n: int) -> "QuadraticForm":
        return cls(n, None, "hyperbolic")

    @classmethod
    def from_diagonal(cls, diag) -> "QuadraticForm":
        d = tuple(diag)
        if any(x not in (1, -1) for x in d):
            raise InputError("diagonal entries must be +1 or -1")
        return cls(len(d), d, "diagonal")

    def entries(self) -> list[tuple[int, int, int]]:
        """The nonzero entries (l, m, Omega_lm) of the matrix, 1-based, row
        by row: the diagonal, or the antidiagonal ones."""
        if self.diag is None:
            return [(l, self.n + 1 - l, 1) for l in range(1, self.n + 1)]
        return [(l, l, d) for l, d in enumerate(self.diag, 1)]

    def matrix(self) -> Mat:
        n = self.n
        if self.diag is not None:
            return Mat.diagonal(self.diag)
        return Mat([[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)])

    def signature_split(self) -> bool:
        """True when the real signature allows maximal isotropic subspaces."""
        if self.diag is None:
            return True
        plus = sum(1 for d in self.diag if d == 1)
        return abs(2 * plus - self.n) <= 1


class PluckerVector:
    """Projective coordinates of a k-plane: k-subsets of [1, n] to scalars.

    A vector holds one integer form, `cleared()`, built and checked at
    construction; the coordinates are not meant to change afterwards.
    """

    __slots__ = ("k", "n", "_coords", "_cleared")

    def __init__(self, k: int, n: int, coords: dict):
        """coords maps sorted k-subsets of [1, n] to exact scalars; any other
        key is refused with InputError, and so is a vector of zeros."""
        rank = colex_ranks(n, k)
        dense = [0] * len(rank)
        gaussian = set()
        for I, v in coords.items():
            r = rank.get(tuple(I))
            if r is None:
                raise InputError(f"{I} is not a sorted {k}-subset of [1, {n}]")
            dense[r] = v
            if isinstance(v, GaussianRational) and v:
                gaussian.add(r)
        D, re, im = clear_denominators(dense)
        if not any(re) and not gaussian:
            raise DegenerateInputError("identically zero Plucker vector")
        self.k, self.n = k, n
        self._coords = None
        self._cleared = (D, re, im if gaussian else None, frozenset(gaussian))

    @classmethod
    def from_matrix(cls, matrix: Mat) -> "PluckerVector":
        """The maximal minors of a matrix of full row rank, held in the
        integer form of exact_core.cleared_minors."""
        p = object.__new__(cls)
        p.k, p.n = matrix.nrows, matrix.ncols
        p._coords, p._cleared = None, cleared_minors(matrix)
        return p

    def cleared(self):
        """The coordinates over one common denominator: (D, re, im, gaussian).

        re and im are lists over the colex ranks of the k-subsets, holding
        the integer real and imaginary parts of D times each coordinate.
        gaussian is the set of ranks whose coordinate is a nonzero
        GaussianRational, and im is None when it is empty.  D is a common
        denominator, not always the least: read off a matrix, it is the
        product of the lcms of each row's denominators.
        """
        return self._cleared

    def _pairs(self):
        """The (re, im) integer pair of each coordinate, by colex rank."""
        _, re, im, _ = self._cleared
        return zip(re, im or [0] * len(re))

    @property
    def coords(self) -> MappingProxyType:
        """Sorted k-subset -> nonzero exact coordinate, in colex order: a
        read-only view of the integer form, built on first read."""
        if self._coords is None:
            self._coords = MappingProxyType({
                I: cleared_value(self._cleared, r)
                for r, (I, (a, b)) in enumerate(zip(ksubsets(self.n, self.k), self._pairs()))
                if a or b})
        return self._coords

    def get(self, I):
        """The coordinate at the sorted k-subset I, zero included."""
        r = colex_ranks(self.n, self.k).get(tuple(I))
        if r is None:
            raise InputError(f"{I} is not a sorted {self.k}-subset of [1, {self.n}]")
        return cleared_value(self._cleared, r)

    def support(self):
        return frozenset(I for I, (a, b) in zip(ksubsets(self.n, self.k), self._pairs())
                         if a or b)

    def eq_projective(self, other: "PluckerVector") -> bool:
        """Equal up to a nonzero scalar, cross-multiplied on the integer
        forms over Z or Z[i] from the first nonzero colex rank."""
        return ((self.k, self.n) == (other.k, other.n)
                and _first_disproportion(self._pairs(), other._pairs()) is None)

    def to_json(self) -> dict:
        coords = {json.dumps(list(I), separators=(",", ":")):
                  fraction_str(cleared_value(self._cleared, r))
                  for r, I in enumerate(ksubsets(self.n, self.k))}
        return {"k": self.k, "n": self.n, "coords": coords}

    def __repr__(self):
        inner = ", ".join(
            f"{''.join(map(str, I))}: {v}" for I, v in sorted(self.coords.items())
        )
        return f"PluckerVector({self.k},{self.n}; {inner})"


@dataclass
class Subspace:
    """A k-plane given by a k x n basis matrix of full row rank.

    The Plucker vector is computed once, at construction: its maximal
    minors decide the rank.  The basis is not meant to change afterwards.
    """

    basis: Mat
    _plucker: PluckerVector = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.basis.nrows > self.basis.ncols:
            raise DegenerateInputError("basis matrix is rank-deficient")
        self._plucker = PluckerVector.from_matrix(self.basis)

    @property
    def k(self):
        return self.basis.nrows

    @property
    def n(self):
        return self.basis.ncols

    def plucker(self) -> PluckerVector:
        return self._plucker


# ---------------------------------------------------------------------------
# Exact sampling
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _congruence_to_antidiagonal(form: QuadraticForm, field: str) -> Mat:
    """Rows m_1..m_n with m_s Omega m_t^T equal to the antidiagonal form.

    Built and checked once per (form, field); callers must not mutate the
    returned matrix.

    Rational pairing matches plus-coordinates with minus-coordinates in
    index order (for the alternating form this is the fixed (1,2), (3,4),
    ... pairing, with an odd leftover mapping to the middle).  Over the
    Gaussian rationals coordinates 2t and 2t + 1 pair up, and i-scalings
    fix the signs: each coordinate is scaled by 1 or i so that diag * s^2
    is +1 on the first coordinate of a pair, and on the leftover, and -1 on
    the second.  A pair of opposite signs puts its plus coordinate first.
    """
    n = form.n
    if form.diag is None:
        return Mat.identity(n)
    diag = form.diag
    if field == "rational":
        if not form.signature_split():
            raise UnsupportedFormError(
                f"form {form.label} is not split over the reals; "
                "no rational isotropic sampling"
            )
        if sum(diag) < 0:
            diag = tuple(-d for d in diag)  # same isotropic subspaces
        plus = [i for i, d in enumerate(diag) if d == 1]
        minus = [i for i, d in enumerate(diag) if d == -1]
        pairs = list(zip(plus, minus))
        leftover = plus[len(minus):]
    elif field == "gaussian":
        pairs = [(2 * t, 2 * t + 1) for t in range(n // 2)]
        leftover = [n - 1] if n % 2 else []
    else:
        raise InputError(f"unknown field {field!r}")

    def scale(c, sign):
        return Fraction(1) if diag[c] == sign else I_UNIT

    rows = [[Fraction(0)] * n for _ in range(n)]
    half = Fraction(1, 2)
    for t, (a, b) in enumerate(pairs):
        if diag[a] < diag[b]:
            a, b = b, a
        sa, sb = scale(a, 1), scale(b, -1)
        rows[t][a], rows[t][b] = sa, sb
        rows[n - 1 - t][a], rows[n - 1 - t][b] = sa * half, -sb * half
    for c in leftover:
        rows[n // 2][c] = scale(c, 1)

    M = Mat(rows)
    target = QuadraticForm.hyperbolic(n).matrix()
    if M * form.matrix() * M.transpose() != target:
        raise UnsupportedFormError(
            f"no exact congruence from {form.label} to the split form over "
            f"the {field}s"
        )
    return M


def sample_isotropic(k: int, n: int, form: QuadraticForm, seed: int,
                     field: str = "rational") -> Subspace:
    """Seeded random isotropic k-plane for the given form, exact.

    Free entries of the hyperbolic chart [Id | X] are drawn as small
    rationals; the lower-right corner of X is then solved exactly, and the
    congruence from the hyperbolic form to `form` is applied.
    """
    if n < 2 * k:
        raise EmptinessError(f"no isotropic {k}-planes in {n}-space")
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    if form.n != n:
        raise SizeMismatchError("form dimension mismatch")
    rng = random.Random(seed)
    w = n - k
    c = n + 1 - k
    X = [[Fraction(0)] * w for _ in range(k)]
    for i in range(1, k + 1):
        for j in range(1, w + 1):
            if i + j <= n - k:
                X[i - 1][j - 1] = rand_rational(rng)

    def q_term(r, s):
        total = Fraction(0)
        for j in range(1, n - 2 * k + 1):
            total += X[r - 1][j - 1] * X[s - 1][n + 1 - 2 * k - j - 1]
        return total

    for r in range(1, k + 1):
        X[r - 1][c - r - 1] = -q_term(r, r) / 2
    for r in range(1, k + 1):
        for s in range(r + 1, k + 1):
            X[s - 1][c - r - 1] = -X[r - 1][c - s - 1] - q_term(r, s)

    chart = Mat([[1 if i == j else 0 for j in range(k)] + X[i] for i in range(k)])
    M = _congruence_to_antidiagonal(form, field)
    return Subspace(chart * M)


def sample_isotropic_component(k: int, seed: int) -> Subspace:
    """Random rational isotropic k-plane in 2k-space (alternating form) lying
    on the standard component; negating the first coordinate swaps
    components."""
    form = QuadraticForm.alternating(2 * k)
    sub = sample_isotropic(k, 2 * k, form, seed)
    if component_of(sub.plucker()) == "standard":
        return sub
    flipped = Mat([[-row[0]] + row[1:] for row in (sub.basis.row(i) for i in range(k))])
    sub2 = Subspace(flipped)
    if component_of(sub2.plucker()) != "standard":
        raise NotAPointError("component flip failed")
    return sub2


# ---------------------------------------------------------------------------
# Point predicates: isotropy, Hodge complement, components, nonnegativity
# ---------------------------------------------------------------------------

def is_isotropic(p: PluckerVector, form: QuadraticForm) -> bool:
    """Is p a point of the form's isotropic Grassmannian?  Exact: row j of R
    is the cocircuit (eps(J - j, l) p_{J - j + l})_l of p's first basis J,
    read off the integer form; p is a point iff R's minors are p up to
    scale, isotropic iff R Omega R^T = 0."""
    k, n = p.k, p.n
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    if form.n != n:
        raise SizeMismatchError("form dimension mismatch")
    _, re, im, gaussian = p.cleared()
    rank, table = colex_ranks(n, k - 1), signed_extensions(n, k - 1)

    def entry(r, s):  # s times p at rank r, scaled by the common denominator
        return GaussianRational(s * re[r], s * im[r]) if r in gaussian else s * re[r]

    J = ksubsets(n, k)[_first_nonzero(p)]
    R = Mat([entry(*ext[l]) if l in ext else 0 for l in range(1, n + 1)]
            for ext in (table[rank[tuple(x for x in J if x != j)]] for j in J))
    return (not any(map(any, (R * form.matrix() * R.transpose()).rows))
            and PluckerVector.from_matrix(R).eq_projective(p))


def orthogonal_complement(V: Subspace, form: QuadraticForm) -> Subspace:
    """The (n-k)-plane of vectors pairing to zero with V under the form."""
    if form.n != V.n:
        raise SizeMismatchError("form dimension mismatch")
    kernel = (V.basis * form.matrix()).nullspace()
    if len(kernel) != V.n - V.k:
        raise DegenerateInputError("complement has unexpected dimension")
    return Subspace(Mat(kernel))


def hodge_complement(V: Subspace) -> Subspace:
    """Complement with respect to the alternating form."""
    return orthogonal_complement(V, QuadraticForm.alternating(V.n))


def hodge_check(V: Subspace):
    """Verify q_J = p_{complement of J} up to one global scalar.

    Returns (True, scalar) on success and (False, offending subset) on
    failure; the identity holds for every subspace, isotropic or not.
    Complementing reverses colex order, so q read in colex order is
    compared with p read backwards.
    """
    p = V.plucker()
    q = hodge_complement(V).plucker()
    n, k = V.n, V.k
    bad = _first_disproportion(q._pairs(), list(p._pairs())[::-1])
    if bad is not None:
        return False, ksubsets(n, n - k)[bad]
    J = ksubsets(n, n - k)[_first_nonzero(q)]
    return True, q.get(J) / p.get(subset_complement(J, n))


def hodge_failures(k: int, n: int, count: int, rng) -> int:
    """How many of `count` random k-planes, drawn from rng, fail hodge_check."""
    return sum(not hodge_check(Subspace(rand_matrix(rng, k, n)))[0] for _ in range(count))


def complementary_ratio_sign(k: int, flipped_subset) -> int:
    """Square of the ratio of complementary coordinates on (k, 2k):
    +1 when |S| + k is even (ratios are +-1), -1 otherwise (+-sqrt(-1))."""
    return (-1) ** (len(tuple(flipped_subset)) + k)


def component_of(p: PluckerVector) -> str:
    """Which connected component of the n = 2k isotropic Grassmannian:
    'standard' when p_I = p_{I^c} throughout, 'twisted' for the sign flip.
    Read on the integer form, where complementing reverses colex order and
    a ratio of +-1 means equal or opposite integer pairs."""
    if p.n != 2 * p.k:
        raise InputError("components are defined only for n = 2k")
    pairs = list(p._pairs())
    sign = None
    for I, a, b in zip(ksubsets(p.n, p.k), pairs, reversed(pairs)):
        if (a == (0, 0)) != (b == (0, 0)):
            raise NotAPointError("coordinates do not pair up; not on the variety")
        if a == (0, 0):
            continue
        if a == b:
            here = 1
        elif a == (-b[0], -b[1]):
            here = -1
        else:
            ratio = p.get(I) / p.get(subset_complement(I, p.n))
            raise NotAPointError(f"complementary ratio {ratio!r} is not +-1")
        if sign is None:
            sign = here
        elif sign != here:
            raise NotAPointError("inconsistent complementary signs")
    if sign is None:
        raise NotAPointError("no nonzero complementary pair")
    return "standard" if sign == 1 else "twisted"


def is_totally_nonnegative(p: PluckerVector) -> bool:
    """All coordinates >= 0 or all <= 0 (non-real coordinates fail)."""
    _, re, im, _ = p.cleared()
    if im and any(im):
        return False
    return len({x > 0 for x in re if x}) <= 1


def _first_nonzero(p: PluckerVector) -> int:
    """The colex rank of p's first nonzero coordinate."""
    return next(r for r, (a, b) in enumerate(p._pairs()) if a or b)


def _first_disproportion(xs, ys):
    """The first index at which two lists of Gaussian integers, as (re, im)
    pairs, stop being proportional by one nonzero scalar, or None when they
    are.  From the first index (u, v) where either is nonzero, each (x, y)
    must have x v = y u over Z[i]; at (u, v) itself, both must be nonzero."""
    first = None
    for r, ((xr, xi), (yr, yi)) in enumerate(zip(xs, ys)):
        if first is None:
            if not (xr or xi or yr or yi):
                continue
            if not (xr or xi) or not (yr or yi):
                return r
            first = ur, ui, vr, vi = xr, xi, yr, yi
        elif xr * vr - xi * vi != yr * ur - yi * ui or xr * vi + xi * vr != yr * ui + yi * ur:
            return r
    return None
