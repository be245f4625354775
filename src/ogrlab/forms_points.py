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
    colex_ranks,
    fraction_str,
    ksubsets,
    minors,
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
    """Projective coordinates of a k-plane: map from k-subsets to scalars.

    The coordinates are not meant to change after construction: `cleared`
    caches them in integer form.
    """

    __slots__ = ("k", "n", "coords", "_cleared")

    def __init__(self, k: int, n: int, coords: dict):
        self.k = k
        self.n = n
        self.coords = {tuple(I): v for I, v in coords.items() if v != 0}
        if not self.coords:
            raise DegenerateInputError("identically zero Plucker vector")
        self._cleared = None

    @classmethod
    def from_matrix(cls, matrix: Mat) -> "PluckerVector":
        k = matrix.nrows
        return cls(k, matrix.ncols, minors(matrix, k))

    def get(self, I):
        return self.coords.get(tuple(I), Fraction(0))

    def support(self):
        return frozenset(self.coords)

    def cleared(self):
        """The coordinates over one common denominator, computed once.

        Returns (D, re, im, gaussian).  re and im are lists over the colex
        ranks of the k-subsets, holding the integer real and imaginary parts
        of D times each coordinate; one more slot, at rank C(n, k), holds
        D itself, the value of the constant 1, so a monomial of lower degree
        can be padded with it.  im is None when no coordinate is a
        GaussianRational, and gaussian is the set of ranks whose coordinate
        is one.
        """
        if self._cleared is None:
            rank = colex_ranks(self.n, self.k)
            dense = [0] * len(rank) + [1]
            gaussian = set()
            for I, v in self.coords.items():
                if I not in rank:
                    raise InputError(f"{I} is not a sorted {self.k}-subset of [1, {self.n}]")
                dense[rank[I]] = v
                if isinstance(v, GaussianRational):
                    gaussian.add(rank[I])
            self._cleared = (*clear_denominators(dense), frozenset(gaussian))
        return self._cleared

    def scale(self, c) -> "PluckerVector":
        return PluckerVector(self.k, self.n, {I: c * v for I, v in self.coords.items()})

    def normalized(self) -> "PluckerVector":
        """Scale so the first nonzero coordinate in colex order equals 1."""
        for I in ksubsets(self.n, self.k):
            v = self.coords.get(I)
            if v:
                return self.scale(1 / v)
        raise DegenerateInputError("zero vector")

    def eq_projective(self, other: "PluckerVector") -> bool:
        if (self.k, self.n) != (other.k, other.n):
            return False
        a, b = self.normalized(), other.normalized()
        return a.coords == b.coords

    def to_json(self) -> dict:
        coords = {}
        for I in ksubsets(self.n, self.k):
            coords[json.dumps(list(I), separators=(",", ":"))] = fraction_str(
                self.coords.get(I, Fraction(0))
            )
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
    is the cocircuit (eps(J - j, l) p_{J - j + l})_l of p's first basis J;
    p is a point iff R's minors are p up to scale, isotropic iff R Omega R^T = 0."""
    k, n = p.k, p.n
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    if form.n != n:
        raise SizeMismatchError("form dimension mismatch")
    p.cleared()  # refuses a coordinate that is not a sorted k-subset
    subs, rank, table = ksubsets(n, k), colex_ranks(n, k - 1), signed_extensions(n, k - 1)
    J = next(I for I in subs if I in p.coords)
    R = Mat([ext[l][1] * p.get(subs[ext[l][0]]) if l in ext else 0 for l in range(1, n + 1)]
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
    """
    p = V.plucker()
    q = hodge_complement(V).plucker()
    n, k = V.n, V.k
    scalar = None
    for J in ksubsets(n, n - k):
        qv = q.get(J)
        pv = p.get(subset_complement(J, n))
        if scalar is None:
            if (qv == 0) != (pv == 0):
                return False, J
            if qv != 0:
                scalar = qv / pv
        else:
            if qv != scalar * pv:
                return False, J
    return True, scalar


def hodge_failures(k: int, n: int, count: int, rng) -> int:
    """How many of `count` random k-planes, drawn from rng, fail hodge_check."""
    return sum(not hodge_check(Subspace(rand_matrix(rng, k, n)))[0] for _ in range(count))


def complementary_ratio_sign(k: int, flipped_subset) -> int:
    """Square of the ratio of complementary coordinates on (k, 2k):
    +1 when |S| + k is even (ratios are +-1), -1 otherwise (+-sqrt(-1))."""
    return (-1) ** (len(tuple(flipped_subset)) + k)


def component_of(p: PluckerVector) -> str:
    """Which connected component of the n = 2k isotropic Grassmannian:
    'standard' when p_I = p_{I^c} throughout, 'twisted' for the sign flip."""
    if p.n != 2 * p.k:
        raise InputError("components are defined only for n = 2k")
    sign = None
    for I in ksubsets(p.n, p.k):
        a = p.get(I)
        b = p.get(subset_complement(I, p.n))
        if (a == 0) != (b == 0):
            raise NotAPointError("coordinates do not pair up; not on the variety")
        if a == 0:
            continue
        ratio = a / b
        if ratio == 1:
            here = 1
        elif ratio == -1:
            here = -1
        else:
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
    vals = list(p.coords.values())
    for v in vals:
        if isinstance(v, GaussianRational):
            if v.im != 0:
                return False
    signs = {1 if v > 0 else -1 for v in (_real(v) for v in vals) if v != 0}
    return len(signs) <= 1


def _real(v):
    return v.re if isinstance(v, GaussianRational) else v
