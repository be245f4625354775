"""Exact rational arithmetic, subset combinatorics and sign conventions.

Everything downstream (equation generation, sampling, enumeration) is built
on the primitives here: colexicographic k-subset indexing, the sorting-sign
convention for Plucker brackets, and exact linear algebra over the rationals
or the Gaussian rationals.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import (
    DegenerateInputError,
    InputError,
    SizeMismatchError,
)

binom = math.comb


class GaussianRational:
    """Element a + b*i of Q(i), with exact Fraction components.

    Supports mixed arithmetic with int and Fraction so matrix code can stay
    field-agnostic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so it is shared rather than copied
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _lift(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


I_UNIT = GaussianRational(0, 1)


def coerce_scalar(x):
    """Lift ints to Fraction; pass exact field elements through."""
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, GaussianRational)):
        return x
    raise InputError(f"not an exact scalar: {x!r}")


# ---------------------------------------------------------------------------
# k-subsets of [1, n] in colexicographic order
# ---------------------------------------------------------------------------

def colex_key(subset):
    return tuple(reversed(subset))


@lru_cache(maxsize=None)
def ksubsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {1..n} as sorted tuples, in colexicographic order."""
    if k < 0 or k > n:
        return ()
    subs = list(combinations(range(1, n + 1), k))
    subs.sort(key=colex_key)
    return tuple(subs)


def colex_rank(subset) -> int:
    """Position of a sorted subset in colex order: sum of C(s_i - 1, i)."""
    return sum(binom(s - 1, i + 1) for i, s in enumerate(subset))


@lru_cache(maxsize=None)
def colex_ranks(n: int, k: int) -> dict[tuple[int, ...], int]:
    """The colex rank of each k-subset of {1..n}, keyed by its sorted tuple."""
    return {I: r for r, I in enumerate(ksubsets(n, k))}


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of colex_rank for fixed k."""
    out = []
    r = rank
    for i in range(k, 0, -1):
        s = i
        while binom(s, i) <= r:
            s += 1
        out.append(s)
        r -= binom(s - 1, i)
    out.reverse()
    return tuple(out)


def subset_complement(subset, n: int) -> tuple[int, ...]:
    inside = set(subset)
    return tuple(x for x in range(1, n + 1) if x not in inside)


def sort_sign(word) -> tuple[tuple[int, ...], int]:
    """Sort a word of indices, returning (sorted word, sign of the sort).

    The sign is that of the permutation putting the word in increasing
    order; it is 0 exactly when the word has a repeated entry.  This single
    convention backs every epsilon(I, l) in the package.
    """
    w = tuple(word)
    if len(set(w)) != len(w):
        return tuple(sorted(w)), 0
    inversions = 0
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                inversions += 1
    return tuple(sorted(w)), (-1) ** inversions


def eps(prefix, extra: int) -> int:
    """Sign of sorting the string 'prefix then extra'; 0 on repeats."""
    return sort_sign(tuple(prefix) + (extra,))[1]


# ---------------------------------------------------------------------------
# Integer-cleared kernel over Z and Z[i]
# ---------------------------------------------------------------------------

class GaussianInteger:
    """Element re + im*i of Z[i], mixing with int.

    The ring of the integer-cleared kernel: an entry cleared from a
    GaussianRational becomes one of these, an entry cleared from a rational
    stays an int, and results come back as GaussianRational or Fraction
    accordingly.  `//` is exact division, valid only where the quotient is
    known to lie in Z[i].
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussianInteger(self.re * other, self.im * other)
        return GaussianInteger(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __sub__(self, other):
        if isinstance(other, int):
            return GaussianInteger(self.re - other, self.im)
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianInteger(other - self.re, -self.im)

    def __neg__(self):
        return GaussianInteger(-self.re, -self.im)

    def __floordiv__(self, other):
        if isinstance(other, int):
            return GaussianInteger(self.re // other, self.im // other)
        norm = other.re * other.re + other.im * other.im
        return GaussianInteger((self.re * other.re + self.im * other.im) // norm,
                               (self.im * other.re - self.re * other.im) // norm)

    def __rfloordiv__(self, other):
        return GaussianInteger(other, 0) // self

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        return f"GaussianInteger({self.re}, {self.im})"


def clear_denominators(values) -> tuple[int, list]:
    """(D, numerators): D is the least common multiple of the denominators
    of the exact scalars (of both parts over Q(i)), and each numerator is
    D times its value, an int for a rational and a GaussianInteger for a
    GaussianRational."""
    values = [coerce_scalar(x) for x in values]
    dens = []
    for x in values:
        if isinstance(x, GaussianRational):
            dens += (x.re.denominator, x.im.denominator)
        else:
            dens.append(x.denominator)
    D = math.lcm(*dens)
    out = []
    for x in values:
        if isinstance(x, GaussianRational):
            out.append(GaussianInteger(x.re.numerator * (D // x.re.denominator),
                                       x.im.numerator * (D // x.im.denominator)))
        else:
            out.append(x.numerator * (D // x.denominator))
    return D, out


def _cleared_rows(rows):
    """(scale, rows over Z or Z[i]): each row times the lcm of its own
    denominators; scale is the product of those multipliers."""
    scale = 1
    cleared = []
    for row in rows:
        s, ints = clear_denominators(row)
        scale *= s
        cleared.append(ints)
    return scale, cleared


def _bareiss(m):
    """Determinant of a square matrix over Z or Z[i] (the list of rows m is
    overwritten), by fraction-free Bareiss elimination: by Sylvester's
    identity every `//` below divides exactly.  Returns int 0 when a pivot
    column is zero."""
    n = len(m)
    sign = 1
    prev = 1
    for p in range(n - 1):
        if not m[p][p]:
            for r in range(p + 1, n):
                if m[r][p]:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        top = m[p]
        pivot = top[p]
        for r in range(p + 1, n):
            row = m[r]
            lead = row[p]
            for c in range(p + 1, n):
                row[c] = (pivot * row[c] - lead * top[c]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def _unscale(d, scale: int):
    """The exact value d / scale of a kernel result."""
    if isinstance(d, GaussianInteger):
        return GaussianRational(Fraction(d.re, scale), Fraction(d.im, scale))
    return Fraction(d, scale)


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------

class Mat:
    """Dense matrix over Q or Q(i); all operations are exact."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [[coerce_scalar(x) for x in row] for row in rows]
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise SizeMismatchError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag):
        n = len(diag)
        return cls([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return list(self.rows[i])

    def col(self, j):
        return [r[j] for r in self.rows]

    def copy(self):
        return Mat([list(r) for r in self.rows])

    def transpose(self):
        return Mat([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise SizeMismatchError("matrix product shape mismatch")
        bt = other.transpose().rows
        return Mat(
            [[_dot(r, c) for c in bt] for r in self.rows]
        )

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise SizeMismatchError("matrix sum shape mismatch")
        return Mat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return Mat([[-x for x in r] for r in self.rows])

    def scale(self, c):
        c = coerce_scalar(c)
        return Mat([[c * x for x in r] for r in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))
        )

    def is_zero(self):
        return all(x == 0 for r in self.rows for x in r)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Mat[{body}]"

    # -- elimination-based operations --------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        m = [list(r) for r in self.rows]
        nr, nc = len(m), self.ncols
        pivots = []
        pr = 0
        for pc in range(nc):
            pivot_row = None
            for r in range(pr, nr):
                if m[r][pc] != 0:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            inv = m[pr][pc]
            m[pr] = [x / inv for x in m[pr]]
            for r in range(nr):
                if r != pr and m[r][pc] != 0:
                    f = m[r][pc]
                    m[r] = [x - f * y for x, y in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == nr:
                break
        return Mat(m), pivots

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, as a list of column vectors (lists)."""
        red, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * nc
            v[fc] = Fraction(1)
            for pr, pc in enumerate(pivots):
                v[pc] = -red.rows[pr][fc]
            basis.append(v)
        return basis

    def det(self):
        """Determinant, exact: the rows are cleared of denominators and the
        integer matrix goes through the Bareiss kernel."""
        if self.nrows != self.ncols:
            raise SizeMismatchError("determinant of a non-square matrix")
        scale, cleared = _cleared_rows(self.rows)
        return _unscale(_bareiss(cleared), scale)


def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        t = a * b
        acc = t if acc is None else acc + t
    if acc is None:
        return Fraction(0)
    return acc


def minors(matrix: Mat, k: int) -> dict[tuple[int, ...], object]:
    """All maximal minors of a k x n matrix, keyed by column subset.

    Each row is cleared of its denominators once; every k x k column choice
    then goes through the integer Bareiss kernel, and the product of the
    row scales divides the result.  Raises DegenerateInputError when the
    matrix has rank below k (all minors vanish), since the result would not
    define a point.
    """
    if matrix.nrows != k:
        raise SizeMismatchError(f"expected {k} rows, got {matrix.nrows}")
    n = matrix.ncols
    if n < k:
        raise SizeMismatchError("fewer columns than rows")
    scale, cleared = _cleared_rows(matrix.rows)
    out = {}
    any_nonzero = False
    for cols in ksubsets(n, k):
        d = _bareiss([[row[j - 1] for j in cols] for row in cleared])
        out[cols] = _unscale(d, scale)
        if d:
            any_nonzero = True
    if not any_nonzero:
        raise DegenerateInputError("matrix has rank < k; all maximal minors vanish")
    return out


# ---------------------------------------------------------------------------
# Seeded rational sampling (small exact entries keep minors legible)
# ---------------------------------------------------------------------------

def rand_rational(rng) -> Fraction:
    """Random ratio with numerator in [-9, 9] and denominator in [1, 9]."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def rand_matrix(rng, nrows, ncols) -> Mat:
    return Mat([[rand_rational(rng) for _ in range(ncols)] for _ in range(nrows)])


def fraction_str(x) -> str:
    """Serialize a rational as 'num/den', or plain 'num' for integers."""
    f = Fraction(x) if isinstance(x, int) else x
    if isinstance(f, GaussianRational):
        return repr(f)
    return str(f)
