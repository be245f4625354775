"""Exact rational arithmetic, subset combinatorics and sign conventions.

Everything downstream (equation generation, sampling, enumeration) is built
on the primitives here: colexicographic k-subset indexing, the sorting-sign
convention for Plucker brackets, and exact linear algebra over the rationals
or the Gaussian rationals.

Every cocircuit sign epsilon(K, l), the sign of sorting the word K then l,
is read from one cached table, `signed_extensions`: the shuffle and
orthogonality quadrics, the isotropy check of a point, the orthopositroid
pair test and the bridge action on Plucker coordinates all use it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from operator import mul
from types import MappingProxyType

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
        if type(other) is int:  # the common `!= 0` test, first
            return not self.im and self.re == other
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


@lru_cache(maxsize=None)
def colex_ranks(n: int, k: int) -> dict[tuple[int, ...], int]:
    """The colex rank of each k-subset of {1..n}, keyed by its sorted tuple."""
    return {I: r for r, I in enumerate(ksubsets(n, k))}


def subset_mask(entries) -> int:
    """Bitmask of a set of integers: the sum of 1 << x over its entries x."""
    return sum(1 << x for x in entries)


def mask_bits(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, in ascending order: subset_mask inverted.
    Peels the lowest set bit off each time, so a sparse mask is quick."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


@lru_cache(maxsize=None)
def colex_mask_ranks(n: int, k: int) -> dict[int, int]:
    """The colex rank of each k-subset of {1..n}, keyed by its subset_mask."""
    return {subset_mask(I): r for r, I in enumerate(ksubsets(n, k))}


def subset_complement(subset, n: int) -> tuple[int, ...]:
    inside = set(subset)
    return tuple(x for x in range(1, n + 1) if x not in inside)


def sort_sign(word) -> tuple[tuple[int, ...], int]:
    """Sort a word of indices, returning (sorted word, sign of the sort).

    The sign is that of the permutation putting the word in increasing
    order; it is 0 exactly when the word has a repeated entry.
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


@lru_cache(maxsize=None)
def signed_extensions(n: int, j: int) -> tuple[MappingProxyType, ...]:
    """The signed extensions of each j-subset K of {1..n}, in colex order:
    a read-only map l -> (colex rank of K + l among the (j+1)-subsets,
    epsilon(K, l)) over the l not in K, ascending, where epsilon(K, l) is
    the sort_sign of the word K then l.  This single table backs every
    epsilon(K, l) in the package.  Cached: callers share it."""
    rank = colex_ranks(n, j + 1)
    table = []
    for K in ksubsets(n, j):
        signed = (sort_sign(K + (l,)) for l in range(1, n + 1))
        table.append(MappingProxyType(
            {l: (rank[Kl], s) for l, (Kl, s) in enumerate(signed, 1) if s}))
    return tuple(table)


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


def clear_denominators(values) -> tuple[int, list, list | None]:
    """(D, re, im): D is the least common multiple of the denominators of
    the exact scalars (of both parts over Q(i)), and re and im list the
    integer real and imaginary parts of D times each value; im is None
    when no value is a GaussianRational."""
    values = [coerce_scalar(x) for x in values]
    re, im = values, ()
    if any(isinstance(x, GaussianRational) for x in values):
        re = [x.re if isinstance(x, GaussianRational) else x for x in values]
        im = [x.im if isinstance(x, GaussianRational) else 0 for x in values]
    D = math.lcm(*(x.denominator for x in chain(re, im)))
    re, im = ([x.numerator * (D // x.denominator) for x in part] for part in (re, im))
    return D, re, im or None


def _cleared_rows(rows):
    """(scale, rows over Z or Z[i]): each row times the lcm of its own
    denominators, a GaussianRational entry becoming a GaussianInteger and a
    rational one an int; scale is the product of those multipliers."""
    scale = 1
    cleared = []
    for row in rows:
        s, re, im = clear_denominators(row)
        scale *= s
        if im is not None:
            re = [GaussianInteger(a, b) if isinstance(x, GaussianRational) else a
                  for x, a, b in zip(row, re, im)]
        cleared.append(re)
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


def _product_entry(row, col):
    """Entry of a matrix product from the cleared forms of its row and
    column: summed over Z, or over Z[i] as (re, im) pairs, and divided once.
    It is a GaussianRational exactly when the row or the column holds one."""
    rs, rre, rim = row
    cs, cre, cim = col
    scale = rs * cs
    if rim is None and cim is None:
        return Fraction(sum(map(mul, rre, cre)), scale)
    zeros = [0] * len(rre)
    rim, cim = rim or zeros, cim or zeros
    re = sum(map(mul, rre, cre)) - sum(map(mul, rim, cim))
    im = sum(map(mul, rre, cim)) + sum(map(mul, rim, cre))
    return GaussianRational(Fraction(re, scale), Fraction(im, scale))


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

    def transpose(self):
        return Mat([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise SizeMismatchError("matrix product shape mismatch")
        left = [clear_denominators(r) for r in self.rows]
        right = [clear_denominators(c) for c in zip(*other.rows)]
        out = object.__new__(Mat)  # the entries are exact scalars already
        out.rows = [[_product_entry(r, c) for c in right] for r in left]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))
        )

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
