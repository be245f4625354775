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


@lru_cache(maxsize=None)
def signed_extensions(n: int, j: int) -> tuple[MappingProxyType, ...]:
    """The signed extensions of each j-subset K of {1..n}, in colex order:
    a read-only map l -> (colex rank of K + l among the (j+1)-subsets,
    epsilon(K, l)) over the l not in K, ascending, where epsilon(K, l), the
    sign of sorting the word K then l, is -1 to the number of entries of K
    above l.  This single table backs every epsilon(K, l) in the package.
    Cached: callers share it."""
    rank = colex_mask_ranks(n, j + 1)
    table = []
    for K in ksubsets(n, j):
        mask, above, ext = subset_mask(K), j, {}
        for l in range(1, n + 1):
            if mask >> l & 1:
                above -= 1
            else:
                ext[l] = (rank[mask | 1 << l], -1 if above & 1 else 1)
        table.append(MappingProxyType(ext))
    return tuple(table)


# ---------------------------------------------------------------------------
# Integer-cleared kernel over Z and Z[i]
# ---------------------------------------------------------------------------

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


def _integer_rows(rows) -> tuple[int, list, list | None]:
    """(D, re, im): each row times the lcm of its own denominators, as
    integer rows of real and imaginary parts, and D the product of those
    multipliers; im is None when no entry is a GaussianRational."""
    cleared = [clear_denominators(row) for row in rows]
    D = math.prod(s for s, _, _ in cleared)
    re = [r for _, r, _ in cleared]
    if all(i is None for _, _, i in cleared):
        return D, re, None
    return D, re, [i or [0] * len(r) for _, r, i in cleared]


def _bareiss(re, im=None):
    """Determinant of a square matrix over Z, or over Z[i] when im holds
    the imaginary parts of the rows re: (re, im), im None over Z.  Both
    lists of rows are overwritten.  Fraction-free Bareiss elimination: by
    Sylvester's identity each step's numerator is a multiple of the
    previous pivot, so `//` divides exactly, over Z[i] as a product with
    that pivot's conjugate divided by its norm.  Returns 0 when a pivot
    column is zero."""
    n = len(re)
    sign, prev, prev_im = 1, 1, 0
    for p in range(n - 1):
        if not (re[p][p] or im and im[p][p]):
            for r in range(p + 1, n):
                if re[r][p] or im and im[r][p]:
                    re[p], re[r] = re[r], re[p]
                    if im:
                        im[p], im[r] = im[r], im[p]
                    sign = -sign
                    break
            else:
                return 0, None if im is None else 0
        top, pivot = re[p], re[p][p]
        if im is None:
            for row in re[p + 1:]:
                lead = row[p]
                for c in range(p + 1, n):
                    row[c] = (pivot * row[c] - lead * top[c]) // prev
            prev = pivot
            continue
        top_im, pivot_im = im[p], im[p][p]
        norm = prev * prev + prev_im * prev_im
        for row, row_im in zip(re[p + 1:], im[p + 1:]):
            lead, lead_im = row[p], row_im[p]
            for c in range(p + 1, n):
                x, y, u, v = row[c], row_im[c], top[c], top_im[c]
                a = pivot * x - pivot_im * y - lead * u + lead_im * v
                b = pivot * y + pivot_im * x - lead * v - lead_im * u
                row[c] = (a * prev + b * prev_im) // norm
                row_im[c] = (b * prev - a * prev_im) // norm
        prev, prev_im = pivot, pivot_im
    if not n:
        return 1, None if im is None else 0
    return sign * re[-1][-1], None if im is None else sign * im[-1][-1]


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
        D, re, im = _integer_rows(self.rows)
        d, d_im = _bareiss(re, im)
        if im is None:
            return Fraction(d, D)
        return GaussianRational(Fraction(d, D), Fraction(d_im, D))


@lru_cache(maxsize=None)
def _expansions(n: int, j: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The Laplace expansion of each j-subset S of {1..n}, in colex order,
    along the top row: a triple (l - 1, sign, colex rank of S - l) for each
    l in S.  The t-th entry of S (from 0) has sign (-1)^t, that is
    (-1)^(j - 1) eps(S - l, l), read off signed_extensions."""
    out = [[] for _ in range(binom(n, j))]
    flip = 1 if j % 2 else -1
    for r, ext in enumerate(signed_extensions(n, j - 1)):
        for l, (above, eps) in ext.items():
            out[above].append((l - 1, flip * eps, r))
    return tuple(map(tuple, out))


def _laplace(n: int, re_rows, im_rows):
    """The maximal minors of integer rows over Z (im_rows None), or over
    Z[i] as (re, im) pairs, listed by colex rank: (re, im), im None over Z.
    Level j holds the j x j minors of the last j rows, each expanded along
    its top row over the level below, from the empty minor 1; no step
    divides."""
    re, im = [1], [0] if im_rows is not None else None
    for j in range(1, len(re_rows) + 1):
        top = re_rows[-j]
        next_re = []
        if im is None:  # plain loops: a generator per minor costs about twice as much
            for terms in _expansions(n, j):
                a = 0
                for c, s, r in terms:
                    a += s * top[c] * re[r]
                next_re.append(a)
            re = next_re
            continue
        top_im, next_im = im_rows[-j], []
        for terms in _expansions(n, j):
            a = b = 0
            for c, s, r in terms:
                x, y, u, v = top[c], top_im[c], re[r], im[r]
                a += s * (x * u - y * v)
                b += s * (x * v + y * u)
            next_re.append(a)
            next_im.append(b)
        re, im = next_re, next_im
    return re, im


def cleared_minors(matrix: Mat) -> tuple[int, list, list | None, frozenset]:
    """All maximal minors of a k x n matrix in integer form: (D, re, im,
    gaussian).  re and im list the integer real and imaginary parts of D
    times each minor, over the colex ranks of the column k-subsets; D is
    the product of the lcms of each row's denominators.  gaussian is the
    set of ranks whose minor is a nonzero GaussianRational, that is one
    with a column holding a GaussianRational entry (zero imaginary part
    included), and im is None when it is empty.

    Expanded (`_laplace`) when 2k <= n: then no level holds more subsets
    than the C(n, k) minors, so each of the k levels makes at most
    k C(n, k) products, while Bareiss elimination copies k^2 entries into
    each minor before it starts.  A taller matrix is eliminated minor by
    minor: its middle levels, up to C(n, n/2) subsets, outgrow the minors,
    and so do their tables (expanded, the 13 x 16 complements made
    `hodge-check --k 3 --n 16` take 4 s, not 0.4 s, on a 2-vCPU VM; a
    22 x 24 one would take about 2e8 products).  Raises DegenerateInputError when the matrix
    has rank below k (all minors vanish), since the result would not define
    a point.
    """
    k, n = matrix.nrows, matrix.ncols
    if n < k:
        raise SizeMismatchError("fewer columns than rows")
    gmask = subset_mask({j for row in matrix.rows for j, x in enumerate(row, 1)
                         if isinstance(x, GaussianRational)})
    D, re_rows, im_rows = _integer_rows(matrix.rows)
    if 2 * k <= n:
        re, im = _laplace(n, re_rows, im_rows)
    else:
        re, im = [], []
        for cols, mask in zip(ksubsets(n, k), colex_mask_ranks(n, k)):
            d, d_im = _bareiss([[row[j - 1] for j in cols] for row in re_rows],
                               [[row[j - 1] for j in cols] for row in im_rows]
                               if mask & gmask else None)
            re.append(d)
            im.append(d_im or 0)
    gaussian = frozenset(r for mask, r in colex_mask_ranks(n, k).items()
                         if mask & gmask and (re[r] or im[r])) if gmask else frozenset()
    if not (any(re) or gaussian):
        raise DegenerateInputError("matrix has rank < k; all maximal minors vanish")
    return D, re, im if gaussian else None, gaussian


def cleared_value(cleared, r: int):
    """The exact value at rank r of an integer form (D, re, im, gaussian):
    a GaussianRational when r is in gaussian, else a Fraction."""
    D, re, im, gaussian = cleared
    if r in gaussian:
        return GaussianRational(Fraction(re[r], D), Fraction(im[r], D))
    return Fraction(re[r], D)


def minors(matrix: Mat, k: int) -> dict[tuple[int, ...], object]:
    """All maximal minors of a k x n matrix, keyed by column subset: the
    exact values of cleared_minors.  A minor is a GaussianRational exactly
    when it is nonzero and one of its columns holds a GaussianRational
    entry; a zero minor is Fraction(0)."""
    if matrix.nrows != k:
        raise SizeMismatchError(f"expected {k} rows, got {matrix.nrows}")
    cleared = cleared_minors(matrix)
    return {cols: cleared_value(cleared, r) for r, cols in enumerate(ksubsets(matrix.ncols, k))}


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
