import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ogrlab.errors import DegenerateInputError, SizeMismatchError
from ogrlab.exact_core import (
    GaussianRational,
    I_UNIT,
    Mat,
    clear_denominators,
    binom,
    colex_ranks,
    fraction_str,
    ksubsets,
    minors,
    rand_matrix,
    rand_rational,
    signed_extensions,
)
from sign_reference import eps, sort_sign


def colex_rank(subset) -> int:
    """Position of a sorted subset in colex order: sum of C(s_i - 1, i)."""
    return sum(binom(s - 1, i + 1) for i, s in enumerate(subset))


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of colex_rank for fixed k: the reference for its round trip."""
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


def cofactor_det(rows):
    """Laplace expansion along the first row: the reference determinant."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        rest = [row[:j] + row[j + 1:] for row in rows[1:]]
        total = total + (-1) ** j * a * cofactor_det(rest)
    return total


def rand_gaussian_matrix(rng, nrows, ncols):
    """Entries of Q(i), about half of them with a nonzero imaginary part."""
    return Mat([
        [GaussianRational(rand_rational(rng), rand_rational(rng))
         if rng.random() < 0.5 else rand_rational(rng) for _ in range(ncols)]
        for _ in range(nrows)
    ])


def test_sort_sign_identity():
    assert sort_sign((1, 2, 3)) == ((1, 2, 3), 1)


def test_sort_sign_transposition():
    assert sort_sign((2, 1)) == ((1, 2), -1)


def test_sort_sign_repeat_annihilates():
    _, sign = sort_sign((2, 4, 2))
    assert sign == 0


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7))
def test_sort_sign_swap_flips(word):
    _, s = sort_sign(word)
    if len(word) >= 2 and s != 0:
        swapped = list(word)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert sort_sign(swapped)[1] == -s


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4))
def test_colex_roundtrip(n, k):
    if k > n:
        return
    for i, s in enumerate(ksubsets(n, k)):
        assert colex_rank(s) == colex_ranks(n, k)[s] == i
        assert colex_unrank(i, k) == s


def test_signed_extension_examples():
    assert signed_extensions(2, 1) == ({2: (0, 1)}, {1: (0, -1)})
    assert signed_extensions(3, 0) == ({1: (0, 1), 2: (1, 1), 3: (2, 1)},)
    assert signed_extensions(3, 3) == ({},)


@pytest.mark.parametrize("n", range(1, 9))
def test_signed_extensions_match_inversion_count(n):
    for j in range(n + 1):
        table, above = signed_extensions(n, j), ksubsets(n, j + 1)
        assert len(table) == len(ksubsets(n, j))
        for K, ext in zip(ksubsets(n, j), table):
            assert list(ext) == [l for l in range(1, n + 1) if l not in K]
            for l, (r, s) in ext.items():
                assert above[r] == tuple(sorted(K + (l,)))
                assert s == eps(K, l)


def test_rank_identity():
    # full rank: a maximal minor is nonzero
    assert minors(Mat.identity(3), 3) == {(1, 2, 3): 1}


def test_nullspace_sum_row():
    basis = Mat([[1, 1]]).nullspace()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and any(x != 0 for x in v)


def test_nullspace_annihilated():
    rng = random.Random(9)
    for _ in range(10):
        A = rand_matrix(rng, 2, 5)
        for v in A.nullspace():
            assert all(
                sum(A[i, j] * v[j] for j in range(5)) == 0 for i in range(2)
            )


def test_det_bareiss_matches_cofactor():
    rng = random.Random(3)
    for _ in range(20):
        A = rand_matrix(rng, 3, 3)
        a = A.rows
        cof = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        assert A.det() == cof


@pytest.mark.parametrize("field", ["rational", "gaussian"])
def test_det_matches_cofactor_expansion(field):
    rng = random.Random(31)
    make = rand_matrix if field == "rational" else rand_gaussian_matrix
    for size in range(5):
        for _ in range(10):
            A = make(rng, size, size)
            assert A.det() == cofactor_det(A.rows)


@pytest.mark.parametrize("field", ["rational", "gaussian"])
def test_minors_match_cofactor_expansion(field):
    rng = random.Random(37)
    make = rand_matrix if field == "rational" else rand_gaussian_matrix
    for k, n in [(1, 4), (2, 5), (3, 6), (4, 6)]:
        A = make(rng, k, n)
        ms = minors(A, k)
        assert set(ms) == set(ksubsets(n, k))
        for cols, value in ms.items():
            assert value == cofactor_det([[row[j - 1] for j in cols] for row in A.rows])


def test_det_zero_leading_pivot_swaps_rows():
    z = GaussianRational(Fraction(1, 2), -3)
    for A in (
        Mat([[0, 2, Fraction(1, 3)], [5, 1, 0], [Fraction(-1, 4), 7, 1]]),
        Mat([[0, z, 1], [0, 1, z], [Fraction(2, 3), 0, 4]]),
        Mat([[1, 2, 3], [2, 4, Fraction(1, 5)], [z, 1, 0]]),  # zero second pivot
    ):
        assert A.det() == cofactor_det(A.rows) != 0
        assert minors(A, 3)[(1, 2, 3)] == A.det()


def bareiss_reference(rows):
    """Determinant by Bareiss elimination in Fraction and GaussianRational
    arithmetic, each division exact in the field: the reference for the
    minors kernel."""
    m = [list(r) for r in rows]
    sign, prev = 1, Fraction(1)
    for p in range(len(m) - 1):
        if m[p][p] == 0:
            swap = next((r for r in range(p + 1, len(m)) if m[r][p] != 0), None)
            if swap is None:
                return Fraction(0)
            m[p], m[swap], sign = m[swap], m[p], -sign
        for r in range(p + 1, len(m)):
            for c in range(p + 1, len(m)):
                m[r][c] = (m[p][p] * m[r][c] - m[r][p] * m[p][c]) / prev
        prev = m[p][p]
    return sign * m[-1][-1] if m else Fraction(1)


def assert_minors_match_reference(A, k):
    """Every minor equals bareiss_reference of its columns, and is a
    GaussianRational exactly when it is nonzero and one of its columns holds
    a GaussianRational entry (zero imaginary part included)."""
    gaussian = {j for row in A.rows for j, x in enumerate(row, 1)
                if isinstance(x, GaussianRational)}
    ms = minors(A, k)
    assert list(ms) == list(ksubsets(A.ncols, k))
    for cols, value in ms.items():
        want = bareiss_reference([[row[j - 1] for j in cols] for row in A.rows])
        assert value == want
        assert type(value) is (GaussianRational if want != 0 and gaussian & set(cols)
                               else Fraction)


# 2k <= n, expanded, and 2k > n, eliminated, k = n among them
KERNEL_SHAPES = [(1, 4), (2, 4), (2, 6), (3, 7), (4, 9), (3, 4), (4, 6), (5, 7), (6, 7),
                 (4, 4), (9, 10), (10, 11), (11, 11)]


@pytest.mark.parametrize("field", ["rational", "gaussian"])
def test_minors_match_bareiss_reference(field):
    rng = random.Random(41)
    make = rand_matrix if field == "rational" else rand_gaussian_matrix
    for k, n in KERNEL_SHAPES:
        assert_minors_match_reference(make(rng, k, n), k)
    assert minors(Mat([]), 0) == {(): 1}  # no rows, no columns: the empty minor
    assert type(minors(Mat([]), 0)[()]) is Fraction


@pytest.mark.parametrize("zero", [Fraction(0), GaussianRational(0, 0)])
@pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 5), (10, 11)])
def test_minors_with_a_zero_column_or_a_real_gaussian_entry(k, n, zero):
    rng = random.Random(10 * k + n)
    for make in (rand_matrix, rand_gaussian_matrix):
        rows = make(rng, k, n).rows
        for row in rows:
            row[1] = zero  # every minor on column 2 vanishes
        rows[0][n - 1] = GaussianRational(rand_rational(rng) or 1, 0)
        assert_minors_match_reference(Mat(rows), k)


@pytest.mark.parametrize("k,n", [(2, 5), (3, 7), (10, 11)])
def test_rank_deficient_minors_are_refused_by_both_kernels(k, n):
    rng = random.Random(n)
    for make in (rand_matrix, rand_gaussian_matrix):
        rows = make(rng, k, n).rows
        z = GaussianRational(Fraction(1, 3), -2) if make is rand_gaussian_matrix else 3
        rows[-1] = [z * a for a in rows[0]]
        with pytest.raises(DegenerateInputError):
            minors(Mat(rows), k)


def test_minors_rank_deficient_gaussian():
    z = GaussianRational(1, Fraction(2, 3))
    with pytest.raises(DegenerateInputError):
        minors(Mat([[1, z, 0], [z, z * z, 0]]), 2)


def test_clear_denominators():
    values = [Fraction(1, 6), 2, GaussianRational(Fraction(1, 4), -1)]
    assert clear_denominators(values) == (12, [2, 24, 3], [0, 0, -12])
    assert clear_denominators(values[:2]) == (6, [1, 12], None)
    assert clear_denominators([]) == (1, [], None)


def test_minors_identity_block():
    M = Mat([[1, 0, 0, 5], [0, 1, 0, 7]])
    ms = minors(M, 2)
    assert ms[(1, 2)] == 1
    assert ms[(3, 4)] == 0


def test_minors_triangle_family_values():
    M = Mat([[1, 1, 0, 0, -1, -1], [0, 0, 1, 1, 1, 1]])
    ms = minors(M, 2)
    assert ms[(1, 3)] == 1
    assert ms[(4, 5)] == 1
    assert ms[(1, 2)] == 0


def test_minors_row_swap_negates():
    rng = random.Random(1)
    M = rand_matrix(rng, 2, 4)
    swapped = Mat([M.row(1), M.row(0)])
    a, b = minors(M, 2), minors(swapped, 2)
    assert all(b[I] == -a[I] for I in a)


def test_minors_row_scaling():
    rng = random.Random(2)
    M = rand_matrix(rng, 2, 4)
    c = Fraction(3, 7)
    scaled = Mat([[c * x for x in M.row(0)], M.row(1)])
    a, b = minors(M, 2), minors(scaled, 2)
    assert all(b[I] == c * a[I] for I in a)


def test_minors_rank_deficient():
    with pytest.raises(DegenerateInputError):
        minors(Mat([[1, 2, 3], [2, 4, 6]]), 2)


def test_gaussian_rational_field_ops():
    z = GaussianRational(1, 2)
    w = GaussianRational(Fraction(1, 2), -1)
    assert z * w == GaussianRational(Fraction(5, 2), 0)
    assert (z / w) * w == z
    assert z + 1 == GaussianRational(2, 2)
    assert I_UNIT * I_UNIT == -1


def test_fraction_str():
    assert fraction_str(Fraction(3, 1)) == "3"
    assert fraction_str(Fraction(-3, 4)) == "-3/4"


def dot_reference(u, v):
    """One entry of the product in Fraction / GaussianRational arithmetic,
    the rule the integer-cleared product replaced: Fraction(0) over an
    empty inner dimension."""
    acc = None
    for a, b in zip(u, v):
        t = a * b
        acc = t if acc is None else acc + t
    return Fraction(0) if acc is None else acc


def assert_product_matches_reference(A, B):
    got = (A * B).rows
    want = [[dot_reference(r, c) for c in zip(*B.rows)] for r in A.rows]
    assert [[type(x) for x in r] for r in got] == [[type(x) for x in r] for r in want]
    assert got == want


@pytest.mark.parametrize("left,right", [
    ("rational", "rational"), ("rational", "gaussian"),
    ("gaussian", "rational"), ("gaussian", "gaussian"),
])
def test_product_matches_dot_reference(left, right):
    rng = random.Random(len(left) * 10 + len(right))
    make = {"rational": rand_matrix, "gaussian": rand_gaussian_matrix}
    for _ in range(30):
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 7), rng.randint(1, 5)
        assert_product_matches_reference(make[left](rng, rows, inner),
                                         make[right](rng, inner, cols))


def test_product_entry_type_follows_real_gaussian_entries():
    real = GaussianRational(Fraction(1, 2), 0)  # a GaussianRational with im = 0
    A = Mat([[real, Fraction(1, 3)], [Fraction(2, 7), Fraction(-1, 5)]])
    B = Mat([[Fraction(3, 4), 1], [Fraction(-1, 6), Fraction(5, 9)]])
    # the row holding `real` gives GaussianRational entries, the other row not
    assert [[type(x) for x in r] for r in (A * B).rows] == [
        [GaussianRational] * 2, [Fraction] * 2]
    assert_product_matches_reference(A, B)
    C = Mat([[Fraction(3, 4), real], [Fraction(-1, 6), 4]])
    # and so does the column holding it
    assert [[type(x) for x in r] for r in (B * C).rows] == [
        [Fraction, GaussianRational]] * 2
    assert_product_matches_reference(B, C)
    assert_product_matches_reference(A, C)


def test_product_of_integer_and_empty_factors():
    A, B = Mat([[1, 2, -3], [4, 0, 6]]), Mat([[5], [-6], [7]])
    assert (A * B).rows == [[Fraction(-28)], [Fraction(62)]]
    assert_product_matches_reference(A, B)
    assert_product_matches_reference(Mat([]), Mat([]))  # 0 rows
    assert (Mat([[], []]) * Mat([])).rows == [[], []]  # empty inner dimension
    with pytest.raises(SizeMismatchError):
        A * A


def test_gaussian_rational_compares_with_int():
    assert GaussianRational(0, 0) == 0 and not GaussianRational(0, 0) != 0
    assert GaussianRational(3, 0) == 3 and GaussianRational(3, 0) != 2
    assert GaussianRational(0, Fraction(1, 2)) != 0
    assert GaussianRational(Fraction(1, 2), 0) != 0
