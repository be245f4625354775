import random
from fractions import Fraction

import pytest

from ogrlab.errors import (
    DegenerateInputError,
    EmptinessError,
    NotAPointError,
    UnsupportedFormError,
)
from ogrlab.exact_core import GaussianRational, Mat, ksubsets, minors, rand_matrix, rand_rational
from ogrlab.forms_points import (
    PluckerVector,
    QuadraticForm,
    Subspace,
    complementary_ratio_sign,
    component_of,
    hodge_check,
    hodge_complement,
    is_isotropic,
    is_totally_nonnegative,
    sample_isotropic,
    sample_isotropic_component,
)
from sign_reference import eps


def test_form_matrices():
    assert QuadraticForm.alternating(4).diag == (1, -1, 1, -1)
    h = QuadraticForm.hyperbolic(3).matrix()
    assert h[0, 2] == 1 and h[1, 1] == 1 and h[0, 0] == 0


def dense_entries(form):
    """The nonzero entries (l, m, Omega_lm) of the form's dense matrix, row
    by row: the reference for QuadraticForm.entries."""
    omega, n = form.matrix(), form.n
    return [(l, m, int(omega[l - 1, m - 1])) for l in range(1, n + 1)
            for m in range(1, n + 1) if omega[l - 1, m - 1]]


@pytest.mark.parametrize("n", range(1, 26))
def test_form_entries_match_the_dense_matrix(n):
    for form in (QuadraticForm.standard(n), QuadraticForm.alternating(n),
                 QuadraticForm.hyperbolic(n), QuadraticForm.signed_subset(range(1, n + 1, 3), n)):
        assert form.entries() == dense_entries(form)


def test_subspace_rank_from_minors():
    V = Subspace(Mat([[1, 2, 0, 3], [0, 0, 1, 1]]))
    assert V.plucker() is V.plucker()
    assert V.plucker().coords == {(1, 3): 1, (2, 3): 2, (1, 4): 1, (2, 4): 2, (3, 4): -3}
    for rows in ([[1, 2, 0], [2, 4, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(DegenerateInputError, match="rank"):
            Subspace(Mat(rows))


@pytest.mark.parametrize("field", ["rational", "gaussian"])
def test_from_matrix_holds_its_minors_in_integer_form(field):
    # sampled planes, then wider and taller random bases (the last one
    # eliminated), one entry a GaussianRational with imaginary part 0
    rng = random.Random(field)
    bases = [sample_isotropic(k, n, (QuadraticForm.alternating(n) if field == "rational"
                                     else QuadraticForm.standard(n)), seed, field=field).basis
             for k, n in [(1, 3), (2, 5), (3, 6), (3, 7)] for seed in range(3)]
    for k, n in [(2, 5), (4, 5), (10, 11)]:
        rows = rand_matrix(rng, k, n).rows
        if field == "gaussian":
            rows[0][0] = GaussianRational(rows[0][0], rng.choice((0, Fraction(1, 3))))
            rows[-1] = [GaussianRational(x, rand_rational(rng)) for x in rows[-1]]
        bases.append(Mat(rows))
    for M in bases:
        k, n = M.nrows, M.ncols
        eager = PluckerVector(k, n, minors(M, k))
        D0, re0, im0, gaussian0 = eager.cleared()
        p = PluckerVector.from_matrix(M)
        D, re, im, gaussian = p.cleared()
        # the same coordinates over another common denominator
        assert gaussian == gaussian0 and (im is None) == (im0 is None) == (field == "rational")
        assert [a * D0 for a in re] == [a * D for a in re0]
        assert [a * D0 for a in im or ()] == [a * D for a in im0 or ()]
        for q in (p, PluckerVector.from_matrix(M)):  # coords read after or before cleared()
            assert list(q.coords.items()) == list(eager.coords.items())
            assert [type(v) for v in q.coords.values()] == [type(v) for v in eager.coords.values()]


def cocircuit_matrix(p):
    """Cocircuit matrix P of p: row I (a (k-1)-subset, colex order) holds
    eps(I, l) p_{I + l} in column l."""
    return Mat([[eps(I, l) * p.get(tuple(sorted(I + (l,)))) if l not in I else 0
                 for l in range(1, p.n + 1)] for I in ksubsets(p.n, p.k - 1)])


def test_cocircuit_coordinate_subspace():
    p = PluckerVector.from_matrix(Mat([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]))
    P = cocircuit_matrix(p)
    for i in range(P.nrows):
        nonzero = [x for x in P.row(i) if x != 0]
        assert len(nonzero) <= 1


def test_cocircuit_signed_row():
    sub = sample_isotropic(2, 5, QuadraticForm.alternating(5), 3)
    p = sub.plucker()
    P = cocircuit_matrix(p)
    # row of I = {2} in colex order of 1-subsets is index 1
    row = P.row(1)
    assert row[0] == -p.get((1, 2))
    assert row[1] == 0
    assert row[2] == p.get((2, 3))
    assert row[3] == p.get((2, 4))
    assert row[4] == p.get((2, 5))


def test_residual_zero_iff_isotropic():
    alt = QuadraticForm.alternating(6)
    for seed in range(10):
        p = sample_isotropic(2, 6, alt, seed).plucker()
        assert is_isotropic(p, alt)
    not_iso = PluckerVector.from_matrix(
        Mat([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    )
    assert not is_isotropic(not_iso, alt)


def test_residual_detects_standard_form_failure():
    std = QuadraticForm.standard(5)
    p = PluckerVector.from_matrix(Mat([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]))
    assert not is_isotropic(p, std)


@pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (3, 8)])
def test_sampler_exact_for_alternating(k, n):
    alt = QuadraticForm.alternating(n)
    for seed in range(5):
        sub = sample_isotropic(k, n, alt, seed)
        assert is_isotropic(sub.plucker(), alt)


def test_sampler_exact_for_standard_complex():
    std = QuadraticForm.standard(6)
    for seed in range(5):
        sub = sample_isotropic(2, 6, std, seed, field="gaussian")
        assert is_isotropic(sub.plucker(), std)


def test_sampler_deterministic():
    alt = QuadraticForm.alternating(6)
    a = sample_isotropic(2, 6, alt, 42).basis
    b = sample_isotropic(2, 6, alt, 42).basis
    assert a == b


def test_sampler_rejects_lorentzian():
    with pytest.raises(UnsupportedFormError):
        sample_isotropic(2, 4, QuadraticForm.from_diagonal([1, -1, -1, -1]), 0)


def test_sampler_rejects_small_n():
    with pytest.raises(EmptinessError):
        sample_isotropic(2, 3, QuadraticForm.alternating(3), 0)


def test_sampler_line_case():
    sub = sample_isotropic(1, 4, QuadraticForm.alternating(4), 7)
    x = sub.basis.row(0)
    assert x[0] ** 2 - x[1] ** 2 + x[2] ** 2 - x[3] ** 2 == 0


def test_hodge_coordinate_subspace():
    V = Subspace(Mat([[1, 0, 0, 0], [0, 1, 0, 0]]))
    W = hodge_complement(V)
    q = W.plucker()
    assert q.support() == {(3, 4)}
    assert q.eq_projective(PluckerVector(2, 4, {(3, 4): 1}))
    ok, scalar = hodge_check(V)
    assert ok


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7)])
def test_hodge_random_subspaces(k, n):
    rng = random.Random(n + k)
    for _ in range(25):
        V = Subspace(rand_matrix(rng, k, n))
        ok, _ = hodge_check(V)
        assert ok


def test_hodge_double_complement():
    rng = random.Random(17)
    V = Subspace(rand_matrix(rng, 2, 6))
    W = hodge_complement(hodge_complement(V))
    assert W.plucker().eq_projective(V.plucker())


def test_complementary_ratio_sign_values():
    for k in range(1, 5):
        evens = tuple(range(2, 2 * k + 1, 2))
        assert complementary_ratio_sign(k, evens) == 1
    assert complementary_ratio_sign(2, (1,)) == -1


def swap_component(p: PluckerVector) -> PluckerVector:
    """Image under the reflection negating the first coordinate; exchanges
    the standard and twisted components."""
    return PluckerVector(
        p.k, p.n, {I: (-v if 1 in I else v) for I, v in p.coords.items()}
    )


def test_component_detection_and_swap():
    for seed in range(5):
        p = sample_isotropic_component(2, seed=seed).plucker()
        assert component_of(p) == "standard"
        assert component_of(swap_component(p)) == "twisted"


def test_component_rejects_non_point():
    p = PluckerVector.from_matrix(Mat([[1, 0, 0, 0], [0, 1, 0, 0]]))
    with pytest.raises(NotAPointError):
        component_of(p)


def test_ratio_on_sampled_points():
    # rational samples for the alternating form: ratio squared is +1
    for seed in range(10):
        p = sample_isotropic(2, 4, QuadraticForm.alternating(4), seed).plucker()
        a, b = p.get((1, 3)), p.get((2, 4))
        if a == 0 or b == 0:
            continue
        assert (a / b) ** 2 == 1
    # one flipped sign: ratios are imaginary, squared -1
    form = QuadraticForm.signed_subset((1,), 4)
    for seed in range(10):
        p = sample_isotropic(2, 4, form, seed, field="gaussian").plucker()
        a, b = p.get((1, 3)), p.get((2, 4))
        if a == 0 or b == 0:
            continue
        assert (a / b) * (a / b) == GaussianRational(-1)
        break


def scaled(p, c):
    return PluckerVector(p.k, p.n, {I: c * v for I, v in p.coords.items()})


def test_tnn_examples():
    sigma = PluckerVector.from_matrix(
        Mat([[1, 1, 0, 0, -1, -1], [0, 0, 1, 1, 1, 1]])
    )
    assert is_totally_nonnegative(sigma)
    printed = PluckerVector.from_matrix(
        Mat([[1, 1, 0, 0, 2, 2], [0, 0, 1, 1, 0, 0]])
    )
    assert printed.get((3, 5)) == -2
    assert not is_totally_nonnegative(printed)
    negated = scaled(sigma, -1)
    assert is_totally_nonnegative(negated)


def test_plucker_serialization():
    p = PluckerVector(1, 3, {(1,): Fraction(1, 2), (3,): Fraction(-2)})
    js = p.to_json()
    assert js["coords"]["[1]"] == "1/2"
    assert js["coords"]["[2]"] == "0"
    assert js["coords"]["[3]"] == "-2"


def projective_examples():
    """Rational and Gaussian vectors, read off a matrix and built from a dict."""
    rational = sample_isotropic(2, 5, QuadraticForm.alternating(5), 1).plucker()
    gaussian = sample_isotropic(2, 5, QuadraticForm.standard(5), 2, field="gaussian").plucker()
    mixed = PluckerVector(2, 4, {(1, 2): Fraction(2, 3), (1, 4): GaussianRational(1, -2),
                                 (3, 4): GaussianRational(5, 0)})
    assert gaussian.cleared()[2] is not None
    return [rational, gaussian, mixed]


@pytest.mark.parametrize("c", [-1, Fraction(3, 7), GaussianRational(Fraction(1, 2), -3)])
def test_eq_projective_holds_under_scaling(c):
    for p in projective_examples():
        q = scaled(p, c)
        assert p.eq_projective(q) and q.eq_projective(p) and p.eq_projective(p)


def test_eq_projective_fails_on_another_ratio_or_support():
    for p in projective_examples():
        first, *rest = p.coords
        last = rest[-1]
        for c in (2, -1, GaussianRational(0, 1), GaussianRational(1, 1)):
            # the same support, one coordinate off the common ratio
            q = PluckerVector(p.k, p.n, {**p.coords, last: c * p.get(last)})
            assert not p.eq_projective(q) and not q.eq_projective(p)
        for I in (first, last):  # a support one smaller, before or after p's first
            q = PluckerVector(p.k, p.n, {**p.coords, I: 0})
            assert q.support() == p.support() - {I}
            assert not p.eq_projective(q) and not q.eq_projective(p)
    p = projective_examples()[0]
    assert not p.eq_projective(PluckerVector(2, 6, {(1, 2): 1}))


def test_a_real_gaussian_coordinate_keeps_its_type():
    p = PluckerVector(2, 4, {(1, 2): GaussianRational(3, 0), (1, 3): Fraction(1, 2),
                             (2, 4): GaussianRational(0, 0)})
    assert p.coords == {(1, 2): 3, (1, 3): Fraction(1, 2)}
    assert [type(v) for v in p.coords.values()] == [GaussianRational, Fraction]
    assert type(p.get((1, 2))) is GaussianRational and p.get((1, 2)) == 3
    assert type(p.get((2, 4))) is Fraction and p.get((2, 4)) == 0
    assert p.support() == {(1, 2), (1, 3)}
    assert p.to_json()["coords"]["[1,2]"] == "3"
    with pytest.raises(TypeError):
        p.coords[(1, 4)] = 1  # a read-only view
    with pytest.raises(DegenerateInputError):  # zero in both parts
        PluckerVector(2, 4, {(1, 2): 0, (2, 4): GaussianRational(0, 0)})


def test_sampler_hyperbolic_form():
    hyp = QuadraticForm.hyperbolic(6)
    for seed in range(5):
        sub = sample_isotropic(2, 6, hyp, seed)
        assert is_isotropic(sub.plucker(), hyp)
