import random
from fractions import Fraction

import pytest

from ogrlab.errors import (
    DegenerateInputError,
    EmptinessError,
    NotAPointError,
    UnsupportedFormError,
)
from ogrlab.exact_core import GaussianRational, Mat, ksubsets, rand_matrix
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


def test_subspace_rank_from_minors():
    V = Subspace(Mat([[1, 2, 0, 3], [0, 0, 1, 1]]))
    assert V.plucker() is V.plucker()
    assert V.plucker().coords == {(1, 3): 1, (2, 3): 2, (1, 4): 1, (2, 4): 2, (3, 4): -3}
    for rows in ([[1, 2, 0], [2, 4, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(DegenerateInputError, match="rank"):
            Subspace(Mat(rows))


def cocircuit_matrix(p):
    """Cocircuit matrix P of p: row I (a (k-1)-subset, colex order) holds
    eps(I, l) p_{I + l} in column l."""
    return Mat([[eps(I, l) * p.get(tuple(sorted(I + (l,)))) for l in range(1, p.n + 1)]
                for I in ksubsets(p.n, p.k - 1)])


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
    q = W.plucker().normalized()
    assert q.get((3, 4)) == 1 and len(q.coords) == 1
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
    negated = sigma.scale(-1)
    assert is_totally_nonnegative(negated)


def test_plucker_serialization():
    p = PluckerVector(1, 3, {(1,): Fraction(1, 2), (3,): Fraction(-2)})
    js = p.to_json()
    assert js["coords"]["[1]"] == "1/2"
    assert js["coords"]["[2]"] == "0"
    assert js["coords"]["[3]"] == "-2"


def test_sampler_hyperbolic_form():
    hyp = QuadraticForm.hyperbolic(6)
    for seed in range(5):
        sub = sample_isotropic(2, 6, hyp, seed)
        assert is_isotropic(sub.plucker(), hyp)
