import math

import pytest

from ogrlab.errors import EmptinessError, InputError
from ogrlab.weyl import (
    _root_data,
    degree_report,
    hilbert_polynomial,
    ogr_degree,
    ogr_dimension,
    standard_monomial_prediction,
    weyl_dim,
)


def test_positive_root_counts():
    assert len(_root_data(6)[1]) == 6  # D3: m(m-1)
    assert len(_root_data(7)[1]) == 9  # B3: m^2


def test_weyl_dim_values():
    assert weyl_dim(2, 6, 2) == 84
    assert weyl_dim(2, 6, 0) == 1
    assert weyl_dim(3, 7, 0) == 1


def test_weyl_dim_vector_representation():
    for n in range(3, 9):
        assert weyl_dim(1, n, 1) == n


def test_weyl_dim_degree_one_is_binomial():
    for (k, n) in [(2, 5), (2, 6), (2, 7), (3, 7), (3, 8)]:
        assert weyl_dim(k, n, 1) == math.comb(n, k)


def test_hilbert_polynomial_quadric_surface():
    hp = hilbert_polynomial(1, 4)
    assert len(hp) - 1 == 2
    evals = [sum(c * ell ** i for i, c in enumerate(hp)) for ell in (1, 2)]
    assert evals == [4, 9]


def test_hilbert_polynomial_degree():
    assert len(hilbert_polynomial(2, 5)) - 1 == 3


@pytest.mark.parametrize("k,n", [(1, 4), (1, 5), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8)])
def test_hilbert_matches_weyl_dim(k, n):
    hp = hilbert_polynomial(k, n)
    D = len(hp) - 1
    for ell in range(D + 3):
        val = sum(c * ell ** i for i, c in enumerate(hp))
        assert val == weyl_dim(k, n, ell)


def test_ogr_dimension():
    assert ogr_dimension(2, 6) == 5
    # k(n-k) - k(k+1)/2 at (3,6): one spinor-variety component has dim 3
    assert ogr_dimension(3, 6) == 3
    for n in range(3, 9):
        assert ogr_dimension(1, n) == n - 2


def test_ogr_dimension_empty():
    with pytest.raises(EmptinessError):
        ogr_dimension(3, 5)


def test_ogr_degree_values():
    assert ogr_degree(1, 6) == 2
    assert ogr_degree(1, 5) == 2
    assert ogr_degree(2, 6) == 20


def test_degree_equals_leading_coefficient_route():
    for (k, n) in [(1, 4), (1, 7), (2, 5), (2, 8), (3, 7), (3, 9)]:
        hp = hilbert_polynomial(k, n)
        D = len(hp) - 1
        assert ogr_degree(k, n) == hp[-1] * math.factorial(D)


def test_degree_needs_strict_inequality():
    with pytest.raises(InputError):
        ogr_degree(2, 4)


def test_prediction_formula():
    assert standard_monomial_prediction(2, 6) == 84
    assert standard_monomial_prediction(3, 7) == 294


def test_degree_report_shape():
    rep = degree_report(2, 6)
    assert rep["dim"] == 5 and rep["degree"] == 20
    assert len(rep["hilbert"]) == 6
