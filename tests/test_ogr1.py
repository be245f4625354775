import random
from fractions import Fraction

import pytest

from ogrlab.errors import InputError, PoleError
from ogrlab.forms_points import PluckerVector
from ogrlab.ogr1 import (
    Cell1,
    canonical_coeff,
    cell_leq,
    cells,
    closure_cells,
    face_vector,
    hasse_edges,
    interior_points,
    make_cell,
    parametrize_cell,
    quadric_residual,
    residue_check,
    simplex_product_f_vector,
)
from ogrlab.weyl import ogr_dimension


def cycle_of(cell: Cell1, n: int) -> tuple[int, ...]:
    """The unique single-excedance cycle on the support: each support element
    maps to the next smaller one, the minimum to the maximum."""
    support = sorted(cell.A + cell.B)
    perm = list(range(1, n + 1))
    for i, s in enumerate(support):
        perm[s - 1] = support[i - 1] if i > 0 else support[-1]
    return tuple(perm)


def test_cell_counts():
    assert len(cells(4)) == 9
    assert len(cells(5)) == 21
    assert len(cells(6)) == 49


def test_cycle_of_vertex_cell():
    assert cycle_of(Cell1((1,), (2,)), 4) == (2, 1, 3, 4)


def test_cycle_of_has_one_excedance():
    for n in (4, 5, 6):
        for cell in cells(n):
            perm = cycle_of(cell, n)
            exc = sum(1 for i in range(1, n + 1) if perm[i - 1] > i)
            assert exc == 1
            support = {i for i in range(1, n + 1) if perm[i - 1] != i}
            assert support == set(cell.A) | set(cell.B)


def test_face_vector_small():
    assert face_vector(4) == [4, 4, 1]
    assert face_vector(5) == [6, 9, 5, 1]


@pytest.mark.parametrize("n", range(3, 11))
def test_face_vector_is_simplex_product(n):
    assert face_vector(n) == simplex_product_f_vector((n + 1) // 2, n // 2)


def test_closure_vertex():
    v = Cell1((1,), (2,))
    assert closure_cells(v) == [v]


def test_closure_top_square():
    top = Cell1((1, 3), (2, 4))
    assert len(closure_cells(top)) == 9
    assert set(closure_cells(top)) == set(cells(4))


def test_closure_matches_order():
    for n in (4, 5, 6):
        all_cells = cells(n)
        for d in all_cells:
            assert set(closure_cells(d)) == {c for c in all_cells if cell_leq(c, d)}


def test_hasse_edges_counts():
    edges = hasse_edges(4)
    assert all(c.dimension + 1 == d.dimension for c, d in edges)


def test_parametrize_pythagorean():
    c = make_cell([1, 3], [2], 5)
    p = parametrize_cell(c, 5, [Fraction(2)], [])
    assert p.get((1,)) == Fraction(3, 5)
    assert p.get((3,)) == Fraction(4, 5)
    assert p.get((2,)) == 1
    assert quadric_residual(p) == 0


@pytest.mark.parametrize("n", [3, 5, 8])
def test_quadric_residual_off_the_quadric(n):
    """The residual is the alternating sum of squares x_1^2 - x_2^2 + ...,
    nonzero off the quadric."""
    rng = random.Random(n)
    nonzero = 0
    for _ in range(20):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        p = PluckerVector(1, n, {(i + 1,): v for i, v in enumerate(x) if v})
        want = sum((-1) ** i * v * v for i, v in enumerate(x))
        assert quadric_residual(p) == want
        nonzero += want != 0
    assert nonzero >= 15


@pytest.mark.parametrize("A,B", [([1, 1], [2]), ([1, 3], [2, 2]), ([3, 1, 3], [4, 2, 4])])
def test_make_cell_refuses_a_repeated_entry(A, B):
    # a repeated entry made a "cell" whose points miss the quadric
    with pytest.raises(InputError, match="repeat"):
        make_cell(A, B, 5)


def test_parametrize_rejects_boundary_parameters():
    c = make_cell([1, 3], [2], 5)
    with pytest.raises(InputError):
        parametrize_cell(c, 5, [Fraction(1)], [])


def test_parametrize_vertex():
    c = make_cell([1], [2], 4)
    p = parametrize_cell(c, 4, [], [])
    assert p.get((1,)) == p.get((2,)) == 1
    assert quadric_residual(p) == 0


def test_parametrized_support_and_quadric():
    rng = random.Random(12)
    for n in (5, 6, 7, 8):
        for cell in rng.sample(cells(n), 6):
            us = [Fraction(rng.randint(11, 50), 10) for _ in range(len(cell.A) - 1)]
            vs = [Fraction(rng.randint(11, 50), 10) for _ in range(len(cell.B) - 1)]
            p = parametrize_cell(cell, n, us, vs)
            assert quadric_residual(p) == 0
            assert p.support() == frozenset((i,) for i in cell.A + cell.B)
            assert all(v > 0 for v in p.coords.values())


def test_boundary_limit_drops_support():
    # driving a parameter to the boundary value 1 lands in the cell with
    # that support element removed
    cell = make_cell([1, 3, 5], [2], 6)
    limit = parametrize_cell(make_cell([3, 5], [2], 6), 6, [Fraction(3)], [])
    # u_1 -> 1 sends the tanh factor to 0, killing coordinate 1
    near = parametrize_cell(cell, 6, [Fraction(101, 100), Fraction(3)], [])
    assert near.get((1,)) != 0
    assert limit.get((1,)) == 0


def test_top_dimension_matches_variety():
    for n in range(3, 9):
        assert max(c.dimension for c in cells(n)) == n - 2 == ogr_dimension(1, n)


def test_canonical_coeff_example():
    one = Fraction(1)
    value = canonical_coeff({2: one, 3: one, 4: one})
    assert value == 2 and isinstance(value, Fraction)
    # (1 + u_2^2 + u_3^2) / (u_2 u_3 u_4 u_5^2) = (21/4) / (1/3)
    us = {2: Fraction(1, 2), 3: Fraction(2), 4: Fraction(3), 5: Fraction(1, 3)}
    assert canonical_coeff(us) == Fraction(63, 4)
    floats = {j: float(u) for j, u in us.items()}
    assert canonical_coeff(floats) == pytest.approx(float(canonical_coeff(us)))


def test_canonical_coeff_pole():
    with pytest.raises(PoleError):
        canonical_coeff({2: Fraction(0), 3: Fraction(1), 4: Fraction(1)})
    with pytest.raises(PoleError):
        canonical_coeff({2: 1.0, 3: 1.0, 4: 0.0})


def test_interior_positivity():
    for n in (4, 5, 6):
        pts = interior_points(n, seed=n)
        assert len(pts) == 100
        assert all(canonical_coeff(us) > 0 for us in pts)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_residues_all_divisors(n):
    for i in range(2, n + 1):
        rep = residue_check(n, i, seed=7 * n + i)
        assert rep["ok"], rep


def test_boundary_parameter_identities():
    # at the boundary value the tanh-like factor vanishes and the sech-like
    # factor is 1, so the remaining coordinates parametrize the smaller cell
    from ogrlab.ogr1 import _sech_like, _tanh_like

    one = Fraction(1)
    assert _tanh_like(one) == 0
    assert _sech_like(one) == 1
    u = Fraction(7, 5)
    assert _tanh_like(u) ** 2 + _sech_like(u) ** 2 == 1
