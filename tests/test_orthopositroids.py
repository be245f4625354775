import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from ogrlab.errors import InputError
from ogrlab.exact_core import Mat, eps, ksubsets
from ogrlab.forms_points import (
    PluckerVector,
    QuadraticForm,
    is_totally_nonnegative,
)
from ogrlab.ideal_gens import is_isotropic
from ogrlab.parity_duality import all_matchings, matching_to_permutation_via_contraction
from ogrlab.orthopositroids import (
    DecoratedPermutation,
    OrthoReport,
    Positroid,
    a_sets,
    bases_from_necklace,
    bridge_decomposition,
    bridge_matrix,
    _ResidualModel,
    cell_dim_in_ogr_numeric,
    dims_report,
    dperm_from_necklace,
    edge_e,
    enumerate_orthopositroids,
    enumerate_positroids,
    gluing_check,
    is_orthopositroid,
    m_sigma,
    m_tau,
    necklace_of,
    printed_e1,
    sample_cell_point,
    tau_solution,
    top_cell_dperm,
)

ALT6 = QuadraticForm.alternating(6)

M1 = frozenset([(1, 2), (1, 4), (2, 5), (4, 5)])
M2 = frozenset([(1, 2), (1, 3), (2, 4), (3, 4)])

COMPILED_SIZES = [(1, 4), (2, 5), (2, 6), (3, 6)]


def relabel_bases(bases, mapping) -> frozenset:
    """Image of a bases set under a ground-set relabeling."""
    return frozenset(tuple(sorted(mapping[x] for x in B)) for B in bases)


def reference_report(bases, k, n) -> OrthoReport:
    """The pair test as a loop over a_sets for every pair I <= J."""
    failures = []
    subs = ksubsets(n, k - 1)
    for a, I in enumerate(subs):
        for J in subs[a:]:
            plus, minus = a_sets(bases, I, J, n)
            if bool(plus) != bool(minus):
                failures.append((I, J, plus, minus))
    return OrthoReport(verdict=not failures, failures=tuple(failures))


def reference_bases_from_necklace(necklace, k, n) -> frozenset:
    """Oh's rule by sorting the ranks of every k-subset in every cyclic order."""
    gale = []
    for a in range(1, n + 1):
        ranks = [(x - a) % n for x in range(n + 1)]
        ia = sorted(necklace[a - 1], key=lambda x: ranks[x])
        gale.append((ranks, [ranks[x] for x in ia]))
    return frozenset(
        B for B in ksubsets(n, k)
        if all(
            all(ir <= br for ir, br in zip(ia_ranks, sorted(ranks[x] for x in B)))
            for ranks, ia_ranks in gale
        )
    )


def test_decorated_permutation_type():
    dp = DecoratedPermutation((4, 3, 2, 1, 5), frozenset())
    assert dp.type_k() == 2
    dp2 = DecoratedPermutation((1, 2), frozenset({1}))
    assert dp2.type_k() == 1


def test_decorated_permutation_validation():
    with pytest.raises(InputError):
        DecoratedPermutation((2, 2, 3), frozenset())
    with pytest.raises(InputError):
        DecoratedPermutation((2, 1), frozenset({1}))


def test_necklace_of_top_cell():
    dp = top_cell_dperm(2, 4)
    assert necklace_of(dp) == ((1, 2), (2, 3), (3, 4), (1, 4))


def test_oh_rule_round_trip_through_bases():
    pos = Positroid.from_bases(M2, 2, 5)
    assert pos.dperm.word == (4, 3, 2, 1, 5)
    assert pos.dperm.coloops == frozenset()
    assert pos.bases == M2
    assert dperm_from_necklace(pos.necklace, 5) == pos.dperm


def test_from_bases_rejects_non_positroid():
    # two disjoint bases cannot satisfy the exchange axiom
    with pytest.raises(InputError):
        Positroid.from_bases({(1, 2), (3, 4)}, 2, 5)


def test_a_sets_second_family():
    assert a_sets(M2, (1,), (4,), 5) == ((2,), (3,))


def test_a_sets_first_family_one_sided():
    plus, minus = a_sets(M1, (2,), (4,), 5)
    assert (not plus) != (not minus)
    assert set(plus) | set(minus) == {1, 5}


def test_a_sets_empty_both_sides():
    assert a_sets(M2, (5,), (5,), 5) == ((), ())


@pytest.mark.parametrize("k,n", COMPILED_SIZES)
def test_compiled_pair_test_matches_a_sets_loop(k, n):
    failing = 0
    for pos in enumerate_positroids(k, n):
        want = reference_report(pos.bases, k, n)
        assert is_orthopositroid(pos) == want
        assert is_orthopositroid(pos.bases, k, n) == want
        failing += not want.verdict
    assert failing  # the failure lists, order included, were compared


@pytest.mark.parametrize("k,n", COMPILED_SIZES)
def test_gale_upsets_match_sorted_rank_rule(k, n):
    for pos in enumerate_positroids(k, n):
        assert bases_from_necklace(pos.necklace, k, n) == \
            reference_bases_from_necklace(pos.necklace, k, n)


def test_raw_bases_ignore_non_subsets_and_k_zero_passes():
    extra = M2 | {(1, 9), (2, 3, 4)}
    assert is_orthopositroid(extra, 2, 5) == is_orthopositroid(M2, 2, 5)
    assert is_orthopositroid([()], 0, 4) == OrthoReport(True, ())


def test_size_guard_precedes_work():
    # (4, 9) is past the guard, C(9, 4) = 126, yet small enough to finish
    # quickly if the guard were missing
    with pytest.raises(InputError):
        enumerate_positroids(1, 11)
    with pytest.raises(InputError):
        enumerate_positroids(4, 9)
    with pytest.raises(InputError):
        is_orthopositroid([(1, 2, 3, 4)], 4, 9)
    with pytest.raises(InputError):
        bases_from_necklace(necklace_of(top_cell_dperm(4, 9)), 4, 9)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orthopositroids_at_n_2k_are_the_matchings(k):
    n = 2 * k
    cells = enumerate_orthopositroids(k, n)
    fpf_involutions = {
        w for w in permutations(range(1, n + 1))
        if all(w[i] != i + 1 and w[w[i] - 1] == i + 1 for i in range(n))
    }
    assert len(cells) == math.prod(range(1, n, 2))
    assert {p.dperm.word for p in cells} == fpf_involutions
    assert not any(p.dperm.coloops for p in cells)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orthopositroids_at_n_2k_plus_1_are_the_contracted_matchings(k):
    # the isomorphism OG+(k, 2k+1) = OG+(k+1, 2k+2) on cells: (word, loops)
    # of each orthopositroid against the contraction images of the matchings
    cells = enumerate_orthopositroids(k, 2 * k + 1)
    read = {
        (p.dperm.word, frozenset(p.dperm.fixed_points()) - p.dperm.coloops)
        for p in cells
    }
    images = {
        matching_to_permutation_via_contraction(mt, k)
        for mt in all_matchings(2 * k + 2)
    }
    assert len(read) == len(cells) == math.prod(range(1, 2 * k + 2, 2))
    assert read == images


def test_example_verdicts():
    assert not is_orthopositroid(M1, 2, 5).verdict
    assert is_orthopositroid(M2, 2, 5).verdict


def test_enumerate_positroids_small_counts():
    assert len(enumerate_positroids(1, 2)) == 3
    assert len(enumerate_positroids(2, 4)) == 33


def test_enumerate_positroids_distinct_bases():
    ps = enumerate_positroids(2, 5)
    assert len({p.bases for p in ps}) == len(ps)


def test_orthopositroid_counts():
    assert len(enumerate_orthopositroids(2, 6)) == 99
    assert len(enumerate_orthopositroids(2, 5)) == 15


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 6)])
def test_enumeration_keeps_the_positroids_whose_full_report_passes(k, n):
    passing = tuple(p for p in enumerate_positroids(k, n) if is_orthopositroid(p).verdict)
    assert enumerate_orthopositroids(k, n) == passing


def test_line_case_orthopositroids_match_cells():
    from ogrlab.ogr1 import cells

    for n in (4, 5, 6):
        assert len(enumerate_orthopositroids(1, n)) == len(cells(n))


def test_uniform_positroid_is_ortho():
    top = Positroid.from_dperm(top_cell_dperm(2, 6))
    assert len(top.bases) == 15
    assert is_orthopositroid(top).verdict


def test_symmetry_closure_of_the_99():
    fams = {p.bases for p in enumerate_orthopositroids(2, 6)}
    rot2 = {i: (i - 1 + 2) % 6 + 1 for i in range(1, 7)}
    refl = {1: 1, 2: 6, 3: 5, 4: 4, 5: 3, 6: 2}
    for mapping in (rot2, refl):
        assert {relabel_bases(b, mapping) for b in fams} == fams


@pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (2, 6)])
def test_bridge_matrix_realizes_every_positroid(k, n):
    rng = random.Random(31 * k + n)
    for pos in enumerate_positroids(k, n):
        decomp = bridge_decomposition(pos.dperm)
        vals = [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(decomp.dim)]
        pv = PluckerVector.from_matrix(bridge_matrix(decomp, vals))
        assert pv.support() == pos.bases
        assert is_totally_nonnegative(pv)


def test_bridge_top_cell_dimension():
    for (k, n) in [(2, 4), (2, 6), (3, 6)]:
        assert bridge_decomposition(top_cell_dperm(k, n)).dim == k * (n - k)


def test_sample_cell_point_matroid():
    for idx, pos in enumerate(enumerate_orthopositroids(2, 6)[::10]):
        sub = sample_cell_point(pos, seed=idx)
        assert PluckerVector.from_matrix(sub.basis).support() == pos.bases


def test_cell_dim_top_cell():
    top = Positroid.from_dperm(top_cell_dperm(2, 6))
    res = cell_dim_in_ogr_numeric(top, seed=0)
    assert not res.failed
    assert res.dim == 5
    assert res.param_count == 8


def test_cell_dim_triangle_family():
    sigma_bases = frozenset(
        I for I in PluckerVector.from_matrix(
            Mat([[1, 1, 0, 0, -1, -1], [0, 0, 1, 1, 2, 2]])
        ).support()
    )
    pos = Positroid.from_bases(sigma_bases, 2, 6)
    res = cell_dim_in_ogr_numeric(pos, seed=3)
    assert res.dim == 2


def test_cell_dim_square_family():
    tau_bases = frozenset(
        tuple(sorted((i, j))) for i in (1, 2) for j in (3, 4, 5, 6)
    )
    pos = Positroid.from_bases(tau_bases, 2, 6)
    res = cell_dim_in_ogr_numeric(pos, seed=4)
    assert res.dim == 2


def swept_matrix(decomp, t):
    """The coordinate rows of the coloops swept through the bridges.
    Complex parameters are allowed, for complex-step derivatives."""
    X = np.zeros((decomp.k, decomp.n), dtype=complex)
    for r, c in enumerate(decomp.coloops):
        X[r, c - 1] = 1
    for (a, b, sign), v in reversed(list(zip(decomp.bridges, t))):
        X[:, b - 1] += sign * v * X[:, a - 1]
    return X


def determinant_residual(X, form):
    """The upper triangle of P Omega P^T by the determinant route: every
    maximal minor of X, and the cocircuit matrix P holding eps(I, l) p_{Il}."""
    k, n = X.shape
    subs = ksubsets(n, k)
    minors = np.linalg.det(np.stack([X[:, [c - 1 for c in I]] for I in subs]))
    p = dict(zip(subs, minors))
    rows = ksubsets(n, k - 1)
    P = np.zeros((len(rows), n), dtype=X.dtype)
    for r, I in enumerate(rows):
        for l in range(1, n + 1):
            if l not in I:
                P[r, l - 1] = eps(I, l) * p[tuple(sorted(I + (l,)))]
    M = (P * np.array(form.diag)) @ P.T
    return M[np.triu_indices(len(rows))]


def model_cells():
    """Every orthopositroid of (2,5) and (3,6), every 10th of (2,6), (3,7)."""
    for k, n, step in [(2, 5, 1), (3, 6, 1), (2, 6, 10), (3, 7, 10)]:
        yield from enumerate_orthopositroids(k, n)[::step]


def test_residual_model_matches_determinant_route():
    rng = np.random.default_rng(5)
    h = 1e-30
    kept = {}
    for pos in model_cells():
        k, n = pos.k, pos.n
        form = QuadraticForm.alternating(n)
        if (k, n) not in kept:
            # the identically zero entries vanish at two generic points
            generic = [determinant_residual(rng.normal(size=(k, n)), form).real
                       for _ in range(2)]
            kept[k, n] = generic[0] != 0
            assert np.array_equal(kept[k, n], generic[1] != 0)
        keep = kept[k, n]
        decomp = bridge_decomposition(pos.dperm)
        model = _ResidualModel(decomp, form)
        d = decomp.dim
        for t in np.exp(rng.uniform(np.log(0.3), np.log(3.0), (2, d))):
            ref = determinant_residual(swept_matrix(decomp, t), form).real
            r = model.residual(t)
            assert r.shape == (keep.sum(),)
            assert not ref[~keep].any()
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(r - ref[keep]).max() <= 1e-10 * scale
            # complex step: first derivatives of the reference, exact in float
            J_ref = np.zeros((len(ref), d))
            for j in range(d):
                X = swept_matrix(decomp, t + 1j * h * np.eye(d)[j])
                J_ref[:, j] = determinant_residual(X, form).imag / h
            J = model.jacobian(t)
            assert J.shape == (keep.sum(), d)
            assert np.abs(J - J_ref[keep]).max() <= 1e-10 * max(1.0, np.abs(J_ref).max())


def test_residual_model_jacobian_central_difference():
    rng = np.random.default_rng(9)
    h = 1e-6
    for pos in enumerate_orthopositroids(3, 7)[::25]:
        model = _ResidualModel(bridge_decomposition(pos.dperm),
                               QuadraticForm.alternating(7))
        t = np.exp(rng.uniform(np.log(0.3), np.log(3.0), model.d))
        step = h * np.eye(model.d)
        fd = np.stack([(model.residual(t + e) - model.residual(t - e)) / (2 * h)
                       for e in step], axis=1)
        J = model.jacobian(t)
        assert np.abs(J - fd).max() <= 1e-6 * max(1.0, np.abs(J).max())


def chord_crossings(word) -> int:
    """Crossing pairs among the chords (i, w(i)) of an involution."""
    chords = [(i, w) for i, w in enumerate(word, start=1) if i < w]
    return sum(1 for (a, b) in chords for (c, e) in chords if a < c < b < e)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_dims_at_n_2k_equal_crossing_numbers(k):
    rep = dims_report(k, 2 * k)
    assert rep["resolved"] == rep["total"]
    for res in rep["results"]:
        word = res.positroid.dperm.word
        assert all(word[w - 1] == i != w for i, w in enumerate(word, start=1))
        assert res.dim == chord_crossings(word)


def test_dims_report_is_sequential():
    with pytest.raises(InputError):
        dims_report(2, 4, workers=2)


def test_m_sigma_isotropic_and_nonnegative():
    for (x, y) in [(1, 1), (Fraction(1, 2), 3), (2, Fraction(2, 7))]:
        sub = m_sigma(x, y)
        p = sub.plucker()
        assert is_isotropic(p, ALT6)
        assert is_totally_nonnegative(p)


def test_m_sigma_matroid_is_ortho_cell():
    p = m_sigma(1, 2).plucker()
    pos = Positroid.from_bases(p.support(), 2, 6)
    assert is_orthopositroid(pos).verdict


def test_m_tau_constraint_enforced():
    with pytest.raises(InputError):
        m_tau(1, 1, 2)
    sub = m_tau(1, 2, 2)
    assert is_isotropic(sub.plucker(), ALT6)


def test_tau_solution_family():
    for b in (Fraction(1, 2), 1, Fraction(8, 3)):
        for s in (Fraction(1, 9), Fraction(1, 12)):
            a, c = tau_solution(b, s)
            sub = m_tau(a, b, c)
            p = sub.plucker()
            assert is_isotropic(p, ALT6)
            assert is_totally_nonnegative(p)


def test_edges_isotropic_nonnegative():
    for idx in (1, 2, 3):
        p = edge_e(idx, Fraction(5, 2)).plucker()
        assert is_isotropic(p, ALT6)
        assert is_totally_nonnegative(p)


def test_printed_edge_fails():
    p = printed_e1(Fraction(3, 4)).plucker()
    assert p.get((3, 5)) == -Fraction(3, 4)
    assert not is_totally_nonnegative(p)


def test_sampled_positive_points_have_ortho_matroids():
    # the matroid of any nonnegative isotropic point passes the pair test
    pts = [m_sigma(1, 1), m_sigma(Fraction(1, 3), 5), m_tau(1, 2, 2),
           edge_e(1, 2), edge_e(2, Fraction(1, 2)), edge_e(3, 3)]
    a, c = tau_solution(Fraction(3, 2), Fraction(1, 9))
    pts.append(m_tau(a, Fraction(3, 2), c))
    for sub in pts:
        p = sub.plucker()
        assert is_isotropic(p, ALT6)
        assert is_totally_nonnegative(p)
        assert is_orthopositroid(p.support(), 2, 6).verdict


def test_gluing_check_report():
    rep = gluing_check()
    assert rep["ok"], rep
    assert rep["cw_certificate"]
    assert rep["printed_e1_fails_nonnegativity"]
