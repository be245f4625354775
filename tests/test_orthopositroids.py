import dataclasses
import gc
import hashlib
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest

from ogrlab.errors import InputError, InternalInvariantError
from ogrlab.exact_core import Mat, ksubsets, rand_rational, subset_mask
from ogrlab.forms_points import (
    PluckerVector,
    QuadraticForm,
    Subspace,
    is_isotropic,
    is_totally_nonnegative,
)
from ogrlab.ideal_gens import _mono, orthogonality_relations
from ogrlab import ogr1, orthopositroids
from ogrlab.parity_duality import all_matchings, matching_to_permutation_via_contraction
from ogrlab.orthopositroids import (
    LM_BOUNDS,
    LM_SSQ_STOP,
    DecoratedPermutation,
    OrthoReport,
    Positroid,
    a_sets,
    bridge_decomposition,
    CellDimResult,
    _ResidualModel,
    _dperm_from_necklace,
    _necklace_masks,
    cell_dim_in_ogr_numeric,
    dims_report,
    edge_e,
    enumerate_decorated_permutations,
    enumerate_orthopositroids,
    enumerate_positroids,
    gluing_check,
    is_orthopositroid,
    least_squares,
    m_sigma,
    m_tau,
    printed_e1,
    tau_solution,
)
from ogrlab.weyl import ogr_dimension
from sign_reference import eps

ALT6 = QuadraticForm.alternating(6)

M1 = frozenset([(1, 2), (1, 4), (2, 5), (4, 5)])
M2 = frozenset([(1, 2), (1, 3), (2, 4), (3, 4)])

COMPILED_SIZES = [(1, 4), (2, 5), (2, 6), (3, 6)]

# the pair test is checked on every positroid of these sizes, and on every
# PAIR_TEST_STRIDE-th one of (3,7), which keeps that case under a second
PAIR_TEST_SIZES = COMPILED_SIZES + [(1, 7), (3, 7)]
PAIR_TEST_STRIDE = {(3, 7): 7}


def top_cell_dperm(k: int, n: int) -> DecoratedPermutation:
    """The decorated permutation i -> i + k (mod n) of the top cell of (k, n)."""
    word = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    return DecoratedPermutation(word, frozenset())


def relabel_bases(bases, mapping) -> frozenset:
    """Image of a bases set under a ground-set relabeling."""
    return frozenset(tuple(sorted(mapping[x] for x in B)) for B in bases)


@lru_cache(maxsize=None)
def signed_extensions(k, n) -> tuple:
    """(I, J, plus, minus) for each pair I <= J of (k-1)-subsets: every l
    outside I and J, split by the sign (-1)^(l-1) eps(I, l) eps(J, l) of its
    term in the alternating orthogonality quadric of (I, J)."""
    subs = ksubsets(n, k - 1)
    out = []
    for a, I in enumerate(subs):
        for J in subs[a:]:
            signs = [((-1) ** (l - 1) * eps(I, l) * eps(J, l), l) for l in range(1, n + 1)]
            out.append((I, J, tuple(l for s, l in signs if s > 0),
                        tuple(l for s, l in signs if s < 0)))
    return tuple(out)


def reference_report(bases, k, n) -> tuple:
    """The pair test as a loop over the signed extensions of every pair
    I <= J: the l of each sign whose extensions I+l and J+l are both bases.
    Returns (verdict, failures), as outcome reads them off a report."""
    def both_bases(I, J, side):
        return tuple(
            l for l in side
            if tuple(sorted(I + (l,))) in bases and tuple(sorted(J + (l,))) in bases
        )

    failures = []
    for I, J, every_plus, every_minus in signed_extensions(k, n):
        plus, minus = both_bases(I, J, every_plus), both_bases(I, J, every_minus)
        if bool(plus) != bool(minus):
            failures.append((I, J, plus, minus))
    return not failures, tuple(failures)


def outcome(report: OrthoReport) -> tuple:
    return report.verdict, report.failures


def reference_necklace(dp) -> tuple:
    """The Grassmann necklace by its definition: I_a holds the values that
    come before their position in the cyclic order starting at a, and the
    coloops."""
    n = dp.n
    out = []
    for a in range(1, n + 1):
        def rank(x):
            return (x - a) % n

        entries = {
            dp.word[i - 1] for i in range(1, n + 1) if rank(dp.word[i - 1]) < rank(i)
        }
        out.append(tuple(sorted(entries | dp.coloops)))
    return tuple(out)


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
    necklace = ((1, 2), (2, 3), (3, 4), (1, 4))
    assert _necklace_masks(dp) == (2, [subset_mask(I) for I in necklace])


@pytest.mark.parametrize("k,n", [(0, 3), (1, 1), (1, 4), (2, 5), (2, 6), (3, 6), (3, 7)])
def test_necklace_recurrence_matches_definition(k, n):
    dperms = enumerate_decorated_permutations(k, n)
    for dp in dperms:
        necklace = reference_necklace(dp)
        assert _necklace_masks(dp) == (k, [subset_mask(I) for I in necklace])
        pos = Positroid.from_dperm(dp)
        assert (pos.k, pos.n, pos.dperm) == (k, n, dp)
        assert pos.bases == reference_bases_from_necklace(necklace, k, n)
    # loops and coloops were both covered
    assert any(set(dp.fixed_points()) - dp.coloops for dp in dperms) == (k < n)
    assert any(dp.coloops for dp in dperms) == (k > 0)


@pytest.mark.parametrize("n", range(8))
def test_necklace_walk_inverts_to_its_decorated_permutation(n):
    for k in range(n + 1):
        for dp in enumerate_decorated_permutations(k, n):
            assert _dperm_from_necklace(_necklace_masks(dp)[1], n) == dp


@pytest.mark.parametrize("n", range(8))
def test_decorated_permutations_come_in_sort_key_order(n):
    for k in range(n + 1):
        dperms = enumerate_decorated_permutations(k, n)
        assert dperms == sorted(dperms, key=lambda dp: dp.sort_key())


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6)])
def test_from_bases_rebuilds_each_enumerated_positroid(k, n):
    for pos in enumerate_positroids(k, n):
        again = Positroid.from_bases(pos.bases, k, n)
        assert again == pos and hash(again) == hash(pos)


def test_pair_test_reads_the_mask_without_decoding_bases():
    enumerate_positroids.cache_clear()
    enumerate_orthopositroids.cache_clear()
    cells = enumerate_orthopositroids(3, 7)
    positroids = enumerate_positroids(3, 7)
    assert (len(positroids), len(cells)) == (5111, 105)
    assert not any("bases" in vars(pos) for pos in positroids)
    assert [is_orthopositroid(pos).verdict for pos in positroids] == \
        [is_orthopositroid(Positroid.from_bases(pos.bases, 3, 7)).verdict for pos in positroids]


def test_oh_rule_round_trip_through_bases():
    pos = Positroid.from_bases(M2, 2, 5)
    assert pos.dperm.word == (4, 3, 2, 1, 5)
    assert pos.dperm.coloops == frozenset()
    assert pos.bases == M2
    assert _dperm_from_necklace(_necklace_masks(pos.dperm)[1], 5) == pos.dperm


NO_GALE_MINIMUM = "bases have no Gale minimum; not a positroid"
NOT_A_NECKLACE = "not a Grassmann necklace"
OUTSIDE_THE_HULL = "bases do not satisfy the necklace hull; not a positroid"

# how Positroid.from_bases takes every nonempty set of k-subsets
FROM_BASES_OUTCOMES = {
    (2, 4): {"positroid": 33, NO_GALE_MINIMUM: 12, NOT_A_NECKLACE: 9, OUTSIDE_THE_HULL: 9},
    (2, 5): {"positroid": 131, NO_GALE_MINIMUM: 470, NOT_A_NECKLACE: 206,
             OUTSIDE_THE_HULL: 216},
}


@pytest.mark.parametrize("k,n", sorted(FROM_BASES_OUTCOMES))
def test_from_bases_classifies_every_bases_set(k, n):
    subs = ksubsets(n, k)
    counts = Counter()
    for chosen in range(1, 1 << len(subs)):
        bases = frozenset(B for r, B in enumerate(subs) if chosen >> r & 1)
        try:
            pos = Positroid.from_bases(bases, k, n)
        except InputError as e:
            counts[str(e)] += 1
        else:
            assert (pos.k, pos.n, pos.bases) == (k, n, bases)
            counts["positroid"] += 1
    assert counts == FROM_BASES_OUTCOMES[k, n]
    assert counts["positroid"] == len(enumerate_positroids(k, n))


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
    with pytest.raises(InputError):
        a_sets(M2, (6,), (5,), 5)


@pytest.mark.parametrize("k,n", [(1, 4), (2, 5), (2, 6), (3, 6), (3, 7), (1, 7), (4, 8)])
def test_pair_table_signs_are_the_alternating_quadrics(k, n):
    """The pair test's plus and minus masks are the signs of the terms of
    the alternating orthogonality quadric of (I, J), p_{I+l} p_{J+l} for
    each l outside I and J; a pair with no such l has no quadric.  They are
    read off the packed sign rows: slot b of the row of I, for the J of
    colex rank b >= the rank of I, and no bits below that slot."""
    quadrics = iter(orthogonality_relations(k, n, QuadraticForm.alternating(n)))
    packing = orthopositroids._packing(k, n)
    subs = ksubsets(n, k - 1)
    assert len(packing.rows) == len(subs)
    for a, (I, (plus_row, minus_row)) in enumerate(zip(subs, packing.rows)):
        assert not (plus_row | minus_row) & ((1 << a * packing.width) - 1 | packing.high)
        for b, J in enumerate(subs[a:], a):
            plus = plus_row >> b * packing.width & packing.full
            minus = minus_row >> b * packing.width & packing.full
            assert not plus & minus
            if not plus | minus:
                continue
            signs = {}
            for l in range(1, n + 1):
                if (plus | minus) >> l & 1:
                    mono = _mono(tuple(sorted(I + (l,))), tuple(sorted(J + (l,))))
                    signs[mono] = 1 if plus >> l & 1 else -1
            assert dict(next(quadrics).terms) == signs
    assert next(quadrics, None) is None


@pytest.mark.parametrize("k,n", PAIR_TEST_SIZES)
def test_compiled_pair_test_matches_a_sets_loop(k, n):
    failing = 0
    for pos in enumerate_positroids(k, n)[::PAIR_TEST_STRIDE.get((k, n), 1)]:
        verdict, failures = want = reference_report(pos.bases, k, n)
        assert outcome(is_orthopositroid(pos)) == want
        assert outcome(is_orthopositroid(Positroid.from_bases(pos.bases, k, n))) == want
        for I, J, plus, minus in failures:
            assert a_sets(pos.bases, I, J, n) == a_sets(pos.bases, J, I, n) == (plus, minus)
        failing += not verdict
    assert failing  # the failure lists, order included, were compared


def test_verdict_alone_decodes_no_failure(monkeypatch):
    decoded = []

    def ascending(mask):
        decoded.append(mask)
        return tuple(l for l in range(mask.bit_length()) if mask >> l & 1)

    positroids = enumerate_positroids(2, 6)
    wants = [reference_report(pos.bases, 2, 6) for pos in positroids]
    monkeypatch.setattr(orthopositroids, "mask_bits", ascending)
    reports = [is_orthopositroid(pos) for pos in positroids]
    assert [report.verdict for report in reports] == [verdict for verdict, _ in wants]
    assert not decoded
    failing = [report for report in reports if not report.verdict]
    assert failing and not any("failures" in vars(report) for report in failing)
    assert [outcome(report) for report in reports] == wants
    assert decoded


def test_verdict_on_a_positroid_allocates_only_its_report():
    """The report is the one allocation on a Positroid's way to its verdict
    that the cyclic collector counts: with the gen-0 threshold at 1, a
    second one would start a collection inside the call."""
    positroids = enumerate_positroids(3, 7)
    sample = positroids[::511] + enumerate_orthopositroids(3, 7)[::21]
    is_orthopositroid(sample[0])  # builds the tables
    started, verdicts, held = [], [], []

    def callback(phase, info):
        if phase == "start":
            started.append(info["generation"])

    threshold = gc.get_threshold()
    try:
        for pos in sample:
            # a caller that keeps the pairs it makes, as a loop of
            # (positroid, verdict) does, leaves the pair freelist empty;
            # the 3- and 4-tuple freelists are emptied the same way, so
            # that an argument tuple built in the call would be counted
            held.append([(pos, j) for j in range(2001)])
            held.append([(pos, j, j) for j in range(2001)])
            held.append([(pos, j, j, j) for j in range(2001)])
            gc.collect(0)  # gen-0 count to 0; a full collection would empty the freelists
            gc.callbacks.append(callback)
            gc.set_threshold(1)
            verdicts.append(is_orthopositroid(pos).verdict)
            gc.set_threshold(*threshold)
            gc.callbacks.remove(callback)
    finally:
        gc.set_threshold(*threshold)
        if callback in gc.callbacks:
            gc.callbacks.remove(callback)
    assert not started
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("k,n", COMPILED_SIZES)
def test_gale_upsets_match_sorted_rank_rule(k, n):
    for pos in enumerate_positroids(k, n):
        assert Positroid.from_dperm(pos.dperm).bases == \
            reference_bases_from_necklace(reference_necklace(pos.dperm), k, n)


def test_from_bases_refuses_non_subsets_and_k_zero_passes():
    for extra in ((1, 9), (2, 3, 4)):
        with pytest.raises(InputError, match=r"bases must be 2-subsets of \[1, 5\]"):
            Positroid.from_bases(M2 | {extra}, 2, 5)
    assert outcome(is_orthopositroid(Positroid.from_bases([()], 0, 4))) == (True, ())


def test_size_guard_precedes_work():
    # (4, 9) is past the guard, C(9, 4) = 126, yet small enough to finish
    # quickly if the guard were missing
    with pytest.raises(InputError):
        enumerate_positroids(1, 11)
    with pytest.raises(InputError):
        enumerate_positroids(4, 9)
    refusal = re.escape("positroids are built for n <= 70 with C(n, k) at most 70; "
                        "got (k, n) = (4, 9)")
    with pytest.raises(InputError, match=f"^{refusal}$"):
        Positroid.from_bases([(1, 2, 3, 4)], 4, 9)
    with pytest.raises(InputError):
        Positroid.from_dperm(top_cell_dperm(4, 9))
    with pytest.raises(InputError, match=f"^{refusal}$"):
        a_sets([(1, 2, 3, 4)], (1, 2, 3), (1, 2, 4), 9)


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
    m1, m2 = Positroid.from_bases(M1, 2, 5), Positroid.from_bases(M2, 2, 5)
    assert (m1.dperm.word, m2.dperm.word) == ((5, 4, 3, 2, 1), (4, 3, 2, 1, 5))
    assert not is_orthopositroid(m1).verdict
    assert is_orthopositroid(m2).verdict


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


def bridge_matrix(decomp, values):
    """Exact cell sample: apply the recorded column operations to the
    coordinate rows; positive values land strictly inside the cell."""
    rows = [
        [Fraction(1) if j == c - 1 else Fraction(0) for j in range(decomp.n)]
        for c in decomp.coloops
    ]
    for (a, b, sign), t in reversed(list(zip(decomp.bridges, values, strict=True))):
        for row in rows:
            row[b - 1] += sign * t * row[a - 1]
    return Mat(rows)


def sample_cell_point(positroid, seed=0):
    """Random strictly-positive point of the positroid cell, exact."""
    decomp = bridge_decomposition(positroid.dperm)
    rng = random.Random(seed)
    vals = [abs(rand_rational(rng)) + Fraction(1, 10) for _ in range(decomp.dim)]
    return Subspace(bridge_matrix(decomp, vals))


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
        for s in rng.uniform(np.log(0.3), np.log(3.0), (2, d)):
            t = np.exp(s)
            ref = determinant_residual(swept_matrix(decomp, t), form).real
            r, jac = model.at(s)
            assert r.shape == (keep.sum(),)
            assert not ref[~keep].any()
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(r - ref[keep]).max() <= 1e-10 * scale
            # complex step: first derivatives of the reference in t, exact
            # in float; the chain rule gives J_s = J_t diag(t)
            J_ref = np.zeros((len(ref), d))
            for j in range(d):
                X = swept_matrix(decomp, t + 1j * h * np.eye(d)[j])
                J_ref[:, j] = determinant_residual(X, form).imag / h
            J_ref = J_ref[keep] * t
            J = jac()
            assert J.shape == (keep.sum(), d)
            assert np.abs(J - J_ref).max() <= 1e-10 * max(1.0, np.abs(J_ref).max())


def test_residual_model_jacobian_central_difference():
    rng = np.random.default_rng(9)
    h = 1e-6
    for pos in enumerate_orthopositroids(3, 7)[::25]:
        model = _ResidualModel(bridge_decomposition(pos.dperm),
                               QuadraticForm.alternating(7))
        s = rng.uniform(np.log(0.3), np.log(3.0), model.d)
        step = h * np.eye(model.d)
        fd = np.stack([(model.at(s + e)[0] - model.at(s - e)[0]) / (2 * h)
                       for e in step], axis=1)
        J = model.at(s)[1]()
        assert np.abs(J - fd).max() <= 1e-6 * max(1.0, np.abs(J).max())


def test_model_at_matches_a_fresh_evaluation():
    # the Jacobian function of one point keeps its own monomials: evaluating
    # the model elsewhere, before or after, does not change what it returns
    rng = np.random.default_rng(13)
    for pos in enumerate_orthopositroids(3, 7)[::20]:
        decomp = bridge_decomposition(pos.dperm)
        form = QuadraticForm.alternating(7)
        model = _ResidualModel(decomp, form)
        s, other = rng.uniform(np.log(1e-3), np.log(1e3), (2, decomp.dim))
        F, jac = model.at(s)
        F_other, jac_other = model.at(other)
        J_other = jac_other()
        J = jac()
        F_fresh, jac_fresh = _ResidualModel(decomp, form).at(s)
        assert np.array_equal(F, F_fresh)
        assert np.array_equal(J, jac_fresh())
        assert np.array_equal(J, jac())
        assert not np.array_equal(F, F_other) and not np.array_equal(J, J_other)


def indexed_bridge(k, n, a, b):
    """The bridge x_b += x_a as index arrays: p[tgt] += sigma * p[src]."""
    lo, hi = min(a, b), max(a, b)
    subs = ksubsets(n, k)
    tgt = [r for r, I in enumerate(subs) if b in I and a not in I]
    src = [subs.index(tuple(sorted(set(subs[r]) - {b} | {a}))) for r in tgt]
    sigma = [(-1) ** sum(lo < c < hi for c in subs[r]) for r in tgt]
    return np.array(tgt), np.array(src), np.array(sigma, dtype=float)


def coloop_vector(decomp, dtype=float):
    """The coordinate vector of the terminal coloops, over colex ranks."""
    start = np.zeros(math.comb(decomp.n, decomp.k), dtype=dtype)
    start[ksubsets(decomp.n, decomp.k).index(decomp.coloops)] = 1
    return start


def indexed_model(decomp, model, t):
    """Plucker vector, residual and Jacobian in t with the bridges applied as
    indexed array updates, read off the model's quadric terms, and the
    scale of each residual and Jacobian entry: the sum of the moduli of its
    terms."""
    p = coloop_vector(decomp)
    dp = np.zeros((len(p), decomp.dim))
    for ti in reversed(range(decomp.dim)):
        a, b, sign = decomp.bridges[ti]
        tgt, src, sigma = indexed_bridge(decomp.k, decomp.n, a, b)
        c = sign * sigma
        dp[tgt] += (t[ti] * c)[:, None] * dp[src]
        dp[tgt, ti] += c * p[src]
        p[tgt] += t[ti] * c * p[src]
    q = model.quadrics
    terms = q.coef * p[q.ra] * p[q.rb]
    r = np.bincount(q.row, terms, minlength=q.n_quadrics)
    r_scale = np.bincount(q.row, np.abs(terms), minlength=q.n_quadrics)
    grad = np.bincount(q.grad_index, q.grad_coef * p[q.grad_partner],
                       minlength=q.n_quadrics * len(p))
    G = grad.reshape(q.n_quadrics, len(p))
    return p, r, G @ dp, r_scale, np.abs(G) @ np.abs(dp)


def expanded_monomials(decomp):
    """p as {set U of bridges: integer coefficient vector of prod_{i in U} t_i},
    pushed symbolically through the indexed bridge updates, one bridge at a
    time; a monomial whose vector is zero is left out."""
    terms = {frozenset(): coloop_vector(decomp, dtype=int)}
    for ti in reversed(range(decomp.dim)):
        a, b, sign = decomp.bridges[ti]
        tgt, src, sigma = indexed_bridge(decomp.k, decomp.n, a, b)
        for U, v in list(terms.items()):
            w = np.zeros_like(v)
            w[tgt] = sign * sigma.astype(int) * v[src]
            if w.any():
                terms[U | {ti}] = w
    return terms


def test_monomial_expansion_matches_indexed_bridges():
    for pos in [*model_cells(), *enumerate_orthopositroids(4, 8)[::15]]:
        decomp = bridge_decomposition(pos.dperm)
        model = _ResidualModel(decomp, QuadraticForm.alternating(pos.n))
        assert set(np.unique(model.C)) <= {-1, 0, 1}
        assert set(np.unique(model.E)) <= {0, 1}
        assert model.E.shape == (model.C.shape[1], decomp.dim)
        got = {frozenset(np.flatnonzero(e).tolist()): c
               for e, c in zip(model.E, model.C.T)}
        want = expanded_monomials(decomp)
        assert len(got) == len(model.E)  # no monomial twice
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[U], want[U]) for U in want)


def test_monomial_model_matches_indexed_updates():
    rng = np.random.default_rng(11)
    for pos in model_cells():
        decomp = bridge_decomposition(pos.dperm)
        model = _ResidualModel(decomp, QuadraticForm.alternating(pos.n))
        # every monomial is exactly 1 at s = 0, and C is integral; there
        # t = 1, so the Jacobians in s and in t are one matrix
        zeros = np.zeros(decomp.dim)
        p, r, J, _, _ = indexed_model(decomp, model, np.ones(decomp.dim))
        F, jac = model.at(zeros)
        assert np.array_equal(model.plucker(zeros), p)
        assert np.array_equal(F, r)
        assert np.array_equal(jac(), J)
        for s in rng.uniform(np.log(1e-3), np.log(1e3), (2, decomp.dim)):
            t = np.exp(s)
            p, r, J, r_scale, J_scale = indexed_model(decomp, model, t)
            F, jac = model.at(s)
            # no coefficient of p is negative, so p is its own scale; the
            # Jacobian in s is the one in t times diag(t)
            assert (np.abs(model.plucker(s) - p) <= 1e-12 * np.abs(p)).all()
            assert (np.abs(F - r) <= 1e-12 * r_scale).all()
            assert (np.abs(jac() - J * t) <= 1e-12 * J_scale * t).all()


def recomputed_cell_dim(pos, seed, tol=1e-8, cutoff=1e-4, starts=32, wanted=3):
    """cell_dim_in_ogr_numeric with its solver, evaluating the residual and
    Jacobian again at each solution instead of reading them from the
    solver."""
    decomp = bridge_decomposition(pos.dperm)
    model = _ResidualModel(decomp, QuadraticForm.alternating(pos.n))
    d = decomp.dim
    rng = np.random.default_rng(seed)
    outcomes = []
    for _ in range(starts):
        sol = least_squares(model.at, rng.uniform(np.log(0.3), np.log(3.0), d))
        r, jac = model.at(sol.s)
        if float(r @ r) >= tol * tol:
            continue
        p = model.plucker(sol.s)
        basis = [abs(p[i]) for i, I in enumerate(ksubsets(pos.n, pos.k))
                 if I in pos.bases]
        if min(basis) < 1e-9 * np.abs(p).max():
            continue
        sv = np.linalg.svd(jac(), compute_uv=False)
        outcomes.append((d - int((sv > cutoff).sum()), float(r @ r), tuple(sv)))
        if len(outcomes) >= wanted:
            break
    dims = [o[0] for o in outcomes]
    counts = Counter(dims)
    dim = min(v for v, c in counts.items() if c == max(counts.values()))
    ssq, sv = next(o[1:] for o in outcomes if o[0] == dim)
    return CellDimResult(pos, d, dim, tuple(dims), ssq, sv)


def test_cell_dim_reads_solution_values_from_the_solver():
    cells = sorted(enumerate_orthopositroids(2, 6), key=lambda p: p.sort_key())
    for idx in (10, 40, 70, 98):
        res = cell_dim_in_ogr_numeric(cells[idx], seed=idx)
        assert res.param_count > 0 and not res.failed
        assert res == recomputed_cell_dim(cells[idx], seed=idx)


def test_solver_reaches_a_positive_zero():
    def fun(s):
        t = np.exp(s)
        F = np.array([t[0] * t[1] - 2, t[0] - 2 * t[1]])
        return F, lambda: np.array([[t[0] * t[1], t[0] * t[1]], [t[0], -2 * t[1]]])

    sol = least_squares(fun, np.log([0.5, 3.0]))
    assert sol.success and float(sol.fun @ sol.fun) < LM_SSQ_STOP
    assert np.allclose(np.exp(sol.s), [2.0, 1.0])
    assert ((np.log(LM_BOUNDS[0]) <= sol.s) & (sol.s <= np.log(LM_BOUNDS[1]))).all()
    # the values at s, as the model returns them there
    F, jac = fun(sol.s)
    assert np.array_equal(sol.fun, F)
    assert np.array_equal(sol.jac, jac())


def test_solver_returns_the_values_of_its_last_accepted_point():
    # every trial after the start meets a non-finite residual and is
    # rejected; each evaluation's Jacobian is its call number, so a
    # solver that kept the last trial's Jacobian returns another matrix
    calls = []

    def fun(s):
        calls.append(s)
        F = np.array([1.0]) if len(calls) == 1 else np.array([np.nan])
        J = np.array([[float(len(calls))]])
        return F, lambda: J

    s0 = np.array([0.0])
    sol = least_squares(fun, s0)
    assert sol.nfev == len(calls) > 1 and not sol.success
    assert any(not np.array_equal(s, s0) for s in calls[1:])
    assert np.array_equal(sol.s, s0)
    assert np.array_equal(sol.fun, [1.0]) and np.array_equal(sol.jac, [[1.0]])


def test_solver_keeps_to_its_box_when_the_zero_lies_beyond_it():
    lo, hi = LM_BOUNDS
    seen = []

    def fun(s):
        t = np.exp(s)
        seen.append(t[0])
        return t - 1e4, lambda: t[:, None]

    sol = least_squares(fun, np.zeros(1))
    t = np.exp(sol.s[0])
    assert not sol.success
    assert np.log(lo) <= sol.s[0] <= np.log(hi)
    assert t > 0.999 * hi  # up against the face nearest the zero
    assert all(lo <= t <= hi for t in seen) and len(seen) == sol.nfev
    # the undamped first step leaves the box: it is rejected and damped
    # until it fits, not cut back to the face
    assert seen[1] < 0.5 * hi


def test_solver_rejects_a_non_finite_trial_residual():
    blown = []

    def fun(s):
        t = np.exp(s)
        if t[0] > 5:
            blown.append(t[0])
            return np.array([np.nan]), lambda: t[:, None]
        return t - 2.0, lambda: t[:, None]

    sol = least_squares(fun, np.log([0.5]))
    assert blown  # the first trial step overshoots into the nan region
    assert sol.success and np.isfinite(sol.fun).all()
    assert np.isclose(np.exp(sol.s[0]), 2.0)


def test_solver_returns_its_start_when_every_system_is_singular():
    # a zero Jacobian starts mu at 0 and keeps it there, so every trial
    # system is singular: its nan step must fail the box test untried
    s0 = np.log([0.5, 2.0])
    sol = least_squares(lambda s: (np.array([1.0, s[0] - s[1]]), lambda: np.zeros((2, 2))),
                        s0)
    assert np.array_equal(sol.s, s0)
    assert sol.nfev == 1 and not sol.success


class Solving(Exception):
    """Raised in place of the solver: the cell's checks are done."""


def solving(*args, **kwargs):
    raise Solving


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (3, 6), (3, 7)])
def test_every_bridge_model_is_positive_exactly_on_its_bases(k, n, monkeypatch):
    # an InternalInvariantError here is a wrong bridge sign
    monkeypatch.setattr(orthopositroids, "least_squares", solving)
    solved = 0
    for pos in enumerate_positroids(k, n):
        try:
            cell_dim_in_ogr_numeric(pos)
        except Solving:
            solved += 1
    assert solved == sum(bridge_decomposition(pos.dperm).dim > 0
                         for pos in enumerate_positroids(k, n))


@pytest.mark.parametrize("flip", ["first", "every"])
def test_a_flipped_bridge_sign_fails_before_any_solve(flip, monkeypatch):
    def flipped(dp):
        decomp = bridge_decomposition(dp)
        bridges = [(a, b, -sign if flip == "every" or t == 0 else sign)
                   for t, (a, b, sign) in enumerate(decomp.bridges)]
        return dataclasses.replace(decomp, bridges=tuple(bridges))

    monkeypatch.setattr(orthopositroids, "bridge_decomposition", flipped)
    monkeypatch.setattr(orthopositroids, "least_squares", solving)
    top = Positroid.from_dperm(top_cell_dperm(2, 4))
    with pytest.raises(InternalInvariantError, match=r"word=\(3, 4, 1, 2\)"):
        cell_dim_in_ogr_numeric(top)
    with pytest.raises(InternalInvariantError):
        dims_report(2, 4)


def test_cell_dim_lets_solver_errors_escape(monkeypatch):
    at = _ResidualModel.at

    def narrowed(self, s):
        F, jac = at(self, s)
        return F, lambda: jac()[:, 1:]

    monkeypatch.setattr(_ResidualModel, "at", narrowed)
    with pytest.raises(ValueError):
        cell_dim_in_ogr_numeric(Positroid.from_dperm(top_cell_dperm(2, 4)))

def chord_crossings(word) -> int:
    """Crossing pairs among the chords (i, w(i)) of an involution."""
    chords = [(i, w) for i, w in enumerate(word, start=1) if i < w]
    return sum(1 for (a, b) in chords for (c, e) in chords if a < c < b < e)


def euler_characteristic(rep) -> int:
    """The sum over a sweep's cells of (-1)^dim."""
    return sum((-1) ** res.dim for res in rep["results"])


def assert_exact_oracles(rep):
    """The sweep agrees with the two exact dimension formulas it can meet:
    the cell of all k-subsets has the dimension of OGr(k, n), and at k = 1
    the cells, split by the parity of their support into (A, B), are
    ogr1's, each of dimension |A| + |B| - 2."""
    k, n = rep["k"], rep["n"]
    top = [res for res in rep["results"] if len(res.positroid.bases) == math.comb(n, k)]
    assert len(top) == 1 and top[0].dim == ogr_dimension(k, n)
    if k == 1:
        split = []
        for res in rep["results"]:
            support = sorted(i for (i,) in res.positroid.bases)
            A = tuple(i for i in support if i % 2)
            B = tuple(i for i in support if i % 2 == 0)
            assert res.dim == len(A) + len(B) - 2
            split.append((A, B))
        assert sorted(split) == sorted((c.A, c.B) for c in ogr1.cells(n))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_dims_at_n_2k_equal_crossing_numbers(k):
    rep = dims_report(k, 2 * k)
    assert rep["resolved"] == rep["total"]
    assert euler_characteristic(rep) == 1
    assert_exact_oracles(rep)
    for res in rep["results"]:
        word = res.positroid.dperm.word
        assert all(word[w - 1] == i != w for i, w in enumerate(word, start=1))
        assert res.dim == chord_crossings(word)


# sha256 of repr([(positroid.sort_key(), dim), ...]) over the cells of
# dims_report(k, n) at its default settings
CELL_DIM_DIGESTS = {
    (2, 5): "10a643af713f6c663dffa756c521d9de63e675591368f36e2f67a46919af2c8a",
    (2, 6): "93a651ef3473cdcdfad77c27ee85d99e175a96725dfde47873d92f5f8041ea6f",
}


@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
def test_sweep_euler_characteristic_and_cell_dims(k, n):
    # (k, 2k) is checked with the crossing numbers above too, and (3,7) below
    rep = dims_report(k, n)
    assert rep["resolved"] == rep["total"]
    assert euler_characteristic(rep) == 1
    assert_exact_oracles(rep)
    if (k, n) in CELL_DIM_DIGESTS:
        cells = [(res.positroid.sort_key(), res.dim) for res in rep["results"]]
        assert hashlib.sha256(repr(cells).encode()).hexdigest() == CELL_DIM_DIGESTS[k, n]


def test_dims_at_3_7():
    # the largest admitted sweep; its histogram is (4,8)'s too, as
    # OGr+(3,7) and OGr+(4,8) are isomorphic
    rep = dims_report(3, 7)
    assert rep["resolved"] == rep["total"] == 105
    assert rep["histogram"] == {"6": 1, "5": 4, "4": 10, "3": 20, "2": 28, "1": 28, "0": 14}
    assert euler_characteristic(rep) == 1
    assert_exact_oracles(rep)


def test_dims_report_is_sequential():
    with pytest.raises(InputError):
        dims_report(2, 4, workers=2)


# the settings perfbench passes are accepted only at their pinned values
@pytest.mark.parametrize("setting", [{"tol": 1e-3}, {"cutoff": 10}, {"starts": 1},
                                     {"retry_starts": 1}, {"tol": float("nan")},
                                     {"verbose": True}])
def test_dims_report_refuses_unpinned_settings(setting, monkeypatch):
    monkeypatch.setattr(orthopositroids, "enumerate_orthopositroids", solving)
    with pytest.raises(InputError):
        dims_report(2, 4, **setting)


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
        assert is_orthopositroid(Positroid.from_bases(p.support(), 2, 6)).verdict


def test_gluing_check_report():
    rep = gluing_check()
    assert rep["ok"], rep
    assert rep["cw_certificate"]
    assert rep["printed_e1_fails_nonnegativity"]


def test_gluing_check_reads_the_triangle_family(monkeypatch):
    # with the printed +x entries the triangle family is not totally
    # nonnegative, and its y -> 0 and x, y -> infinity limits are not the
    # sign-corrected edges
    def printed_sigma(x, y):
        x, y = Fraction(x), Fraction(y)
        return Subspace(Mat([[1, 1, 0, 0, x, x], [0, 0, 1, 1, y, y]]))

    monkeypatch.setattr(orthopositroids, "m_sigma", printed_sigma)
    rep = gluing_check()
    assert not rep["ok"]
    assert not rep["y_limit_is_corrected_e1"]
    assert not rep["xy_infinity_limit_is_e2"]


def test_plucker_curve_reads_quadratics_and_refuses_a_cubic():
    # minors 1 - t^2, -t^2 and -t
    curve = orthopositroids._plucker_curve(
        lambda t: Subspace(Mat([[1, t, t], [t, 1, 0]])))
    assert curve == (2, 3, {(1, 2): (1, 0, -1), (1, 3): (0, 0, -1), (2, 3): (0, -1, 0)})
    assert orthopositroids._limit(curve, at_infinity=False).coords == {(1, 2): 1}
    assert orthopositroids._limit(curve, at_infinity=True).coords == {(1, 2): -1, (1, 3): -1}
    with pytest.raises(InternalInvariantError, match="not quadratic"):
        orthopositroids._plucker_curve(lambda t: Subspace(Mat([[1, 0, t ** 3], [0, 1, 0]])))
