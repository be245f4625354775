import random
from fractions import Fraction

import pytest

from ogrlab.errors import InputError, SizeMismatchError
from ogrlab.exact_core import (
    GaussianRational,
    Mat,
    eps,
    ksubsets,
    rand_matrix,
    rand_rational,
    sort_sign,
    subset_complement,
)
from ogrlab.forms_points import PluckerVector, QuadraticForm, sample_isotropic
from ogrlab.ideal_gens import (
    Polynomial,
    TermOrder,
    _mono,
    _relation_span,
    all_straightening_lambda,
    all_straightening_mu,
    degree2_membership,
    degree2_monomials,
    groebner_degree2_check,
    is_isotropic,
    normalize_bracket,
    orthogonality_relations,
    plucker_relations,
    relation_span,
    straightening_lambda,
    straightening_mu,
    straightening_mu_canonical,
)


def plucker_of_random_matrix(rng, k, n):
    while True:
        M = rand_matrix(rng, k, n)
        if M.rank() == k:
            return PluckerVector.from_matrix(M)


def reference_value(poly, p):
    """Term-by-term sum in Fraction / GaussianRational arithmetic."""
    total = Fraction(0)
    for m, c in poly.terms.items():
        val = c
        for factor in m:
            val = val * p.get(factor)
        total = total + val
    return total


def random_point(rng, k, n, gaussian):
    """Plucker vector of a random (not isotropic) rational or Q(i) plane."""
    while True:
        M = Mat([
            [GaussianRational(rand_rational(rng), rand_rational(rng))
             if gaussian else rand_rational(rng) for _ in range(n)]
            for _ in range(k)
        ])
        if M.rank() == k:
            return PluckerVector.from_matrix(M)


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_evaluate_matches_reference_sum(k, n, gaussian):
    rng = random.Random(10 * k + n + gaussian)
    polys = list(plucker_relations(k, n))
    polys += orthogonality_relations(k, n, QuadraticForm.standard(n))
    polys += [poly for _, _, poly in all_straightening_lambda(k, n)]
    # scaled by 1/6, these sums have coefficients with denominators
    polys += [(a.scale(2) + b.scale(3)).scale(Fraction(1, 6))
              for a, b in zip(polys[::5], polys[1::5])]
    assert any(c.denominator > 1 for poly in polys for c in poly.terms.values())
    nonzero = 0
    for _ in range(3):
        p = random_point(rng, k, n, gaussian)
        for poly in polys:
            value = poly.evaluate(p)
            assert value == reference_value(poly, p)
            assert isinstance(value, GaussianRational) == gaussian
            nonzero += value != 0
    assert nonzero > len(polys)


def test_evaluate_mixed_degrees_and_empty():
    p = PluckerVector(2, 4, {(1, 2): Fraction(2, 3), (3, 4): GaussianRational(1, -2)})
    poly = Polynomial(2, 4, {
        ((1, 2),): Fraction(1, 2),
        ((1, 2), (3, 4)): Fraction(-5),
        ((1, 3), (1, 2), (1, 2)): Fraction(7),
        (): Fraction(3, 4),
    })
    assert poly.evaluate(p) == reference_value(poly, p)
    assert Polynomial(2, 4).evaluate(p) == 0
    only_rational = Polynomial(2, 4, {((1, 2), (1, 2)): Fraction(1)})
    value = only_rational.evaluate(p)
    assert value == Fraction(4, 9) and isinstance(value, Fraction)
    with pytest.raises(SizeMismatchError):
        Polynomial(2, 5, {((1, 2),): 1}).evaluate(p)


def test_add_term_after_evaluate_recompiles():
    rng = random.Random(4)
    p = random_point(rng, 2, 5, gaussian=True)
    poly = plucker_relations(2, 5)[0].scale(1)
    before = poly.evaluate(p)
    assert before == reference_value(poly, p)
    poly.add_term(_mono((1, 2), (3, 4)), Fraction(5, 3))
    assert poly.evaluate(p) == reference_value(poly, p) != before
    poly.add_term(_mono((1, 2), (3, 4)), Fraction(-5, 3))
    assert poly.evaluate(p) == before


def test_plucker_relations_classical():
    rels = plucker_relations(2, 4)
    assert len(rels) == 1
    expected = Polynomial(2, 4, {
        _mono((1, 2), (3, 4)): Fraction(1),
        _mono((1, 3), (2, 4)): Fraction(-1),
        _mono((1, 4), (2, 3)): Fraction(1),
    })
    assert rels[0] == expected


def test_plucker_relations_projective_space():
    assert plucker_relations(1, 6) == ()


def test_plucker_relations_count_2_5():
    assert len(plucker_relations(2, 5)) == 5


def deduplicated_candidates(k, n):
    """The shuffle of every (I, J), scaled so its colex-least monomial has
    coefficient 1; vanishing and repeated ones dropped, sorted by the list
    of their monomials in colex order."""
    seen = {}
    for I in ksubsets(n, k - 1):
        for J in ksubsets(n, k + 1):
            poly = Polynomial(k, n)
            for t, jt in enumerate(J):
                first, s1 = sort_sign(I + (jt,))
                if s1:
                    poly.add_term(_mono(first, J[:t] + J[t + 1:]), (-1) ** t * s1)
            if poly.is_zero():
                continue
            terms = poly.sorted_terms()
            norm = poly.scale(1 / terms[0][1])
            seen.setdefault(tuple(norm.sorted_terms()), norm)
    return tuple(seen[key] for key in sorted(seen, key=lambda terms: [m for m, _ in terms]))


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6), (3, 7), (4, 8)])
def test_plucker_relations_match_deduplicated_candidates(k, n):
    rels = plucker_relations(k, n)
    expected = deduplicated_candidates(k, n)
    assert rels == expected
    assert [list(p.terms.items()) for p in rels] == [list(p.terms.items()) for p in expected]


def test_cleared_reproduces_terms():
    k, n = 3, 7
    subs = ksubsets(n, k)
    gens = list(plucker_relations(k, n))
    for form in (QuadraticForm.standard(n), QuadraticForm.hyperbolic(n)):
        gens += orthogonality_relations(k, n, form)
    gens += [poly for _, _, poly in all_straightening_mu(k, n) + all_straightening_lambda(k, n)]
    for poly in gens:
        L, coeffs, ranks = poly.cleared()
        read = [(tuple(subs[r] for r in m), Fraction(c, L)) for c, m in zip(coeffs, ranks)]
        assert read == list(poly.terms.items())
        assert Polynomial(k, n, poly.terms).cleared() == (L, coeffs, ranks)


@pytest.mark.parametrize("factor", [(2, 1), (1, 1), (1, 7), (0, 1), (1, 2, 3)])
def test_factor_outside_the_k_subsets_is_refused(factor):
    poly = Polynomial(2, 6, {_mono((1, 2), (3, 4)): 1, (factor, (5, 6)): 2})
    p = PluckerVector(2, 6, {(1, 2): 1, (2, 1): 3, (5, 6): 1})
    with pytest.raises(InputError):
        p.cleared()
    p = PluckerVector(2, 6, {(1, 2): 1, (5, 6): 1})
    with pytest.raises(InputError):
        poly.evaluate(p)
    span = relation_span(2, 6)
    with pytest.raises(InputError):
        span.add(poly)
    assert span.gen_count == relation_span(2, 6).gen_count


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 6)])
def test_plucker_relations_vanish_on_matrices(k, n):
    rng = random.Random(n)
    rels = plucker_relations(k, n)
    for _ in range(20):
        p = plucker_of_random_matrix(rng, k, n)
        assert all(g.evaluate(p) == 0 for g in rels)


def test_orthogonality_relations_printed_examples():
    rels = orthogonality_relations(2, 5, QuadraticForm.standard(5))
    assert len(rels) == 15
    squares = Polynomial(2, 5, {
        _mono((1, 2), (1, 2)): Fraction(1),
        _mono((1, 3), (1, 3)): Fraction(1),
        _mono((1, 4), (1, 4)): Fraction(1),
        _mono((1, 5), (1, 5)): Fraction(1),
    })
    cross = Polynomial(2, 5, {
        _mono((1, 3), (2, 3)): Fraction(1),
        _mono((1, 4), (2, 4)): Fraction(1),
        _mono((1, 5), (2, 5)): Fraction(1),
    })
    assert any(g == squares for g in rels)
    assert any(g == cross for g in rels)


def test_orthogonality_alternating_signs():
    rels = orthogonality_relations(1, 3, QuadraticForm.alternating(3))
    assert len(rels) == 1
    expected = Polynomial(1, 3, {
        _mono((1,), (1,)): Fraction(1),
        _mono((2,), (2,)): Fraction(-1),
        _mono((3,), (3,)): Fraction(1),
    })
    assert rels[0] == expected


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6)])
def test_orthogonality_vanishes_on_samples(k, n):
    alt = QuadraticForm.alternating(n)
    rels = orthogonality_relations(k, n, alt)
    for seed in range(10):
        p = sample_isotropic(k, n, alt, seed).plucker()
        assert all(g.evaluate(p) == 0 for g in rels)


def cocircuit_reference(p, form):
    """Entries of P Omega P^T by (I, J), in Fraction / GaussianRational
    arithmetic: row I of the cocircuit matrix P holds eps(I, l) p_{I + l}."""
    subs = ksubsets(p.n, p.k - 1)
    P = Mat([[eps(I, l) * p.get(tuple(sorted(I + (l,)))) for l in range(1, p.n + 1)]
             for I in subs])
    R = P * form.matrix() * P.transpose()
    return {(I, J): R[a, b] for a, I in enumerate(subs) for b, J in enumerate(subs)}


def test_orthogonality_quadrics_are_cocircuit_entries():
    rng = random.Random(2024)
    for k, n in [(1, 4), (2, 5), (3, 6)]:
        forms = [QuadraticForm.standard(n), QuadraticForm.alternating(n),
                 QuadraticForm.hyperbolic(n), QuadraticForm.signed_subset([2], n)]
        subs = ksubsets(n, k - 1)
        pairs = [(I, J) for a, I in enumerate(subs) for J in subs[a:]]
        for form in forms:
            rels = orthogonality_relations(k, n, form)
            # at independent random coordinates, exactly the identically
            # zero entries vanish: they are the pairs without a quadric
            generic = PluckerVector(k, n, {
                I: rng.randint(1, 10 ** 6) for I in ksubsets(n, k)})
            ref = cocircuit_reference(generic, form)
            kept = [pair for pair in pairs if ref[pair] != 0]
            assert len(kept) == len(rels)
            skipped = [pair for pair in pairs if ref[pair] == 0]
            for gaussian in (False, True):
                p = random_point(rng, k, n, gaussian)
                ref = cocircuit_reference(p, form)
                for pair, g in zip(kept, rels):
                    assert g.evaluate(p) == ref[pair]
                assert all(ref[pair] == 0 for pair in skipped)
                assert any(ref.values()) and not is_isotropic(p, form)
            for seed in range(3):
                q = sample_isotropic(k, n, form, seed, field="gaussian").plucker()
                assert not any(cocircuit_reference(q, form).values())
                assert is_isotropic(q, form)


def test_is_isotropic_size_mismatch():
    p = sample_isotropic(2, 5, QuadraticForm.alternating(5), 0).plucker()
    with pytest.raises(SizeMismatchError):
        is_isotropic(p, QuadraticForm.alternating(6))


def test_normalize_bracket():
    assert normalize_bracket((1, 3, 5, 6), 6) == (-1, (2, 4))
    assert normalize_bracket((1, 2, 5, 6), 6) == (1, (3, 4))


def test_straightening_mu_classical():
    f = straightening_mu((1, 4), (2, 3), 4)
    assert f == plucker_relations(2, 4)[0]


def test_straightening_mu_rejects_comparable():
    with pytest.raises(InputError):
        straightening_mu((1, 2), (1, 3), 4)


def test_straightening_lambda_example_expansion():
    f = straightening_lambda((1, 2), (1, 3, 5, 6), 6)
    expected = Polynomial(2, 6, {
        _mono((1, 2), (2, 4)): Fraction(-1),
        _mono((1, 3), (3, 4)): Fraction(-1),
        _mono((1, 5), (4, 5)): Fraction(1),
        _mono((1, 6), (4, 6)): Fraction(1),
    })
    assert f == expected


def test_straightening_refuses_subsets_outside_range():
    with pytest.raises(InputError):
        straightening_lambda((1, 2), (1, 3, 5, 9), 6)
    with pytest.raises(InputError):
        straightening_mu((2, 5), (1, 9), 6)


def test_straightening_lambda_snake_validation():
    with pytest.raises(InputError):
        straightening_lambda((1, 2), (1, 3, 5, 6), 6, ell=1)
    f = straightening_lambda((1, 2), (1, 3, 5, 6), 6, ell=2)
    assert not f.is_zero()


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6)])
def test_straightenings_vanish_on_random_matrices(k, n):
    rng = random.Random(100 + n)
    mus = [poly for _, _, poly in all_straightening_mu(k, n)]
    for _ in range(50):
        p = plucker_of_random_matrix(rng, k, n)
        assert all(g.evaluate(p) == 0 for g in mus)


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6)])
def test_straightening_lambda_vanishes_on_isotropic(k, n):
    std = QuadraticForm.standard(n)
    lams = [poly for _, _, poly in all_straightening_lambda(k, n)]
    for seed in range(10):
        p = sample_isotropic(k, n, std, seed, field="gaussian").plucker()
        assert all(g.evaluate(p) == 0 for g in lams)


@pytest.mark.parametrize("tb", ["colex", "colex_desc", "kind_first"])
def test_leading_monomials_at_2_6(tb):
    order = TermOrder(2, 6, tb)
    for I, J, poly in all_straightening_mu(2, 6):
        assert order.leading_monomial(poly) == _mono(I, J)
    for I, Jp, poly in all_straightening_lambda(2, 6):
        assert order.leading_monomial(poly) == _mono(I, subset_complement(Jp, 6))


def pairwise_greater(rank, m1, m2):
    """The reverse-lex rule compared pair by pair: the larger monomial has
    fewer copies of the highest-ranked variable whose exponents differ."""
    if m1 == m2:
        return False
    if len(m1) != len(m2):
        return len(m1) > len(m2)
    exp1, exp2 = {}, {}
    for f in m1:
        exp1[f] = exp1.get(f, 0) + 1
    for f in m2:
        exp2[f] = exp2.get(f, 0) + 1
    decisive = max(
        (f for f in set(exp1) | set(exp2) if exp1.get(f, 0) != exp2.get(f, 0)),
        key=lambda f: rank[f],
    )
    return exp1.get(decisive, 0) < exp2.get(decisive, 0)


@pytest.mark.parametrize("tb", ["colex", "colex_desc", "kind_first"])
@pytest.mark.parametrize("k,n", [(2, 6), (3, 7)])
def test_leading_monomial_matches_pairwise_rule(k, n, tb):
    order = TermOrder(k, n, tb)
    laws = all_straightening_mu(k, n) + all_straightening_lambda(k, n)
    for _, _, poly in laws:
        best = None
        for m in poly.terms:
            if best is None or pairwise_greater(order.rank, m, best):
                best = m
        assert order.leading_monomial(poly) == best


def test_canonical_orientation_picks_universal_lead():
    # this pair's two orientations give different shuffles; only one has an
    # extension-independent leading term
    I, J = (2, 3, 4), (1, 5, 6)
    A, B, poly = straightening_mu_canonical(I, J, 7)
    assert {A, B} == {I, J}
    for tb in ("colex", "colex_desc", "kind_first"):
        assert TermOrder(3, 7, tb).leading_monomial(poly) == _mono(I, J)


def test_membership_of_each_family():
    for (k, n) in [(2, 5), (2, 6)]:
        for _, _, poly in all_straightening_mu(k, n):
            assert degree2_membership(poly, k, n)
        for _, _, poly in all_straightening_lambda(k, n):
            res = degree2_membership(poly, k, n)
            assert res
            assert res.coordinates


def test_membership_coordinates_reconstruct():
    f = straightening_lambda((1, 2), (1, 3, 5, 6), 6)
    res = degree2_membership(f, 2, 6)
    gens = list(plucker_relations(2, 6))
    gens += orthogonality_relations(2, 6, QuadraticForm.standard(6))
    total = Polynomial(2, 6)
    for g, c in res.coordinates.items():
        total = total + gens[g].scale(c)
    assert total == f


def test_membership_failure_has_residual():
    printed = Polynomial(2, 6, {
        _mono((1, 2), (2, 4)): Fraction(-1),
        _mono((1, 3), (2, 4)): Fraction(-1),
        _mono((1, 5), (4, 5)): Fraction(1),
        _mono((1, 6), (4, 6)): Fraction(1),
    })
    res = degree2_membership(printed, 2, 6)
    assert not res
    assert not res.residual.is_zero()


def test_trivial_membership():
    g = plucker_relations(2, 6)[0]
    res = degree2_membership(g, 2, 6)
    assert res and res.coordinates == {0: Fraction(1)}


def test_membership_at_3_7_without_coordinates():
    lams = all_straightening_lambda(3, 7)
    for _, _, poly in lams[::50]:
        assert degree2_membership(poly, 3, 7, coords=False)


def test_membership_coordinates_for_nonstandard_form():
    alt = QuadraticForm.alternating(5)
    gens = plucker_relations(2, 5) + orthogonality_relations(2, 5, alt)
    f = gens[7].scale(3) - gens[2] + gens[-1]
    res = degree2_membership(f, 2, 5, form=alt)
    assert res
    total = Polynomial(2, 5)
    for i, c in res.coordinates.items():
        total = total + gens[i].scale(c)
    assert total == f
    assert not degree2_membership(f, 2, 5)


def test_relation_span_is_fresh_and_cached_span_unchanged():
    assert relation_span(2, 6) is not relation_span(2, 6)
    std = QuadraticForm.standard(6)
    f = straightening_lambda((1, 2), (1, 3, 5, 6), 6)
    assert degree2_membership(f, 2, 6)
    cached = _relation_span(2, 6, std, True)
    rows, rank = [dict(r) for r in cached.rows], cached.rank
    assert groebner_degree2_check(2, 6)["ok"]
    assert degree2_membership(f, 2, 6)
    assert _relation_span(2, 6, std, True) is cached
    assert cached.rank == rank and cached.rows == rows


def fraction_reduce(span, poly):
    """Degree2Span.reduce in Fraction arithmetic, the residual and the row
    multiples in the order the elimination meets them."""
    index = {m: i for i, m in enumerate(span.monomials)}
    vec = {index[m]: Fraction(c) for m, c in poly.terms.items()}
    used = {}
    while vec:
        lead = max(vec)
        r = span.pivot_row.get(lead)
        if r is None:
            break
        c = vec[lead] / span.rows[r][lead]
        used[r] = used.get(r, Fraction(0)) + c
        for i, v in span.rows[r].items():
            nv = vec.get(i, Fraction(0)) - c * v
            if nv:
                vec[i] = nv
            else:
                vec.pop(i, None)
    monomials = degree2_monomials(span.k, span.n)
    return [(monomials[i], c) for i, c in vec.items()], list(used.items())


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7)])
def test_reduce_matches_fraction_reduction(k, n):
    span = _relation_span(k, n, QuadraticForm.standard(n), True)
    laws = [poly for _, _, poly in all_straightening_mu(k, n) + all_straightening_lambda(k, n)]
    # scaled sums bring denominators; at (3, 7) some also meet the one row whose lead is 2
    laws += [(a.scale(Fraction(2, 3)) + b.scale(Fraction(-5, 7))) for a, b in zip(laws, laws[1:])]
    # p12 p34 at (2, 6), p123 p456 at (3, 7)
    nonmember = Polynomial(k, n, {_mono(tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1))): 1})
    for poly in laws + [nonmember, nonmember + laws[0], Polynomial(k, n)]:
        residual, used = span.reduce(poly)
        assert (list(residual.terms.items()), list(used.items())) == fraction_reduce(span, poly)
    assert not span.reduce(nonmember)[0].is_zero()
    assert not degree2_membership(nonmember, k, n)


def test_straightening_families_are_cached_tuples():
    for family in (all_straightening_mu, all_straightening_lambda):
        laws = family(2, 6)
        assert isinstance(laws, tuple)
        assert family(2, 6) is laws


def test_span_refuses_other_size():
    g = plucker_relations(2, 6)[-1]
    with pytest.raises(SizeMismatchError):
        degree2_membership(g, 2, 5)
    span = relation_span(2, 5)
    for method in (span.add, span.reduce):
        with pytest.raises(SizeMismatchError):
            method(g)


def test_span_refuses_monomial_outside_degree_2_basis():
    linear = Polynomial(2, 6, {((1, 2),): 1})
    unsorted = Polynomial(2, 6, {((3, 4), (1, 2)): 1})
    span, fresh = relation_span(2, 6), relation_span(2, 6)
    for poly in (linear, unsorted):
        with pytest.raises(InputError):
            degree2_membership(poly, 2, 6)
        for method in (span.add, span.reduce):
            with pytest.raises(InputError):
                method(poly)
    assert (span.rank, span.gen_count) == (fresh.rank, fresh.gen_count)


def test_span_rank_against_counts():
    span = relation_span(2, 6)
    assert span.rank == 36
    assert len(degree2_monomials(2, 6)) == 120


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7)])
def test_groebner_degree2_check(k, n):
    rep = groebner_degree2_check(k, n)
    assert rep["ok"], rep


def test_polynomial_json_shape():
    f = straightening_lambda((1, 2), (1, 3, 5, 6), 6)
    js = f.to_json()
    assert js[0]["monomial"] == [["1,2"], ["2,4"]]
    assert js[0]["coeff"] == "-1"


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7)])
def test_rank_splits_into_pair_families(k, n):
    from ogrlab.posets import incomparable_pairs

    yy, mixed = incomparable_pairs(k, n)
    span = relation_span(k, n)
    assert span.rank == len(yy) + len(mixed)
