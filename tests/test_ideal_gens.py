import random
from fractions import Fraction
from itertools import combinations
from math import gcd
from types import MappingProxyType

import pytest

from ogrlab.errors import (
    DegenerateInputError,
    InputError,
    InternalInvariantError,
    SizeMismatchError,
)
from ogrlab.exact_core import (
    GaussianRational,
    Mat,
    colex_ranks,
    ksubsets,
    minors,
    rand_matrix,
    rand_rational,
    sort_sign,
    subset_complement,
)
from ogrlab.forms_points import PluckerVector, QuadraticForm, is_isotropic, sample_isotropic
from ogrlab.ideal_gens import (
    ZERO,
    Polynomial,
    TermOrder,
    _mono,
    _relation_span,
    _snake_shuffle,
    all_straightening_lambda,
    all_straightening_mu,
    degree2_membership,
    degree2_monomials,
    groebner_degree2_check,
    leading_term_universal,
    orthogonality_relations,
    plucker_relations,
    straightening_lambda,
    straightening_mu,
    straightening_mu_canonical,
)
from ogrlab.posets import (
    mixed_incomparable_pairs,
    mixed_leq,
    snake_index,
    young_incomparable_pairs,
    young_leq,
)
from sign_reference import eps


def full_rank(M) -> bool:
    """Does the k x n matrix M have rank k: is a maximal minor nonzero?"""
    try:
        return any(minors(M, M.nrows).values())
    except DegenerateInputError:
        return False


def plucker_of_random_matrix(rng, k, n):
    while True:
        M = rand_matrix(rng, k, n)
        if full_rank(M):
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


def combination(*pairs):
    """The sum of c * poly over (c, poly) pairs, added term dict by term
    dict; a Polynomial drops the coefficients that cancel."""
    k, n = pairs[0][1].k, pairs[0][1].n
    terms = {}
    for c, poly in pairs:
        for m, v in poly.terms.items():
            terms[m] = terms.get(m, 0) + Fraction(c) * v
    return Polynomial(k, n, terms)


def random_point(rng, k, n, gaussian):
    """Plucker vector of a random (not isotropic) rational or Q(i) plane."""
    while True:
        M = Mat([
            [GaussianRational(rand_rational(rng), rand_rational(rng))
             if gaussian else rand_rational(rng) for _ in range(n)]
            for _ in range(k)
        ])
        if full_rank(M):
            return PluckerVector.from_matrix(M)


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_evaluate_matches_reference_sum(k, n, gaussian):
    rng = random.Random(10 * k + n + gaussian)
    polys = list(plucker_relations(k, n))
    polys += orthogonality_relations(k, n, QuadraticForm.standard(n))
    polys += [poly for _, _, poly in all_straightening_lambda(k, n)]
    # these sums have coefficients with denominators
    polys += [combination((Fraction(1, 3), a), (Fraction(1, 2), b))
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


def test_evaluate_empty_and_other_size():
    p = PluckerVector(2, 4, {(1, 2): Fraction(2, 3), (3, 4): GaussianRational(1, -2)})
    D, re, im, _ = p.cleared()  # one entry per 2-subset of [1, 4], no more
    assert (D, re, im) == (3, [2, 0, 0, 0, 0, 3], [0, 0, 0, 0, 0, -6])
    assert Polynomial(2, 4).evaluate(p) == 0
    only_rational = Polynomial(2, 4, {((1, 2), (1, 2)): Fraction(1)})
    value = only_rational.evaluate(p)
    assert value == Fraction(4, 9) and isinstance(value, Fraction)
    with pytest.raises(SizeMismatchError):
        Polynomial(2, 5, {((1, 2), (1, 2)): 1}).evaluate(p)


def test_a_gaussian_variable_switches_the_type():
    p = PluckerVector(2, 4, {(1, 2): Fraction(2, 3), (1, 3): Fraction(1, 5),
                             (3, 4): GaussianRational(1, -2)})
    rational = {_mono((1, 2), (1, 3)): Fraction(1)}
    poly = Polynomial(2, 4, rational)
    assert type(poly.evaluate(p)) is Fraction
    poly = Polynomial(2, 4, {**rational, _mono((1, 2), (3, 4)): Fraction(3)})
    value = poly.evaluate(p)
    assert type(value) is GaussianRational
    assert value == reference_value(poly, p) == GaussianRational(Fraction(32, 15), -4)


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7)])
def test_criterion_9_values_match_reference_in_value_and_type(k, n):
    """Every quadric of criterion 9 at its isotropic points, over Q(i) and
    Q: the value and its type are those of the term-by-term sum.  A zero
    over Q is the shared ZERO; over Q(i) it is a new object each time."""
    std, alt = QuadraticForm.standard(n), QuadraticForm.alternating(n)
    gens = list(plucker_relations(k, n)) + list(orthogonality_relations(k, n, std))
    gens += [poly for _, _, poly in all_straightening_mu(k, n)]
    gens += [poly for _, _, poly in all_straightening_lambda(k, n)]
    alt_gens = orthogonality_relations(k, n, alt) + plucker_relations(k, n)
    types = set()
    for seed in range(2):
        for form, field, polys in ((std, "gaussian", gens), (alt, "rational", alt_gens)):
            p = sample_isotropic(k, n, form, seed, field=field).plucker()
            for g in polys:
                value, want = g.evaluate(p), reference_value(g, p)
                assert type(value) is type(want) and value == want == 0
                types.add(type(value))
                if type(value) is Fraction:
                    assert value is ZERO
                else:
                    assert value.re is ZERO and value.im is ZERO
                    assert g.evaluate(p) is not value
    assert types == {Fraction, GaussianRational}


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
            terms = {}
            for t, jt in enumerate(J):
                first, s1 = sort_sign(I + (jt,))
                if s1:
                    m = _mono(first, J[:t] + J[t + 1:])
                    terms[m] = terms.get(m, 0) + (-1) ** t * s1
            poly = Polynomial(k, n, terms)
            if poly.is_zero():
                continue
            norm = combination((1 / poly.sorted_terms()[0][1], poly))
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
    # a polynomial is converted to its integer form at construction
    with pytest.raises(InputError, match="sorted 2-subset"):
        Polynomial(2, 6, {_mono((1, 2), (3, 4)): 1, (factor, (5, 6)): 2})
    p = PluckerVector(2, 6, {(1, 2): 1, (2, 1): 3, (5, 6): 1})
    with pytest.raises(InputError):
        p.cleared()


@pytest.mark.parametrize("coeff", [GaussianRational(1, 1), 0.5, "1/2"])
def test_non_rational_coefficient_is_refused(coeff):
    terms = {_mono((1, 2), (3, 4)): 1, _mono((1, 3), (2, 4)): coeff}
    with pytest.raises(InputError, match="rational"):
        Polynomial(2, 4, terms)
    assert Polynomial(2, 4, {**terms, _mono((1, 3), (2, 4)): Fraction(1, 2)}).cleared() \
        == (2, [2, 1], [(0, 5), (1, 4)])


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


@pytest.mark.parametrize("k,n", [(0, 3), (4, 3)])
def test_is_isotropic_refuses_k_outside_1_n(k, n):
    p = PluckerVector(k, n, {tuple(range(1, k + 1)): 1})
    with pytest.raises(InputError, match="need 1 <= k <= n"):
        is_isotropic(p, QuadraticForm.standard(n))


def far_perturbation(rng, p):
    """p with one coordinate p_I raised by 1, where I differs from the first
    basis J in at least two entries: no cocircuit of J reads p_I."""
    subs = ksubsets(p.n, p.k)
    J = next(I for I in subs if p.get(I))
    I = rng.choice([I for I in subs if len(set(I) - set(J)) >= 2])
    return PluckerVector(p.k, p.n, {**p.coords, I: p.get(I) + 1})


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 6), (3, 7), (4, 8)])
def test_is_isotropic_agrees_with_the_quadrics(k, n):
    """The cocircuits of one basis decide what the shuffle relations and all
    of P Omega P^T decide, on isotropic samples, random points and far
    perturbations of both.  A perturbed sample keeps R Omega R^T = 0, so
    only the minors test rejects it."""
    rng = random.Random(100 * k + n)
    shuffles = plucker_relations(k, n)
    forms = [QuadraticForm.standard(n), QuadraticForm.alternating(n),
             QuadraticForm.hyperbolic(n),
             QuadraticForm.signed_subset(range(1, n // 2 + 1), n)]
    verdicts = []
    for form in forms:
        for gaussian in (False, True):
            points = [random_point(rng, k, n, gaussian)]
            if gaussian or form.signature_split():
                field = "gaussian" if gaussian else "rational"
                points += [sample_isotropic(k, n, form, seed, field=field).plucker()
                           for seed in range(2)]
            for p in points + [far_perturbation(rng, p) for p in points]:
                on = not any(cocircuit_reference(p, form).values()) and not any(
                    g.evaluate(p) for g in shuffles)
                assert is_isotropic(p, form) == on
                verdicts.append(on)
    assert verdicts.count(True) == 14  # the isotropic samples, and only they


def normalize_bracket(Jp, n):
    """Rewrite a sorted (n-k)-subset bracket as a signed k-subset variable:
    sign (-1)^(sum of entries) times the complement."""
    return (-1) ** sum(Jp), subset_complement(Jp, n)


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
    # the law shuffles over the minimal snake index, 2 here, not 1
    assert snake_index((1, 2), (1, 3)) == 2
    f = straightening_lambda((1, 2), (1, 3, 5, 6), 6)
    assert not f.is_zero()
    assert f == _snake_shuffle((1, 2), (1, 3, 5, 6), 2, 6, coyoung=True)
    assert f != _snake_shuffle((1, 2), (1, 3, 5, 6), 1, 6, coyoung=True)


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


@pytest.mark.parametrize("k,n", [(2, 5), (3, 7), (3, 10)])
def test_all_mixed_incomparable_follows_mixed_leq(k, n):
    want = [(I, Jp) for I in ksubsets(n, k) for Jp in ksubsets(n, n - k)
            if not mixed_leq(Jp, I, k)]
    assert want
    assert mixed_incomparable_pairs(k, n) == want


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
    rank = {S: order.position[r] for r, S in enumerate(ksubsets(n, k))}
    laws = all_straightening_mu(k, n) + all_straightening_lambda(k, n)
    for _, _, poly in laws:
        best = None
        for m in poly.terms:
            if best is None or pairwise_greater(rank, m, best):
                best = m
        assert order.leading_monomial(poly) == best


def position_list_lead(order, poly):
    """The leading monomial by sorted position lists: each term's two factor
    positions in descending order; the least list leads."""
    lead = min(poly.cleared()[2],
               key=lambda m: sorted([order.position[r] for r in m], reverse=True))
    subs = ksubsets(poly.n, poly.k)
    return tuple(subs[r] for r in lead)


@pytest.mark.parametrize("tb", ["colex", "colex_desc", "kind_first"])
@pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
def test_leading_monomial_matches_position_lists(k, n, tb):
    # quadrics with squares, drawn from four variables so that terms often
    # share their highest position, or one term's factors straddle another's
    order = TermOrder(k, n, tb)
    rng = random.Random(f"{k}{n}{tb}")
    for _ in range(60):
        subs = rng.sample(ksubsets(n, k), 4)
        monos = {_mono(*rng.choices(subs, k=2)) for _ in range(rng.randint(1, 8))}
        poly = Polynomial(k, n, {m: rng.choice((-2, -1, 1, 3)) for m in monos})
        assert order.leading_monomial(poly) == position_list_lead(order, poly)


def test_term_order_refuses_other_sizes():
    with pytest.raises(SizeMismatchError):
        TermOrder(2, 5).leading_monomial(plucker_relations(2, 4)[0])
    with pytest.raises(SizeMismatchError):
        TermOrder(2, 5).leading_monomial(plucker_relations(2, 6)[-1])
    with pytest.raises(SizeMismatchError):
        TermOrder(2, 5).leading_monomial(plucker_relations(3, 6)[0])


@pytest.mark.parametrize("k,n", [(0, 5), (-1, 5), (6, 5), (2, 3), (3, 5)])
def test_term_order_refuses_k_outside_range(k, n):
    with pytest.raises(InputError):
        TermOrder(k, n)


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
            assert degree2_membership(poly, k, n) is True


def test_membership_failure_has_residual():
    printed = Polynomial(2, 6, {
        _mono((1, 2), (2, 4)): Fraction(-1),
        _mono((1, 3), (2, 4)): Fraction(-1),
        _mono((1, 5), (4, 5)): Fraction(1),
        _mono((1, 6), (4, 6)): Fraction(1),
    })
    assert degree2_membership(printed, 2, 6) is False
    assert not _relation_span(2, 6, QuadraticForm.standard(6)).reduce(printed).is_zero()


def test_trivial_membership():
    g = plucker_relations(2, 6)[0]
    assert degree2_membership(g, 2, 6) is True
    assert _relation_span(2, 6, QuadraticForm.standard(6)).reduce(g).is_zero()


def test_membership_at_3_7():
    lams = all_straightening_lambda(3, 7)
    for _, _, poly in lams[::50]:
        assert degree2_membership(poly, 3, 7)


def test_membership_for_nonstandard_form():
    alt = QuadraticForm.alternating(5)
    gens = plucker_relations(2, 5) + orthogonality_relations(2, 5, alt)
    f = combination((3, gens[7]), (-1, gens[2]), (1, gens[-1]))
    assert degree2_membership(f, 2, 5, form=alt)
    assert not degree2_membership(f, 2, 5)


def first_standard_monomial(k, n):
    """p12 p34 at (2, n), p123 p456 at (3, n): no member of the span."""
    return _mono(tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1)))


def fresh_span(k, n):
    """A copy of the cached span of the standard form, to add to."""
    return _relation_span(k, n, QuadraticForm.standard(n)).copy()


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7)])
def test_generator_combinations_are_members(k, n):
    """Sums of generators with rational multipliers, some with
    denominators, are members; one more standard monomial makes each a
    non-member whose residual is the span's own."""
    rng = random.Random(k * 100 + n)
    gens = plucker_relations(k, n) + orthogonality_relations(k, n, QuadraticForm.standard(n))
    span = _relation_span(k, n, QuadraticForm.standard(n))
    square = Polynomial(k, n, {first_standard_monomial(k, n): 1})
    for _ in range(12):
        pairs = [(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)), g)
                 for g in rng.sample(gens, 3)]
        f = combination(*pairs)
        assert not f.is_zero()
        assert degree2_membership(f, k, n) is True
        assert span.reduce(f).is_zero()
        g = combination(*pairs, (Fraction(-2, 3), square))
        assert degree2_membership(g, k, n) is False
        assert not span.reduce(g).is_zero()


def test_cached_span_is_unchanged_by_its_readers():
    std = QuadraticForm.standard(6)
    f = straightening_lambda((1, 2), (1, 3, 5, 6), 6)
    assert degree2_membership(f, 2, 6)
    cached = _relation_span(2, 6, std)
    rows, pivots, rank = [dict(r) for r in cached.rows], dict(cached.pivot_row), cached.rank
    assert groebner_degree2_check(2, 6)["ok"]
    assert degree2_membership(f, 2, 6)
    assert _relation_span(2, 6, std) is cached
    assert cached.rank == rank and cached.rows == rows and cached.pivot_row == pivots


def test_span_copy_adds_without_changing_the_original():
    span = fresh_span(2, 6)
    square = Polynomial(2, 6, {_mono((1, 2), (1, 2)): 1})
    copy = span.copy()
    assert copy.rank == span.rank and copy.rows == span.rows
    assert copy.add(square) and copy.rank == span.rank + 1
    assert copy.reduce(square).is_zero() and not span.reduce(square).is_zero()


def fraction_reduce(span, poly):
    """Degree2Span.reduce in Fraction arithmetic: the residual's items."""
    index = {m: i for i, m in enumerate(span.monomials)}
    vec = {index[m]: Fraction(c) for m, c in poly.terms.items()}
    while vec:
        lead = max(vec)
        r = span.pivot_row.get(lead)
        if r is None:
            break
        c = vec[lead] / span.rows[r][lead]
        for i, v in span.rows[r].items():
            nv = vec.get(i, Fraction(0)) - c * v
            if nv:
                vec[i] = nv
            else:
                vec.pop(i, None)
    monomials = degree2_monomials(span.k, span.n)
    return [(monomials[i], c) for i, c in vec.items()]


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7)])
def test_reduce_matches_fraction_reduction(k, n):
    span = _relation_span(k, n, QuadraticForm.standard(n))
    laws = [poly for _, _, poly in all_straightening_mu(k, n) + all_straightening_lambda(k, n)]
    # sums with denominators
    laws += [combination((Fraction(2, 3), a), (Fraction(-5, 7), b)) for a, b in zip(laws, laws[1:])]
    # p12 p34 at (2, 6), p123 p456 at (3, 7)
    nonmember = Polynomial(k, n, {_mono(tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1))): 1})
    # the lead monomial of a row is no member: its reduction starts by
    # multiplying it by the row's lead, which is not 1 for one row at (3, 7)
    leads = [Polynomial(k, n, {span.monomials[max(row)]: 1}) for row in span.rows]
    assert any(row[max(row)] != 1 for row in span.rows) == ((k, n) == (3, 7))
    others = leads + [nonmember, combination((1, nonmember), (1, laws[0]))]
    for polys, member in ((laws + [Polynomial(k, n)], True), (others, False)):
        for poly in polys:
            residual = span.reduce(poly)
            assert list(residual.terms.items()) == fraction_reduce(span, poly)
            assert residual.is_zero() == member
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
    span = fresh_span(2, 5)
    for method in (span.add, span.reduce):
        with pytest.raises(SizeMismatchError):
            method(g)


@pytest.mark.parametrize("monomial", [
    ((1, 2),),
    ((1, 2), (1, 3), (2, 3)),
    ((3, 4), (1, 2)),
    ((1, 4), (2, 3)),  # lexicographically sorted, but (2, 3) comes first in colex order
    (),
], ids=["linear", "cubic", "reversed", "reversed-colex", "constant"])
def test_polynomial_refuses_monomial_other_than_a_colex_pair(monomial):
    with pytest.raises(InputError, match="degree-2 monomial"):
        Polynomial(2, 6, {_mono((1, 2), (3, 4)): 1, monomial: 2})
    # a zero coefficient drops the term before the check
    assert Polynomial(2, 6, {monomial: 0}).is_zero()


def test_span_rank_against_counts():
    span = _relation_span(2, 6, QuadraticForm.standard(6))
    assert span.rank == 36
    assert len(degree2_monomials(2, 6)) == 120


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6)])
def test_add_reports_whether_the_rank_grew(k, n):
    span = fresh_span(k, n)
    rows, rank = [dict(r) for r in span.rows], span.rank
    gens = plucker_relations(k, n) + orthogonality_relations(k, n, QuadraticForm.standard(n))
    assert not any(span.add(g) for g in gens)
    assert span.rows == rows and span.rank == rank
    m = first_standard_monomial(k, n)
    outside = Polynomial(k, n, {m: Fraction(-6, 5)})
    assert not span.reduce(outside).is_zero()
    assert span.add(outside)
    # the new row is the monomial's index alone, made primitive with a positive lead
    lead = span.monomials.index(m)
    assert span.rank == rank + 1 and span.rows[-1] == {lead: 1}
    assert span.pivot_row[lead] == rank
    assert span.reduce(outside).is_zero()
    assert not span.add(Polynomial(k, n, {m: 7}))
    assert span.rank == rank + 1


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7)])
def test_reduce_is_idempotent_and_reads_the_span_only(k, n):
    span = _relation_span(k, n, QuadraticForm.standard(n))
    rows, pivots = [dict(r) for r in span.rows], dict(span.pivot_row)
    laws = [poly for _, _, poly in all_straightening_mu(k, n)[::7]]
    square = Polynomial(k, n, {first_standard_monomial(k, n): Fraction(5, 4)})
    others = [square] + [combination((Fraction(3, 7), law), (1, square)) for law in laws]
    for polys, member in ((laws, True), (others, False)):
        for poly in polys:
            residual = span.reduce(poly)
            assert span.reduce(residual) == residual
            assert residual.is_zero() == member
    assert span.rows == rows and span.pivot_row == pivots


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
    mixed = [(I, Jp) for I, Jp in mixed_incomparable_pairs(k, n)
             if young_leq(I, subset_complement(Jp, n))]
    span = _relation_span(k, n, QuadraticForm.standard(n))
    assert span.rank == len(young_incomparable_pairs(k, n)) + len(mixed)


def sort_sign_shuffle(I, J, l, n, coyoung):
    """The snake shuffle with a sort_sign call per bracket: inversions counted
    pair by pair, coYoung brackets rewritten by normalize_bracket."""
    k = len(I)
    rank = colex_ranks(n, k)
    seq = I[:l] + J[l - 1:]
    terms = {}
    for chosen in combinations(range(len(seq)), l):
        A = tuple(seq[q] for q in chosen)
        B = tuple(seq[q] for q in range(len(seq)) if q not in chosen)
        first, s1 = sort_sign(A + I[l:])
        second, s2 = sort_sign(J[:l - 1] + B)
        if not s1 or not s2:
            continue
        if coyoung:
            s3, second = normalize_bracket(second, n)
            s2 *= s3
        a, b = sorted((rank[first], rank[second]))
        block = (-1) ** sum(q - t for t, q in enumerate(chosen))
        terms[a, b] = terms.get((a, b), 0) + block * s1 * s2
    return Polynomial._from_ranks(k, n, terms)


@pytest.mark.parametrize("k,n,step", [(2, 5, 1), (2, 6, 1), (3, 7, 1), (3, 8, 1), (4, 9, 3)])
def test_shuffles_match_sort_sign_reference(k, n, step):
    # both orientations of the incomparable Young pairs: at (4, 9) the
    # canonical choice between them still fails for one pair
    for I, J in young_incomparable_pairs(k, n)[::step]:
        for A, B in ((I, J), (J, I)):
            poly = straightening_mu(A, B, n)
            ref = sort_sign_shuffle(A, B, snake_index(A, B), n, False)
            assert list(poly.terms.items()) == list(ref.terms.items())
            assert poly.cleared() == ref.cleared()
    for I, Jp, poly in all_straightening_lambda(k, n)[::step]:
        ref = sort_sign_shuffle(I, Jp, snake_index(I, Jp[:k]), n, True)
        assert list(poly.terms.items()) == list(ref.terms.items())
        assert poly.cleared() == ref.cleared()


def reference_rows(span, gens):
    """The rows Degree2Span.add builds from gens, by the same elimination
    written out: each new row divided by the gcd of its entries, with a
    positive lead."""
    pivot_row, rows = {}, []
    for poly in gens:
        vec, _ = span._vector(poly)
        while vec and max(vec) in pivot_row:
            r = pivot_row[max(vec)]
            a, b = vec[max(vec)], rows[r][max(vec)]
            ca, cb = b // gcd(a, b), a // gcd(a, b)
            vec = {i: ca * v for i, v in vec.items()}
            for i, v in rows[r].items():
                vec[i] = vec.get(i, 0) - cb * v
                if not vec[i]:
                    del vec[i]
        if vec:
            lead = max(vec)
            g = gcd(*vec.values())
            g = -g if vec[lead] < 0 else g
            pivot_row[lead] = len(rows)
            rows.append({i: v // g for i, v in vec.items()})
    return rows


@pytest.mark.parametrize("k,n", [(2, 6), (3, 7)])
def test_rows_match_reference_elimination(k, n):
    std = QuadraticForm.standard(n)
    span = _relation_span(k, n, std)
    rows = reference_rows(span, plucker_relations(k, n) + orthogonality_relations(k, n, std))
    assert [list(r.items()) for r in span.rows] == [list(r.items()) for r in rows]
    assert span.pivot_row == {max(r): i for i, r in enumerate(rows)}


def universal_by_young_leq(poly, m0):
    """leading_term_universal read pair by pair through young_leq."""
    for m in poly.terms:
        if m != m0:
            only1 = [w for w in m if w not in m0]
            for u in (v for v in m0 if v not in m):
                if not any(u != w and young_leq(u, w) for w in only1):
                    return False
    return True


@pytest.mark.parametrize("k,n", [(1, 4), (2, 6), (3, 7), (4, 9)])
def test_young_comparisons_match_young_leq(k, n):
    subs = ksubsets(n, k)
    pairs = [(I, J) for a, I in enumerate(subs) for J in subs[a + 1:]
             if not young_leq(I, J) and not young_leq(J, I)]
    assert young_incomparable_pairs(k, n) == pairs
    for I, J in pairs[::3]:
        m0 = _mono(I, J)
        for A, B in ((I, J), (J, I)):
            poly = straightening_mu(A, B, n)
            assert leading_term_universal(poly, m0) == universal_by_young_leq(poly, m0)
    for I in subs[::4]:
        for J in subs[::3]:
            if young_leq(I, J) or young_leq(J, I):
                with pytest.raises(InputError):
                    straightening_mu(I, J, n)


@pytest.mark.xfail(raises=InternalInvariantError, strict=True,
                   reason="at (4, 8) neither orientation of (2,4,5,6), (1,3,7,8) has a "
                          "universal leading term")
def test_straightening_mu_at_4_8():
    laws = all_straightening_mu(4, 8)
    assert len(laws) == len(young_incomparable_pairs(4, 8))
    for I, J, poly in laws:
        assert leading_term_universal(poly, _mono(I, J))


def test_straightening_lambda_refuses_n_below_2k():
    with pytest.raises(InputError, match="n >= 2k"):
        straightening_lambda((1, 2), (3,), 3)
    with pytest.raises(InputError, match="n >= 2k"):
        straightening_lambda((1, 2, 4), (3, 5), 5)


def test_mixed_pairs_at_n_below_2k_are_refused():
    for k, n in [(3, 3), (2, 2), (1, 1), (3, 5)]:
        with pytest.raises(InputError):
            all_straightening_lambda(k, n)
    for k, n in [(0, 5), (-1, 5), (6, 5)]:
        for family in (all_straightening_mu, all_straightening_lambda):
            with pytest.raises(InputError):
                family(k, n)


def eager_from_ranks(cls, k, n, ints):
    """Polynomial._from_ranks with both forms set by hand: the subset tuple
    -> Fraction dict next to the integer form it was read from, so neither
    goes through the decoding of the lazy view."""
    subs = ksubsets(n, k)
    ints = {m: c for m, c in ints.items() if c}
    terms = {tuple(subs[r] for r in m): Fraction(c) for m, c in ints.items()}
    poly = Polynomial(k, n, terms)
    poly._cleared = (1, list(ints.values()), list(ints))
    poly._terms = MappingProxyType(terms)
    return poly


def every_family(k, n):
    """New copies of the generators of every family at (k, n): the shuffle
    quadrics, the orthogonality quadrics of three forms, mu of both
    orientations of each incomparable pair (at k = 4 the canonical choice
    between them still fails for one pair) and lambda."""
    polys = list(plucker_relations.__wrapped__(k, n))
    for form in (QuadraticForm.standard(n), QuadraticForm.alternating(n),
                 QuadraticForm.hyperbolic(n)):
        polys += orthogonality_relations.__wrapped__(k, n, form)
    for I, J in young_incomparable_pairs(k, n):
        polys += [straightening_mu(I, J, n), straightening_mu(J, I, n)]
    polys += [poly for _, _, poly in all_straightening_lambda.__wrapped__(k, n)]
    return polys


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7), (3, 8), (4, 8)])
def test_terms_view_matches_eager_reference(k, n, monkeypatch):
    lazy = every_family(k, n)
    monkeypatch.setattr(Polynomial, "_from_ranks", classmethod(eager_from_ranks))
    eager = every_family(k, n)
    assert len(lazy) == len(eager)
    for poly, ref in zip(lazy, eager):
        assert poly._terms is None
        cleared = poly.cleared()
        items = list(poly.terms.items())
        assert items == list(ref.terms.items())
        assert all(type(c) is Fraction for _, c in items)
        assert poly.cleared() is cleared and cleared == ref.cleared()


def test_zero_polynomial_from_ranks():
    for ints in ({}, {(0, 1): 0, (2, 2): 0}):
        poly = Polynomial._from_ranks(2, 5, ints)
        assert poly.is_zero() and poly._terms is None
        assert poly.terms == {} and poly == Polynomial(2, 5)


def test_terms_are_read_only():
    # a cached generator is shared by every caller: writing into its terms
    # must not change what the next caller prints
    cached = plucker_relations(2, 4)[0]
    before = cached.pretty()
    direct = Polynomial(2, 4, {_mono((1, 2), (3, 4)): 1})
    for poly in (cached, direct):
        with pytest.raises(TypeError):
            poly.terms[_mono((1, 2), (3, 4))] = 7
    assert plucker_relations(2, 4)[0].pretty() == before
    assert direct.pretty() == "⟨12⟩ ⟨34⟩"


def test_equality_on_unbuilt_views_matches_eager(monkeypatch):
    """== on new builds, so that it meets unbuilt views first: pairs of
    neighbours compare as their eager twins do, and each equals its twin."""
    k, n = 2, 6
    with monkeypatch.context() as patch:
        patch.setattr(Polynomial, "_from_ranks", classmethod(eager_from_ranks))
        eager = every_family(k, n)

    def neighbours(polys):
        return [(polys[i] == polys[i + 1], polys[i + 1] == polys[i])
                for i in range(0, len(polys) - 1, 5)]

    assert neighbours(every_family(k, n)) == neighbours(eager)
    assert any(a for a, _ in neighbours(eager))
    assert all(a == b == a for a, b in zip(every_family(k, n), eager))


def test_degree2_checks_never_build_the_terms_view():
    k, n = 3, 7
    for cached in (plucker_relations, orthogonality_relations, all_straightening_mu,
                   all_straightening_lambda, _relation_span):
        cached.cache_clear()
    assert groebner_degree2_check(k, n)["ok"]
    laws = [poly for _, _, poly in all_straightening_mu(k, n) + all_straightening_lambda(k, n)]
    square = Polynomial(k, n, {_mono((1, 2, 3), (1, 2, 3)): 1})
    for law in laws:
        assert degree2_membership(law, k, n)
    assert not degree2_membership(square, k, n)
    gens = plucker_relations(k, n) + orthogonality_relations(k, n, QuadraticForm.standard(n))
    assert all(poly._terms is None for poly in list(gens) + laws)
