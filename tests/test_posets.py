from itertools import combinations, combinations_with_replacement

import pytest

from ogrlab import weyl
from ogrlab.errors import InputError
from ogrlab.exact_core import colex_key, ksubsets, subset_complement
from ogrlab.posets import (
    _strictly_above,
    PosetElement,
    count_mixed_pairs_formula,
    count_standard_monomials,
    elements,
    is_standard_monomial,
    linear_extension,
    mixed_incomparable_pairs,
    mixed_leq,
    mixed_upsets,
    pair_bijection_forward,
    pair_bijection_inverse,
    snake_index,
    standard_pairs,
    young_leq,
    young_upsets,
)


def p_leq(a: PosetElement, b: PosetElement, k: int, n: int) -> bool:
    """Order relation of the glued poset.

    Young and coYoung copies are each ordered componentwise; a coYoung
    element sits below a Young element when its first k entries are
    componentwise at most the Young entries.  Young elements are never
    below coYoung ones.
    """
    for e in (a, b):
        want = k if e.kind == "Y" else n - k
        if e.kind not in ("Y", "coY"):
            raise InputError(f"bad poset element kind {e.kind!r}")
        if len(e.subset) != want or any(x < 1 or x > n for x in e.subset):
            raise InputError(f"element {e} does not live in the ({k},{n}) poset")
    if a.kind == b.kind:
        return young_leq(a.subset, b.subset)
    return a.kind == "coY" and mixed_leq(a.subset, b.subset, k)


def Y(*s):
    return PosetElement("Y", tuple(s))


def coY(*s):
    return PosetElement("coY", tuple(s))


def test_young_leq_reflexive():
    assert young_leq((1, 2), (1, 2))


def test_young_leq_componentwise():
    assert young_leq((1, 3), (2, 4))
    assert not young_leq((1, 4), (2, 3))
    assert not young_leq((2, 3), (1, 4))


def test_p_leq_glue_edge():
    # the partition {1,2,3,4} = {1,2} | {3,4} glues [1256] under <12>
    assert p_leq(coY(1, 2, 5, 6), Y(1, 2), 2, 6)


def test_p_leq_incomparable_mixed():
    assert not p_leq(coY(1, 3, 5, 6), Y(1, 2), 2, 6)
    assert not p_leq(Y(1, 2), coY(1, 3, 5, 6), 2, 6)


def test_p_leq_global_minimum():
    for I in ksubsets(6, 2):
        assert p_leq(coY(1, 2, 3, 4), Y(*I), 2, 6)


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7)])
def test_p_leq_partial_order(k, n):
    elems = elements(k, n)
    for a in elems:
        assert p_leq(a, a, k, n)
    for a in elems:
        for b in elems:
            if a != b and p_leq(a, b, k, n) and p_leq(b, a, k, n):
                raise AssertionError(f"antisymmetry fails at {a}, {b}")
    leq = {
        (i, j)
        for i, a in enumerate(elems)
        for j, b in enumerate(elems)
        if p_leq(a, b, k, n)
    }
    for i, j in leq:
        for jj, kk in leq:
            if j == jj:
                assert (i, kk) in leq, "transitivity fails"


def covering_partition_pairs(k, n):
    """The C(2k, k) glue relations [complement of J] < <I> from {1..2k} = I | J."""
    out = []
    for I in combinations(range(1, 2 * k + 1), k):
        J = tuple(x for x in range(1, 2 * k + 1) if x not in I)
        out.append((PosetElement("coY", subset_complement(J, n)), PosetElement("Y", I)))
    return out


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7)])
def test_partition_pairs_are_covers(k, n):
    pairs = covering_partition_pairs(k, n)
    assert len(pairs) == len(list(combinations(range(2 * k), k)))
    elems = elements(k, n)
    for lo, hi in pairs:
        assert p_leq(lo, hi, k, n)
        between = [
            e for e in elems
            if e not in (lo, hi)
            and p_leq(lo, e, k, n) and p_leq(e, hi, k, n)
        ]
        assert not between, f"{lo} < {hi} is not a covering relation"


def counted_mixed_pairs(k, n):
    """The mixed incomparable pairs (I, J') with I <= complement(J')."""
    return [(I, Jp) for I, Jp in mixed_incomparable_pairs(k, n)
            if young_leq(I, subset_complement(Jp, n))]


def test_mixed_pairs_example_entry():
    mixed = counted_mixed_pairs(2, 6)
    assert len(mixed) == 21
    assert ((1, 2), (1, 3, 5, 6)) in mixed
    assert snake_index((1, 2), (1, 3)) == 2


def pair_loop_mixed_pairs(k, n):
    """The counted mixed pairs straight from the tuple definitions: a loop
    over Young pairs I <= J, J' the complement of J, kept when [J'] is not
    below <I>."""
    subs = ksubsets(n, k)
    return [(I, subset_complement(J, n)) for I in subs for J in subs
            if young_leq(I, J) and not mixed_leq(subset_complement(J, n), I, k)]


@pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 5) for n in range(2 * k, 11)])
def test_counted_mixed_pairs_match_pair_loop(k, n):
    mixed = counted_mixed_pairs(k, n)
    assert sorted(mixed) == sorted(pair_loop_mixed_pairs(k, n))
    assert len(mixed) == count_mixed_pairs_formula(k, n)


@pytest.mark.parametrize("k,n", [(1, 2), (2, 4), (3, 7), (3, 10), (4, 9), (4, 10)])
def test_mixed_upsets_match_mixed_leq(k, n):
    subs = ksubsets(n, k)
    mixed = mixed_upsets(k, n)
    for c, Jp in enumerate(ksubsets(n, n - k)):
        assert [a for a, I in enumerate(subs) if mixed_leq(Jp, I, k)] == [
            a for a in range(len(subs)) if mixed[c] >> a & 1]


@pytest.mark.parametrize(
    "k,n,expected", [(2, 6, 21), (3, 7, 196), (2, 4, 10)]
)
def test_count_formula_values(k, n, expected):
    assert count_mixed_pairs_formula(k, n) == expected


def test_count_formula_rejects_k1():
    with pytest.raises(InputError):
        count_mixed_pairs_formula(1, 4)


def test_bijection_lattice_path_instance():
    T = pair_bijection_forward((1, 3, 6, 7), (2, 3, 7, 8), 8)
    assert T == ((1, 4, 5, 6, 7), (2, 4, 5, 7, 8))
    assert pair_bijection_inverse(*T, 8) == ((1, 3, 6, 7), (2, 3, 7, 8))


def test_bijection_singleton_case():
    T1, T2 = pair_bijection_forward((1,), (1,), 5)
    assert T1 == T2 and len(T1) == 2
    assert not mixed_leq(subset_complement(T1, 5), T2, 2)
    assert pair_bijection_inverse(T1, T2, 5) == ((1,), (1,))


@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7)])
def test_bijection_roundtrip_exhaustive(k, n):
    small = ksubsets(n, k - 1)
    domain = [(a, b) for a in small for b in small if young_leq(a, b)]
    images = set()
    for S1, S2 in domain:
        T = pair_bijection_forward(S1, S2, n)
        assert pair_bijection_inverse(*T, n) == (S1, S2)
        images.add(T)
    big = ksubsets(n, k)
    codomain = {
        (T1, T2)
        for T1 in big
        for T2 in big
        if young_leq(T1, T2)
        and not mixed_leq(subset_complement(T1, n), T2, k)
    }
    assert images == codomain


def test_standard_monomial_square_of_minimum():
    assert not is_standard_monomial([(1, 2), (1, 2)], 2, 6)


def test_standard_monomial_example_leading_pair():
    assert not is_standard_monomial([(1, 2), (2, 4)], 2, 6)


def test_standard_monomial_singleton():
    assert is_standard_monomial([(1, 2)], 2, 6)


def test_count_standard_monomials():
    assert count_standard_monomials(2, 6, 2) == 84
    assert count_standard_monomials(2, 6, 1) == 15
    assert count_standard_monomials(2, 5, 2) == weyl.weyl_dim(2, 5, 2)


@pytest.mark.parametrize("k,n", [(1, 4), (2, 5), (2, 6)])
def test_standard_count_matches_weyl_degree3(k, n):
    for ell in (1, 2, 3):
        assert count_standard_monomials(k, n, ell) == weyl.weyl_dim(k, n, ell)


def test_snake_index():
    assert snake_index((1, 2), (1, 3)) == 2
    assert snake_index((2, 3), (1, 2)) is None


@pytest.mark.parametrize("tie", ["colex", "colex_desc", "kind_first"])
def test_linear_extension_respects_order(tie):
    k, n = 2, 6
    ext = linear_extension(k, n, tie)
    pos = {e: i for i, e in enumerate(ext)}
    assert len(ext) == len(elements(k, n))
    for a in ext:
        for b in ext:
            if a != b and p_leq(a, b, k, n):
                assert pos[a] < pos[b]


def minimal_removal_extension(k, n, tie):
    """The extension by rescanning the remaining elements for minimal ones
    at every step, as linear_extension did before it cached the relation."""
    elems = elements(k, n)
    remaining = set(range(len(elems)))
    below = {
        i: {j for j in range(len(elems)) if j != i and p_leq(elems[j], elems[i], k, n)}
        for i in range(len(elems))
    }

    def key(i):
        e = elems[i]
        if tie == "colex":
            return (0, colex_key(e.subset), e.kind)
        if tie == "colex_desc":
            return (0,) + tuple(-x for x in colex_key(e.subset)) + (e.kind,)
        return (0 if e.kind == "coY" else 1, colex_key(e.subset))

    out = []
    while remaining:
        pick = min((i for i in remaining if not below[i] & remaining), key=key)
        out.append(elems[pick])
        remaining.remove(pick)
    return out


@pytest.mark.parametrize("tie", ["colex", "colex_desc", "kind_first"])
@pytest.mark.parametrize("k,n", [(2, 5), (2, 6), (3, 7), (3, 8)])
def test_linear_extension_matches_minimal_removal(k, n, tie):
    assert linear_extension(k, n, tie) == minimal_removal_extension(k, n, tie)


def test_linear_extension_rejects_unknown_tie_break():
    with pytest.raises(InputError):
        linear_extension(2, 5, "lex")


def test_linear_extensions_distinct():
    exts = {tuple(linear_extension(2, 6, t)) for t in
            ("colex", "colex_desc", "kind_first")}
    assert len(exts) == 3


def test_standard_count_matches_weyl_at_3_7():
    for ell in (1, 2, 3):
        assert count_standard_monomials(3, 7, ell) == weyl.weyl_dim(3, 7, ell)


def standard_by_definition(A, B, n):
    """A standard pair read straight off the glued poset: Young-comparable,
    and each factor above the complement of the other."""
    k = len(A)
    cA, cB = subset_complement(A, n), subset_complement(B, n)
    return ((young_leq(A, B) or young_leq(B, A))
            and all(cB[l] <= A[l] for l in range(k))
            and all(cA[l] <= B[l] for l in range(k)))


@pytest.mark.parametrize("k,n", [(1, 4), (2, 6), (3, 7), (3, 10), (4, 9)])
def test_mixed_order_is_symmetric_in_complements(k, n):
    """[complement(A)] <= <B> exactly when [complement(B)] <= <A>: both say
    that A and B together have at most t entries in [1, t], for every t.
    standard_pairs reads one of the two."""
    subs = ksubsets(n, k)
    for A in subs:
        for B in subs:
            assert mixed_leq(subset_complement(A, n), B, k) == \
                mixed_leq(subset_complement(B, n), A, k)


@pytest.mark.parametrize("k,n", [(1, 3), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 9)])
def test_standard_pair_table_matches_definition(k, n):
    subs = ksubsets(n, k)
    table = standard_pairs(k, n)
    for a, A in enumerate(subs):
        for b, B in enumerate(subs):
            assert bool(table[a] >> b & 1) == standard_by_definition(A, B, n)
    for ell in (1, 2, 3) if n <= 7 else (1, 2):
        direct = sum(
            all(standard_by_definition(A, B, n) for A, B in combinations(combo, 2))
            for combo in combinations_with_replacement(subs, ell)
        )
        assert count_standard_monomials(k, n, ell) == direct


@pytest.mark.parametrize("k,n", [(1, 4), (2, 6), (3, 7), (4, 9)])
def test_young_upsets_match_young_leq(k, n):
    subs = ksubsets(n, k)
    up = young_upsets(k, n)
    for a, A in enumerate(subs):
        assert [b for b, B in enumerate(subs) if young_leq(A, B)] == [
            b for b in range(len(subs)) if up[a] >> b & 1]


@pytest.mark.parametrize("k,n", [(1, 4), (2, 6), (3, 7), (3, 10), (4, 9)])
def test_strictly_above_matches_order_relation(k, n):
    elems = elements(k, n)
    assert _strictly_above(k, n) == tuple(
        tuple(i for i, b in enumerate(elems) if i != j and p_leq(a, b, k, n))
        for j, a in enumerate(elems)
    )


@pytest.mark.parametrize("k,n", [(0, 4), (-1, 4), (2, 3), (3, 5), (4, 7), (6, 5)])
def test_mixed_upsets_refuse_n_below_2k(k, n):
    with pytest.raises(InputError, match="n >= 2k >= 2"):
        mixed_upsets(k, n)


@pytest.mark.parametrize("build", [
    lambda: mixed_incomparable_pairs(2, 3),
    lambda: linear_extension(3, 5),
    lambda: _strictly_above(3, 5),
    lambda: standard_pairs(2, 3),
    lambda: count_standard_monomials(3, 5, 1),
    lambda: is_standard_monomial([(1, 2)], 2, 3),
], ids=["mixed_pairs", "linear_extension", "strictly_above", "standard_pairs",
        "count_standard_monomials", "is_standard_monomial"])
def test_tables_below_2k_are_refused(build):
    with pytest.raises(InputError, match="n >= 2k >= 2"):
        build()


@pytest.mark.parametrize("factors", [[(1, 1)], [(2, 1), (1, 3)], [(1, 7)], [(1,)], []])
def test_standard_monomial_refuses_non_subsets(factors):
    with pytest.raises(InputError):
        is_standard_monomial(factors, 2, 6)
