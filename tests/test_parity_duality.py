from itertools import permutations

import pytest

from ogrlab.errors import InputError, NotAPointError
from ogrlab.exact_core import Mat
from ogrlab.forms_points import (
    PluckerVector,
    QuadraticForm,
    component_of,
    is_isotropic,
    is_totally_nonnegative,
    sample_isotropic_component,
)
from ogrlab.ideal_gens import plucker_relations
from ogrlab.parity_duality import (
    admissible_bijection_check,
    all_matchings,
    crossing,
    crossing_family,
    matching_to_permutation,
    matching_to_permutation_via_contraction,
    phi_inverse,
    phi_map,
    rotation_cycle,
)


def test_crossing_basic():
    assert crossing((1, 3), (2, 4))
    assert not crossing((1, 2), (3, 4))
    assert not crossing((1, 4), (2, 3))


def test_crossing_shared_endpoint():
    with pytest.raises(InputError):
        crossing((1, 3), (3, 4))


def test_all_matchings_double_factorial():
    assert len(all_matchings(4)) == 3
    assert len(all_matchings(6)) == 15
    assert len(all_matchings(8)) == 105


def test_matching_examples_k1():
    word, plus = matching_to_permutation([(1, 3), (2, 4)], 1)
    assert word == (2, 3, 1) and plus == frozenset()
    word, plus = matching_to_permutation([(1, 2), (3, 4)], 1)
    assert word == (2, 1, 3) and plus == frozenset({3})


def cycles_with_excedances(support, exc: int) -> list[dict]:
    """All single cycles on the support with the given excedance count."""
    support = sorted(support)
    if len(support) == 1:
        return [{support[0]: support[0]}] if exc == 0 else []
    out = []
    head = support[0]
    for rest in permutations(support[1:]):
        seq = [head] + list(rest)
        mapping = {seq[i]: seq[(i + 1) % len(seq)] for i in range(len(seq))}
        if sum(1 for i, v in mapping.items() if v > i) == exc:
            out.append(mapping)
    return out


def test_rotation_cycle_excedances():
    for r in range(1, 8):
        for support in (list(range(1, 2 * r)), [3 * t + 2 for t in range(2 * r - 1)]):
            cyc = rotation_cycle(support, r)
            # one cycle through the whole support
            orbit = [support[0]]
            while cyc[orbit[-1]] != support[0]:
                orbit.append(cyc[orbit[-1]])
            assert sorted(orbit) == support and sorted(cyc) == support
            assert sum(1 for i, v in cyc.items() if v > i) == (r if r > 1 else 0)
            if r <= 4:
                assert cyc in cycles_with_excedances(support, r if r > 1 else 0)


def test_cycle_multiplicity_for_r3():
    # cycles with 3 excedances on 5 points are plentiful; the rotation is
    # the one the geometry picks
    found = cycles_with_excedances([1, 2, 3, 4, 5], 3)
    assert len(found) > 1
    assert rotation_cycle([1, 2, 3, 4, 5], 3) in found


def test_sequential_family_not_maximum():
    # the sequential family can be smaller than a maximum crossing clique;
    # the contraction route confirms it is the right one
    tau = [(1, 7), (2, 5), (3, 6), (4, 8)]
    fam = crossing_family(tau, 8)
    assert sorted(fam) == [(1, 7), (4, 8)]
    word, _ = matching_to_permutation(tau, 3)
    assert word == matching_to_permutation_via_contraction(tau, 3)[0]
    assert word == (4, 5, 6, 7, 2, 3, 1)


def test_ambiguous_maximum_clique_resolved():
    tau = [(1, 5), (2, 4), (3, 6)]
    word, _ = matching_to_permutation(tau, 2)
    assert word == (3, 4, 5, 2, 1)
    assert word == matching_to_permutation_via_contraction(tau, 2)[0]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bijection_check(k):
    rep = admissible_bijection_check(k)
    assert rep["injective"]
    assert rep["routes_agree"]
    assert rep["image_size"] == rep["matchings"]
    if k == 2:
        assert rep["image_size"] == 15


def test_image_is_admissible_at_k2():
    from ogrlab.orthopositroids import enumerate_orthopositroids

    admissible = {
        (p.dperm.word, frozenset(p.dperm.coloops))
        for p in enumerate_orthopositroids(2, 5)
    }
    image = set()
    for mt in all_matchings(6):
        word, plus = matching_to_permutation(mt, 2)
        coloops = frozenset(
            i for i in range(1, 6) if word[i - 1] == i and i not in plus
        )
        image.add((word, coloops))
    assert image == admissible


def test_figure_family_datum():
    tau = [(8, 16), (1, 11), (2, 13), (4, 15), (3, 7), (5, 6), (9, 10), (12, 14)]
    fam = crossing_family(tau, 16)
    support = sorted(v for c in fam for v in c if v != 16)
    assert support == [1, 2, 4, 8, 11, 13, 15]
    word, _ = matching_to_permutation(tau, 7)
    assert sum(1 for s in support if word[s - 1] > s) == 4


def test_phi_map_requires_standard_component():
    # negating the first coordinate moves the point to the twisted component
    p = sample_isotropic_component(2, seed=0).plucker()
    q = PluckerVector(2, 4, {I: (-v if 1 in I else v) for I, v in p.coords.items()})
    assert component_of(q) == "twisted"
    with pytest.raises(NotAPointError):
        phi_map(q)


def test_phi_map_small_case_relation():
    q = sample_isotropic_component(2, seed=1).plucker()
    p = phi_map(q)
    assert p.get((1,)) == q.get((1, 4))
    assert p.get((1,)) ** 2 - p.get((2,)) ** 2 + p.get((3,)) ** 2 == 0


@pytest.mark.parametrize("seed", range(8))
def test_phi_map_samples_land_on_target(seed):
    q = sample_isotropic_component(3, seed=seed).plucker()
    p = phi_map(q)
    assert is_isotropic(p, QuadraticForm.alternating(5))
    assert all(g.evaluate(p) == 0 for g in plucker_relations(2, 5))
    assert phi_inverse(p).eq_projective(q)


def test_phi_preserves_nonnegativity():
    from fractions import Fraction

    p5 = PluckerVector.from_matrix(Mat([
        [1, 1, 0, 0, 0],
        [0, 0, 1, Fraction(5, 4), Fraction(3, 4)],
    ]))
    assert is_totally_nonnegative(p5)
    q6 = phi_inverse(p5)
    assert is_totally_nonnegative(q6)
    assert is_isotropic(q6, QuadraticForm.alternating(6))
    assert is_totally_nonnegative(phi_map(q6))


def max_crossing_cliques(anchor, chords):
    """All maximum pairwise-crossing families containing the anchor chord."""
    partners = [c for c in chords if c != anchor and crossing(c, anchor)]
    best_size = 1
    best = [[anchor]]
    for mask in range(1, 1 << len(partners)):
        group = [partners[i] for i in range(len(partners)) if mask >> i & 1]
        ok = all(
            crossing(group[i], group[j])
            for i in range(len(group))
            for j in range(i + 1, len(group))
        )
        if not ok:
            continue
        size = len(group) + 1
        if size > best_size:
            best_size = size
            best = [[anchor] + group]
        elif size == best_size:
            best.append([anchor] + group)
    return best


def test_maximum_cliques_can_be_ambiguous():
    chords = [(1, 5), (2, 4), (3, 6)]
    cliques = max_crossing_cliques((3, 6), chords)
    assert len(cliques) == 2  # the reason the sequential family is used
