"""Linear isomorphism between odd and even positive orthogonal Grassmannians
and the matching combinatorics of its cell structure.

Points of the even case (standard component) restrict to points of the odd
case by keeping the coordinates containing the last index; on the cell level
perfect matchings on 2k+2 vertices turn into permutations of 2k+1 by
collapsing the maximal crossing family through the last vertex into a single
cycle.
"""
from __future__ import annotations

from .errors import InputError, NotAPointError
from .exact_core import ksubsets
from .forms_points import PluckerVector, QuadraticForm, component_of
from .ideal_gens import is_isotropic


# ---------------------------------------------------------------------------
# The coordinate restriction map and its inverse
# ---------------------------------------------------------------------------

def phi_map(q: PluckerVector) -> PluckerVector:
    """Restrict a standard-component point of the (k+1, 2k+2) isotropic
    Grassmannian to a point of the (k, 2k+1) one: p_I = q_{I + {2k+2}}."""
    if q.n != 2 * q.k:
        raise InputError("phi_map expects a point with n = 2k")
    if component_of(q) != "standard":
        raise NotAPointError("phi_map is defined on the standard component")
    if not is_isotropic(q, QuadraticForm.alternating(q.n)):
        raise NotAPointError("input does not satisfy the orthogonality relations")
    k = q.k - 1
    n = q.n - 1
    last = q.n
    coords = {}
    for I in ksubsets(n, k):
        v = q.get(tuple(sorted(I + (last,))))
        if v != 0:
            coords[I] = v
    return PluckerVector(k, n, coords)


def phi_inverse(p: PluckerVector) -> PluckerVector:
    """Inverse assignment onto the standard component: coordinates containing
    the last index copy p, the others are filled in by complementation."""
    k = p.k + 1
    n2 = p.n + 1
    last = n2
    coords = {}
    for J in ksubsets(n2, k):
        if last in J:
            v = p.get(tuple(x for x in J if x != last))
        else:
            v = p.get(tuple(x for x in range(1, n2) if x not in J))
        if v != 0:
            coords[J] = v
    return PluckerVector(k, n2, coords)


# ---------------------------------------------------------------------------
# Matchings and chords
# ---------------------------------------------------------------------------

def chord(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise InputError("chord endpoints must differ")
    return (a, b) if a < b else (b, a)


def crossing(c1, c2) -> bool:
    """Do two chords of a circle interleave?"""
    a1, b1 = chord(*c1)
    a2, b2 = chord(*c2)
    if {a1, b1} & {a2, b2}:
        raise InputError("chords share an endpoint")
    return a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1


def all_matchings(m: int) -> list[frozenset]:
    """All perfect matchings of [1, m] (m even), each a frozenset of chords."""
    if m % 2:
        raise InputError("perfect matchings need an even ground set")
    if m > 12:
        raise InputError("matchings are listed at desk scale: m <= 12 (10395 of them)")

    def rec(items):
        if not items:
            yield []
            return
        first = items[0]
        for i in range(1, len(items)):
            pair = (first, items[i])
            rest = items[1:i] + items[i + 1:]
            for sub in rec(rest):
                yield [pair] + sub

    return [frozenset(m_) for m_ in rec(list(range(1, m + 1)))]


def validate_matching(matching, m: int) -> list[tuple[int, int]]:
    chords = [chord(*c) for c in matching]
    seen = [v for c in chords for v in c]
    if sorted(seen) != list(range(1, m + 1)):
        raise InputError(f"not a perfect matching of [1, {m}]")
    return sorted(chords)


def max_crossing_cliques(anchor, chords):
    """All maximum pairwise-crossing families containing the anchor chord.

    Diagnostic: such maximum cliques need not be unique, which is why the
    collapse uses the sequential family instead."""
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


def crossing_family(matching, m: int):
    """The sequential pairwise-crossing family through the chord at vertex m.

    Starting from that chord, vertices are scanned in increasing order and a
    chord joins the family when it crosses every chord already in it.  This
    greedy sequence is deterministic; a maximum crossing clique through the
    anchor need not be unique, but the sequential family is, and it is the
    one the coordinate-restriction isomorphism realizes (checked against the
    contraction route for every matching at desk scale)."""
    chords = validate_matching(matching, m)
    anchor = next(c for c in chords if m in c)
    family = [anchor]
    chosen_vertices = set(anchor)
    for v in range(1, m):
        if v in chosen_vertices:
            continue
        cv = next(c for c in chords if v in c)
        if all(crossing(cv, c) for c in family):
            family.append(cv)
            chosen_vertices |= set(cv)
    return family


def rotation_cycle(support, r: int) -> dict:
    """The cycle sending the t-th smallest support element to the
    (t + r - 1)-th; for r >= 2 it has exactly r excedances on 2r - 1
    elements (r = 1 gives the fixed point) and is the cycle the coordinate
    restriction produces."""
    support = sorted(support)
    if len(support) != 2 * r - 1:
        raise InputError("support size must be 2r - 1")
    size = len(support)
    return {support[t]: support[(t + r - 1) % size] for t in range(size)}


def matching_to_permutation(matching, k: int):
    """Collapse a matching on [2k+2] to a permutation of [2k+1].

    The sequential crossing family through the chord at the last vertex
    becomes a single cycle on its remaining 2r - 1 vertices with exactly r
    excedances; all other chords become transpositions.  Cycles with r
    excedances on the support are plentiful for r >= 3 and maximum crossing
    cliques can be non-unique, so the specific choices here (sequential
    family, rotation cycle) are the ones that agree with the coordinate
    restriction on cells; matching_to_permutation_via_contraction computes
    that independent route.  Returns (word, plus_fixed) with word the
    one-line permutation of [2k+1] and plus_fixed its fixed points (all
    decorated '+')."""
    m = 2 * k + 2
    chords = validate_matching(matching, m)
    family = crossing_family(chords, m)
    r = len(family)
    support = sorted(v for c in family for v in c if v != m)
    perm = rotation_cycle(support, r)
    for c in chords:
        if c not in family:
            a, b = c
            perm[a], perm[b] = b, a
    word = tuple(perm[i] for i in range(1, m))
    return word, frozenset(i for i in range(1, m) if perm[i] == i)


def matching_to_permutation_via_contraction(matching, k: int):
    """Independent route: the matching is the decorated permutation of an
    even-case cell; contract its positroid by the last element and read off
    the decorated permutation of the image cell."""
    from .orthopositroids import DecoratedPermutation, Positroid

    m = 2 * k + 2
    chords = validate_matching(matching, m)
    word = [0] * m
    for a, b in chords:
        word[a - 1], word[b - 1] = b, a
    pos = Positroid.from_dperm(DecoratedPermutation(tuple(word), frozenset()))
    contracted = frozenset(
        tuple(x for x in B if x != m) for B in pos.bases if m in B
    )
    if not contracted:
        raise NotAPointError("matching positroid has no basis through the last vertex")
    img = Positroid.from_bases(contracted, k, m - 1).dperm
    plus_fixed = frozenset(
        i for i in img.fixed_points() if i not in img.coloops
    )
    return img.word, plus_fixed


def admissible_bijection_check(k: int) -> dict:
    """Map every matching on [2k+2]; report injectivity, image size, and
    agreement between the chord route and the contraction route."""
    if k > 3:
        raise InputError("exhaustive check is desk-scale: k <= 3")
    matchings = all_matchings(2 * k + 2)
    images = {}
    routes_agree = True
    for mt in matchings:
        word, plus = matching_to_permutation(mt, k)
        word2, plus2 = matching_to_permutation_via_contraction(mt, k)
        if (word, plus) != (word2, plus2):
            routes_agree = False
        images.setdefault(word, []).append(mt)
    collisions = {w: ms for w, ms in images.items() if len(ms) > 1}
    return {
        "k": k,
        "matchings": len(matchings),
        "image_size": len(images),
        "injective": not collisions,
        "routes_agree": routes_agree,
        "collisions": collisions,
    }
