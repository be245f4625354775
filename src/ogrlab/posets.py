"""The doubled Young poset on k-subsets and (n-k)-subsets of [n].

One copy of Young's lattice indexes Plucker variables, a second copy indexes
their complements; the two are glued by covering relations coming from
partitions of {1..2k}.  Incomparable pairs in the glued poset are exactly
the leading monomials of the degree-2 straightening laws, so this module
also owns standard-monomial tests and the pair-counting bijection.

Every table is read off up-set bitmasks over colex ranks: young_upsets
within one copy, mixed_upsets across the glue.  young_leq and mixed_leq
state the same order on tuples, for the bijection and single comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import InputError, InternalInvariantError, SizeMismatchError
from .exact_core import binom, colex_key, colex_ranks, ksubsets, mask_bits, subset_complement


@dataclass(frozen=True)
class PosetElement:
    kind: str  # "Y" or "coY"
    subset: tuple[int, ...]


def young_leq(I, J) -> bool:
    """Componentwise order on same-size sorted subsets."""
    if len(I) != len(J):
        raise SizeMismatchError("young_leq needs equal-size subsets")
    return all(a <= b for a, b in zip(I, J))


def mixed_leq(Jp, I, k: int) -> bool:
    """coYoung element [Jp] below Young element <I>: j'_l <= i_l for l <= k."""
    return all(Jp[l] <= I[l] for l in range(k))


def elements(k: int, n: int) -> list[PosetElement]:
    out = [PosetElement("coY", s) for s in ksubsets(n, n - k)]
    out += [PosetElement("Y", s) for s in ksubsets(n, k)]
    return out


def snake_index(I, upper) -> int | None:
    """Least l with i_l < u_l, i.e. the non-semistandard column; None if none."""
    for l in range(len(I)):
        if I[l] < upper[l]:
            return l + 1
    return None


@lru_cache(maxsize=None)
def young_upsets(k: int, n: int) -> tuple[int, ...]:
    """For each colex rank a of ksubsets(n, k), the bitmask over colex ranks
    of the J with subs[a] <= J in Young's lattice, subs[a] itself included.
    Built from the covers, one entry raised by one, which have the larger
    colex rank, so the ranks are filled from the top.  Cached: callers
    share it."""
    subs = ksubsets(n, k)
    rank = colex_ranks(n, k)
    up = [0] * len(subs)
    for a in reversed(range(len(subs))):
        I = subs[a]
        up[a] = 1 << a
        for l, (x, nxt) in enumerate(zip(I, I[1:] + (n + 1,))):
            if x + 1 < nxt:  # raising x keeps the subset sorted, in [1, n]
                up[a] |= up[rank[I[:l] + (x + 1,) + I[l + 1:]]]
    return tuple(up)


@lru_cache(maxsize=None)
def mixed_upsets(k: int, n: int) -> tuple[int, ...]:
    """For each colex rank of ksubsets(n, n - k), the bitmask over colex
    ranks of ksubsets(n, k) of the I with [J'] <= <I>: exactly the Young
    up-set of J'[:k].  The one guard of the glued poset: it refuses k < 1
    and n < 2k, where J'[:k] is no k-subset.  Cached: callers share it."""
    if k < 1 or n < 2 * k:
        raise InputError("the glued poset needs n >= 2k >= 2")
    up, rank = young_upsets(k, n), colex_ranks(n, k)
    return tuple(up[rank[Jp[:k]]] for Jp in ksubsets(n, n - k))


def young_incomparable_pairs(k: int, n: int) -> list[tuple[tuple, tuple]]:
    """Unordered incomparable pairs in one copy of Young's lattice."""
    subs = ksubsets(n, k)
    up = young_upsets(k, n)
    return [
        (subs[a], subs[b])
        for a in range(len(subs)) for b in range(a + 1, len(subs))
        if not (up[a] >> b & 1 or up[b] >> a & 1)
    ]


def mixed_incomparable_pairs(k: int, n: int) -> list[tuple[tuple, tuple]]:
    """The pairs (I, J') with [J'] not below <I>, I in colex order and J'
    in colex order for each; the pairs with I <= complement(J') in Young's
    lattice are the ones the mixed-pair formula counts."""
    cosubs = ksubsets(n, n - k)
    mixed = mixed_upsets(k, n)
    return [(I, Jp) for a, I in enumerate(ksubsets(n, k))
            for Jp, above in zip(cosubs, mixed) if not above >> a & 1]


def count_mixed_pairs_formula(k: int, n: int) -> int:
    """Closed form C(n+1,k)*C(n,k-2)/(k-1) for the mixed-pair count."""
    if k < 2:
        raise InputError("mixed-pair formula needs k >= 2")
    if n < 2 * k:
        raise InputError("need n >= 2k")
    val = Fraction(binom(n + 1, k) * binom(n, k - 2), k - 1)
    if val.denominator != 1:
        raise InternalInvariantError("mixed-pair formula not integral")
    return int(val)


# ---------------------------------------------------------------------------
# The counting bijection behind the mixed-pair formula
# ---------------------------------------------------------------------------

def _cut(S, h):
    return tuple(x for x in S if x <= h)


def pair_bijection_forward(S1, S2, n: int):
    """Map a comparable (k-1)-subset pair to a k-subset pair (T1, T2) with
    T1 <= T2 and complement(T1) not below T2.

    Swaps the shared elements below a cutoff h for the shared non-elements,
    where h is minimal with fewer shared elements than shared non-elements.
    """
    S1, S2 = tuple(S1), tuple(S2)
    if len(S1) != len(S2):
        raise SizeMismatchError("sets must have equal size")
    if not young_leq(S1, S2):
        raise InputError("need S1 <= S2 componentwise")
    L = tuple(sorted(set(S1) & set(S2)))
    R = tuple(sorted(set(subset_complement(S1, n)) & set(subset_complement(S2, n))))
    h = None
    for cand in range(1, n + 1):
        if len(_cut(L, cand)) < len(_cut(R, cand)):
            h = cand
            break
    if h is None:
        raise InternalInvariantError("cutoff must exist since |R| exceeds |L|")
    Lh, Rh = set(_cut(L, h)), set(_cut(R, h))
    T1 = tuple(sorted((set(S1) - Lh) | Rh))
    T2 = tuple(sorted((set(S2) - Lh) | Rh))
    k = len(S1) + 1
    if len(T1) != k or len(T2) != k or not young_leq(T1, T2):
        raise InternalInvariantError("forward bijection produced a bad pair")
    if mixed_leq(subset_complement(T1, n), T2, k):
        raise InternalInvariantError("forward image is not mixed-obstructed")
    return T1, T2


def pair_bijection_inverse(T1, T2, n: int):
    """Inverse construction: back to the comparable (k-1)-subset pair."""
    T1, T2 = tuple(T1), tuple(T2)
    if len(T1) != len(T2):
        raise SizeMismatchError("sets must have equal size")
    k = len(T1)
    if not young_leq(T1, T2):
        raise InputError("need T1 <= T2 componentwise")
    if mixed_leq(subset_complement(T1, n), T2, k):
        raise InputError("pair is not mixed-obstructed; not in the image")
    L = tuple(sorted(set(T1) & set(T2)))
    R = tuple(sorted(set(subset_complement(T1, n)) & set(subset_complement(T2, n))))
    h = None
    for cand in range(1, n + 1):
        if len(_cut(L, cand)) > len(_cut(R, cand)):
            h = cand
            break
    if h is None:
        raise InternalInvariantError("cutoff must exist for an obstructed pair")
    Lh, Rh = set(_cut(L, h)), set(_cut(R, h))
    S1 = tuple(sorted((set(T1) - Lh) | Rh))
    S2 = tuple(sorted((set(T2) - Lh) | Rh))
    if len(S1) != k - 1 or not young_leq(S1, S2):
        raise InternalInvariantError("inverse bijection produced a bad pair")
    return S1, S2


# ---------------------------------------------------------------------------
# Standard monomials
# ---------------------------------------------------------------------------

def is_standard_monomial(factors, k: int, n: int) -> bool:
    """True when no two factors (with multiplicity) form an initial pair:
    their colex ranks pairwise meet in standard_pairs."""
    table = standard_pairs(k, n)
    rank = colex_ranks(n, k)
    ranks = []
    for f in map(tuple, factors):
        if f not in rank:
            raise InputError(f"factor {f} is not a sorted {k}-subset of [1, {n}]")
        ranks.append(rank[f])
    if not ranks:
        raise InputError("empty monomial")
    return all(table[a] >> b & 1 for a, b in combinations(ranks, 2))


@lru_cache(maxsize=None)
def standard_pairs(k: int, n: int) -> tuple[int, ...]:
    """For each colex rank a of ksubsets(n, k), the bitmask over colex ranks
    of the b with {A, B} = {subs[a], subs[b]} a standard pair: A and B
    compare in Young's lattice, and each lies in the mixed up-set of the
    other's complement.  One half suffices: [complement(A)] <= <B> says
    that A and B together have at most t entries in [1, t], for every t,
    which is symmetric in A and B.  Taking complements reverses colex
    order, so the complement of subs[a] has colex rank C(n, k) - 1 - a.
    Cached: callers share it."""
    co = mixed_upsets(k, n)[::-1]  # by the rank of the complemented subset
    rows = [0] * len(co)
    for a, ups in enumerate(young_upsets(k, n)):
        for b in mask_bits(ups & co[a]):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(rows)


def count_standard_monomials(k: int, n: int, ell: int) -> int:
    """Count degree-ell standard monomials: multisets of colex ranks whose
    members pairwise meet in standard_pairs."""
    if ell < 1:
        raise InputError("degree must be at least 1")
    table = standard_pairs(k, n)

    def count(allowed, start, left):
        # multisets of `left` ranks >= start, each in allowed and pairwise standard
        if left == 1:
            return (allowed >> start).bit_count()
        return sum(count(allowed & table[r], r, left - 1)
                   for r in range(start, len(table)) if allowed >> r & 1)

    return count((1 << len(table)) - 1, 0, ell)


# ---------------------------------------------------------------------------
# Linear extensions (term orders are built on these)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _strictly_above(k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """For each index into elements(k, n), the indices of the elements
    strictly above it, read off the Young and mixed up-sets.  elements(k, n)
    lists the coYoung copy first, so a Young rank is shifted past it.
    Cached: callers share it and must not change it."""
    mixed = mixed_upsets(k, n)
    up, co_up = young_upsets(k, n), young_upsets(n - k, n)
    top = len(co_up)
    out = [mask_bits((ups ^ 1 << a) | above << top)
           for a, (ups, above) in enumerate(zip(co_up, mixed))]
    out += [mask_bits((ups ^ 1 << a) << top) for a, ups in enumerate(up)]
    return tuple(out)


def linear_extension(k: int, n: int, tie_break: str = "colex") -> list[PosetElement]:
    """A linear extension of the glued poset by repeated minimal removal.

    tie_break picks among currently-minimal elements: 'colex' and
    'colex_desc' order by the subset key, 'kind_first' exhausts coYoung
    minima before Young ones.  Different ties give genuinely different
    extensions, which the degree-2 checks exercise.  The keys are unique,
    so each tie_break gives one extension.
    """
    elems = elements(k, n)
    if tie_break == "colex":
        keys = [(0, colex_key(e.subset), e.kind) for e in elems]
    elif tie_break == "colex_desc":
        keys = [(0,) + tuple(-x for x in colex_key(e.subset)) + (e.kind,) for e in elems]
    elif tie_break == "kind_first":
        keys = [(0 if e.kind == "coY" else 1, colex_key(e.subset)) for e in elems]
    else:
        raise InputError(f"unknown tie_break {tie_break!r}")
    above = _strictly_above(k, n)
    below_left = [0] * len(elems)
    for ups in above:
        for i in ups:
            below_left[i] += 1
    minimal = {i for i, c in enumerate(below_left) if c == 0}
    out = []
    while minimal:
        pick = min(minimal, key=keys.__getitem__)
        minimal.remove(pick)
        out.append(elems[pick])
        for i in above[pick]:
            below_left[i] -= 1
            if not below_left[i]:
                minimal.add(i)
    return out
