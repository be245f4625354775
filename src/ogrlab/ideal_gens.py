"""Quadric generators for isotropic Grassmannians and their degree-2 algebra.

Three families: classical three-term shuffle relations of the Grassmannian,
orthogonality quadrics from the cocircuit pairing, and the two straightening
families whose leading monomials under poset-extension reverse-lex orders
are exactly the non-standard degree-2 monomials.  A sparse exact row
reduction over the degree-2 monomial basis backs membership queries and the
rank checks.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd
from types import MappingProxyType

from .errors import InputError, InternalInvariantError, SizeMismatchError
from .exact_core import (
    GaussianRational,
    binom,
    clear_denominators,
    colex_key,
    colex_mask_ranks,
    colex_ranks,
    ksubsets,
    signed_extensions,
    subset_complement,
    subset_mask,
)
from .forms_points import PluckerVector, QuadraticForm
from .limits import SPAN, require
from .posets import (
    count_standard_monomials,
    linear_extension,
    mixed_incomparable_pairs,
    mixed_upsets,
    snake_index,
    standard_pairs,
    young_incomparable_pairs,
    young_upsets,
)
from . import weyl


# the value of a vanishing evaluation; a Fraction is immutable, so it is shared
ZERO = Fraction(0)


def _mono(*subsets):
    """Canonical degree-d monomial: factors sorted colexicographically."""
    return tuple(sorted((tuple(s) for s in subsets), key=colex_key))


class Polynomial:
    """Sparse quadric in Plucker variables with rational coefficients.

    The terms do not change after construction.  A polynomial stores only
    its integer form (`cleared`), built at construction; `terms`, a
    read-only subset-tuple -> Fraction mapping, is built from it in the same
    order on first access.
    """

    __slots__ = ("k", "n", "_terms", "_cleared", "_variables")

    def __init__(self, k: int, n: int, terms: dict | None = None):
        """terms maps a monomial, two sorted k-subsets of [1, n] in colex
        order, to an int or Fraction coefficient; zero coefficients are
        dropped.  Any other monomial or coefficient is refused with
        InputError."""
        terms = {m: c for m, c in terms.items() if c} if terms else {}
        if not all(isinstance(c, (int, Fraction)) for c in terms.values()):
            raise InputError("polynomial coefficients must be rational")
        L, coeffs, _ = clear_denominators(terms.values())
        rank = colex_ranks(n, k)
        try:
            ranks = [tuple(rank[f] for f in m) for m in terms]
        except KeyError as e:
            raise InputError(f"{e.args[0]} is not a sorted {k}-subset of [1, {n}]") from None
        for m, r in zip(terms, ranks):
            if len(r) != 2 or r[0] > r[1]:
                raise InputError(f"{m} is not a degree-2 monomial: two factors in colex order")
        self.k, self.n = k, n
        self._cleared = (L, tuple((c, a, b) for c, (a, b) in zip(coeffs, ranks)))
        self._terms = self._variables = None

    @classmethod
    def _from_ranks(cls, k: int, n: int, ints: dict) -> "Polynomial":
        """Wrap integer coefficients keyed by pairs (a, b) of colex ranks,
        a <= b; zero coefficients are dropped.  The integer form lists the
        input's items as triples (c, a, b), in its order, over L = 1."""
        poly = object.__new__(cls)
        poly.k, poly.n = k, n
        poly._cleared = (1, tuple((c, a, b) for (a, b), c in ints.items() if c))
        poly._terms = poly._variables = None
        return poly

    @property
    def terms(self) -> MappingProxyType:
        """Monomial (a tuple of sorted k-subsets) -> Fraction coefficient."""
        if self._terms is None:
            L, triples = self._cleared
            subs = ksubsets(self.n, self.k)
            self._terms = MappingProxyType({
                (subs[a], subs[b]): Fraction(c, L) for c, a, b in triples
            })
        return self._terms

    def is_zero(self) -> bool:
        return not self._cleared[1]

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and (self.k, self.n) == (other.k, other.n)
            and self.terms == other.terms
        )

    def cleared(self):
        """The integer form: (L, ((c, a, b), ...)).

        L is the least common denominator of the coefficients.  Each term,
        in the order of terms, is one triple: c is L times its coefficient,
        and a <= b are the colex ranks of its two factors.
        """
        return self._cleared

    def evaluate(self, p: PluckerVector):
        """Exact value at a point: a GaussianRational when a variable of the
        polynomial has a GaussianRational coordinate, else a Fraction.

        The sum runs in integers (or pairs of them over Z[i]) on the
        cleared forms of both sides, and is divided once at the end; a zero
        sum is the shared ZERO (in both parts over Q(i)), not normalized.
        """
        if (p.k, p.n) != (self.k, self.n):
            raise SizeMismatchError("vector type does not match polynomial type")
        L, triples = self._cleared
        if self._variables is None:  # a tuple: a frozenset of 24 ranks takes 2 kB
            self._variables = tuple({r for _, a, b in triples for r in (a, b)})
        D, re, im, gaussian = p.cleared()
        if im is None or gaussian.isdisjoint(self._variables):
            total = 0
            for c, a, b in triples:
                total += c * re[a] * re[b]
            if not total:
                return ZERO
            return Fraction(total, L * D * D)
        total_re = total_im = 0
        for c, a, b in triples:
            total_re += c * (re[a] * re[b] - im[a] * im[b])
            total_im += c * (re[a] * im[b] + im[a] * re[b])
        if not (total_re or total_im):
            # a new object: GaussianRational attributes can be assigned
            return GaussianRational(ZERO, ZERO)
        den = L * D * D
        return GaussianRational(Fraction(total_re, den), Fraction(total_im, den))

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda mc: tuple(colex_key(f) for f in mc[0])
        )

    def to_json(self) -> list:
        return [
            {
                "monomial": [[",".join(map(str, f))] for f in m],
                "coeff": str(c),
            }
            for m, c in self.sorted_terms()
        ]

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        sep = "" if self.n <= 9 else ","
        bits = []
        for m, c in self.sorted_terms():
            mono = " ".join("⟨" + sep.join(map(str, f)) + "⟩" for f in m)
            if c == 1:
                bits.append(f"+ {mono}")
            elif c == -1:
                bits.append(f"- {mono}")
            elif c > 0:
                bits.append(f"+ {c} {mono}")
            else:
                bits.append(f"- {-c} {mono}")
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else out

    def __repr__(self):
        return f"Polynomial({self.k},{self.n}: {self.pretty()})"


# ---------------------------------------------------------------------------
# Term orders from linear extensions of the glued poset
# ---------------------------------------------------------------------------

class TermOrder:
    """Reverse-lex order from a linear extension, poset-minimum largest.

    Two degree-2 monomials compare at the poset-*largest* variable where
    their exponents differ; whichever has fewer of it is larger.  This makes
    the incomparable product the leading monomial of each straightening law.
    Equivalently, the larger monomial has the lexicographically smaller
    list of its two factor positions sorted in descending order.

    position lists the extension position of each colex rank, and a rank
    weighs 3^position; a monomial's key is the sum of its two factors'
    weights.  No digit of that sum in base 3 exceeds 2, so the keys compare
    as the descending position lists do, and the least key leads.
    """

    def __init__(self, k: int, n: int, tie_break: str = "colex"):
        self.k, self.n = k, n
        rank = colex_ranks(n, k)
        self.position = [0] * len(rank)
        for i, e in enumerate(linear_extension(k, n, tie_break)):
            if e.kind == "Y":
                self.position[rank[e.subset]] = i
        self.weights = [3 ** p for p in self.position]

    def leading_monomial(self, poly: Polynomial):
        if (poly.k, poly.n) != (self.k, self.n):
            raise SizeMismatchError("polynomial type does not match term order type")
        if poly.is_zero():
            raise InputError("zero polynomial has no leading monomial")
        w = self.weights
        _, a, b = min(poly.cleared()[1], key=lambda t: w[t[1]] + w[t[2]])
        subs = ksubsets(self.n, self.k)
        return subs[a], subs[b]


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------

def _rank_pair(a: int, b: int) -> tuple[int, int]:
    """The degree-2 monomial of two colex ranks, factors in colex order."""
    return (a, b) if a <= b else (b, a)


@lru_cache(maxsize=None)
def plucker_relations(k: int, n: int) -> tuple[Polynomial, ...]:
    """Three-term shuffle quadrics of the Grassmannian, one per relation.

    The shuffle of (I, J), |I| = k-1 and |J| = k+1, is the sum over t of
    (-1)^t p_{I+j_t} p_{J-j_t}.  It vanishes when I lies in J, and it
    repeats another up to sign when |I - J| = 1 and min(I ^ J) is in J, so
    only the other pairs are built, e.g. the single classical relation at
    (2,4) and five at (2,5).  Each is signed so that its colex-least
    monomial has coefficient +1, and they are sorted by the list of their
    monomials in colex order, each monomial compared as a tuple of subsets.

    The bracket of the word I, j_t is eps(I, j_t) p_{I+j_t}, with the sign
    read off signed_extensions; I and J are compared on bitmasks.
    """
    require(SPAN, k, n)
    rank = colex_mask_ranks(n, k)
    bigs = [(subset_mask(J), [(t, jt, 1 << jt) for t, jt in enumerate(J)])
            for J in ksubsets(n, k + 1)]
    rels = []
    for mi, ext in zip(map(subset_mask, ksubsets(n, k - 1)), signed_extensions(n, k - 1)):
        for mj, bits in bigs:
            only_i, only_j = mi & ~mj, mj & ~mi
            if not only_i or (
                only_i & (only_i - 1) == 0 and only_j & -only_j < only_i
            ):
                continue
            terms = {}
            for t, jt, bit in bits:
                if jt in ext:
                    r, s = ext[jt]
                    terms[_rank_pair(r, rank[mj ^ bit])] = -s if t & 1 else s
            if terms[min(terms)] < 0:
                terms = {m: -c for m, c in terms.items()}
            rels.append(terms)
    subs = ksubsets(n, k)
    rels.sort(key=lambda terms: [(subs[a], subs[b]) for a, b in sorted(terms)])
    return tuple(Polynomial._from_ranks(k, n, terms) for terms in rels)


@lru_cache(maxsize=None)
def orthogonality_relations(k: int, n: int, form: QuadraticForm) -> tuple[Polynomial, ...]:
    """One quadric per unordered pair of (k-1)-subsets from the cocircuit
    pairing: sum over l, m of Omega_{lm} eps(I,l) eps(J,m) p_{Il} p_{Jm}.

    The quadric of (I, J) is the (I, J) entry of P Omega P^T, where row I of
    the cocircuit matrix P holds eps(I, l) p_{Il}; identically zero entries
    are left out.  Cached: callers share the quadrics and must not change
    them.
    """
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    if form.n != n:
        raise SizeMismatchError("form dimension mismatch")
    entries = form.entries()
    ext = signed_extensions(n, k - 1)
    out = []
    for a, ext_i in enumerate(ext):
        for ext_j in ext[a:]:
            terms = {}
            for l, m, w in entries:
                if l in ext_i and m in ext_j:
                    (ri, si), (rj, sj) = ext_i[l], ext_j[m]
                    mono = _rank_pair(ri, rj)
                    terms[mono] = terms.get(mono, 0) + w * si * sj
            poly = Polynomial._from_ranks(k, n, terms)
            if not poly.is_zero():
                out.append(poly)
    return tuple(out)


@lru_cache(maxsize=None)
def _shuffle_table(length: int, l: int) -> tuple:
    """(order, parity) for each l-subset of the positions 0..length-1, in
    combinations order.  order lists the chosen positions from right to
    left, then the others from right to left, each shifted by length; parity
    is that of the number of moves that bring the chosen ones to the front."""
    return tuple(
        (chosen[::-1] + tuple(length + q for q in reversed(range(length)) if q not in chosen),
         sum(q - t for t, q in enumerate(chosen)) & 1)
        for chosen in combinations(range(length), l)
    )


def _snake_shuffle(I, J, l: int, n: int, coyoung: bool) -> Polynomial:
    """Shuffle the snake i_1..i_l, j_l.. over two sorted blocks: the first
    block completed by I[l:], the second headed by J[:l-1].  A coYoung
    bracket [K] is the variable (-1)^(sum of K) p_{complement of K}; the
    sum has the parity of the number of odd entries of K.

    Each term is one right-to-left pass that sorts both words at once on a
    single bitmask, the second word shifted by n + 1 bits above the first:
    each entry is added to the mask after a popcount of the entries below
    it, and a repeated entry ends the pass.  The mask starts as I[l:] and
    the shifted head J[:l-1].  So each of the len(snake) - l entries of the
    rest also counts the k entries of the first word, and the l - 1 head
    entries below it instead of those above it: mod 2 both come to
    k + l - 1 per entry, which `base` adds back once per law."""
    k = len(I)
    rank = colex_mask_ranks(n, k)
    shift = n + 1
    snake = I[:l] + J[l - 1:]
    bits = [1 << x for x in snake] + [1 << x + shift for x in snake]
    start = subset_mask(I[l:]) | subset_mask(J[:l - 1]) << shift
    base = (len(snake) - l) * (k + l - 1)
    low = (1 << shift) - 1
    full = (1 << n + 1) - 2  # the mask of [1, n]
    odd = subset_mask(range(1, n + 1, 2)) if coyoung else 0
    terms = {}
    for order, parity in _shuffle_table(len(snake), l):
        mask, inversions = start, base + parity
        for q in order:
            b = bits[q]
            if mask & b:
                break
            inversions += (mask & (b - 1)).bit_count()
            mask |= b
        else:
            m1, m2 = mask & low, mask >> shift
            if coyoung:
                inversions += (m2 & odd).bit_count()
                m2 ^= full
            m = _rank_pair(rank[m1], rank[m2])
            terms[m] = terms.get(m, 0) + (-1 if inversions & 1 else 1)
    return Polynomial._from_ranks(k, n, terms)


def straightening_mu(I, J, n: int) -> Polynomial:
    """Straightening quadric for an incomparable Young pair.

    Shuffles the snake i_1..i_l, j_l..j_k over two sorted blocks.  The
    shuffle holds p_I p_J with coefficient 1 and may hold other incomparable
    pairs; all_straightening_mu rewrites those into the law of {I, J},
    whose leading monomial is p_I p_J.
    """
    I, J = tuple(I), tuple(J)
    k = len(I)
    if len(J) != k:
        raise SizeMismatchError("need equal-size subsets")
    rank = colex_ranks(n, k)
    if I not in rank or J not in rank:
        raise InputError(f"{I} and {J} must be sorted subsets of [1, {n}]")
    a, b = rank[I], rank[J]
    up = young_upsets(k, n)
    if up[a] >> b & 1 or up[b] >> a & 1:
        raise InputError("pair is comparable; nothing to straighten")
    l = snake_index(I, J)
    if l is None:
        raise InternalInvariantError("incomparable pair without snake")
    return _snake_shuffle(I, J, l, n, coyoung=False)


def straightening_lambda(I, Jp, n: int) -> Polynomial:
    """Straightening quadric for a Young/coYoung incomparable pair.

    Same two-block shuffle with the coYoung bracket; terms whose bracket
    acquires a repeated index vanish, the rest are rewritten as signed
    variables, [K] = (-1)^(sum of K) p_{complement of K}.  The leading
    monomial is p_I p_{complement of J'}.
    """
    I, Jp = tuple(I), tuple(Jp)
    k = len(I)
    if len(Jp) != n - k:
        raise SizeMismatchError("coYoung part must have size n-k")
    mixed = mixed_upsets(k, n)  # refuses n < 2k
    rank, co_rank = colex_ranks(n, k), colex_ranks(n, n - k)
    if I not in rank or Jp not in co_rank:
        raise InputError(f"{I} and {Jp} must be sorted subsets of [1, {n}]")
    if mixed[co_rank[Jp]] >> rank[I] & 1:
        raise InputError("pair is comparable; nothing to straighten")
    l = snake_index(I, Jp[:k])
    if l is None:
        raise InternalInvariantError("incomparable mixed pair without snake")
    return _snake_shuffle(I, Jp, l, n, coyoung=True)


@lru_cache(maxsize=None)
def all_straightening_mu(k: int, n: int) -> tuple[tuple[tuple, tuple, Polynomial], ...]:
    """The straightening law of each incomparable Young pair, built by
    classical straightening (Garnir relations; De Concini-Procesi 1976).

    The pair of colex ranks a < b starts from its shuffle,
    straightening_mu(subs[a], subs[b], n), which holds p_a p_b with
    coefficient 1.  Each other term c p_x p_y whose x, y are incomparable is
    rewritten by that pair's own law, built the same way and memoised for
    this build: subtracting c times that law trades the term for the law's
    lower terms.  So every law is p_a p_b plus Young-comparable terms, a
    shape that makes it unique.  The pair is (I, J) = (subs[a], subs[b])
    when no term was rewritten and (subs[b], subs[a]) otherwise.  Cached:
    callers share the quadrics and must not change them."""
    require(SPAN, k, n)
    subs, rank, up = ksubsets(n, k), colex_ranks(n, k), young_upsets(k, n)
    laws = {}  # (a, b) -> (the law's terms keyed by rank pair, whether it rewrote)

    def law(a, b):
        if (a, b) in laws:
            return laws[a, b]
        terms, rewrote = {}, False
        for c, x, y in straightening_mu(subs[a], subs[b], n).cleared()[1]:
            if (x, y) == (a, b) or up[x] >> y & 1 or up[y] >> x & 1:
                terms[x, y] = terms.get((x, y), 0) + c
                continue
            rewrote = True
            for m, d in law(x, y)[0].items():
                if m != (x, y):
                    terms[m] = terms.get(m, 0) - c * d
        laws[a, b] = terms, rewrote
        return laws[a, b]

    out = []
    for I, J in young_incomparable_pairs(k, n):
        terms, rewrote = law(rank[I], rank[J])
        if rewrote:
            I, J = J, I
        out.append((I, J, Polynomial._from_ranks(k, n, terms)))
    return tuple(out)


@lru_cache(maxsize=None)
def all_straightening_lambda(k: int, n: int) -> tuple[tuple[tuple, tuple, Polynomial], ...]:
    """straightening_lambda of each mixed incomparable pair.  Cached:
    callers share the quadrics and must not change them."""
    require(SPAN, k, n)
    return tuple(
        (I, Jp, straightening_lambda(I, Jp, n))
        for I, Jp in mixed_incomparable_pairs(k, n)
    )


# ---------------------------------------------------------------------------
# Degree-2 span: sparse exact row reduction over the monomial basis
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def degree2_monomials(k: int, n: int) -> tuple:
    """The degree-2 monomials (A, B), A before or equal to B in colex order,
    in the order of the index a*N - a*(a-1)/2 + b - a of their colex ranks
    a <= b, N = C(n, k).  Cached: callers share it."""
    subs = ksubsets(n, k)
    return tuple((A, B) for i, A in enumerate(subs) for B in subs[i:])


class Degree2Span:
    """Row space of quadrics over the degree-2 monomial basis, exact.

    Rows are reduced integer vectors over the indices of `monomials`, each
    with a positive lead and no common factor; `pivot_row` maps a lead to
    its row.
    """

    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        self.monomials = degree2_monomials(k, n)
        self.pivot_row = {}
        self.rows = []

    def _vector(self, poly: Polynomial):
        """(vec, L) from poly.cleared(): vec maps monomial index to L times
        the coefficient, in the order of the integer form.  The monomial of
        colex ranks a <= b has index a*N - a*(a-1)/2 + b - a, N = C(n, k)."""
        if (poly.k, poly.n) != (self.k, self.n):
            raise SizeMismatchError("polynomial type does not match span type")
        L, triples = poly.cleared()
        N = binom(self.n, self.k)
        return {a * N - a * (a - 1) // 2 + b - a: c for c, a, b in triples}, L

    @staticmethod
    def _normalize(vec):
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        lead = max(vec)
        if vec[lead] < 0:
            g = -g
        return {i: v // g for i, v in vec.items()}

    def _eliminate(self, vec) -> int:
        """Reduce vec in place, top entry first, while a stored row has the
        same lead.  Each step replaces vec by ca*vec - cb*row; returns the
        product of the multipliers ca."""
        scale = 1
        while vec:
            lead = max(vec)
            r = self.pivot_row.get(lead)
            if r is None:
                break
            row = self.rows[r]
            a, b = vec[lead], row[lead]
            g = gcd(a, b)
            ca, cb = b // g, a // g
            if ca != 1:
                scale *= ca
                for i in vec:
                    vec[i] *= ca
            for i, v in row.items():
                nv = vec.get(i, 0) - cb * v
                if nv:
                    vec[i] = nv
                else:
                    vec.pop(i, None)
        return scale

    def add(self, poly: Polynomial) -> bool:
        """Reduce a generator into the span; returns True when rank grew."""
        vec, _ = self._vector(poly)
        self._eliminate(vec)
        if not vec:
            return False
        vec = self._normalize(vec)
        self.pivot_row[max(vec)] = len(self.rows)
        self.rows.append(vec)
        return True

    def copy(self) -> "Degree2Span":
        """A span to add to without changing this one (rows never change)."""
        span = Degree2Span(self.k, self.n)
        span.rows, span.pivot_row = list(self.rows), dict(self.pivot_row)
        return span

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, poly: Polynomial) -> Polynomial:
        """The residual of poly against the span: zero iff poly lies in it."""
        vec, denom = self._vector(poly)  # poly is vec / denom throughout
        denom *= self._eliminate(vec)
        if not vec:
            return Polynomial._from_ranks(self.k, self.n, {})
        return Polynomial(
            self.k, self.n,
            {self.monomials[i]: Fraction(v, denom) for i, v in vec.items()},
        )


@lru_cache(maxsize=None)
def _relation_span(k: int, n: int, form: QuadraticForm) -> Degree2Span:
    """The span of the shuffle quadrics, then the orthogonality quadrics of
    the form, built once per key: callers only read it, or add to a copy."""
    span = Degree2Span(k, n)
    for poly in plucker_relations(k, n) + orthogonality_relations(k, n, form):
        span.add(poly)
    return span


def degree2_membership(f: Polynomial, k: int, n: int,
                       form: QuadraticForm | None = None) -> bool:
    """Is f in the degree-2 span of the shuffle + orthogonality quadrics?
    Its residual is _relation_span(k, n, form).reduce(f)."""
    if (f.k, f.n) != (k, n):
        raise SizeMismatchError("polynomial type does not match (k, n)")
    if form is None:
        form = QuadraticForm.standard(n)
    return _relation_span(k, n, form).reduce(f).is_zero()


def groebner_degree2_check(k: int, n: int) -> dict:
    """Exact degree-2 consistency report.

    (a) under each of three term orders, the leading monomials of the two
    straightening families are the stated products, and together they equal
    the non-standard degree-2 monomials; (b) the rank of the full generator
    span matches the monomial count minus the standard count; (c) the
    standard count matches the graded dimension from the root system.
    """
    require(SPAN, k, n)
    if n <= 2 * k:
        raise InputError("degree-2 check requires n > 2k")
    mus = all_straightening_mu(k, n)
    lams = all_straightening_lambda(k, n)
    laws = [(poly, _mono(I, J)) for I, J, poly in mus]
    laws += [(poly, _mono(I, subset_complement(Jp, n))) for I, Jp, poly in lams]
    term_orders = ("colex", "colex_desc", "kind_first")
    claimed = set()
    orders_ok = True
    for tb in term_orders:
        order = TermOrder(k, n, tb)
        for poly, stated in laws:
            lm = order.leading_monomial(poly)
            orders_ok = orders_ok and lm == stated
            claimed.add(lm)
    table = standard_pairs(k, n)
    ranks = ((a, b) for a in range(len(table)) for b in range(a, len(table)))
    nonstandard = {
        m for m, (a, b) in zip(degree2_monomials(k, n), ranks) if not table[a] >> b & 1
    }
    monomial_count = binom(binom(n, k) + 1, 2)
    standard = count_standard_monomials(k, n, 2)
    span = _relation_span(k, n, QuadraticForm.standard(n)).copy()  # the laws join it
    rank_generators = span.rank
    for _, _, poly in mus:
        span.add(poly)
    for _, _, poly in lams:
        span.add(poly)
    rank_with_straightening = span.rank
    wd = weyl.weyl_dim(k, n, 2)
    report = {
        "k": k,
        "n": n,
        "term_orders": list(term_orders),
        "leading_monomials_match": orders_ok and claimed == nonstandard,
        "nonstandard_count": len(nonstandard),
        "claimed_count": len(claimed),
        "span_rank": rank_generators,
        "span_rank_with_straightening": rank_with_straightening,
        "expected_rank": monomial_count - standard,
        "standard_count": standard,
        "weyl_dim_2": wd,
        "rank_matches": rank_generators == monomial_count - standard
        and rank_with_straightening == rank_generators,
        "standard_matches_weyl": standard == wd,
    }
    report["ok"] = (
        report["leading_monomials_match"]
        and report["rank_matches"]
        and report["standard_matches_weyl"]
    )
    return report
