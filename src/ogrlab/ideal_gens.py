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

from .errors import InputError, InternalInvariantError, SizeMismatchError
from .exact_core import (
    GaussianRational,
    binom,
    clear_denominators,
    colex_key,
    colex_ranks,
    ksubsets,
    sort_sign,
    subset_complement,
)
from .forms_points import PluckerVector, QuadraticForm
from .posets import (
    linear_extension,
    mixed_leq,
    snake_index,
    young_incomparable_pairs,
    young_leq,
    is_standard_monomial,
    count_standard_monomials,
)
from . import weyl


def _mono(*subsets):
    """Canonical degree-d monomial: factors sorted colexicographically."""
    return tuple(sorted((tuple(s) for s in subsets), key=colex_key))


class Polynomial:
    """Sparse polynomial in Plucker variables with rational coefficients.

    Change the terms only through add_term, which drops the cached integer
    form that `cleared` builds and every consumer reads.
    """

    __slots__ = ("k", "n", "terms", "_cleared")

    def __init__(self, k: int, n: int, terms: dict | None = None):
        self.k = k
        self.n = n
        self.terms = {}
        self._cleared = None
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = Fraction(c)

    @classmethod
    def _from_ranks(cls, k: int, n: int, ints: dict) -> "Polynomial":
        """Wrap integer coefficients keyed by sorted tuples of colex ranks,
        all of one degree; zero coefficients are dropped.  The integer form
        is the input itself."""
        subs = ksubsets(n, k)
        ints = {m: c for m, c in ints.items() if c}
        poly = cls(k, n)
        poly.terms = {tuple(subs[r] for r in m): Fraction(c) for m, c in ints.items()}
        poly._cleared = (1, list(ints.values()), list(ints))
        return poly

    def add_term(self, monomial, coeff):
        self._cleared = None
        c = self.terms.get(monomial, Fraction(0)) + coeff
        if c:
            self.terms[monomial] = c
        else:
            self.terms.pop(monomial, None)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = Polynomial(self.k, self.n, dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def __sub__(self, other):
        out = Polynomial(self.k, self.n, dict(self.terms))
        for m, c in other.terms.items():
            out.add_term(m, -c)
        return out

    def scale(self, c):
        c = Fraction(c)
        return Polynomial(self.k, self.n, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and (self.k, self.n) == (other.k, other.n)
            and self.terms == other.terms
        )

    def cleared(self):
        """The integer form, computed once: (L, coeffs, ranks).

        L is the least common denominator of the coefficients and coeffs
        lists L times each of them, in the order of terms.  ranks lists each
        monomial as the colex ranks of its factors, padded up to the top
        degree with C(n, k), the constant slot of PluckerVector.cleared.
        """
        if self._cleared is None:
            L, coeffs = clear_denominators(self.terms.values())
            if any(not isinstance(c, int) for c in coeffs):
                raise InputError("polynomial coefficients must be rational")
            rank = colex_ranks(self.n, self.k)
            degree = max(map(len, self.terms), default=0)
            pad = (len(rank),)
            try:
                ranks = [tuple(rank[f] for f in m) + pad * (degree - len(m)) for m in self.terms]
            except KeyError as e:
                raise InputError(f"{e.args[0]} is not a sorted {self.k}-subset of [1, {self.n}]") from None
            self._cleared = (L, coeffs, ranks)
        return self._cleared

    def evaluate(self, p: PluckerVector):
        """Exact value at a point: a GaussianRational when a variable of the
        polynomial has a GaussianRational coordinate, else a Fraction.

        The sum runs in integers (or pairs of them over Z[i]) on the
        cleared forms of both sides, and is divided once at the end.
        """
        if (p.k, p.n) != (self.k, self.n):
            raise SizeMismatchError("vector type does not match polynomial type")
        L, coeffs, ranks = self.cleared()
        D, re, im, gaussian = p.cleared()
        den = L * D ** (len(ranks[0]) if ranks else 0)
        if im is None or gaussian.isdisjoint(r for m in ranks for r in m):
            total = 0
            for c, m in zip(coeffs, ranks):
                for r in m:
                    c *= re[r]
                total += c
            return Fraction(total, den)
        total_re = total_im = 0
        for c, m in zip(coeffs, ranks):
            vr, vi = c, 0
            for r in m:
                xr, xi = re[r], im[r]
                vr, vi = vr * xr - vi * xi, vr * xi + vi * xr
            total_re += vr
            total_im += vi
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

    Monomials of equal degree compare at the poset-*largest* variable where
    their exponents differ; whichever has fewer of it is larger.  This makes
    the incomparable product the leading monomial of each straightening law.
    Equivalently, the larger monomial has the higher degree or else the
    lexicographically smaller list of factor ranks sorted in descending
    order.
    """

    def __init__(self, k: int, n: int, tie_break: str = "colex"):
        self.k = k
        self.n = n
        self.tie_break = tie_break
        ext = linear_extension(k, n, tie_break)
        self.rank = {
            e.subset: i for i, e in enumerate(ext) if e.kind == "Y"
        }

    def leading_monomial(self, poly: Polynomial):
        if poly.is_zero():
            raise InputError("zero polynomial has no leading monomial")
        rank = self.rank
        return min(
            poly.terms,
            key=lambda m: (-len(m), sorted((rank[f] for f in m), reverse=True)),
        )


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
    """
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    rank = colex_ranks(n, k)
    rels = []
    for I in ksubsets(n, k - 1):
        for J in ksubsets(n, k + 1):
            only_i = set(I).difference(J)
            if not only_i or (
                len(only_i) == 1 and min(set(J).difference(I)) < min(only_i)
            ):
                continue
            terms = {}
            for t, jt in enumerate(J):
                first, s1 = sort_sign(I + (jt,))
                if s1:
                    m = _rank_pair(rank[first], rank[J[:t] + J[t + 1:]])
                    terms[m] = (-1) ** t * s1
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
    omega = form.matrix()
    entries = [(l, m, int(omega[l - 1, m - 1])) for l in range(1, n + 1)
               for m in range(1, n + 1) if omega[l - 1, m - 1]]
    rank = colex_ranks(n, k)
    ext = []  # per (k-1)-subset I: l -> (colex rank of I+l, eps(I, l)) for l not in I
    for I in ksubsets(n, k - 1):
        signed = {l: sort_sign(I + (l,)) for l in range(1, n + 1)}
        ext.append({l: (rank[Il], s) for l, (Il, s) in signed.items() if s})
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


def is_isotropic(p: PluckerVector, form: QuadraticForm) -> bool:
    """Does p lie on the isotropic Grassmannian of the form?  Exact: every
    orthogonality quadric vanishes at p, i.e. P Omega P^T = 0."""
    return not any(g.evaluate(p) for g in orthogonality_relations(p.k, p.n, form))


def normalize_bracket(Jp, n: int):
    """Rewrite a sorted (n-k)-subset bracket as a signed k-subset variable:
    sign (-1)^(sum of entries) times the complement."""
    Jp = tuple(Jp)
    return (-1) ** sum(Jp), subset_complement(Jp, n)


def _block_sign(positions):
    """Sign of moving the chosen positions (sorted, 0-based) to the front."""
    return (-1) ** sum(q - t for t, q in enumerate(positions))


def _snake_shuffle(I, J, l: int, n: int, coyoung: bool) -> Polynomial:
    """Shuffle the snake i_1..i_l, j_l.. over two sorted blocks: the first
    block completed by I[l:], the second headed by J[:l-1].  A coYoung
    bracket is rewritten through normalize_bracket."""
    k = len(I)
    seq = I[:l] + J[l - 1:]
    rank = colex_ranks(n, k)
    if I not in rank or J not in colex_ranks(n, len(J)):
        raise InputError(f"{I} and {J} must be sorted subsets of [1, {n}]")
    terms = {}
    for chosen in combinations(range(len(seq)), l):
        A = [seq[q] for q in chosen]
        B = [seq[q] for q in range(len(seq)) if q not in chosen]
        first, s1 = sort_sign(tuple(A) + I[l:])
        if s1 == 0:
            continue
        second, s2 = sort_sign(J[: l - 1] + tuple(B))
        if s2 == 0:
            continue
        if coyoung:
            s3, second = normalize_bracket(second, n)
            s2 *= s3
        m = _rank_pair(rank[first], rank[second])
        terms[m] = terms.get(m, 0) + _block_sign(chosen) * s1 * s2
    return Polynomial._from_ranks(k, n, terms)


def straightening_mu(I, J, n: int, ell: int | None = None) -> Polynomial:
    """Straightening quadric for an incomparable Young pair.

    Shuffles the snake i_1..i_l, j_l..j_k over two sorted blocks; the
    leading monomial is p_I p_J.
    """
    I, J = tuple(I), tuple(J)
    k = len(I)
    if len(J) != k:
        raise SizeMismatchError("need equal-size subsets")
    if young_leq(I, J) or young_leq(J, I):
        raise InputError("pair is comparable; nothing to straighten")
    l = snake_index(I, J)
    if l is None:
        raise InternalInvariantError("incomparable pair without snake")
    if ell is not None and ell != l:
        raise InputError(f"stated snake index {ell} but minimal is {l}")
    return _snake_shuffle(I, J, l, n, coyoung=False)


def straightening_lambda(I, Jp, n: int, ell: int | None = None) -> Polynomial:
    """Straightening quadric for a Young/coYoung incomparable pair.

    Same two-block shuffle with the coYoung bracket; terms whose bracket
    acquires a repeated index vanish, the rest are rewritten through
    normalize_bracket.  The leading monomial is p_I p_{complement of J'}.
    """
    I, Jp = tuple(I), tuple(Jp)
    k = len(I)
    if len(Jp) != n - k:
        raise SizeMismatchError("coYoung part must have size n-k")
    if mixed_leq(Jp, I, k):
        raise InputError("pair is comparable; nothing to straighten")
    l = snake_index(I, Jp[:k])
    if l is None:
        raise InternalInvariantError("incomparable mixed pair without snake")
    if ell is not None and ell != l:
        raise InputError(f"stated snake index {ell} but minimal is {l}")
    return _snake_shuffle(I, Jp, l, n, coyoung=True)


def leading_term_universal(poly: Polynomial, m0) -> bool:
    """Is m0 the leading monomial of poly under EVERY poset-extension order?

    Holds iff in each other term, every variable missing from that term is
    strictly below some variable missing from m0; then the deciding variable
    always sits on the other term's side.
    """
    for m in poly.terms:
        if m == m0:
            continue
        only0 = [v for v in m0 if v not in m]
        only1 = [v for v in m if v not in m0]
        for u in only0:
            if not any(u != w and young_leq(u, w) for w in only1):
                return False
    return True


def straightening_mu_canonical(I, J, n: int) -> tuple[tuple, tuple, Polynomial]:
    """Straightening quadric of an unordered incomparable Young pair.

    The two row orders give different shuffle quadrics; exactly one of them
    rewrites the product into meet/join-bounded terms, making the leading
    monomial independent of the chosen linear extension.  That orientation
    is returned (as reordered (I, J) plus the quadric).
    """
    m0 = _mono(I, J)
    cand = straightening_mu(I, J, n)
    if leading_term_universal(cand, m0):
        return I, J, cand
    cand = straightening_mu(J, I, n)
    if not leading_term_universal(cand, m0):
        raise InternalInvariantError(
            f"no orientation of {I}, {J} has a universal leading term"
        )
    return J, I, cand


@lru_cache(maxsize=None)
def all_straightening_mu(k: int, n: int) -> tuple[tuple[tuple, tuple, Polynomial], ...]:
    """straightening_mu_canonical of each incomparable Young pair.  Cached:
    callers share the quadrics and must not change them."""
    return tuple(
        straightening_mu_canonical(I, J, n) for I, J in young_incomparable_pairs(k, n)
    )


def all_mixed_incomparable(k: int, n: int):
    """Ordered mixed incomparable pairs (I, J'), all of them (not only the
    ones whose complements compare)."""
    out = []
    for I in ksubsets(n, k):
        for Jp in ksubsets(n, n - k):
            if not mixed_leq(Jp, I, k):
                out.append((I, Jp))
    return out


@lru_cache(maxsize=None)
def all_straightening_lambda(k: int, n: int) -> tuple[tuple[tuple, tuple, Polynomial], ...]:
    """straightening_lambda of each mixed incomparable pair.  Cached:
    callers share the quadrics and must not change them."""
    return tuple(
        (I, Jp, straightening_lambda(I, Jp, n))
        for I, Jp in all_mixed_incomparable(k, n)
    )


# ---------------------------------------------------------------------------
# Degree-2 span: sparse exact row reduction over the monomial basis
# ---------------------------------------------------------------------------

def degree2_monomials(k: int, n: int):
    subs = ksubsets(n, k)
    out = []
    for i, A in enumerate(subs):
        for B in subs[i:]:
            out.append(_mono(A, B))
    return out


class Degree2Span:
    """Row space of quadrics over the degree-2 monomial basis, exact.

    Rows are reduced integer vectors over the indices of `monomials`; with
    track=True each stored row also carries its expression in the original
    generators so membership queries can return coordinates.
    """

    def __init__(self, k: int, n: int, track: bool = False):
        self.k = k
        self.n = n
        self.track = track
        self.monomials = degree2_monomials(k, n)
        self.pivot_row = {}
        self.rows = []
        self.combos = []
        self.gen_count = 0

    def _vector(self, poly: Polynomial):
        """(vec, L) from poly.cleared(): vec maps monomial index to L times
        the coefficient, in the order of poly.terms.  The monomial of colex
        ranks a <= b has index a*N - a*(a-1)/2 + b - a, N = C(n, k)."""
        if (poly.k, poly.n) != (self.k, self.n):
            raise SizeMismatchError("polynomial type does not match span type")
        L, coeffs, ranks = poly.cleared()
        N = binom(self.n, self.k)
        vec = {}
        for mono, c, m in zip(poly.terms, coeffs, ranks):
            if len(m) != 2 or not m[0] <= m[1] < N:
                raise InputError(f"{mono} is not a degree-2 monomial of the span")
            a, b = m
            vec[a * N - a * (a - 1) // 2 + b - a] = c
        return vec, L

    @staticmethod
    def _normalize(vec):
        g = 0
        for v in vec.values():
            g = gcd(g, v)
        lead = max(vec)
        if vec[lead] < 0:
            g = -g
        return {i: v // g for i, v in vec.items()}, g

    def add(self, poly: Polynomial) -> bool:
        """Reduce a generator into the span; returns True when rank grew."""
        vec, denom = self._vector(poly)
        gen_id = self.gen_count
        self.gen_count += 1
        combo = {gen_id: Fraction(denom)} if self.track else None
        while vec:
            lead = max(vec)
            r = self.pivot_row.get(lead)
            if r is None:
                break
            ov = self.rows[r]
            a, b = vec[lead], ov[lead]
            g = gcd(a, b)
            ca, cb = b // g, a // g
            new = {}
            for i, v in vec.items():
                new[i] = ca * v
            for i, v in ov.items():
                new[i] = new.get(i, 0) - cb * v
                if new[i] == 0:
                    del new[i]
            vec = new
            if self.track:
                combo = {g_: ca * c for g_, c in combo.items()}
                for g_, c in self.combos[r].items():
                    combo[g_] = combo.get(g_, Fraction(0)) - cb * c
        if not vec:
            return False
        vec, scale = self._normalize(vec)
        if self.track:
            combo = {g_: c / scale for g_, c in combo.items() if c}
        self.pivot_row[max(vec)] = len(self.rows)
        self.rows.append(vec)
        self.combos.append(combo)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, poly: Polynomial):
        """Express poly against the span.

        Returns (residual Polynomial, used) where used maps stored-row id to
        the rational multiple subtracted; residual is zero iff poly lies in
        the span.
        """
        vec, denom = self._vector(poly)  # poly is vec / denom throughout
        used = {}
        while vec:
            lead = max(vec)
            r = self.pivot_row.get(lead)
            if r is None:
                break
            row = self.rows[r]
            a, b = vec[lead], row[lead]
            used[r] = Fraction(a, denom * b)  # each pivot is met once: leads fall
            g = gcd(a, b)
            ca, cb = b // g, a // g
            if ca != 1:
                for i in vec:
                    vec[i] *= ca
                denom *= ca
            for i, v in row.items():
                nv = vec.get(i, 0) - cb * v
                if nv:
                    vec[i] = nv
                else:
                    vec.pop(i, None)
        residual = Polynomial(
            self.k, self.n,
            {self.monomials[i]: Fraction(v, denom) for i, v in vec.items()},
        )
        return residual, used

    def coordinates(self, used) -> dict[int, Fraction]:
        """Flatten row multiples to original-generator coordinates."""
        if not self.track:
            raise InputError("span was built without provenance tracking")
        out = {}
        for r, c in used.items():
            for g_, cc in self.combos[r].items():
                out[g_] = out.get(g_, Fraction(0)) + c * cc
        return {g_: c for g_, c in out.items() if c}


def relation_span(k: int, n: int, form: QuadraticForm | None = None,
                  track: bool = False) -> Degree2Span:
    """A new span of the shuffle quadrics, then the orthogonality quadrics
    of the form (standard by default); generator ids follow that order."""
    if form is None:
        form = QuadraticForm.standard(n)
    span = Degree2Span(k, n, track=track)
    for poly in plucker_relations(k, n) + orthogonality_relations(k, n, form):
        span.add(poly)
    return span


@lru_cache(maxsize=None)
def _relation_span(k: int, n: int, form: QuadraticForm, track: bool) -> Degree2Span:
    """relation_span, built once per key; callers only read it."""
    return relation_span(k, n, form, track)


class MembershipResult:
    """Outcome of a degree-2 ideal membership query."""

    def __init__(self, success: bool, coordinates=None, residual=None):
        self.success = success
        self.coordinates = coordinates
        self.residual = residual

    def __bool__(self):
        return self.success


def degree2_membership(f: Polynomial, k: int, n: int,
                       form: QuadraticForm | None = None,
                       coords: bool = True) -> MembershipResult:
    """Is f in the degree-2 span of the shuffle + orthogonality quadrics?

    On success returns coordinates over the concatenated generator list
    (shuffle relations first, then orthogonality); on failure returns the
    nonzero residual after reduction.
    """
    if (f.k, f.n) != (k, n):
        raise SizeMismatchError("polynomial type does not match (k, n)")
    if form is None:
        form = QuadraticForm.standard(n)
    span = _relation_span(k, n, form, coords)
    residual, used = span.reduce(f)
    if residual.is_zero():
        return MembershipResult(True, coordinates=span.coordinates(used) if coords else None)
    return MembershipResult(False, residual=residual)


def groebner_degree2_check(k: int, n: int,
                           tie_breaks=("colex", "colex_desc", "kind_first")) -> dict:
    """Exact degree-2 consistency report.

    (a) under each listed term order, the leading monomials of the two
    straightening families are the stated products, and together they equal
    the non-standard degree-2 monomials; (b) the rank of the full generator
    span matches the monomial count minus the standard count; (c) the
    standard count matches the graded dimension from the root system.
    """
    if n <= 2 * k:
        raise InputError("degree-2 check requires n > 2k")
    mus = all_straightening_mu(k, n)
    lams = all_straightening_lambda(k, n)
    claimed = set()
    orders_ok = True
    for tb in tie_breaks:
        order = TermOrder(k, n, tb)
        for I, J, poly in mus:
            lm = order.leading_monomial(poly)
            if lm != _mono(I, J):
                orders_ok = False
            claimed.add(lm)
        for I, Jp, poly in lams:
            lm = order.leading_monomial(poly)
            if lm != _mono(I, subset_complement(Jp, n)):
                orders_ok = False
            claimed.add(lm)
    nonstandard = {
        m for m in degree2_monomials(k, n)
        if not is_standard_monomial(list(m), k, n)
    }
    monomial_count = binom(binom(n, k) + 1, 2)
    standard = count_standard_monomials(k, n, 2)
    span = relation_span(k, n)  # a fresh one: the straightening laws join it
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
        "term_orders": list(tie_breaks),
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
