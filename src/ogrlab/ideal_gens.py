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

    Change the terms only through add_term, which drops the integer form
    that evaluate compiles on first use.
    """

    __slots__ = ("k", "n", "terms", "_compiled")

    def __init__(self, k: int, n: int, terms: dict | None = None):
        self.k = k
        self.n = n
        self.terms = {}
        self._compiled = None
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = Fraction(c)

    def add_term(self, monomial, coeff):
        self._compiled = None
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

    def _compile(self):
        """(L, degree, coefficients, monomials): L times each coefficient is
        an integer, and every monomial is padded with None (the constant 1
        of PluckerVector.cleared) up to the top degree."""
        L, coeffs = clear_denominators(self.terms.values())
        if any(not isinstance(c, int) for c in coeffs):
            raise InputError("polynomial coefficients must be rational")
        degree = max(map(len, self.terms), default=0)
        monos = self.terms.keys()
        if any(len(m) < degree for m in monos):
            monos = [tuple(m) + (None,) * (degree - len(m)) for m in monos]
        return L, degree, coeffs, monos

    def evaluate(self, p: PluckerVector):
        """Exact value at a point: a GaussianRational when a variable of the
        polynomial has a GaussianRational coordinate, else a Fraction.

        The sum runs in integers (or pairs of them over Z[i]) on the
        cleared forms of both sides, and is divided once at the end.
        """
        if (p.k, p.n) != (self.k, self.n):
            raise SizeMismatchError("vector type does not match polynomial type")
        if self._compiled is None:
            self._compiled = self._compile()
        L, degree, coeffs, monos = self._compiled
        D, re, im, gaussian = p.cleared()
        den = L * D ** degree
        if im is None or gaussian.isdisjoint(f for m in monos for f in m):
            total = 0
            for c, m in zip(coeffs, monos):
                for f in m:
                    c *= re.get(f, 0)
                total += c
            return Fraction(total, den)
        total_re = total_im = 0
        for c, m in zip(coeffs, monos):
            vr, vi = c, 0
            for f in m:
                xr, xi = re.get(f, 0), im.get(f, 0)
                vr, vi = vr * xr - vi * xi, vr * xi + vi * xr
            total_re += vr
            total_im += vi
        return GaussianRational(Fraction(total_re, den), Fraction(total_im, den))

    def normalized(self) -> "Polynomial":
        """Scale so the colex-least monomial has coefficient 1 (for dedup)."""
        if not self.terms:
            return self
        least = min(self.terms, key=lambda m: tuple(colex_key(f) for f in m))
        return self.scale(1 / self.terms[least])

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

@lru_cache(maxsize=None)
def plucker_relations(k: int, n: int) -> tuple[Polynomial, ...]:
    """Three-term shuffle quadrics of the Grassmannian, deduplicated.

    One candidate per (I, J) with |I| = k-1, |J| = k+1; proportional and
    vanishing candidates collapse, e.g. to the single classical relation at
    (2,4) and five at (2,5).
    """
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    seen = {}
    for I in ksubsets(n, k - 1):
        for J in ksubsets(n, k + 1):
            poly = Polynomial(k, n)
            for t, jt in enumerate(J):
                rest = J[:t] + J[t + 1:]
                first, s1 = sort_sign(I + (jt,))
                if s1 == 0:
                    continue
                poly.add_term(_mono(first, rest), Fraction((-1) ** t * s1))
            if poly.is_zero():
                continue
            norm = poly.normalized()
            key = tuple(norm.sorted_terms())
            seen.setdefault(key, norm)
    return tuple(
        seen[key] for key in sorted(seen, key=lambda terms: [n for n, _ in terms])
    )


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
    out = []
    subs = ksubsets(n, k - 1)
    for a, I in enumerate(subs):
        for J in subs[a:]:
            poly = Polynomial(k, n)
            for l in range(1, n + 1):
                Il, sl = sort_sign(I + (l,))
                if sl == 0:
                    continue
                for m in range(1, n + 1):
                    w = omega[l - 1, m - 1]
                    if w == 0:
                        continue
                    Jm, sm = sort_sign(J + (m,))
                    if sm == 0:
                        continue
                    poly.add_term(_mono(Il, Jm), w * sl * sm)
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
    seq = I[:l] + J[l - 1:]
    poly = Polynomial(k, n)
    for chosen in combinations(range(len(seq)), l):
        A = [seq[q] for q in chosen]
        B = [seq[q] for q in range(len(seq)) if q not in chosen]
        first, s1 = sort_sign(tuple(A) + I[l:])
        if s1 == 0:
            continue
        second, s2 = sort_sign(J[: l - 1] + tuple(B))
        if s2 == 0:
            continue
        poly.add_term(_mono(first, second), Fraction(_block_sign(chosen) * s1 * s2))
    return poly


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
    seq = I[:l] + Jp[l - 1:]
    poly = Polynomial(k, n)
    for chosen in combinations(range(len(seq)), l):
        A = [seq[q] for q in chosen]
        B = [seq[q] for q in range(len(seq)) if q not in chosen]
        first, s1 = sort_sign(tuple(A) + I[l:])
        if s1 == 0:
            continue
        second, s2 = sort_sign(Jp[: l - 1] + tuple(B))
        if s2 == 0:
            continue
        s3, variable = normalize_bracket(second, n)
        poly.add_term(
            _mono(first, variable), Fraction(_block_sign(chosen) * s1 * s2 * s3)
        )
    return poly


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
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.pivot_row = {}
        self.rows = []
        self.combos = []
        self.gen_count = 0

    def _to_int_vec(self, poly: Polynomial):
        """(vec, denom): vec maps monomial index to denom times the
        coefficient, an integer, in the order of poly.terms."""
        if (poly.k, poly.n) != (self.k, self.n):
            raise SizeMismatchError("polynomial type does not match span type")
        denom = 1
        for c in poly.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        vec = {}
        for m, c in poly.terms.items():
            i = self.index.get(m)
            if i is None:
                raise InputError(f"{m} is not a degree-2 monomial of the span")
            vec[i] = c.numerator * (denom // c.denominator)
        return vec, denom

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
        vec, denom = self._to_int_vec(poly)
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
        vec, denom = self._to_int_vec(poly)  # poly is vec / denom throughout
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
