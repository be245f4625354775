"""Positroids, the orthopositroid test, enumeration, and cell dimensions.

Positroids are encoded by decorated permutations; their bases are recovered
from the Grassmann necklace by the cyclic Gale-order rule, so enumeration
and the orthopositroid sign test are purely combinatorial.  Realization uses
a bridge decomposition of the decorated permutation: each cell is swept out
by positive column operations applied to a coordinate subspace, which gives
the parameter count and the float Plucker model of the numeric dimension
estimate of the isotropic slice of each cell.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, permutations
from operator import or_
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    InputError,
    InternalInvariantError,
    SizeMismatchError,
)
from .exact_core import (
    Mat, binom, colex_ranks, ksubsets, mask_bits, signed_extensions, subset_mask,
)
from .forms_points import (
    PluckerVector,
    QuadraticForm,
    Subspace,
    is_totally_nonnegative,
)
from .ideal_gens import orthogonality_relations
from .limits import ENUMERATION, POSITROID, SWEEP, require


# ---------------------------------------------------------------------------
# Decorated permutations, necklaces, Oh's rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecoratedPermutation:
    """Permutation word (1-based one-line notation) with fixed points split
    into loops ('+', not in coloops) and coloops ('-')."""

    word: tuple[int, ...]
    coloops: frozenset[int]

    def __post_init__(self):
        n = len(self.word)
        if sorted(self.word) != list(range(1, n + 1)):
            raise InputError("word is not a permutation of [1, n]")
        for c in self.coloops:
            if not 1 <= c <= n or self.word[c - 1] != c:
                raise InputError(f"coloop {c} is not a fixed point")

    @property
    def n(self) -> int:
        return len(self.word)

    def fixed_points(self):
        return [i for i in range(1, self.n + 1) if self.word[i - 1] == i]

    def type_k(self) -> int:
        anti = sum(1 for i in range(1, self.n + 1) if self.word[i - 1] < i)
        return anti + len(self.coloops)

    def affine(self) -> list[int]:
        """Lift with sigma(i) in [i, i+n]: wrapped values and coloops gain n."""
        n = self.n
        out = []
        for i in range(1, n + 1):
            v = self.word[i - 1]
            if v < i or (v == i and i in self.coloops):
                v += n
            out.append(v)
        return out

    def sort_key(self):
        return (self.word, tuple(sorted(self.coloops)))

    def to_json(self):
        return {"word": list(self.word), "coloops": sorted(self.coloops)}


def _necklace_masks(dp: DecoratedPermutation) -> tuple[int, list[int]]:
    """dp's type k and the subset_masks of its necklace: I_1 holds the
    anti-exceedance values and the coloops, so its size is k, and I_{a+1} =
    (I_a - {a}) + {pi(a)} when a is in I_a, else I_a (the recurrence
    _dperm_from_necklace inverts)."""
    entry = 0
    for i, v in enumerate(dp.word, 1):
        if v < i:
            entry |= 1 << v
    for c in dp.coloops:
        entry |= 1 << c
    k, out = entry.bit_count(), []
    for a, v in enumerate(dp.word, 1):
        out.append(entry)
        if entry >> a & 1:
            entry = entry ^ (1 << a) | (1 << v)
    return k, out


@lru_cache(maxsize=None)
def _gale_upsets(k: int, n: int) -> tuple[dict[int, int], ...]:
    """Entry a - 1 maps the subset_mask of each k-subset I to the bitmask
    over the colex ranks of ksubsets(n, k) of the B with I <= B in the Gale
    order of the cyclic order a < a + 1 < ... < a - 1: the B with at most as
    many elements as I in every initial segment of that order.  Refuses
    sizes past limits.POSITROID before building."""
    require(POSITROID, k, n)
    masks = [subset_mask(B) for B in ksubsets(n, k)]
    table = []
    for a in range(1, n + 1):
        segments = list(accumulate((1 << (a - 1 + p) % n + 1 for p in range(n)), or_))
        # at_most[p][c]: the B with at most c elements in segments[p]
        at_most = []
        for segment in segments:
            by_count = [0] * (k + 1)
            for r, m in enumerate(masks):
                by_count[(m & segment).bit_count()] |= 1 << r
            at_most.append(list(accumulate(by_count, or_)))
        upsets = {}
        for m in masks:
            upset = (1 << len(masks)) - 1
            for segment, row in zip(segments, at_most):
                upset &= row[(m & segment).bit_count()]
            upsets[m] = upset
        table.append(upsets)
    return tuple(table)


def _dperm_from_necklace(entries: list[int], n: int) -> DecoratedPermutation:
    """Invert _necklace_masks on the subset_masks of a candidate necklace:
    a in I_a maps to the one element that I_{a+1} adds to I_a - {a} (a
    coloop when that is a), and a not in I_a, which needs I_{a+1} = I_a,
    is a loop."""
    word, coloops = [], set()
    for a, entry in enumerate(entries, 1):
        following = entries[a % n]
        if entry >> a & 1:
            added = following & ~(entry ^ 1 << a)
            if added.bit_count() != 1:
                raise InputError("not a Grassmann necklace")
            word.append(added.bit_length() - 1)
            if added == 1 << a:
                coloops.add(a)
        elif following != entry:
            raise InputError("not a Grassmann necklace")
        else:
            word.append(a)
    return DecoratedPermutation(tuple(word), frozenset(coloops))


@dataclass(frozen=True)
class Positroid:
    """A positroid of type (k, n) with its decorated permutation; its bases
    are mask, a bitmask over the colex ranks of ksubsets(n, k), decoded
    into subsets on first read of bases."""

    k: int
    n: int
    dperm: DecoratedPermutation
    mask: int

    @classmethod
    def from_dperm(cls, dp: DecoratedPermutation) -> "Positroid":
        """Oh's rule along the necklace walk: B is a basis iff each entry
        I_a is below B in the cyclic Gale order starting at a, so the bases
        are the AND of the Gale up-sets of the necklace entries."""
        k, entries = _necklace_masks(dp)
        n = dp.n
        upsets = _gale_upsets(k, n)  # refuses a size past limits.POSITROID before the mask
        mask = (1 << binom(n, k)) - 1
        for up, entry in zip(upsets, entries):
            mask &= up[entry]
        return cls(k, n, dp, mask)

    @classmethod
    def from_bases(cls, bases, k: int, n: int) -> "Positroid":
        """The positroid with these bases: I_a is the basis below every
        basis in the cyclic Gale order starting at a, the decorated
        permutation is read off that necklace, and Oh's rule must give the
        bases back.  Refuses sizes past limits.POSITROID before reading."""
        upsets = _gale_upsets(k, n)
        ranks = colex_ranks(n, k)
        bs = {tuple(sorted(b)) for b in bases}
        if not bs:
            raise InputError("a positroid has at least one basis")
        if not bs <= ranks.keys():
            raise InputError(f"bases must be {k}-subsets of [1, {n}]")
        mask = sum(1 << ranks[B] for B in bs)
        members = [subset_mask(B) for B in bs]
        necklace = []
        for up in upsets:
            # the Gale order is a partial order: at most one member is below all
            minimum = [m for m in members if up[m] & mask == mask]
            if not minimum:
                raise InputError("bases have no Gale minimum; not a positroid")
            necklace.append(minimum[0])
        pos = cls.from_dperm(_dperm_from_necklace(necklace, n))
        if pos.mask != mask:
            raise InputError("bases do not satisfy the necklace hull; not a positroid")
        return pos

    @cached_property
    def bases(self) -> frozenset:
        subs = ksubsets(self.n, self.k)
        return frozenset(subs[r] for r in mask_bits(self.mask))

    def sort_key(self):
        return self.dperm.sort_key()

    def to_json(self):
        subs = ksubsets(self.n, self.k)
        return {
            "perm": list(self.dperm.word),
            "coloops": sorted(self.dperm.coloops),
            "bases": [list(subs[r]) for r in mask_bits(self.mask)],
        }


def enumerate_decorated_permutations(k: int, n: int) -> list[DecoratedPermutation]:
    """Every decorated permutation of type k, in sort_key order: words come
    from permutations in lexicographic order, and the coloops of a word from
    combinations of its fixed points in lexicographic order."""
    out = []
    for word in permutations(range(1, n + 1)):
        anti, fixed = 0, []
        for i, v in enumerate(word, 1):
            if v < i:
                anti += 1
            elif v == i:
                fixed.append(i)
        if 0 <= k - anti <= len(fixed):
            for chosen in combinations(fixed, k - anti):
                out.append(DecoratedPermutation(word, frozenset(chosen)))
    return out


@lru_cache(maxsize=None)
def enumerate_positroids(k: int, n: int) -> tuple[Positroid, ...]:
    """One positroid per decorated permutation of the given type."""
    require(ENUMERATION, k, n)
    return tuple(
        Positroid.from_dperm(dp) for dp in enumerate_decorated_permutations(k, n)
    )


# ---------------------------------------------------------------------------
# The orthopositroid test
# ---------------------------------------------------------------------------

def a_sets(bases, I, J, n: int):
    """Extension sets of a pair of sorted (k-1)-subsets: the l whose two
    extensions I+l and J+l are both bases, split by the sign of p_{I+l}
    p_{J+l} in the alternating orthogonality quadric of (I, J), read off
    the pair's slot of the packed sign rows.  Members of bases that are not
    sorted k-subsets of [1, n] are ignored."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise SizeMismatchError("need equal-size subsets")
    k = len(I) + 1
    packing = _packing(k, n)  # refuses a size past limits.POSITROID
    rank = colex_ranks(n, k - 1)
    if I not in rank or J not in rank:
        raise InputError(f"{I} and {J} must be sorted {k - 1}-subsets of [1, {n}]")
    ranks = colex_ranks(n, k)
    ext = _packed_extensions(sum(1 << ranks[B] for B in set(bases) if B in ranks), packing)
    a, b = sorted((rank[I], rank[J]))
    plus, minus = _pair_sides(ext, a, b, packing)
    return mask_bits(plus), mask_bits(minus)


def _pair_sides(ext: int, a: int, b: int, packing: "_Packing") -> tuple[int, int]:
    """The plus and minus bits of the extension sets of the pair (I, J) of
    colex ranks a <= b: slot b of the sign rows of I, given the packed
    extension masks."""
    width = packing.width
    both = ext >> a * width & ext >> b * width & packing.full
    plus, minus = packing.rows[a]
    return both & plus >> b * width, both & minus >> b * width


def _packed_extensions(mask: int, packing: "_Packing") -> int:
    """The extension masks of the bases at the set bits of mask (colex
    ranks), packed as _Packing says, read off mask a byte at a time."""
    tables = packing.tables
    packed = j = 0
    while mask:
        packed |= tables[j][mask & 255]
        mask >>= 8
        j += 1
    return packed


class _Packing(NamedTuple):
    """The pair test of type (k, n) on packed masks.  The extension masks
    ext[r] (bit l set exactly when I + l is a basis, for the (k-1)-subset I
    of colex rank r) sit in one int, ext[r] in the slot of width bits from
    bit r * width up; width = n + 2 keeps the slot's top bit, above every l
    in [1, n], clear."""

    width: int
    # tables[j][v]: the packed extension masks of the bases whose colex
    # ranks are the set bits of v << 8 j
    tables: tuple
    # one (plus, minus) per (k-1)-subset I, of colex rank a: for each J of
    # colex rank b >= a, slot b of plus (minus) holds the l outside I and J
    # whose sign Omega_ll eps(I, l) eps(J, l) is + (-), the sign of the term
    # p_{I+l} p_{J+l} in the orthogonality quadric of (I, J) under the
    # alternating form Omega; the slots below a are 0
    rows: tuple
    # 1 in every slot: ea * ones copies ea into every slot
    ones: int
    # 2^(n+1) - 1, the bits of one slot below its top bit
    full: int
    # full in every slot: x + fill carries into the top bit of exactly the
    # nonzero slots of x
    fill: int
    # the top bit of every slot
    high: int


# the packings built so far, by n and then k: two int lookups, where a
# (k, n) key or an lru_cache's argument tuple would allocate a tuple on
# every pair test
_PACKINGS: dict[int, dict[int, _Packing]] = {}


def _packing(k: int, n: int) -> _Packing:
    """The packing of type (k, n), built on first use.  The lookup is kept
    apart from the build, whose comprehensions would make it allocate a
    closure cell on every call."""
    packings = _PACKINGS.get(n)
    if packings is not None and k in packings:
        return packings[k]
    packing = _PACKINGS.setdefault(n, {})[k] = _build_packing(k, n)
    return packing


def _build_packing(k: int, n: int) -> _Packing:
    """Each basis B sets bit l of ext[r] for each facet B - l of colex rank
    r, and each pair (I, J) sets its signs, both read off signed_extensions
    (backwards for the facets).  Refuses sizes past limits.POSITROID before
    building."""
    require(POSITROID, k, n)
    width = n + 2
    omega = QuadraticForm.alternating(n).diag
    exts = signed_extensions(n, k - 1)
    packed = [0] * len(ksubsets(n, k))
    rows = []
    for a, ext in enumerate(exts):
        plus = minus = 0
        for l, (rb, s) in ext.items():
            packed[rb] |= 1 << (a * width + l)
            for b in range(a, len(exts)):
                if l in exts[b]:
                    bit = 1 << (b * width + l)
                    if omega[l - 1] * s * exts[b][l][1] > 0:
                        plus |= bit
                    else:
                        minus |= bit
        rows.append((plus, minus))
    tables = []
    for j in range(0, len(packed), 8):
        chunk = packed[j:j + 8] + [0] * 8
        table = [0] * 256
        for v in range(1, 256):
            table[v] = table[v & (v - 1)] | chunk[(v & -v).bit_length() - 1]
        tables.append(tuple(table))
    ones = sum(1 << r * width for r in range(len(rows)))
    full = (1 << n + 1) - 1
    return _Packing(width, tuple(tables), tuple(rows), ones, full, ones * full, ones << n + 1)


def _first_one_sided_row(ext: int, packing: _Packing) -> int:
    """The first row of sign masks with a pair whose two sides are not
    empty or nonempty together, or -1, given the packed extension masks.
    Each row is tested on every slot at once: e holds ext[a] & ext[b] in
    slot b, and a slot fails when exactly one of e & plus and e & minus is
    nonzero there.  The row of an I with ext 0 is skipped: every pair
    through it is two-sided.  An index loop over ints: no iterator, tuple
    or generator is made."""
    width, rows, ones = packing.width, packing.rows, packing.ones
    full, fill, high = packing.full, packing.fill, packing.high
    for a in range(len(rows)):
        ea = ext >> a * width & full
        if ea:
            plus, minus = rows[a]
            e = ea * ones & ext
            if ((e & plus) + fill ^ (e & minus) + fill) & high:
                return a
    return -1


class OrthoReport:
    """The verdict of the pair test on a positroid, and its failures, (I, J,
    A_plus, A_minus) for each one-sided pair in row order, decoded on first
    read.  is_orthopositroid makes it by a call without arguments and then
    sets its two attributes: the arguments of a class call travel in a
    tuple, one more allocation."""

    verdict: bool
    positroid: Positroid

    @cached_property
    def failures(self) -> tuple:
        if self.verdict:
            return ()
        pos = self.positroid
        packing = _packing(pos.k, pos.n)
        ext = _packed_extensions(pos.mask, packing)
        subs = ksubsets(pos.n, pos.k - 1)
        return tuple(
            (subs[a], subs[b], mask_bits(plus), mask_bits(minus))
            for a in range(_first_one_sided_row(ext, packing), len(subs))
            for b in range(a, len(subs))
            for plus, minus in [_pair_sides(ext, a, b, packing)]
            if (not plus) != (not minus)
        )


def is_orthopositroid(positroid: Positroid) -> OrthoReport:
    """A positroid passes when every pair (I, J) has its two extension sets
    empty or nonempty together; the verdict is decided at the first row
    with a one-sided pair, and the failures are decoded only when read.
    The report is the one object the test allocates that the cyclic
    garbage collector tracks."""
    packing = _packing(positroid.k, positroid.n)
    ext = _packed_extensions(positroid.mask, packing)
    report = OrthoReport()
    report.positroid = positroid
    report.verdict = _first_one_sided_row(ext, packing) < 0
    return report


@lru_cache(maxsize=None)
def enumerate_orthopositroids(k: int, n: int) -> tuple[Positroid, ...]:
    return tuple(p for p in enumerate_positroids(k, n) if is_orthopositroid(p).verdict)


# ---------------------------------------------------------------------------
# Bridge decomposition and cell parametrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeDecomposition:
    """Sequence of positive column operations sweeping out the cell.

    bridges are (a, b, sign) in decomposition order; reconstruction applies
    them in reverse to the coordinate subspace on the terminal coloops.
    The sign is (-1)^(number of coloops strictly between a and b at the
    time the bridge was split off), which keeps all minors nonnegative.
    """

    k: int
    n: int
    coloops: tuple[int, ...]
    bridges: tuple[tuple[int, int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.bridges)


def bridge_decomposition(dp: DecoratedPermutation) -> BridgeDecomposition:
    n = dp.n
    k = dp.type_k()
    sig = dp.affine()
    bridges = []
    for _ in range(k * (n - k) + 1):
        nonfixed = [
            i for i in range(1, n + 1)
            if sig[i - 1] != i and sig[i - 1] != i + n
        ]
        if not nonfixed:
            break
        pick = None
        for t in range(len(nonfixed) - 1):
            a, b = nonfixed[t], nonfixed[t + 1]
            if sig[a - 1] < sig[b - 1]:
                pick = (a, b)
                break
        if pick is None:
            raise InternalInvariantError(
                f"no bridge pair available for {dp}; affine values {sig}"
            )
        a, b = pick
        sign = (-1) ** sum(1 for c in range(a + 1, b) if sig[c - 1] == c + n)
        bridges.append((a, b, sign))
        sig[a - 1], sig[b - 1] = sig[b - 1], sig[a - 1]
        if not (a <= sig[a - 1] <= a + n and b <= sig[b - 1] <= b + n):
            raise InternalInvariantError("bridge swap left the affine window")
    else:
        raise InternalInvariantError("bridge decomposition did not terminate")
    coloops = tuple(i for i in range(1, n + 1) if sig[i - 1] == i + n)
    if len(coloops) != k:
        raise InternalInvariantError("terminal cell has wrong rank")
    return BridgeDecomposition(k=k, n=n, coloops=coloops, bridges=tuple(bridges))


# ---------------------------------------------------------------------------
# Numeric dimension of the isotropic slice of a cell
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bridge_moves(k: int, n: int, a: int, b: int) -> MappingProxyType:
    """Plucker action of the column operation x_b += x_a: the coordinate at
    colex rank K+a feeds the one at K+b with sign eps(K, a) eps(K, b), for
    each (k-1)-subset K missing a and b.  An injective map
    K+a -> (K+b, sign) over colex ranks.  Cached and read-only."""
    moves = {}
    for ext in signed_extensions(n, k - 1):
        if a in ext and b in ext:
            (ra, sa), (rb, sb) = ext[a], ext[b]
            moves[ra] = (rb, sa * sb)
    return MappingProxyType(moves)


class _Quadrics(NamedTuple):
    """The orthogonality quadrics in float COO form: the term
    coef * p_a * p_b of quadric number row, with a and b colex ranks, and
    the same terms as a scatter into the dense gradient d(quadric)/dp of
    shape n_quadrics x C(n, k): entry grad_index gains grad_coef times
    p[grad_partner]."""
    row: np.ndarray
    ra: np.ndarray
    rb: np.ndarray
    coef: np.ndarray
    n_quadrics: int
    grad_index: np.ndarray
    grad_partner: np.ndarray
    grad_coef: np.ndarray


@lru_cache(maxsize=None)
def _quadric_terms(k: int, n: int, form: QuadraticForm) -> _Quadrics:
    """orthogonality_relations(k, n, form) as _Quadrics, read off their
    integer forms; built once per (k, n, form), for every cell."""
    terms = [
        (row, a, b, c / L)
        for row, poly in enumerate(orthogonality_relations(k, n, form))
        for L, coeffs, ranks in [poly.cleared()]
        for c, (a, b) in zip(coeffs, ranks)
    ]
    row, ra, rb, coef = (np.array(col) for col in zip(*terms))
    # gradient entry (row, a) gains coef * p_b, and entry (row, b) coef * p_a
    flat = row * binom(n, k)
    return _Quadrics(row, ra, rb, coef, int(row[-1]) + 1,
                     np.concatenate([flat + ra, flat + rb]),
                     np.concatenate([rb, ra]), np.tile(coef, 2))


class _ResidualModel:
    """Float residual and Jacobian of the orthogonality equations on a
    cell, in log-parameters s = log t.

    Works in Plucker space.  A bridge x_b += t_i x_a moves each Plucker
    coordinate p_{K+a} onto p_{K+b}, times +-t_i.  Pushing the coordinate
    vector of the terminal coloops through the bridges, each once, makes p a
    fixed polynomial in t, multilinear: one monomial prod_{i in U} t_i for
    each set U of bridges whose moves chain from the coloops, landing on one
    coordinate with sign +-1.  __init__ expands it once into C, of shape
    C(n, k) x M with one +-1 in each column, and E, of shape M x d with
    E[u, i] = 1 exactly when bridge i is in monomial u, so
    p = C @ m with m = exp(E @ s), and dp/ds = C @ (m * E).  At s = 0 every
    monomial is exactly 1, so p is exact there.  The residual is the
    orthogonality quadrics evaluated at p; their terms are shared by every
    cell of a size (_quadric_terms).
    """

    def __init__(self, decomp: BridgeDecomposition, form: QuadraticForm):
        k, n = decomp.k, decomp.n
        self.d = decomp.dim
        # (colex rank, sign, bitmask of U) of each monomial; bridges apply
        # in the reverse of decomposition order
        terms = [(colex_ranks(n, k)[decomp.coloops], 1, 0)]
        for ti in reversed(range(self.d)):
            a, b, sign = decomp.bridges[ti]
            moves = _bridge_moves(k, n, a, b)
            terms += [(tgt, sign * s * e, U | 1 << ti)
                      for r, s, U in terms if r in moves
                      for tgt, e in [moves[r]]]
        ranks, signs, masks = zip(*terms)
        self.C = np.zeros((binom(n, k), len(terms)))
        self.C[ranks, range(len(terms))] = signs
        self.E = (np.array(masks)[:, None] >> np.arange(self.d) & 1).astype(float)
        self.quadrics = _quadric_terms(k, n, form)

    def plucker(self, s):
        return self.C @ np.exp(self.E @ s)

    def at(self, s):
        """The residual F at s, and a function that returns the Jacobian
        dF/ds at s from the same monomials m and Plucker vector p:
        G(p) @ (C @ (m * E)), with G(p) the quadrics' gradient in p."""
        q = self.quadrics
        m = np.exp(self.E @ s)
        p = self.C @ m
        F = np.bincount(q.row, q.coef * p[q.ra] * p[q.rb], minlength=q.n_quadrics)

        def jac():
            grad = np.bincount(q.grad_index, q.grad_coef * p[q.grad_partner],
                               minlength=q.n_quadrics * len(p))
            return grad.reshape(q.n_quadrics, len(p)) @ (self.C @ (m[:, None] * self.E))

        return F, jac


# The cell solver's pinned constants: the box each parameter stays in, and
# its three stops, a squared residual below (1e-3 * 1e-8)^2, a damping above
# 1e30, or 200 trial steps.
LM_BOUNDS = (1e-3, 1e3)
LM_SSQ_STOP = (1e-3 * 1e-8) ** 2
LM_MU_MAX = 1e30
LM_STEPS = 200

# The sweep's pinned settings: residual tolerance, singular-value cutoff,
# starts per cell, and starts for a cell that none of those resolved.
SWEEP_TOL = 1e-8
SWEEP_CUTOFF = 1e-4
SWEEP_STARTS = 32
SWEEP_RETRY_STARTS = 128


class LeastSquaresResult(NamedTuple):
    s: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    nfev: int
    success: bool


def least_squares(fun, s0) -> LeastSquaresResult:
    """Drive F toward 0 over s = log t in log(LM_BOUNDS) by Levenberg-Marquardt
    steps, damped by Nielsen's gain-ratio rule (Madsen, Nielsen and
    Tingleff, Methods for Non-Linear Least Squares Problems, 2004, 3.2).

    fun(s) returns F(s) and a function that returns the Jacobian dF/ds at s;
    fun is called once per trial point, and the Jacobian is asked for only
    at the start and at each accepted point.  Each trial step h solves
    (J^T J + mu I) h = -J^T F, where mu starts at 1e-3 max diag(J^T J).  A
    step that leaves the box, meets a singular system or fails to lower
    |F|^2 (a non-finite residual among them) is rejected, never clipped:
    mu *= nu and nu *= 2.  An accepted step of gain ratio rho sets
    mu *= max(1/3, 1 - (2 rho - 1)^3) and nu = 2.  The result holds s, and
    F and J at s as fun returned them, the number of fun calls, and
    success: |F|^2 < LM_SSQ_STOP.

    A step is rejected whole, not projected onto the box, so a start whose
    zero lies past a face stalls there: once one parameter sits at the face,
    mu climbs to LM_MU_MAX and the others stop moving too.
    """
    lo, hi = np.log(LM_BOUNDS)
    s = np.asarray(s0, dtype=float)
    f, jac = fun(s)
    J = jac()
    if J.shape != (f.size, s.size):
        raise ValueError(f"the Jacobian has shape {J.shape}, not {(f.size, s.size)}")
    ssq, nfev, nu = f @ f, 1, 2.0
    A, g = J.T @ J, J.T @ f
    mu = 1e-3 * A.diagonal().max()
    eye = np.eye(s.size)
    for _ in range(LM_STEPS):
        if ssq < LM_SSQ_STOP or mu > LM_MU_MAX:
            break
        try:
            h = np.linalg.solve(A + mu * eye, -g)
        except np.linalg.LinAlgError:
            h = np.full(s.size, np.nan)  # fails the box test below
        s_new = s + h
        # a nan in s_new makes its min and max nan, which compare false
        if lo <= s_new.min() and s_new.max() <= hi:
            f_new, jac = fun(s_new)
            nfev += 1
            ssq_new = f_new @ f_new
            # rho > 0 exactly here, as h^T (mu h - g) = h^T (A + 2 mu I) h > 0;
            # a nan or inf residual fails the test
            if ssq_new < ssq:
                rho = (ssq - ssq_new) / (h @ (mu * h - g))
                s, f, ssq = s_new, f_new, ssq_new
                J = jac()
                A, g = J.T @ J, J.T @ f
                mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
                nu = 2.0
                continue
        mu *= nu
        nu *= 2
    return LeastSquaresResult(s, f, J, nfev, bool(ssq < LM_SSQ_STOP))


@dataclass
class CellDimResult:
    positroid: Positroid
    param_count: int
    dim: int | None
    dims_seen: tuple
    residual: float | None
    singular_values: tuple

    @property
    def failed(self) -> bool:
        return self.dim is None


def cell_dim_in_ogr_numeric(positroid: Positroid, seed: int = 0,
                            starts: int = SWEEP_STARTS) -> CellDimResult:
    """Estimate the dimension of the isotropic slice of a positroid cell.

    Minimizes the squared orthogonality residual of the alternating form
    over the bridge parameters from `starts` random starts; a solution
    counts when its residual norm is below SWEEP_TOL, and at each such
    interior point the slice dimension is (parameter count) - rank of the
    residual Jacobian, with singular values at or below SWEEP_CUTOFF treated
    as zero.  The model, the solver and the Jacobian all work in
    log-parameters s = log t, the natural scale for positive parameters.
    It stops after 3 such points.  A model that is not positive exactly on
    the bases at s = 0 raises InternalInvariantError before any solve.
    """
    decomp = bridge_decomposition(positroid.dperm)
    model = _ResidualModel(decomp, QuadraticForm.alternating(positroid.n))
    d = decomp.dim
    tol_sq = SWEEP_TOL * SWEEP_TOL
    # at s = 0 the model must be positive exactly on the bases, or a bridge
    # sign is wrong; every monomial is 1 there and C is integral, so this is exact
    on_bases = np.array([positroid.mask >> r & 1 for r in range(len(model.C))], dtype=bool)
    p = model.plucker(np.zeros(d))
    if not (p[on_bases] > 0).all() or p[~on_bases].any():
        raise InternalInvariantError(f"the bridge model of {positroid.dperm} is not "
                                     "positive exactly on its bases")

    if d == 0:
        r, _ = model.at(np.zeros(0))
        ok = float(r @ r) < tol_sq
        return CellDimResult(positroid, 0, 0 if ok else None, (0,) if ok else (),
                             float(r @ r), ())

    rng = np.random.default_rng(seed)
    outcomes = []
    best_res = None
    for _ in range(starts):
        s0 = rng.uniform(np.log(0.3), np.log(3.0), d)
        sol = least_squares(model.at, s0)
        r = sol.fun  # the solver's residual and Jacobian are those at sol.s
        ssq = float(r @ r)
        best_res = ssq if best_res is None else min(best_res, ssq)
        if ssq >= tol_sq:
            continue
        p = model.plucker(sol.s)
        if np.abs(p[on_bases]).min() < 1e-9 * np.abs(p).max():
            continue  # drifted to the cell boundary
        sv = np.linalg.svd(sol.jac, compute_uv=False)
        rank = int((sv > SWEEP_CUTOFF).sum())
        outcomes.append((d - rank, ssq, tuple(sv)))
        if len(outcomes) >= 3:
            break
    if not outcomes:
        return CellDimResult(positroid, d, None, (), best_res, ())
    dims = [o[0] for o in outcomes]
    counts = Counter(dims)
    top = max(counts.values())
    dim = min(v for v, c in counts.items() if c == top)
    chosen = next(o for o in outcomes if o[0] == dim)
    return CellDimResult(positroid, d, dim, tuple(dims), chosen[1], chosen[2])


_PINNED = {"tol": SWEEP_TOL, "cutoff": SWEEP_CUTOFF, "starts": SWEEP_STARTS,
           "retry_starts": SWEEP_RETRY_STARTS, "workers": 1}


def dims_report(k: int, n: int, seed: int = 0, **pinned) -> dict:
    """Dimension histogram over all orthopositroids of the given type.

    Each cell's SWEEP_STARTS starts are seeded by seed plus its index; a
    cell they leave unresolved is re-run with SWEEP_RETRY_STARTS starts, and
    remaining failures are reported, not hidden.  `pinned` admits only the
    keys of _PINNED at their values there, as perfbench's CELL_DIMS passes
    them (anything else is an InputError); it goes when the next benchmark
    change stops passing them.
    """
    for key, value in pinned.items():
        if key not in _PINNED or value != _PINNED[key]:
            raise InputError(f"{key}={value!r}: the sweep runs only at its "
                             f"pinned settings {_PINNED}")
    require(SWEEP, k, n)
    if seed < 0:
        raise InputError("the sweep needs a non-negative seed")
    cells = sorted(enumerate_orthopositroids(k, n), key=lambda p: p.sort_key())
    results = []
    for idx, pos in enumerate(cells):
        res = cell_dim_in_ogr_numeric(pos, seed=seed + idx)
        if res.failed:
            res = cell_dim_in_ogr_numeric(pos, seed=seed + 100_000 + idx,
                                          starts=SWEEP_RETRY_STARTS)
        results.append(res)
    failures = [res.positroid for res in results if res.failed]
    hist = Counter(res.dim for res in results if not res.failed)
    return {
        "k": k,
        "n": n,
        "total": len(cells),
        "resolved": sum(1 for r in results if not r.failed),
        "histogram": {str(d): hist[d] for d in sorted(hist, reverse=True)},
        "failures": [p.to_json() for p in failures],
        "results": results,
    }


# ---------------------------------------------------------------------------
# The two-parameter families and the gluing counterexample
# ---------------------------------------------------------------------------

def m_sigma(x, y) -> Subspace:
    """Triangle-cell family: rows (1,1,0,0,-x,-x) and (0,0,1,1,y,y)."""
    x, y = Fraction(x), Fraction(y)
    if x <= 0 or y <= 0:
        raise InputError("family parameters must be positive")
    return Subspace(Mat([[1, 1, 0, 0, -x, -x], [0, 0, 1, 1, y, y]]))


def m_tau(a, b, c) -> Subspace:
    """Square-cell family: rows (1,1,0,0,0,0) and (0,0,1,a,b,c) subject to
    1 + b^2 = a^2 + c^2."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0 or b <= 0 or c <= 0:
        raise InputError("family parameters must be positive")
    if 1 + b * b != a * a + c * c:
        raise InputError("parameters must satisfy 1 + b^2 = a^2 + c^2")
    return Subspace(Mat([[1, 1, 0, 0, 0, 0], [0, 0, 1, a, b, c]]))


def tau_solution(b, s) -> tuple[Fraction, Fraction]:
    """Rational (a, c) with a^2 + c^2 = 1 + b^2: rotate the solution (1, b)
    by the rational rotation with parameter s."""
    b, s = Fraction(b), Fraction(s)
    cos = (1 - s * s) / (1 + s * s)
    sin = 2 * s / (1 + s * s)
    a = cos - sin * b
    c = sin + cos * b
    if a <= 0 or c <= 0:
        raise InputError("rotation parameter leaves the positive arc")
    return a, c


def edge_e(index: int, b) -> Subspace:
    """Boundary families of the triangle cell, with the first one in its
    sign-corrected form (entries -b so all minors are nonnegative)."""
    b = Fraction(b)
    if b < 0:
        raise InputError("edge parameter must be nonnegative")
    if index == 1:
        rows = [[1, 1, 0, 0, -b, -b], [0, 0, 1, 1, 0, 0]]
    elif index == 2:
        rows = [[1, 1, b, b, 0, 0], [0, 0, 0, 0, 1, 1]]
    elif index == 3:
        rows = [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, b, b]]
    else:
        raise InputError("edge index must be 1, 2 or 3")
    return Subspace(Mat(rows))


def printed_e1(b) -> Subspace:
    """First boundary family with the sign as printed (+b entries); its
    minor on columns 3,5 equals -b, so it is not totally nonnegative."""
    b = Fraction(b)
    if b <= 0:
        raise InputError("parameter must be positive")
    return Subspace(Mat([[1, 1, 0, 0, b, b], [0, 0, 1, 1, 0, 0]]))


# -- projective limits of one-parameter families ----------------------------

def _plucker_curve(family) -> tuple:
    """The Plucker coordinates of t -> family(t) as quadratics in t.

    Returns (k, n, {I: (c0, c1, c2)}).  Every family here is a 2 x n matrix
    whose entries are affine in t, so each coordinate has degree at most 2:
    the exact Plucker vectors at t = 1, 2, 3 determine it, and t = 4 checks
    that it is one.
    """
    points = [family(t).plucker() for t in (1, 2, 3, 4)]
    k, n = points[0].k, points[0].n
    curve = {}
    for I in ksubsets(n, k):
        v1, v2, v3, v4 = (p.get(I) for p in points)
        c2 = Fraction(v3 - 2 * v2 + v1, 2)
        c1 = v2 - v1 - 3 * c2
        c0 = v1 - c1 - c2
        if c0 + 4 * c1 + 16 * c2 != v4:
            raise InternalInvariantError(
                f"Plucker coordinate {I} of the family is not quadratic in its parameter")
        curve[I] = (c0, c1, c2)
    return k, n, curve


def _limit(curve, at_infinity: bool) -> PluckerVector:
    """The projective limit of a Plucker curve as t -> 0 (or infinity): its
    lowest (or highest) coefficient vector that is not zero."""
    k, n, coeffs = curve
    degrees = (2, 1, 0) if at_infinity else (0, 1, 2)
    d = next(d for d in degrees if any(c[d] for c in coeffs.values()))
    return PluckerVector(k, n, {I: c[d] for I, c in coeffs.items()})


def gluing_check() -> dict:
    """Exact certificate that positroid cells do not glue into a CW complex.

    Verifies that the x -> 0 boundary family of the triangle cell lands in
    the open square cell as the diagonal joining two opposite vertices, and
    that the other two limits give the remaining triangle edges; the as-
    printed first edge fails nonnegativity (minor on columns 3,5 is -b).
    """
    bvals = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(7, 5),
             Fraction(2, 3)]
    report = {}

    # x -> 0 limit of the triangle family equals the third edge
    report["x_limit_is_e3"] = all(
        _limit(_plucker_curve(lambda x: m_sigma(x, y)), at_infinity=False)
        .eq_projective(edge_e(3, y).plucker())
        for y in bvals
    )

    # the third edge is literally a member of the square family
    report["e3_in_square_family"] = all(
        edge_e(3, b).basis == m_tau(1, b, b).basis for b in bvals
    )

    # inside the OPEN square cell: matroid of e3(b) equals the square matroid
    tau_bases = frozenset(
        tuple(sorted((i, j))) for i in (1, 2) for j in (3, 4, 5, 6)
    )
    e3 = _plucker_curve(lambda b: edge_e(3, b))
    report["e3_in_open_square_cell"] = all(
        any(c) == (I in tau_bases) and min(c) >= 0 for I, c in e3[2].items()
    )

    # endpoints of the diagonal: opposite vertex cells of the square
    sup0 = {x for I in _limit(e3, at_infinity=False).support() for x in I} - {1, 2}
    supinf = {x for I in _limit(e3, at_infinity=True).support() for x in I} - {1, 2}
    report["diagonal_endpoints_opposite"] = (
        sup0 == {3, 4} and supinf == {5, 6} and not (sup0 & supinf)
    )

    # y -> 0 limit equals the sign-corrected first edge
    report["y_limit_is_corrected_e1"] = all(
        _limit(_plucker_curve(lambda y: m_sigma(x, y)), at_infinity=False)
        .eq_projective(edge_e(1, x).plucker())
        for x in bvals
    )

    # x, y -> infinity along x = b*s, y = s gives the second edge
    report["xy_infinity_limit_is_e2"] = all(
        _limit(_plucker_curve(lambda s: m_sigma(b * s, s)), at_infinity=True)
        .eq_projective(edge_e(2, b).plucker())
        for b in bvals
    )

    # the as-printed first edge has a negative minor
    ok = True
    for b in bvals:
        pe = printed_e1(b).plucker()
        ok = ok and pe.get((3, 5)) == -b and not is_totally_nonnegative(pe)
    report["printed_e1_fails_nonnegativity"] = ok

    report["cw_certificate"] = (
        report["x_limit_is_e3"]
        and report["e3_in_square_family"]
        and report["e3_in_open_square_cell"]
        and report["diagonal_endpoints_opposite"]
    )
    report["ok"] = all(
        v for key, v in report.items() if isinstance(v, bool)
    )
    return report
