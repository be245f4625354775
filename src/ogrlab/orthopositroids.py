"""Positroids, the orthopositroid test, enumeration, and cell dimensions.

Positroids are encoded by decorated permutations; their bases are recovered
from the Grassmann necklace by the cyclic Gale-order rule, so enumeration
and the orthopositroid sign test are purely combinatorial.  Realization uses
a bridge decomposition of the decorated permutation: each cell is swept out
by positive column operations applied to a coordinate subspace, which gives
both exact sample points and the parameter count for the numeric dimension
estimate of the isotropic slice of each cell.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, combinations

import numpy as np
from scipy.optimize import least_squares

from .errors import (
    InputError,
    InternalInvariantError,
    SizeMismatchError,
)
from .exact_core import (
    Mat, binom, colex_key, colex_rank, colex_ranks, eps, ksubsets, rand_rational,
)
from .forms_points import (
    PluckerVector,
    QuadraticForm,
    Subspace,
    is_totally_nonnegative,
)
from .ideal_gens import orthogonality_relations


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
            if self.word[c - 1] != c:
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


def necklace_of(dp: DecoratedPermutation) -> tuple[tuple[int, ...], ...]:
    """Grassmann necklace: I_a collects values that wrap when read from a,
    plus all coloops."""
    n = dp.n
    k = dp.type_k()
    out = []
    for a in range(1, n + 1):
        def rank(x):
            return (x - a) % n

        entries = {
            dp.word[i - 1]
            for i in range(1, n + 1)
            if rank(dp.word[i - 1]) < rank(i)
        }
        entries |= dp.coloops
        if len(entries) != k:
            raise InternalInvariantError("necklace entry of wrong size")
        out.append(tuple(sorted(entries)))
    return tuple(out)


def _require_desk_scale(k: int, n: int) -> None:
    """Bases are bitmasks over the C(n, k) colex ranks and the pair table
    grows like C(n, k - 1)^2 * n; refuse sizes where that is not small."""
    if 0 <= k <= n and binom(n, k) > 70:
        raise InputError("positroids are desk-scale: C(n, k) <= 70")


@lru_cache(maxsize=None)
def _gale_upset(I, a: int, k: int, n: int) -> int:
    """Bitmask over the colex ranks of ksubsets(n, k) of the B with I <= B
    in the Gale order of the cyclic order starting at a."""
    low = sorted((x - a) % n for x in I)
    mask = 0
    for r, B in enumerate(ksubsets(n, k)):
        if all(i <= b for i, b in zip(low, sorted((x - a) % n for x in B))):
            mask |= 1 << r
    return mask


def bases_from_necklace(necklace, k: int, n: int) -> frozenset:
    """Oh's rule: B is a basis iff I_a is below B in every cyclic Gale order."""
    _require_desk_scale(k, n)
    subs = ksubsets(n, k)
    mask = (1 << len(subs)) - 1
    for a, Ia in enumerate(necklace, 1):
        mask &= _gale_upset(tuple(Ia), a, k, n)
    return frozenset(B for r, B in enumerate(subs) if mask >> r & 1)


def dperm_from_necklace(necklace, n: int) -> DecoratedPermutation:
    """Invert the necklace construction, fixing decorations from membership."""
    word = [0] * n
    coloops = set()
    for i in range(1, n + 1):
        Ii = set(necklace[i - 1])
        Inext = set(necklace[i % n])
        if i in Ii:
            added = Inext - (Ii - {i})
            if len(added) != 1:
                raise InputError("not a Grassmann necklace")
            j = added.pop()
            word[i - 1] = j
            if j == i:
                coloops.add(i)
        else:
            if Inext != Ii:
                raise InputError("not a Grassmann necklace")
            word[i - 1] = i
    return DecoratedPermutation(tuple(word), frozenset(coloops))


@dataclass(frozen=True)
class Positroid:
    k: int
    n: int
    dperm: DecoratedPermutation
    necklace: tuple
    bases: frozenset

    @classmethod
    def from_dperm(cls, dp: DecoratedPermutation) -> "Positroid":
        k = dp.type_k()
        neck = necklace_of(dp)
        return cls(k, dp.n, dp, neck, bases_from_necklace(neck, k, dp.n))

    @classmethod
    def from_bases(cls, bases, k: int, n: int) -> "Positroid":
        bs = frozenset(tuple(sorted(b)) for b in bases)
        if not bs:
            raise InputError("a positroid has at least one basis")
        neck = []
        for a in range(1, n + 1):
            def key(B):
                return tuple(sorted((x - a) % n for x in B))

            best = min(bs, key=key)
            if any(
                any(cb < bb for cb, bb in zip(key(B), key(best)))
                for B in bs
            ):
                raise InputError("bases have no Gale minimum; not a positroid")
            neck.append(tuple(sorted(best)))
        neck = tuple(neck)
        pos = cls(k, n, dperm_from_necklace(neck, n), neck,
                  bases_from_necklace(neck, k, n))
        if pos.bases != bs:
            raise InputError("bases do not satisfy the necklace hull; not a positroid")
        return pos

    def sort_key(self):
        return self.dperm.sort_key()

    def to_json(self):
        return {
            "perm": list(self.dperm.word),
            "coloops": sorted(self.dperm.coloops),
            "bases": [list(b) for b in sorted(self.bases, key=colex_key)],
        }


def enumerate_decorated_permutations(k: int, n: int) -> list[DecoratedPermutation]:
    out = []
    for word in permutations(range(1, n + 1)):
        anti = sum(1 for i in range(1, n + 1) if word[i - 1] < i)
        if anti > k:
            continue
        fixed = [i for i in range(1, n + 1) if word[i - 1] == i]
        need = k - anti
        if need > len(fixed):
            continue
        for chosen in combinations(fixed, need):
            out.append(DecoratedPermutation(tuple(word), frozenset(chosen)))
    out.sort(key=lambda dp: dp.sort_key())
    return out


@lru_cache(maxsize=None)
def enumerate_positroids(k: int, n: int) -> tuple[Positroid, ...]:
    """One positroid per decorated permutation of the given type."""
    if n > 10:
        raise InputError("enumeration scans all n! permutations: n <= 10")
    _require_desk_scale(k, n)
    out = tuple(
        Positroid.from_dperm(dp) for dp in enumerate_decorated_permutations(k, n)
    )
    return out


# ---------------------------------------------------------------------------
# The orthopositroid test
# ---------------------------------------------------------------------------

def _extensions(I, J, n: int):
    """(l, I+l, J+l, sign) for each l outside I and J, with the alternating
    sign (-1)^(l-1) eps(I,l) eps(J,l); l meeting I or J is excluded since
    its bracket vanishes."""
    for l in range(1, n + 1):
        if l in I or l in J:
            continue
        yield (l, tuple(sorted(I + (l,))), tuple(sorted(J + (l,))),
               (-1) ** (l - 1) * eps(I, l) * eps(J, l))


def a_sets(bases, I, J, n: int):
    """Extension sets of a pair of (k-1)-subsets, split by sign: the l whose
    two extensions I+l and J+l are both bases."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise SizeMismatchError("need equal-size subsets")
    plus, minus = [], []
    for l, BI, BJ, s in _extensions(I, J, n):
        if BI in bases and BJ in bases:
            (plus if s > 0 else minus).append(l)
    return tuple(plus), tuple(minus)


@lru_cache(maxsize=None)
def _pair_table(k: int, n: int) -> tuple:
    """(I, J, plus, minus) for each pair I <= J of (k-1)-subsets in ksubsets
    order; each side lists (l, mask) with the colex-rank bits of I+l and J+l,
    so l is in the extension set of a bases mask m iff m & mask == mask."""
    rank = colex_ranks(n, k)
    subs = ksubsets(n, k - 1)
    table = []
    for a, I in enumerate(subs):
        for J in subs[a:]:
            plus, minus = [], []
            for l, BI, BJ, s in _extensions(I, J, n):
                (plus if s > 0 else minus).append((l, 1 << rank[BI] | 1 << rank[BJ]))
            table.append((I, J, tuple(plus), tuple(minus)))
    return tuple(table)


def _meets(mask: int, side) -> bool:
    """Whether some l on this side of a pair table entry has both of its
    extensions in the bases mask (an explicit loop: any() over a generator
    costs several times more in this, the innermost loop)."""
    for _, m in side:
        if mask & m == m:
            return True
    return False


def _bases_mask(bases, k: int, n: int) -> int:
    """The bitmask over the colex ranks of ksubsets(n, k) of a bases set."""
    _require_desk_scale(k, n)
    mask = 0
    for r, B in enumerate(ksubsets(n, k)):
        if B in bases:
            mask |= 1 << r
    return mask


def _one_sided(mask: int, k: int, n: int):
    """The pair table entries whose two extension sets in the bases mask are
    not empty or nonempty together, lazily, so a verdict can stop early."""
    for entry in _pair_table(k, n):
        if _meets(mask, entry[2]) != _meets(mask, entry[3]):
            yield entry


@dataclass(frozen=True)
class OrthoReport:
    verdict: bool
    failures: tuple  # (I, J, A_plus, A_minus) for each one-sided pair


def is_orthopositroid(positroid_or_bases, k: int | None = None,
                      n: int | None = None) -> OrthoReport:
    """A positroid passes when every pair (I, J) has its two extension sets
    empty or nonempty together."""
    if isinstance(positroid_or_bases, Positroid):
        bases = positroid_or_bases.bases
        k, n = positroid_or_bases.k, positroid_or_bases.n
    else:
        if k is None or n is None:
            raise InputError("k and n are required with a raw bases set")
        bases = frozenset(tuple(sorted(b)) for b in positroid_or_bases)
    mask = _bases_mask(bases, k, n)
    # list comprehensions: generator expressions cost more per failure
    failures = [
        (I, J, tuple([l for l, m in plus if mask & m == m]),
         tuple([l for l, m in minus if mask & m == m]))
        for I, J, plus, minus in _one_sided(mask, k, n)
    ]
    return OrthoReport(verdict=not failures, failures=tuple(failures))


@lru_cache(maxsize=None)
def enumerate_orthopositroids(k: int, n: int) -> tuple[Positroid, ...]:
    return tuple(
        p for p in enumerate_positroids(k, n)
        if next(_one_sided(_bases_mask(p.bases, k, n), k, n), None) is None
    )


def top_cell_dperm(k: int, n: int) -> DecoratedPermutation:
    word = tuple((i - 1 + k) % n + 1 for i in range(1, n + 1))
    return DecoratedPermutation(word, frozenset())


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


def bridge_matrix(decomp: BridgeDecomposition, values) -> Mat:
    """Exact cell sample: apply the recorded column operations to the
    coordinate rows; positive values land strictly inside the cell."""
    values = [Fraction(v) for v in values]
    if len(values) != decomp.dim:
        raise SizeMismatchError("one value per bridge required")
    rows = [
        [Fraction(1) if j == c - 1 else Fraction(0) for j in range(decomp.n)]
        for c in decomp.coloops
    ]
    for (a, b, sign), t in reversed(list(zip(decomp.bridges, values))):
        for row in rows:
            row[b - 1] += sign * t * row[a - 1]
    return Mat(rows)


def sample_cell_point(positroid: Positroid, seed: int = 0) -> Subspace:
    """Random strictly-positive point of the positroid cell, exact."""
    decomp = bridge_decomposition(positroid.dperm)
    rng = random.Random(seed)
    vals = [abs(rand_rational(rng)) + Fraction(1, 10) for _ in range(decomp.dim)]
    return Subspace(bridge_matrix(decomp, vals))


# ---------------------------------------------------------------------------
# Numeric dimension of the isotropic slice of a cell
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bridge_table(k: int, n: int, a: int, b: int):
    """Plucker action of the column operation x_b += x_a: p_I += sigma *
    p_{I-b+a} for every k-subset I (colex rank) with b in I and a not in I,
    where sigma is (-1)^(number of c in I strictly between a and b)."""
    lo, hi = min(a, b), max(a, b)
    subs = ksubsets(n, k)
    tgt = [r for r, I in enumerate(subs) if b in I and a not in I]
    src = [colex_rank(sorted(set(subs[r]) - {b} | {a})) for r in tgt]
    sigma = [(-1) ** sum(lo < c < hi for c in subs[r]) for r in tgt]
    return (np.array(tgt, dtype=int), np.array(src, dtype=int),
            np.array(sigma, dtype=float))


@lru_cache(maxsize=None)
def _quadric_terms(k: int, n: int, form: QuadraticForm):
    """orthogonality_relations(k, n, form) in float COO form, read off their
    integer forms: the term coef * p_a * p_b of quadric number row as
    (row, a, b, coef), with a and b colex ranks."""
    terms = [
        (row, a, b, c / L)
        for row, poly in enumerate(orthogonality_relations(k, n, form))
        for L, coeffs, ranks in [poly.cleared()]
        for c, (a, b) in zip(coeffs, ranks)
    ]
    return tuple(np.array(col) for col in zip(*terms))


class _ResidualModel:
    """Float residual/Jacobian of the orthogonality equations on a cell.

    Works in Plucker space.  A bridge x_b += t x_a is linear on Plucker
    coordinates, so the coordinate vector of the terminal coloops is pushed
    through the bridges (and dp/dt alongside it for the Jacobian); the
    residual is the orthogonality quadrics evaluated at the result.
    """

    def __init__(self, decomp: BridgeDecomposition, form: QuadraticForm):
        k, n = decomp.k, decomp.n
        self.d = decomp.dim
        self.start = np.zeros(binom(n, k))
        self.start[colex_rank(decomp.coloops)] = 1.0
        # application order is the reverse of decomposition order
        self.ops = []
        for ti in reversed(range(self.d)):
            a, b, sign = decomp.bridges[ti]
            tgt, src, sigma = _bridge_table(k, n, a, b)
            self.ops.append((ti, tgt, src, sign * sigma))
        self.row, self.ra, self.rb, self.coef = _quadric_terms(k, n, form)
        self.n_quadrics = int(self.row[-1]) + 1
        # gradient entry (row, a) gains coef * p_b, and entry (row, b) coef * p_a
        flat = self.row * len(self.start)
        self.grad_index = np.concatenate([flat + self.ra, flat + self.rb])
        self.grad_partner = np.concatenate([self.rb, self.ra])
        self.grad_coef = np.tile(self.coef, 2)

    def plucker(self, t):
        p = self.start.copy()
        for ti, tgt, src, c in self.ops:
            p[tgt] += t[ti] * c * p[src]
        return p

    def residual(self, t):
        p = self.plucker(t)
        return np.bincount(self.row, self.coef * p[self.ra] * p[self.rb],
                           minlength=self.n_quadrics)

    def jacobian(self, t):
        p = self.start.copy()
        dp = np.zeros((len(p), self.d))
        for ti, tgt, src, c in self.ops:
            dp[tgt] += (t[ti] * c)[:, None] * dp[src]
            dp[tgt, ti] += c * p[src]
            p[tgt] += t[ti] * c * p[src]
        grad = np.bincount(self.grad_index, self.grad_coef * p[self.grad_partner],
                           minlength=self.n_quadrics * len(p))
        return grad.reshape(self.n_quadrics, len(p)) @ dp


@dataclass
class CellDimResult:
    positroid: Positroid
    param_count: int
    dim: int | None
    dims_seen: tuple
    residual: float | None
    singular_values: tuple
    converged: int
    failed: bool


def cell_dim_in_ogr_numeric(positroid: Positroid, form: QuadraticForm | None = None,
                            tol: float = 1e-8, cutoff: float = 1e-4,
                            seed: int = 0, starts: int = 32,
                            wanted: int = 3) -> CellDimResult:
    """Estimate the dimension of the isotropic slice of a positroid cell.

    Minimizes the squared orthogonality residual over the bridge parameters
    from random starts; at each converged interior point the slice dimension
    is (parameter count) - rank of the residual Jacobian, with singular
    values below the cutoff treated as zero.  The Jacobian is taken with
    respect to log-parameters, the natural scale for positive parameters.
    """
    if form is None:
        form = QuadraticForm.alternating(positroid.n)
    decomp = bridge_decomposition(positroid.dperm)
    model = _ResidualModel(decomp, form)
    d = decomp.dim
    tol_sq = tol * tol

    if d == 0:
        r = model.residual(np.zeros(0))
        ok = float(r @ r) < tol_sq
        return CellDimResult(positroid, 0, 0 if ok else None, (0,) if ok else (),
                             float(r @ r), (), 1 if ok else 0, not ok)

    rng = np.random.default_rng(seed)
    outcomes = []
    best_res = None
    for _ in range(starts):
        x0 = np.exp(rng.uniform(np.log(0.3), np.log(3.0), d))
        try:
            sol = least_squares(
                model.residual, x0, jac=model.jacobian,
                bounds=(1e-3, 1e3), method="trf",
                xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=300,
            )
        except Exception:
            continue
        r = model.residual(sol.x)
        ssq = float(r @ r)
        best_res = ssq if best_res is None else min(best_res, ssq)
        if ssq >= tol_sq:
            continue
        p = model.plucker(sol.x)
        scale = np.abs(p).max()
        basis_vals = [
            abs(p[i])
            for i, I in enumerate(ksubsets(positroid.n, positroid.k))
            if I in positroid.bases
        ]
        if min(basis_vals) < 1e-9 * scale:
            continue  # drifted to the cell boundary
        J = model.jacobian(sol.x) * sol.x[None, :]
        sv = np.linalg.svd(J, compute_uv=False)
        rank = int((sv > cutoff).sum())
        outcomes.append((d - rank, ssq, tuple(sv)))
        if len(outcomes) >= wanted:
            break
    if not outcomes:
        return CellDimResult(positroid, d, None, (), best_res, (), 0, True)
    dims = [o[0] for o in outcomes]
    counts = Counter(dims)
    top = max(counts.values())
    dim = min(v for v, c in counts.items() if c == top)
    chosen = next(o for o in outcomes if o[0] == dim)
    return CellDimResult(positroid, d, dim, tuple(dims), chosen[1],
                         chosen[2], len(outcomes), False)


def dims_report(k: int = 2, n: int = 6, tol: float = 1e-8,
                cutoff: float = 1e-4, seed: int = 0, starts: int = 32,
                retry_starts: int = 128, workers: int = 1) -> dict:
    """Dimension histogram over all orthopositroids of the given type.

    Cells that fail to converge at the base start count are re-run with
    retry_starts starts; remaining failures are reported, not hidden.  The
    sweep is sequential and each cell's starts are seeded by its index;
    workers is kept for callers that pass 1 and must be 1.
    """
    if workers != 1:
        raise InputError("the dimension sweep is sequential: workers must be 1")
    cells = sorted(enumerate_orthopositroids(k, n), key=lambda p: p.sort_key())
    results = []
    for idx, pos in enumerate(cells):
        res = cell_dim_in_ogr_numeric(pos, tol=tol, cutoff=cutoff,
                                      seed=seed + idx, starts=starts)
        if res.failed:
            res = cell_dim_in_ogr_numeric(pos, tol=tol, cutoff=cutoff,
                                          seed=seed + 100_000 + idx,
                                          starts=retry_starts)
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


# -- univariate exact polynomials for projective limits ---------------------

def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _ptrim(out)


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ptrim(out)


def _pneg(p):
    return [-c for c in p]


def poly_pluckers_2xn(rows) -> dict:
    """Minors of a 2 x n matrix whose entries are univariate polynomials
    (coefficient lists over Fraction)."""
    n = len(rows[0])
    out = {}
    for pair in ksubsets(n, 2):
        i, j = pair[0] - 1, pair[1] - 1
        out[pair] = _padd(
            _pmul(rows[0][i], rows[1][j]), _pneg(_pmul(rows[0][j], rows[1][i]))
        )
    return out


def _limit_at_zero(ppl) -> dict:
    return {I: (p[0] if p else Fraction(0)) for I, p in ppl.items()}


def _limit_at_infinity(ppl) -> dict:
    deg = max((len(p) - 1 for p in ppl.values() if p), default=0)
    return {I: (p[deg] if len(p) == deg + 1 else Fraction(0)) for I, p in ppl.items()}


def _const(v):
    return [Fraction(v)] if v != 0 else []


def _vec_eq_projective(u: dict, v: dict, k: int, n: int) -> bool:
    pu = PluckerVector(k, n, {I: c for I, c in u.items() if c})
    pv = PluckerVector(k, n, {I: c for I, c in v.items() if c})
    return pu.eq_projective(pv)


def gluing_check() -> dict:
    """Exact certificate that positroid cells do not glue into a CW complex.

    Verifies that the x -> 0 boundary family of the triangle cell lands in
    the open square cell as the diagonal joining two opposite vertices, and
    that the other two limits give the remaining triangle edges; the as-
    printed first edge fails nonnegativity (minor on columns 3,5 is -b).
    """
    n = 6
    bvals = [Fraction(1), Fraction(1, 2), Fraction(3, 2), Fraction(7, 5),
             Fraction(2, 3)]
    report = {}

    # x -> 0 limit of the triangle family equals the third edge, symbolically
    ok = True
    for y in bvals:
        rows = [
            [_const(1), _const(1), _const(0), _const(0), [Fraction(0), Fraction(-1)], [Fraction(0), Fraction(-1)]],
            [_const(0), _const(0), _const(1), _const(1), _const(y), _const(y)],
        ]  # variable is x
        limit = _limit_at_zero(poly_pluckers_2xn(rows))
        target = edge_e(3, y).plucker()
        ok = ok and _vec_eq_projective(limit, dict(target.coords), 2, n)
    report["x_limit_is_e3"] = ok

    # the third edge is literally a member of the square family
    ok = True
    for b in bvals:
        e3 = edge_e(3, b)
        tau = m_tau(1, b, b)
        ok = ok and e3.basis == tau.basis
    report["e3_in_square_family"] = ok

    # inside the OPEN square cell: matroid of e3(b) equals the square matroid
    tau_bases = frozenset(
        tuple(sorted((i, j))) for i in (1, 2) for j in (3, 4, 5, 6)
    )
    ok = True
    sym_rows = [
        [_const(1), _const(1), _const(0), _const(0), _const(0), _const(0)],
        [_const(0), _const(0), _const(1), _const(1), [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)]],
    ]  # variable is b
    ppl = poly_pluckers_2xn(sym_rows)
    for I, p in ppl.items():
        if I in tau_bases:
            ok = ok and bool(p) and all(c >= 0 for c in p) and any(c > 0 for c in p)
        else:
            ok = ok and not p
    report["e3_in_open_square_cell"] = ok

    # endpoints of the diagonal: opposite vertex cells of the square
    at0 = _limit_at_zero(ppl)
    atinf = _limit_at_infinity(ppl)
    sup0 = {x for I, c in at0.items() if c for x in I} - {1, 2}
    supinf = {x for I, c in atinf.items() if c for x in I} - {1, 2}
    report["diagonal_endpoints_opposite"] = (
        sup0 == {3, 4} and supinf == {5, 6} and not (sup0 & supinf)
    )

    # y -> 0 limit equals the sign-corrected first edge
    ok = True
    for x in bvals:
        rows = [
            [_const(1), _const(1), _const(0), _const(0), _const(-x), _const(-x)],
            [_const(0), _const(0), _const(1), _const(1), [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)]],
        ]  # variable is y
        limit = _limit_at_zero(poly_pluckers_2xn(rows))
        target = edge_e(1, x).plucker()
        ok = ok and _vec_eq_projective(limit, dict(target.coords), 2, n)
    report["y_limit_is_corrected_e1"] = ok

    # x, y -> infinity along x = b*s, y = s gives the second edge
    ok = True
    for b in bvals:
        rows = [
            [_const(1), _const(1), _const(0), _const(0), [Fraction(0), -b], [Fraction(0), -b]],
            [_const(0), _const(0), _const(1), _const(1), [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1)]],
        ]  # variable is s
        limit = _limit_at_infinity(poly_pluckers_2xn(rows))
        target = edge_e(2, b).plucker()
        ok = ok and _vec_eq_projective(limit, dict(target.coords), 2, n)
    report["xy_infinity_limit_is_e2"] = ok

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
