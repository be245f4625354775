"""Size bounds: which (k, n) each command and library entry point builds.

`require` compares n with a rule's largest n, a plain integer compare, before
it evaluates the rule's count or cost fit, so no fit sees a huge n; a refusal
names the bound and ends in the (k, n) given, with k = 1 for ogr1 and m / 2 for
matchings on [m].  Entry points check once, where they build, never per item.
Costs are in microseconds, fitted on a 2-vCPU VM (Python 3.11).
"""
from __future__ import annotations

from contextlib import suppress
from typing import Callable, NamedTuple

from .errors import InputError
from .exact_core import binom


class Rule(NamedTuple):
    bound: str  # what is admitted, as a refusal states it
    max_n: int
    fits: Callable[[int, int], bool] = lambda k, n: True  # read only at n <= max_n


def require(rule: Rule, k: int, n: int) -> None:
    """Refuse, before any work, a (k, n) past rule: n first, then the fit."""
    if n > rule.max_n or not rule.fits(k, n):
        raise InputError(f"{rule.bound}; got (k, n) = ({k}, {n})")


def _subsets(k: int, n: int) -> int:
    """The larger of C(n, k) and C(n, k - 1); at least n for 1 <= k <= n."""
    return max((binom(n, j) for j in (k - 1, k) if 0 <= j <= n), default=0)


# The degree-2 layer holds C(n, k)(C(n, k) + 1)/2 monomials and builds
# C(n, k - 1)^2 / 2 orthogonality quadrics; both counts stay below about
# 22,000 when C(n, k) and C(n, k - 1) are at most 210, as at (4, 10).  The
# cap bounds n itself, through C(n, 1) = n and C(n, n - 1) = n.
SPAN_MAX_SUBSETS = 210
SPAN = Rule(f"the degree-2 quadrics are built for 1 <= k <= n with C(n, k) and C(n, k-1) "
            f"at most {SPAN_MAX_SUBSETS}", SPAN_MAX_SUBSETS,
            lambda k, n: 1 <= k <= n and _subsets(k, n) <= SPAN_MAX_SUBSETS)

# hodge-check takes the C(n, k) minors of order n - k of the complement, and
# C(n, k - 1) caps k near n, where its count's cost fit runs low.  (6,12)
# has the most k-subsets, C(12, 6).
HODGE_MAX_SUBSETS = 924
HODGE_MAX_N = 24
HODGE = Rule(f"hodge-check builds points for 0 <= k <= n <= {HODGE_MAX_N} with C(n, k) and "
             f"C(n, k-1) at most {HODGE_MAX_SUBSETS}", HODGE_MAX_N,
             lambda k, n: 0 <= k <= n and _subsets(k, n) <= HODGE_MAX_SUBSETS)

# A hodge-check point takes about C(n, k) (k^2 + (n - k)^2) + 8 k^3 + 300 us
# (fitted over 22 sizes: the maximal minors of the sampled matrix and of its
# complement, then fixed costs); a run stays near a minute.
HODGE_MAX_COUNT = 10_000
HODGE_MAX_COST = 40_000_000


def require_count(k: int, n: int, count: int) -> None:
    """Refuse a --count past hodge-check's run budget at a (k, n) HODGE admits."""
    limit = min(HODGE_MAX_COUNT, HODGE_MAX_COST // (
        binom(n, k) * (k * k + (n - k) ** 2) + 8 * k ** 3 + 300))
    if not 0 <= count <= limit:
        raise InputError(f"--count must lie in [0, {limit}] at ({k}, {n})")


# A sample point takes about C(n, k) (k^3 + 20 k) + n^3 / 3 + 5000 us: the
# maximal minors of the sampled matrix and of its cocircuit matrix in the
# isotropy check, then the n x n change of basis (fitted over 142 sizes per
# field; above 0.3 s it reads 0.9 to 1.5 times the cost of the slower
# Gaussian field with the standard form).  phi-map's point is the sample at
# (k + 1, 2k + 2).  An admitted point takes at most about 1.5 s.  A k
# outside [0, n] costs nothing here: the sampler refuses it.
SAMPLE_MAX_COST = 1_500_000


def _sample_cost(k: int, n: int) -> int:
    return max(n, 0) ** 3 // 3 + 5000 + (binom(n, k) * (k ** 3 + 20 * k) if 0 <= k <= n else 0)


SAMPLE = Rule(f"a sample point is built when its estimated cost, C(n, k)(k^3 + 20k) + "
              f"n^3/3 + 5000 us, is at most {SAMPLE_MAX_COST} us",
              next(n for n in range(1000) if _sample_cost(-1, n + 1) > SAMPLE_MAX_COST),
              lambda k, n: _sample_cost(k, n) <= SAMPLE_MAX_COST)

# degree and hilbert expand the Hilbert polynomial, a product of D linear
# factors, D = k(n - k) - k(k + 1)/2, in Fractions that grow with D and log n,
# over the m(m - 1) or m^2 positive roots of SO(n), m = n // 2: about
# D^3 b / 450 + 3 D^2 + m^2 / 4 us with b the bit length of n (fitted over 93
# sizes with n <= 2000; above 0.3 s it reads 0.79 to 1.37 times the CPU time).
# An admitted size takes about 1.5 s at most (1.9 s where it reads low); k = 1 bounds n.
DEGREE_MAX_COST = 1_500_000


def _degree_cost(k: int, n: int) -> int:
    D = max(k * (n - k) - k * (k + 1) // 2, 0)
    return D ** 3 * n.bit_length() // 450 + 3 * D * D + (n // 2) ** 2 // 4


DEGREE = Rule(f"degree and hilbert run when the estimated cost, D^3 b/450 + 3D^2 + "
              f"(n//2)^2/4 us with D = k(n-k) - k(k+1)/2 and b the bit length of n, "
              f"is at most {DEGREE_MAX_COST} us",
              next(n for n in range(1000) if _degree_cost(1, n + 1) > DEGREE_MAX_COST),
              lambda k, n: _degree_cost(k, n) <= DEGREE_MAX_COST)

# Oh's rule ANDs bitmasks over the C(n, k) colex ranks and the pair table
# grows like C(n, k - 1)^2.  C(n, k) <= 70 bounds n only for 0 < k < n, so
# n <= 70 holds k in {0, n} too, where the Gale up-sets take O(n^2).
# Enumeration scans all n! permutations.
POSITROID_MAX_SUBSETS = 70
POSITROID_MAX_N = 70
ENUMERATION_MAX_N = 10
POSITROID = Rule(f"positroids are built for n <= {POSITROID_MAX_N} with C(n, k) at most "
                 f"{POSITROID_MAX_SUBSETS}", POSITROID_MAX_N,
                 lambda k, n: not 0 <= k <= n or binom(n, k) <= POSITROID_MAX_SUBSETS)
ENUMERATION = Rule(f"positroids are enumerated for n <= {ENUMERATION_MAX_N} with C(n, k) at "
                   f"most {POSITROID_MAX_SUBSETS}", ENUMERATION_MAX_N, POSITROID.fits)

# The numeric dimension sweep: (3,7), the largest size with cells ((4,7)
# has none), sweeps its 105 cells in 1.13 to 1.16 s of CPU time (three runs,
# one BLAS thread).  It enumerates first, so n <= 10 holds k = n too.
SWEEP_MAX_SUBSETS = 35
SWEEP = Rule(f"the dimension sweep runs for 1 <= k <= n <= 2k + 2, n <= {ENUMERATION_MAX_N}, "
             f"with C(n, k) at most {SWEEP_MAX_SUBSETS}", ENUMERATION_MAX_N,
             lambda k, n: 1 <= k <= n <= 2 * k + 2 and binom(n, k) <= SWEEP_MAX_SUBSETS)

# Listings: (2^p - 1)(2^q - 1) ogr1 cells, 3,969 at n = 12; (m - 1)!! matchings
# on [m], 10,395 at m = 12 (135,135 at m = 14), mapped twice by the bijection check.
OGR1_CELLS = Rule("ogr1 cells are listed for n <= 12 (3969 of them)", 12)
MATCHINGS = Rule("matchings on [n] are listed for n <= 12 (10395 of them)", 12)
BIJECTION = Rule("the exhaustive bijection check runs for n <= 8", 8)

# ogr1 canonical passes at seeds 0 to 4 at n = 400, 600, 800, 900 and 950, with
# max_rel_err at most 5.5e-11 (2.3e-11 at n = 950, about 12 s).  From n = 959 the
# chart product u_2 ... u_n underflows into subnormal floats: at most n from 981
# a residue misses RESIDUE_REL_TOL at one of those seeds, from 995 some divide by 0.
OGR1_CANONICAL = Rule("ogr1 canonical runs for n <= 950", 950)

# ogr1 sample builds the n x n alternating form of its one quadric, about
# 1.6 n^2 us (n = 600 to 1500), so n <= 960 keeps a point within 1.5 s.
OGR1_SAMPLE = Rule("ogr1 sample builds points for n <= 960", 960)

# Its point's coordinates are products of (u^2 - 1)/(u^2 + 1) and 2u/(u^2 + 1)
# over the parameters u: one of L characters adds at most 2L digits to a
# coordinate's numerator and denominator; Python prints no integer past 4300 digits.
OGR1_PARAMS_MAX_SIZE = 2000


def require_params(*texts: str) -> None:
    """Refuse, before Fraction expands them, parameter lists past OGR1_PARAMS_MAX_SIZE
    in length with each exponent counted at its value (1e5000 has 5001 digits)."""
    size = sum(map(len, texts))
    for token in ",".join(texts).lower().split(",") if size <= OGR1_PARAMS_MAX_SIZE else ():
        with suppress(ValueError):  # no integer exponent: Fraction refuses the token
            size += abs(int(token.partition("e")[2] or 0))
    if size > OGR1_PARAMS_MAX_SIZE:
        raise InputError(f"ogr1 sample takes parameter lists of length at most "
                         f"{OGR1_PARAMS_MAX_SIZE}, an exponent counted at its value; got {size}")
