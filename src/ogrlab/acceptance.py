"""Acceptance suite: one callable per criterion, shared by pytest and the
CLI selftest so there is a single source of truth for the gate.

Each criterion returns (passed, detail).  Exact checks use exact
arithmetic.  Criterion 2 runs the numeric dimension sweep at the SWEEP_*
constants of orthopositroids: tol 1e-8, singular-value cutoff 1e-4, 32
starts and 128 retry starts.  The canonical-form checks of criterion 12
use the ogr1 constants: relative tolerance 1e-6 at approach 1e-4 over 20
trials per residue, and 100 interior points.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from . import ideal_gens, ogr1, orthopositroids, parity_duality, posets, weyl
from .errors import EmptinessError, UnsupportedFormError
from .exact_core import GaussianRational, Mat, binom, ksubsets, subset_complement
from .forms_points import (
    PluckerVector,
    QuadraticForm,
    complementary_ratio_sign,
    hodge_failures,
    is_isotropic,
    is_totally_nonnegative,
    sample_isotropic,
    sample_isotropic_component,
)

EXPECTED_DIM_HISTOGRAM = {"5": 1, "4": 6, "3": 18, "2": 29, "1": 30, "0": 15}


def criterion_01_orthopositroid_count():
    t0 = time.monotonic()
    count = len(orthopositroids.enumerate_orthopositroids(2, 6))
    dt = time.monotonic() - t0
    ok = count == 99 and dt < 60
    return ok, f"count={count} (want 99), within the 60s budget: {dt < 60}"


def criterion_02_dimension_histogram():
    t0 = time.monotonic()
    rep = orthopositroids.dims_report(2, 6, seed=0)
    dt = time.monotonic() - t0
    ok = (
        rep["histogram"] == EXPECTED_DIM_HISTOGRAM
        and rep["resolved"] >= 95
        and rep["resolved"] == rep["total"] == 99
        and dt < 900
    )
    return ok, (f"histogram={rep['histogram']}, resolved={rep['resolved']}/99, "
                f"within the 900s budget: {dt < 900}")


def criterion_03_example_verdicts():
    m1 = frozenset([(1, 2), (1, 4), (2, 5), (4, 5)])
    m2 = frozenset([(1, 2), (1, 3), (2, 4), (3, 4)])
    r1 = orthopositroids.is_orthopositroid(orthopositroids.Positroid.from_bases(m1, 2, 5))
    r2 = orthopositroids.is_orthopositroid(orthopositroids.Positroid.from_bases(m2, 2, 5))
    ok = (not r1.verdict) and r2.verdict
    return ok, f"first family verdict={r1.verdict} (want False), second={r2.verdict} (want True)"


def criterion_04_degree2_dimensions():
    details = []
    ok = True
    for (k, n) in [(2, 6), (2, 5), (2, 7), (3, 7)]:
        std = posets.count_standard_monomials(k, n, 2)
        wd = weyl.weyl_dim(k, n, 2)
        pred = weyl.standard_monomial_prediction(k, n)
        span = ideal_gens._relation_span(k, n, QuadraticForm.standard(n))
        want_rank = binom(binom(n, k) + 1, 2) - std
        good = std == wd == pred and span.rank == want_rank
        ok = ok and good
        details.append(f"({k},{n}): std={std} weyl={wd} formula={pred} "
                       f"rank={span.rank}/{want_rank}")
    return ok, "; ".join(details)


def criterion_05_pair_count_and_bijection():
    ok = True
    details = []
    for k in range(2, 5):
        for n in range(2 * k, 11):
            brute = sum(posets.young_leq(I, subset_complement(Jp, n))
                        for I, Jp in posets.mixed_incomparable_pairs(k, n))
            formula = posets.count_mixed_pairs_formula(k, n)
            if brute != formula:
                ok = False
                details.append(f"({k},{n}): brute={brute} formula={formula}")
    details.append("counts 2<=k<=4, 2k<=n<=10 all match" if ok else "count mismatch")
    for (k, n) in [(2, 6), (3, 7)]:
        subs_small = ksubsets(n, k - 1)
        domain = [(S1, S2) for S1 in subs_small for S2 in subs_small
                  if posets.young_leq(S1, S2)]
        seen = set()
        for S1, S2 in domain:
            T = posets.pair_bijection_forward(S1, S2, n)
            back = posets.pair_bijection_inverse(*T, n)
            if back != (S1, S2):
                ok = False
            seen.add(T)
        subs = ksubsets(n, k)
        codomain = [
            (T1, T2) for T1 in subs for T2 in subs
            if posets.young_leq(T1, T2)
            and not posets.mixed_leq(subset_complement(T1, n), T2, k)
        ]
        if seen != set(codomain) or len(domain) != len(codomain):
            ok = False
        for T1, T2 in codomain:
            S = posets.pair_bijection_inverse(T1, T2, n)
            if posets.pair_bijection_forward(*S, n) != (T1, T2):
                ok = False
        details.append(f"({k},{n}): round-trip on {len(domain)} pairs both ways")
    return ok, "; ".join(details)


def criterion_06_groebner_checks():
    details = []
    ok = True
    for (k, n) in [(2, 5), (2, 6), (3, 7)]:
        rep = ideal_gens.groebner_degree2_check(k, n)
        ok = ok and rep["ok"]
        details.append(
            f"({k},{n}): lead={rep['leading_monomials_match']} "
            f"rank={rep['span_rank']}/{rep['expected_rank']} "
            f"orders={len(rep['term_orders'])}"
        )
    return ok, "; ".join(details)


def criterion_07_example_quadric():
    from fractions import Fraction

    f = ideal_gens.straightening_lambda((1, 2), (1, 3, 5, 6), 6)
    order = ideal_gens.TermOrder(2, 6)
    lead_ok = order.leading_monomial(f) == (((1, 2), (2, 4)))
    coeff_ok = f.terms.get(((1, 2), (2, 4))) == -1
    member = ideal_gens.degree2_membership(f, 2, 6)
    printed = ideal_gens.Polynomial(2, 6, {
        ((1, 2), (2, 4)): Fraction(-1),
        ((1, 3), (2, 4)): Fraction(-1),
        ((1, 5), (4, 5)): Fraction(1),
        ((1, 6), (4, 6)): Fraction(1),
    })
    printed_member = ideal_gens.degree2_membership(printed, 2, 6)
    ok = lead_ok and coeff_ok and bool(member) and not bool(printed_member)
    return ok, (f"leading term -p12*p24: {lead_ok and coeff_ok}; generated law in span: "
                f"{bool(member)}; printed variant in span: {bool(printed_member)} (want False)")


def criterion_08_degree_formula():
    ok = all(weyl.ogr_degree(1, n) == 2 for n in range(4, 13))
    details = [f"deg(1,n)=2 for 4<=n<=12: {ok}"]
    pairs = 0
    for k in range(1, 4):
        for n in range(2 * k + 1, 11):
            hp = weyl.hilbert_polynomial(k, n)
            D = len(hp) - 1
            lead = hp[-1] * math.factorial(D)
            if lead != weyl.ogr_degree(k, n):
                ok = False
                details.append(f"({k},{n}) leading-coefficient route disagrees")
            pairs += 1
    details.append(f"two routes agree on {pairs} (k,n) pairs")
    return ok, "; ".join(details)


def _vanishing_generators(k, n):
    gens = list(ideal_gens.plucker_relations(k, n))
    gens += ideal_gens.orthogonality_relations(k, n, QuadraticForm.standard(n))
    gens += [poly for _, _, poly in ideal_gens.all_straightening_mu(k, n)]
    gens += [poly for _, _, poly in ideal_gens.all_straightening_lambda(k, n)]
    return gens


def criterion_09_generator_vanishing():
    seeds = 100
    details = []
    ok = True
    for (k, n) in [(2, 5), (2, 6), (3, 7)]:
        gens = _vanishing_generators(k, n)
        std = QuadraticForm.standard(n)
        alt = QuadraticForm.alternating(n)
        alt_gens = ideal_gens.orthogonality_relations(k, n, alt)
        bad = 0
        for seed in range(seeds):
            p = sample_isotropic(k, n, std, seed, field="gaussian").plucker()
            bad += sum(1 for g in gens if g.evaluate(p) != 0)
            q = sample_isotropic(k, n, alt, seed).plucker()
            bad += sum(1 for g in alt_gens if g.evaluate(q) != 0)
            bad += sum(1 for g in ideal_gens.plucker_relations(k, n)
                       if g.evaluate(q) != 0)
        ok = ok and bad == 0
        details.append(f"({k},{n}): {len(gens)}+{len(alt_gens)} quadrics x {seeds} "
                       f"samples, nonzero evaluations: {bad}")
    return ok, "; ".join(details)


def criterion_10_hodge():
    count = 100
    ok = True
    details = []
    for (k, n) in [(2, 5), (2, 6), (3, 7)]:
        bad = hodge_failures(k, n, count, random.Random(10 * k + n))
        ok = ok and bad == 0
        details.append(f"({k},{n}): {count} subspaces, failures {bad}")
    return ok, "; ".join(details)


def criterion_11_line_case_combinatorics():
    from fractions import Fraction

    ok = True
    details = []
    for n in range(3, 11):
        p, q = (n + 1) // 2, n // 2
        cs = ogr1.cells(n)
        count_ok = len(cs) == (2 ** p - 1) * (2 ** q - 1)
        fvec_ok = ogr1.face_vector(n) == ogr1.simplex_product_f_vector(p, q)
        closure_ok = True
        cell_set = set(cs)
        for d in cs:
            closure = ogr1.closure_cells(d)
            if len(closure) != (2 ** len(d.A) - 1) * (2 ** len(d.B) - 1):
                closure_ok = False
            if not all(c in cell_set and ogr1.cell_leq(c, d) for c in closure):
                closure_ok = False
        below_ok = all(
            set(ogr1.closure_cells(d)) == {c for c in cs if ogr1.cell_leq(c, d)}
            for d in cs
        ) if n <= 8 else True
        ok = ok and count_ok and fvec_ok and closure_ok and below_ok
        if not (count_ok and fvec_ok and closure_ok and below_ok):
            details.append(f"n={n} FAILED")
    rng = random.Random(11)
    residual_ok = True
    for n in range(3, 9):
        population = ogr1.cells(n)
        for cell in rng.sample(population, min(5, len(population))):
            us = [Fraction(rng.randint(11, 40), 10) for _ in range(len(cell.A) - 1)]
            vs = [Fraction(rng.randint(11, 40), 10) for _ in range(len(cell.B) - 1)]
            pt = ogr1.parametrize_cell(cell, n, us, vs)
            if ogr1.quadric_residual(pt) != 0:
                residual_ok = False
            if pt.support() != frozenset((i,) for i in cell.A + cell.B):
                residual_ok = False
    ok = ok and residual_ok
    details.append(f"counts+f-vectors+closures for 3<=n<=10; exact cell points: {residual_ok}")
    return ok, "; ".join(details)


def criterion_12_canonical_form():
    ok = True
    details = []
    for n in (4, 5, 6):
        pts = ogr1.interior_points(n, seed=n)
        pos = all(ogr1.canonical_coeff(us) > 0 for us in pts)
        res = [ogr1.residue_check(n, i, seed=100 * n + i) for i in range(2, n + 1)]
        res_ok = all(r["ok"] for r in res)
        worst = max(r["max_rel_err"] for r in res)
        ok = ok and pos and res_ok
        details.append(f"n={n}: positivity {pos}, residues {res_ok} (worst {worst:.1e})")
    return ok, "; ".join(details)


def criterion_13_phi_samples():
    count = 20
    alt5 = QuadraticForm.alternating(5)
    plucker5 = ideal_gens.plucker_relations(2, 5)
    bad = 0
    for seed in range(count):
        q = sample_isotropic_component(3, seed=seed).plucker()
        p = parity_duality.phi_map(q)
        if not is_isotropic(p, alt5):
            bad += 1
        elif any(g.evaluate(p) != 0 for g in plucker5):
            bad += 1
        elif not parity_duality.phi_inverse(p).eq_projective(q):
            bad += 1
    # nonnegativity preservation on exact positive points, both directions
    from fractions import Fraction

    tnn5 = PluckerVector.from_matrix(Mat([
        [1, 1, 0, 0, 0],
        [0, 0, 1, Fraction(5, 4), Fraction(3, 4)],
    ]))
    tnn_ok = is_totally_nonnegative(tnn5)
    q6 = parity_duality.phi_inverse(tnn5)
    tnn_ok = tnn_ok and is_totally_nonnegative(q6)
    tnn_ok = tnn_ok and is_isotropic(q6, QuadraticForm.alternating(6))
    back = parity_duality.phi_map(q6)
    tnn_ok = tnn_ok and is_totally_nonnegative(back) and back.eq_projective(tnn5)
    ok = bad == 0 and tnn_ok
    return ok, (f"{count} even-case samples: relation/roundtrip failures {bad}; "
                f"nonnegativity preserved both ways: {tnn_ok}")


def criterion_14_matching_map():
    ok = True
    details = []
    for k in (1, 2, 3):
        rep = parity_duality.admissible_bijection_check(k)
        good = rep["injective"] and rep["routes_agree"]
        if k == 2:
            good = good and rep["image_size"] == 15
        ok = ok and good
        details.append(f"k={k}: image {rep['image_size']}/{rep['matchings']}, "
                       f"injective {rep['injective']}, routes agree {rep['routes_agree']}")
    tau = [(8, 16), (1, 11), (2, 13), (4, 15), (3, 7), (5, 6), (9, 10), (12, 14)]
    word, _ = parity_duality.matching_to_permutation(tau, 7)
    family = parity_duality.crossing_family(tau, 16)
    support = sorted(v for c in family for v in c if v != 16)
    exc = sum(1 for s in support if word[s - 1] > s)
    datum_ok = support == [1, 2, 4, 8, 11, 13, 15] and exc == 4
    moved = {i for i in range(1, 16) if word[i - 1] != i}
    datum_ok = datum_ok and set(support) <= moved
    ok = ok and datum_ok
    details.append(f"crossing-family datum: support {support}, excedances {exc}")
    return ok, "; ".join(details)


def criterion_15_gluing():
    rep = orthopositroids.gluing_check()
    flags = {key: val for key, val in rep.items() if isinstance(val, bool)}
    return rep["ok"], ", ".join(f"{key}={val}" for key, val in flags.items())


def criterion_16_emptiness_and_ratios():
    ok = True
    details = []
    for (k, n) in [(2, 3), (3, 5), (4, 7)]:
        try:
            sample_isotropic(k, n, QuadraticForm.alternating(n), 0)
            ok = False
            details.append(f"({k},{n}) did not raise")
        except EmptinessError:
            pass
    details.append("emptiness raised for n < 2k")
    try:
        sample_isotropic(2, 4, QuadraticForm.from_diagonal([1, -1, -1, -1]), 0)
        ok = False
        details.append("Lorentzian form not rejected")
    except UnsupportedFormError:
        details.append("non-split real form rejected")
    for k in (2, 3):
        n = 2 * k
        odds = tuple(range(1, n + 1, 2))
        evens = tuple(range(2, n + 1, 2))
        odd_sum_subset = (1,) if k % 2 == 0 else (1, 2)
        for S, field in [(evens, "rational"), (odd_sum_subset, "gaussian")]:
            form = QuadraticForm.signed_subset(S, n)
            expected = complementary_ratio_sign(k, S)
            seen = None
            for seed in range(40):
                pl = sample_isotropic(k, n, form, seed, field=field).plucker()
                a, b = pl.get(odds), pl.get(evens)
                if a == 0 or b == 0:
                    continue
                ratio = a / b
                seen = ratio * ratio
                break
            if seen is None:
                ok = False
                details.append(f"k={k} |S|={len(S)}: no usable sample")
                continue
            want = 1 if expected == 1 else -1
            match = seen == want or seen == GaussianRational(want)
            ok = ok and match
            details.append(f"k={k} |S|={len(S)}: ratio^2={seen} want {want}")
    return ok, "; ".join(details)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


CRITERIA = [
    (1, "orthopositroid count at (2,6)", criterion_01_orthopositroid_count, False),
    (2, "cell-dimension histogram", criterion_02_dimension_histogram, True),
    (3, "worked-example verdicts", criterion_03_example_verdicts, False),
    (4, "degree-2 dimension triple", criterion_04_degree2_dimensions, False),
    (5, "mixed-pair count and bijection", criterion_05_pair_count_and_bijection, False),
    (6, "degree-2 basis checks", criterion_06_groebner_checks, False),
    (7, "worked-example straightening law", criterion_07_example_quadric, False),
    (8, "degree formula routes", criterion_08_degree_formula, False),
    (9, "generator vanishing on samples", criterion_09_generator_vanishing, False),
    (10, "complement coordinate identity", criterion_10_hodge, False),
    (11, "line-case cell combinatorics", criterion_11_line_case_combinatorics, False),
    (12, "canonical form positivity and residues", criterion_12_canonical_form, False),
    (13, "odd/even restriction map", criterion_13_phi_samples, False),
    (14, "matching map bijection", criterion_14_matching_map, False),
    (15, "gluing counterexample", criterion_15_gluing, False),
    (16, "emptiness and ratio signs", criterion_16_emptiness_and_ratios, False),
]


def run_all(fast: bool = False, stream=None) -> list[CriterionResult]:
    """Run the acceptance criteria, printing one pass/fail line per criterion."""
    results = []
    for number, name, func, slow in CRITERIA:
        if fast and slow:
            continue
        t0 = time.monotonic()
        try:
            passed, detail = func()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.monotonic() - t0
        results.append(CriterionResult(number, name, passed, detail, dt))
        if stream is not None:
            status = "PASS" if passed else "FAIL"
            stream.write(f"[{status}] criterion {number:2d} ({name}) "
                         f"[{dt:.1f}s]: {detail}\n")
    return results
