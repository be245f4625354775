"""Batch command-line front end with machine-readable output.

Every subcommand prints one JSON document (or CSV/text where it makes
sense) and returns 0 on success, 1 on verification failure or when the
reader closes standard output early, 2 on bad input, 3 on an internal
error (a bug, not a verdict).  Output is deterministic for fixed flags and
seed.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import ideal_gens, ogr1, orthopositroids, parity_duality, weyl
from .errors import InputError, InternalInvariantError
from .exact_core import binom, fraction_str
from .forms_points import (
    QuadraticForm,
    hodge_failures,
    is_isotropic,
    sample_isotropic,
    sample_isotropic_component,
)
from fractions import Fraction


def _parse_form(spec: str, n: int) -> QuadraticForm:
    if spec == "standard":
        return QuadraticForm.standard(n)
    if spec == "alternating":
        return QuadraticForm.alternating(n)
    if spec == "hyperbolic":
        return QuadraticForm.hyperbolic(n)
    if spec.startswith("signed:"):
        flipped = _parse_list(spec.split(":", 1)[1])
        return QuadraticForm.signed_subset(flipped, n)
    raise InputError(f"unknown form {spec!r}")


_LIST_ITEMS = {int: "integers", Fraction: "rationals"}


def _parse_list(text: str, item=int) -> list:
    """The comma-separated entries of text as ints, or as Fractions."""
    try:
        return [item(x) for x in text.replace(" ", "").split(",") if x]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"expected comma-separated {_LIST_ITEMS[item]}, got {text!r}") from exc


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(payload, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")
    else:
        out.write(_as_text(payload))


def _as_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        return "".join(
            f"{pad}{key}:\n{_as_text(val, indent + 1)}"
            if isinstance(val, (dict, list))
            else f"{pad}{key}: {val}\n"
            for key, val in payload.items()
        )
    if isinstance(payload, list):
        return "".join(
            _as_text(item, indent) if isinstance(item, (dict, list))
            else f"{pad}- {item}\n"
            for item in payload
        )
    return f"{pad}{payload}\n"


def _poly_payload(poly) -> dict:
    return {"terms": poly.to_json(), "pretty": poly.pretty()}


# ---------------------------------------------------------------------------
# Subcommand handlers; each returns the process exit code
# ---------------------------------------------------------------------------

def _cmd_equations(args, out) -> int:
    form = _parse_form(args.form, args.n)
    plucker = ideal_gens.plucker_relations(args.k, args.n)
    orth = ideal_gens.orthogonality_relations(args.k, args.n, form)
    payload = {
        "k": args.k,
        "n": args.n,
        "form": form.label,
        "plucker_count": len(plucker),
        "orthogonality_count": len(orth),
        "plucker": [_poly_payload(q) for q in plucker],
        "orthogonality": [_poly_payload(q) for q in orth],
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_straighten(args, out) -> int:
    # the coYoung family first: it refuses n < 2k, before the Young one is built
    lams = (ideal_gens.all_straightening_lambda(args.k, args.n)
            if args.family in ("lambda", "both") else ())
    mus = (ideal_gens.all_straightening_mu(args.k, args.n)
           if args.family in ("mu", "both") else ())
    records = []
    for I, J, poly in mus:
        records.append({
            "family": "mu", "young": list(I), "young2": list(J),
            **_poly_payload(poly),
        })
    for I, Jp, poly in lams:
        records.append({
            "family": "lambda", "young": list(I), "coyoung": list(Jp),
            **_poly_payload(poly),
        })
    _emit({"k": args.k, "n": args.n, "count": len(records), "laws": records},
          args.format, out)
    return 0


def _cmd_groebner_check(args, out) -> int:
    report = ideal_gens.groebner_degree2_check(args.k, args.n)
    _emit(report, args.format, out)
    return 0 if report["ok"] else 1


def _cmd_degree(args, out) -> int:
    _emit(weyl.degree_report(args.k, args.n), args.format, out)
    return 0


def _cmd_ogr1_cells(args, out) -> int:
    cs = ogr1.cells(args.n)
    index = {c: i for i, c in enumerate(cs)}
    payload = {
        "n": args.n,
        "count": len(cs),
        "f_vector": ogr1.face_vector(args.n),
        "cells": [c.to_json() for c in cs],
        "hasse": sorted(
            [index[a], index[b]] for a, b in ogr1.hasse_edges(args.n)
        ),
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_ogr1_sample(args, out) -> int:
    cell = ogr1.make_cell(_parse_list(args.A), _parse_list(args.B), args.n)
    us = _parse_list(args.params, Fraction)
    vs = _parse_list(args.params_b, Fraction)
    point = ogr1.parametrize_cell(cell, args.n, us, vs)
    payload = {
        "cell": cell.to_json(),
        "point": point.to_json(),
        "quadric_residual": fraction_str(ogr1.quadric_residual(point)),
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_ogr1_canonical(args, out) -> int:
    checks = [ogr1.residue_check(args.n, i, seed=args.seed + i)
              for i in range(2, args.n + 1)]
    pts = ogr1.interior_points(args.n, args.seed)
    positive = all(ogr1.canonical_coeff(us) > 0 for us in pts)
    payload = {
        "n": args.n,
        "interior_positive": positive,
        "residues": [
            {"divisor": c["divisor"], "ok": c["ok"], "max_rel_err": c["max_rel_err"]}
            for c in checks
        ],
        "ok": positive and all(c["ok"] for c in checks),
    }
    _emit(payload, args.format, out)
    return 0 if payload["ok"] else 1


# hodge-check takes the C(n, k) minors of order n - k of the complement, and
# C(n, k - 1) caps k near n, where its count's cost fit runs low.  (6,12)
# has the most k-subsets, C(12, 6).
HODGE_MAX_SUBSETS = 924
HODGE_MAX_N = 24


def _require_hodge_scale(k: int, n: int) -> None:
    """Refuse, before the first minor, a (k, n) whose points hodge-check
    does not build.  n is tested first: C(n, k) of a huge n is slow itself."""
    if n > HODGE_MAX_N or max((binom(n, j) for j in (k - 1, k) if 0 <= j <= n),
                              default=0) > HODGE_MAX_SUBSETS:
        raise InputError(
            f"hodge-check builds points for n <= {HODGE_MAX_N} with C(n, k) and "
            f"C(n, k-1) at most {HODGE_MAX_SUBSETS}; got (k, n) = ({k}, {n})"
        )


# A sample point takes about C(n, k) (k^3 + 20 k) + n^3 / 3 + 5000 us: the
# maximal minors of the sampled matrix and of its cocircuit matrix in the
# isotropy check, then the n x n change of basis (fitted over 142 sizes per
# field on a 2-vCPU VM; above 0.3 s it reads 0.9 to 1.5 times the cost of
# the slower Gaussian field with the standard form).  phi-map's point is
# the sample at (k + 1, 2k + 2).  An admitted point takes at most about 1.5 s.
SAMPLE_MAX_COST = 1_500_000


def _require_sample_scale(k: int, n: int) -> None:
    """Refuse, before the first minor, a sample point whose estimated cost
    passes SAMPLE_MAX_COST.  A k outside [0, n] costs nothing here: the
    sampler refuses it."""
    cost = max(n, 0) ** 3 // 3 + 5000
    if 0 <= k <= n and cost <= SAMPLE_MAX_COST:  # C(n, k) of a huge n is slow itself
        cost += binom(n, k) * (k ** 3 + 20 * k)
    if cost > SAMPLE_MAX_COST:
        raise InputError(
            f"a sample point is built when its estimated cost, C(n, k)(k^3 + 20k) "
            f"+ n^3/3 + 5000 us, is at most {SAMPLE_MAX_COST} us; got (k, n) = ({k}, {n})"
        )


# A hodge-check point takes about C(n, k) (k^2 + (n - k)^2) + 8 k^3 + 300 us
# (fitted over 22 sizes, 2-vCPU VM: the maximal minors of the sampled matrix
# and of its complement, then fixed costs); a run stays near a minute.
HODGE_MAX_COUNT = 10_000
HODGE_MAX_COST = 40_000_000


def _hodge_max_count(k: int, n: int) -> int:
    cost = binom(n, k) * (k * k + (n - k) ** 2) + 8 * k ** 3 + 300
    return min(HODGE_MAX_COUNT, HODGE_MAX_COST // cost)


def _cmd_hodge_check(args, out) -> int:
    if not 0 <= args.k <= args.n:
        raise InputError("need 0 <= k <= n")
    _require_hodge_scale(args.k, args.n)
    limit = _hodge_max_count(args.k, args.n)
    if not 0 <= args.count <= limit:
        raise InputError(f"--count must lie in [0, {limit}] at ({args.k}, {args.n})")
    bad = hodge_failures(args.k, args.n, args.count, random.Random(args.seed))
    payload = {"k": args.k, "n": args.n, "count": args.count, "failures": bad,
               "ok": bad == 0}
    _emit(payload, args.format, out)
    return 0 if bad == 0 else 1


def _cmd_phi_map(args, out) -> int:
    _require_sample_scale(args.k + 1, 2 * args.k + 2)  # the sampled point
    q = sample_isotropic_component(args.k + 1, seed=args.seed).plucker()
    p = parity_duality.phi_map(q)
    payload = {
        "k": args.k,
        "input": q.to_json(),
        "image": p.to_json(),
        "image_residual_zero": is_isotropic(p, QuadraticForm.alternating(2 * args.k + 1)),
    }
    _emit(payload, args.format, out)
    return 0 if payload["image_residual_zero"] else 1


def _cmd_matchings_map(args, out) -> int:
    records = []
    for mt in parity_duality.all_matchings(2 * args.k + 2):
        word, plus = parity_duality.matching_to_permutation(mt, args.k)
        records.append({
            "matching": sorted([list(c) for c in mt]),
            "perm": list(word),
            "plus_fixed": sorted(plus),
        })
    records.sort(key=lambda r: r["matching"])
    _emit({"k": args.k, "count": len(records), "maps": records}, args.format, out)
    return 0


def _positroid_record(pos, dim=None) -> dict:
    rec = pos.to_json()
    rec["is_ortho"] = True
    if dim is not None:
        rec["dim"] = dim
    return rec


def _cmd_ortho_enumerate(args, out) -> int:
    dims = {}
    histogram = None
    if args.dims:  # first, so the sweep's size guard precedes enumeration
        rep = orthopositroids.dims_report(args.k, args.n, seed=args.seed)
        dims = {r.positroid.sort_key(): r.dim for r in rep["results"]}
        histogram = rep["histogram"]
    cells = sorted(orthopositroids.enumerate_orthopositroids(args.k, args.n),
                   key=lambda p: p.sort_key())
    records = [_positroid_record(p, dims.get(p.sort_key())) for p in cells]
    if args.format == "csv":
        out.write("perm;coloops;bases;is_ortho;dim\n")
        for rec in records:
            out.write(
                ",".join(map(str, rec["perm"])) + ";"
                + ",".join(map(str, rec["coloops"])) + ";"
                + "|".join("".join(map(str, b)) for b in rec["bases"]) + ";"
                + "true;" + str(rec.get("dim", "")) + "\n"
            )
        return 0
    payload = {"k": args.k, "n": args.n, "count": len(records), "records": records}
    if histogram is not None:
        payload["histogram"] = histogram
    _emit(payload, args.format, out)
    return 0


def _parse_bases(text: str, k: int, n: int) -> frozenset:
    """--bases tokens, each k distinct digits in [1, n]: one digit per
    element, so the syntax names elements up to 9 only."""
    if n > 9:
        raise InputError(f"--bases writes each element as one digit, so it takes "
                         f"n <= 9; got n = {n}")
    digits = set("123456789"[:max(n, 0)])
    bases = set()
    for token in filter(None, text.replace(" ", "").split(",")):
        if not len(token) == len(set(token) & digits) == k:
            raise InputError(f"--bases token {token!r} is not {k} distinct digits in [1, {n}]")
        bases.add(tuple(sorted(map(int, token))))
    return frozenset(bases)


def _cmd_ortho_test(args, out) -> int:
    if args.bases is not None and args.perm is not None:
        raise InputError("give --bases or --perm, not both")
    if args.coloops is not None and args.perm is None:
        raise InputError("--coloops decorates --perm; give it with --perm")
    if args.bases:
        bases = _parse_bases(args.bases, args.k, args.n)
        pos = orthopositroids.Positroid.from_bases(bases, args.k, args.n)
    elif args.perm:
        word = tuple(_parse_list(args.perm))
        if len(word) != args.n:
            raise InputError(f"--perm has {len(word)} entries; --n is {args.n}")
        coloops = frozenset(_parse_list(args.coloops or ""))
        dp = orthopositroids.DecoratedPermutation(word, coloops)
        if dp.type_k() != args.k:
            raise InputError(f"--perm has type {dp.type_k()}; --k is {args.k}")
        pos = orthopositroids.Positroid.from_dperm(dp)
    else:
        raise InputError("provide --bases or --perm")
    report = orthopositroids.is_orthopositroid(pos)
    payload = {
        "positroid": pos.to_json(),
        "is_ortho": report.verdict,
        "failures": [
            {"I": list(I), "J": list(J), "A_plus": list(ap), "A_minus": list(am)}
            for I, J, ap, am in report.failures
        ],
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_ortho_dims(args, out) -> int:
    rep = orthopositroids.dims_report(args.k, args.n, seed=args.seed)
    payload = {key: rep[key] for key in
               ("k", "n", "total", "resolved", "histogram", "failures")}
    payload["ok"] = rep["resolved"] == rep["total"]
    _emit(payload, args.format, out)
    return 0 if payload["ok"] else 1


def _cmd_sample(args, out) -> int:
    _require_sample_scale(args.k, args.n)
    form = _parse_form(args.form, args.n)
    sub = sample_isotropic(args.k, args.n, form, args.seed, field=args.field)
    p = sub.plucker()
    payload = {
        "k": args.k,
        "n": args.n,
        "form": form.label,
        "seed": args.seed,
        "basis": [[fraction_str(x) for x in sub.basis.row(i)]
                  for i in range(sub.k)],
        "plucker": p.to_json(),
        "residual_zero": is_isotropic(p, form),
    }
    _emit(payload, args.format, out)
    return 0 if payload["residual_zero"] else 1


def _cmd_selftest(args, out) -> int:
    from . import acceptance

    if args.format == "text":
        results = acceptance.run_all(fast=args.fast, stream=out)
    else:
        results = acceptance.run_all(fast=args.fast)
        _emit({"criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]}, args.format, out)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ogrlab",
        description="Exact computation with positive orthogonal Grassmannians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=True, n=True, form=False, seed=False, formats=("json", "text")):
        if k:
            p.add_argument("--k", type=int, required=True)
        if n:
            p.add_argument("--n", type=int, required=True)
        if form:
            p.add_argument("--form", default="alternating")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", default="json", choices=formats)

    p = sub.add_parser("equations", help="defining quadrics")
    common(p, form=True)
    p.set_defaults(func=_cmd_equations)

    p = sub.add_parser("straighten", help="straightening-law quadrics")
    common(p)
    p.add_argument("--family", default="both", choices=["mu", "lambda", "both"])
    p.set_defaults(func=_cmd_straighten)

    p = sub.add_parser("groebner-check", help="exact degree-2 verification")
    common(p)
    p.set_defaults(func=_cmd_groebner_check)

    for name in ("degree", "hilbert"):
        p = sub.add_parser(name, help="dimension, degree and Hilbert polynomial")
        common(p)
        p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("ogr1", help="line-case cell structure")
    og = p.add_subparsers(dest="subcommand", required=True)
    q = og.add_parser("cells")
    common(q, k=False)
    q.set_defaults(func=_cmd_ogr1_cells)
    q = og.add_parser("sample")
    common(q, k=False)
    q.add_argument("--A", required=True, help="odd support, comma separated")
    q.add_argument("--B", required=True, help="even support, comma separated")
    q.add_argument("--params", default="", help="rationals > 1 for the odd sphere")
    q.add_argument("--params-b", default="", help="rationals > 1 for the even sphere")
    q.set_defaults(func=_cmd_ogr1_sample)
    q = og.add_parser("canonical")
    common(q, k=False, seed=True)
    q.set_defaults(func=_cmd_ogr1_canonical)

    p = sub.add_parser("hodge-check", help="complement coordinates match complements")
    common(p, seed=True)
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=_cmd_hodge_check)

    p = sub.add_parser("phi-map", help="restrict an even-case sample to the odd case")
    common(p, n=False, seed=True)
    p.set_defaults(func=_cmd_phi_map)

    p = sub.add_parser("matchings", help="matching combinatorics")
    mm = p.add_subparsers(dest="subcommand", required=True)
    q = mm.add_parser("map")
    common(q, n=False)
    q.set_defaults(func=_cmd_matchings_map)

    p = sub.add_parser("orthopositroids", help="enumeration and dimensions")
    oo = p.add_subparsers(dest="subcommand", required=True)
    q = oo.add_parser("enumerate")
    common(q, seed=True, formats=("json", "csv", "text"))
    q.add_argument("--dims", action="store_true")
    q.set_defaults(func=_cmd_ortho_enumerate)
    q = oo.add_parser("test")
    common(q)
    q.add_argument("--bases", help="comma-separated index strings, e.g. 12,13,24,34")
    q.add_argument("--perm", help="one-line permutation, comma separated")
    q.add_argument("--coloops", help="minus-decorated fixed points")
    q.set_defaults(func=_cmd_ortho_test)
    q = oo.add_parser("dims")
    common(q, seed=True)
    q.set_defaults(func=_cmd_ortho_dims)

    p = sub.add_parser("sample", help="exact random isotropic subspace")
    common(p, form=True, seed=True)
    p.add_argument("--field", default="rational", choices=["rational", "gaussian"])
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--fast", action="store_true",
                   help="skip criterion 2, the slow numeric cell-dimension sweep")
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output; send what is still buffered
        # to devnull so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # any other exception is a bug too, not a failed verification
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
