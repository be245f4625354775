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

from . import ideal_gens, limits, ogr1, orthopositroids, parity_duality, weyl
from .errors import InputError, InternalInvariantError
from .exact_core import fraction_str
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
    limits.require(limits.SPAN, args.k, args.n)
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
    limits.require(limits.OGR1_SAMPLE, 1, args.n)
    limits.require_params(args.params, args.params_b)
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
    return 0 if payload["quadric_residual"] == "0" else 1


def _cmd_ogr1_canonical(args, out) -> int:
    limits.require(limits.OGR1_CANONICAL, 1, args.n)
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


def _cmd_hodge_check(args, out) -> int:
    limits.require(limits.HODGE, args.k, args.n)
    limits.require_count(args.k, args.n, args.count)
    bad = hodge_failures(args.k, args.n, args.count, random.Random(args.seed))
    payload = {"k": args.k, "n": args.n, "count": args.count, "failures": bad,
               "ok": bad == 0}
    _emit(payload, args.format, out)
    return 0 if bad == 0 else 1


def _cmd_phi_map(args, out) -> int:
    limits.require(limits.SAMPLE, args.k + 1, 2 * args.k + 2)  # the sampled point
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
    limits.require(limits.POSITROID, args.k, args.n)
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
    limits.require(limits.SAMPLE, args.k, args.n)
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

    def command(parent, name, func, k=True, n=True, form=False, seed=False,
                formats=("json", "text"), **kwargs):
        p = parent.add_parser(name, **kwargs)
        if k:
            p.add_argument("--k", type=int, required=True)
        if n:
            p.add_argument("--n", type=int, required=True)
        if form:
            p.add_argument("--form", default="alternating")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", default="json", choices=formats)
        p.set_defaults(func=func)
        return p

    command(sub, "equations", _cmd_equations, form=True, help="defining quadrics")
    p = command(sub, "straighten", _cmd_straighten, help="straightening-law quadrics")
    p.add_argument("--family", default="both", choices=["mu", "lambda", "both"])
    command(sub, "groebner-check", _cmd_groebner_check, help="exact degree-2 verification")
    for name in ("degree", "hilbert"):
        command(sub, name, _cmd_degree, help="dimension, degree and Hilbert polynomial")

    p = sub.add_parser("ogr1", help="line-case cell structure")
    og = p.add_subparsers(dest="subcommand", required=True)
    command(og, "cells", _cmd_ogr1_cells, k=False)
    q = command(og, "sample", _cmd_ogr1_sample, k=False)
    q.add_argument("--A", required=True, help="odd support, comma separated")
    q.add_argument("--B", required=True, help="even support, comma separated")
    q.add_argument("--params", default="", help="rationals > 1 for the odd sphere")
    q.add_argument("--params-b", default="", help="rationals > 1 for the even sphere")
    command(og, "canonical", _cmd_ogr1_canonical, k=False, seed=True)

    p = command(sub, "hodge-check", _cmd_hodge_check, seed=True,
                help="complement coordinates match complements")
    p.add_argument("--count", type=int, default=100)
    command(sub, "phi-map", _cmd_phi_map, n=False, seed=True,
            help="restrict an even-case sample to the odd case")

    p = sub.add_parser("matchings", help="matching combinatorics")
    mm = p.add_subparsers(dest="subcommand", required=True)
    command(mm, "map", _cmd_matchings_map, n=False)

    p = sub.add_parser("orthopositroids", help="enumeration and dimensions")
    oo = p.add_subparsers(dest="subcommand", required=True)
    q = command(oo, "enumerate", _cmd_ortho_enumerate, seed=True, formats=("json", "csv", "text"))
    q.add_argument("--dims", action="store_true")
    q = command(oo, "test", _cmd_ortho_test)
    q.add_argument("--bases", help="comma-separated index strings, e.g. 12,13,24,34")
    q.add_argument("--perm", help="one-line permutation, comma separated")
    q.add_argument("--coloops", help="minus-decorated fixed points")
    command(oo, "dims", _cmd_ortho_dims, seed=True)

    p = command(sub, "sample", _cmd_sample, form=True, seed=True,
                help="exact random isotropic subspace")
    p.add_argument("--field", default="rational", choices=["rational", "gaussian"])

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
