import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import ogrlab
from ogrlab import acceptance, cli, ideal_gens, limits, ogr1, orthopositroids, posets
from ogrlab.cli import main
from ogrlab.errors import InternalInvariantError
from ogrlab.forms_points import PluckerVector


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


def test_degree_command(capsys):
    code, payload = run_json(["degree", "--k", "2", "--n", "6"], capsys)
    assert code == 0
    assert payload["dim"] == 5 and payload["degree"] == 20
    assert len(payload["hilbert"]) == 6


def test_equations_counts(capsys):
    code, payload = run_json(
        ["equations", "--k", "2", "--n", "5", "--form", "standard"], capsys
    )
    assert code == 0
    assert payload["plucker_count"] == 5
    assert payload["orthogonality_count"] == 15


def test_orthopositroids_enumerate_count(capsys):
    code, payload = run_json(
        ["orthopositroids", "enumerate", "--k", "2", "--n", "6"], capsys
    )
    assert code == 0
    assert payload["count"] == 99
    assert all(rec["is_ortho"] for rec in payload["records"])


def test_orthopositroids_test_failure_detail(capsys):
    code, payload = run_json(
        ["orthopositroids", "test", "--k", "2", "--n", "5",
         "--bases", "12,14,25,45"],
        capsys,
    )
    assert code == 0
    assert payload["is_ortho"] is False
    assert payload["failures"]


def test_matchings_map(capsys):
    code, payload = run_json(["matchings", "map", "--k", "1"], capsys)
    assert code == 0
    assert payload["count"] == 3
    words = {tuple(rec["perm"]) for rec in payload["maps"]}
    assert words == {(2, 3, 1), (2, 1, 3), (1, 3, 2)}


def test_ogr1_sample(capsys):
    code, payload = run_json(
        ["ogr1", "sample", "--n", "5", "--A", "1,3", "--B", "2", "--params", "2"],
        capsys,
    )
    assert code == 0
    assert payload["point"]["coords"]["[1]"] == "3/5"
    assert payload["quadric_residual"] == "0"


def test_ogr1_sample_exits_1_off_the_quadric(monkeypatch, capsys):
    # a point off the quadric fails the check, as sample's and phi-map's do
    monkeypatch.setattr(ogr1, "parametrize_cell",
                        lambda cell, n, us, vs: PluckerVector(1, n, {(1,): Fraction(2)}))
    code, payload = run_json(["ogr1", "sample", "--n", "4", "--A", "1", "--B", "2"], capsys)
    assert code == 1 and payload["quadric_residual"] == "4"


def ogr1_sample_argv(n, A, B, params, params_b):
    return ["ogr1", "sample", "--n", str(n), "--A", ",".join(map(str, A)),
            "--B", ",".join(map(str, B)), f"--params={params}", f"--params-b={params_b}"]


ODDS_960, EVENS_960 = list(range(1, 961, 2)), list(range(2, 961, 2))
TWOS_479 = ",".join(["2"] * 479)

# parameter lists of total length limits.OGR1_PARAMS_MAX_SIZE, an exponent
# counted at its value: (n, A, B, --params, --params-b)
LARGEST_PARAMS = {
    "one integer": (4, [1, 3], [2], "9" * 2000, ""),
    "an exponent": (4, [1, 3], [2], "9e1994", ""),
    "a decimal": (4, [1, 3], [2], "1." + "9" * 1998, ""),
    "a ratio": (4, [1, 3], [2], "9" * 1000 + "/" + "7" * 999, ""),
    "both spheres": (8, [1, 3, 5, 7], [2, 4], ",".join(["9" * 333] * 3), "9" * 999),
    "958 parameters": (960, ODDS_960, EVENS_960, TWOS_479,
                       ",".join(["2"] * 478 + ["9" * 87])),
}


@pytest.mark.parametrize("name", sorted(LARGEST_PARAMS))
def test_ogr1_sample_prints_the_largest_parameter_lists(name, capsys):
    n, A, B, params, params_b = LARGEST_PARAMS[name]
    if "e" not in params:
        assert len(params) + len(params_b) == limits.OGR1_PARAMS_MAX_SIZE
    code, payload = run_json(ogr1_sample_argv(n, A, B, params, params_b), capsys)
    assert code == 0 and payload["quadric_residual"] == "0"
    # a parameter of L characters adds at most 2L digits to a coordinate
    digits = max(len(part) for value in payload["point"]["coords"].values()
                 for part in value.split("/"))
    assert digits <= 2 * limits.OGR1_PARAMS_MAX_SIZE


PAST_PARAMS = {
    "one integer": (4, [1, 3], [2], "9" * 2001, ""),
    "an exponent": (4, [1, 3], [2], "9e1995", ""),
    "1e5000": (4, [1, 3], [2, 4], "1e5000", "2"),
    "1e1000000": (4, [1, 3], [2, 4], "1e1000000", "2"),
    "1e10000000": (4, [1, 3], [2, 4], "1e10000000", "2"),
    "a long exponent": (4, [1, 3], [2], "1e" + "9" * 5000, ""),
    "nine ratios": (20, range(1, 21, 2), [2],
                    ",".join([f"{10 ** 301 - 1}/{10 ** 300 + 3}"] * 9), ""),
    "958 parameters": (960, ODDS_960, EVENS_960, TWOS_479,
                       ",".join(["2"] * 478 + ["9" * 88])),
}


@pytest.mark.parametrize("name", sorted(PAST_PARAMS))
def test_ogr1_sample_refuses_longer_parameter_lists_at_once(name, capsys):
    # each printed a coordinate past 4300 digits, or expanded for seconds first
    start = time.perf_counter()
    assert main(ogr1_sample_argv(*PAST_PARAMS[name])) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("input error: ogr1 sample takes parameter lists of length")


def test_ogr1_cells(capsys):
    code, payload = run_json(["ogr1", "cells", "--n", "4"], capsys)
    assert code == 0
    assert payload["count"] == 9
    assert payload["f_vector"] == [4, 4, 1]


def test_groebner_check_exit_code(capsys):
    code, payload = run_json(["groebner-check", "--k", "2", "--n", "5"], capsys)
    assert code == 0 and payload["ok"]


@pytest.mark.xfail(raises=InternalInvariantError, strict=True,
                   reason="at (4, 8) neither orientation of (2,4,5,6), (1,3,7,8) has a "
                          "universal leading term: exit 3")
def test_straighten_mu_at_4_8(capsys):
    # any other failure, a refusal (exit 2) among them, fails outright
    code, out = run_cli(["straighten", "--k", "4", "--n", "8", "--family", "mu"], capsys)
    if code == 3:
        raise InternalInvariantError(capsys.readouterr().err)
    assert code == 0
    assert json.loads(out)["count"] == len(posets.young_incomparable_pairs(4, 8))


def test_sample_roundtrip(capsys):
    code, payload = run_json(
        ["sample", "--k", "2", "--n", "6", "--seed", "3"], capsys
    )
    assert code == 0
    assert payload["residual_zero"] is True


def test_hodge_check_cli(capsys):
    code, payload = run_json(
        ["hodge-check", "--k", "2", "--n", "5", "--count", "5"], capsys
    )
    assert code == 0 and payload["failures"] == 0


def test_phi_map_cli(capsys):
    code, payload = run_json(["phi-map", "--k", "1", "--seed", "4"], capsys)
    assert code == 0 and payload["image_residual_zero"] is True


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_input_error_exit_2(capsys):
    code = main(["sample", "--k", "3", "--n", "5"])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_internal_error_exit_3(monkeypatch, capsys):
    def broken(args, out):
        raise InternalInvariantError("invariant broken")

    monkeypatch.setattr(cli, "_cmd_degree", broken)
    assert main(["degree", "--k", "2", "--n", "6"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: invariant broken\n"


def test_unexpected_exception_exit_3(monkeypatch, capsys):
    def broken(args, out):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "_cmd_degree", broken)
    assert main(["degree", "--k", "2", "--n", "6"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: TypeError: unsupported operand\n"


TOP_CELL_15_30 = ",".join(str((i + 14) % 30 + 1) for i in range(1, 31))


@pytest.mark.parametrize("command", [
    "orthopositroids enumerate --k 1 --n 12",
    "orthopositroids enumerate --k 1 --n 30",
    "orthopositroids test --k 15 --n 30 --perm " + TOP_CELL_15_30,
    "ogr1 canonical --n 3",
    "ogr1 cells --n 13",
    "ogr1 cells --n 30",
    "ogr1 sample --n 5 --A 1,3,5 --B 2,4 --params 1/0 --params-b 2",
    "ogr1 sample --n 5 --A 1,3,5 --B 2,4 --params 1,2,3 --params-b 2/0",
    "matchings map --k 6",
    "matchings map --k -1",
    "matchings map --k -2",
    "hodge-check --k 2 --n 5 --count -3",
    "hodge-check --k 2 --n 5 --count 10001",
    "orthopositroids dims --k 2 --n 9",
    "orthopositroids dims --k 2 --n 7",
    "orthopositroids dims --k 4 --n 8",
    "orthopositroids enumerate --k 2 --n 9 --dims",
    "straighten --k 3 --n 3",
    "straighten --k 2 --n 2",
    "straighten --k 1 --n 1",
    "straighten --k 3 --n 5",
    "straighten --k 3 --n 5 --family lambda",
    "straighten --k 0 --n 5",
    "straighten --k 6 --n 5 --family mu",
    "straighten --k -1 --n 5 --family mu",
    "straighten --k 5 --n 30",
    "groebner-check --k 5 --n 30",
    "groebner-check --k 5 --n 11",
    "groebner-check --k 0 --n 5",
    "equations --k 5 --n 30 --form standard",
    "equations --k 4 --n 11 --form standard",
    "equations --k 19 --n 21 --form standard",
    "degree --k -1 --n 5",
    "sample --k 6 --n 15 --form alternating",
    "sample --k 4 --n 26 --field gaussian",
    "sample --k 1 --n 166",
    "sample --k 1 --n 1000000000000",
    "sample --k 500000 --n 1000000",
    "phi-map --k 6",
    "hodge-check --k 10 --n 20 --count 1",
    "hodge-check --k 1 --n 300 --count 1",
    "hodge-check --k 500000 --n 1000000 --count 1",
    "hodge-check --k 3 --n 18 --count 10000",
    "hodge-check --k 3 --n 18 --count 209",
    "hodge-check --k 24 --n 24 --count 359",
    "hodge-check --k -1 --n 5 --count 1",
    "hodge-check --k 6 --n 5 --count 1",
    "equations --k 3 --n 1000000000000",
    "degree --k 14 --n 60",
    "degree --k 3 --n 200",
    "hilbert --k 1 --n 379",
    "degree --k 1 --n 2000",
    "degree --k 20 --n 100",
    "ogr1 canonical --n 951",
    "ogr1 canonical --n 1000",
    "ogr1 sample --n 961 --A 1 --B 2",
    "ogr1 sample --n 1000000000000 --A 1 --B 2",
    "ogr1 sample --n 5 --A 1,1 --B 2 --params 2",
    "ogr1 sample --n 5 --A 1,3 --B 2,2 --params 2 --params-b 3",
    "orthopositroids test --k 0 --n 71 --perm " + ",".join(map(str, range(1, 72))),
])
def test_refused_up_front(command, capsys):
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    "sample --k 6 --n 14 --form alternating",
    "sample --k 1 --n 25",
])
def test_sample_builds_points_past_hodge_checks_guard(command, capsys):
    # within sample's own cost bound, though hodge-check refuses the size
    assert main(command.split()) == 0
    assert json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command,size", [
    ("sample --k 6 --n 15", "(6, 15)"),
    ("sample --k 1 --n 1000000000000", "(1, 1000000000000)"),
    ("phi-map --k 6", "(7, 14)"),
])
def test_sample_refusal_names_its_bound(command, size, capsys):
    assert main(command.split()) == 2
    assert capsys.readouterr().err == (
        "input error: a sample point is built when its estimated cost, "
        "C(n, k)(k^3 + 20k) + n^3/3 + 5000 us, is at most 1500000 us; "
        f"got (k, n) = {size}\n")


# every subcommand that takes a size; phi-map and matchings map take k only
SIZED_COMMANDS = [
    "equations --k {k} --n {n} --form standard", "straighten --k {k} --n {n}",
    "straighten --k {k} --n {n} --family mu", "groebner-check --k {k} --n {n}",
    "degree --k {k} --n {n}", "hilbert --k {k} --n {n}", "sample --k {k} --n {n}",
    "sample --k {k} --n {n} --field gaussian --form standard",
    "hodge-check --k {k} --n {n} --count 1", "phi-map --k {n}", "matchings map --k {n}",
    "ogr1 cells --n {n}", "ogr1 sample --n {n} --A 1 --B 2", "ogr1 canonical --n {n}",
    "orthopositroids enumerate --k {k} --n {n}",
    "orthopositroids enumerate --k {k} --n {n} --dims", "orthopositroids dims --k {k} --n {n}",
    "orthopositroids test --k {k} --n {n} --perm 2,1",
    "orthopositroids test --k {k} --n {n} --bases 12",
]


# n past every rule's largest n (ogr1 sample's 960 is the largest), k
# anywhere in [0, n] or just outside it
HUGE_SIZES = st.integers(961, 10 ** 12).flatmap(lambda n: st.tuples(
    st.one_of(st.integers(-2, 3), st.integers(0, n), st.just(n // 2), st.just(n)), st.just(n)))


@pytest.mark.parametrize("command", SIZED_COMMANDS)
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(size=HUGE_SIZES)
@example(size=(500_000, 1_000_000))  # C(n, k) alone takes about 9 s here
@example(size=(3, 10 ** 12))
def test_huge_sizes_are_refused_at_once(command, size):
    k, n = size
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.format(k=k, n=n).split())
    assert time.perf_counter() - start < 1
    assert code == 2 and not out.getvalue()
    assert err.getvalue().startswith("input error:"), err.getvalue()


def _parsed(*args):
    raise AssertionError("the command parsed its flags before its size rule")


@pytest.mark.parametrize("command", [
    "equations --k 3 --n 1000000000000", "sample --k 3 --n 1000000000000",
    "ogr1 sample --n 1000000000000 --A 1 --B 2 --params 2",
])
def test_size_rule_precedes_parsing(command, capsys):
    # equations built its n-entry form first and ran past 45 s at this size
    with mock.patch.object(cli, "_parse_form", _parsed), \
            mock.patch.object(cli, "_parse_list", _parsed):
        assert main(command.split()) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_phi_map_refuses_k_0_as_the_isotropy_check_does(capsys):
    assert main(["phi-map", "--k", "0"]) == 2
    assert capsys.readouterr().err == "input error: need 1 <= k <= n\n"


@pytest.mark.parametrize("command,message", [
    ("sample --k 0 --n 3", "need 1 <= k <= n"),
    ("orthopositroids dims --k 0 --n 2",
     "the dimension sweep runs for 1 <= k <= n <= 2k + 2, n <= 10, with C(n, k) "
     "at most 35; got (k, n) = (0, 2)"),
])
def test_k_0_is_refused_by_its_bound(command, message, monkeypatch, capsys):
    monkeypatch.setattr(orthopositroids, "enumerate_orthopositroids", _sweep_started)
    assert main(command.split()) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_sample_and_phi_map_build_no_quadric(capsys):
    before = ideal_gens.orthogonality_relations.cache_info()
    for argv in ("sample --k 3 --n 7 --form standard --field gaussian --seed 1",
                 "sample --k 2 --n 5 --form signed:1,2", "phi-map --k 3 --seed 4"):
        assert main(argv.split()) == 0
    capsys.readouterr()
    after = ideal_gens.orthogonality_relations.cache_info()
    assert after.currsize == before.currsize and after == before  # not even a lookup


@pytest.mark.parametrize("flags,message", [
    ("--k 2 --n 7 --perm 2,1,4,3,5", "--perm has 5 entries; --n is 7"),
    ("--k 3 --n 5 --perm 2,1,4,3,5", "--perm has type 2; --k is 3"),
    ("--k 1 --n 3 --perm 1,2,3 --coloops 5", "coloop 5 is not a fixed point"),
    ("--k 2 --n 5 --bases 12,14,25,45 --perm 2,1,4,3,5", "not both"),
    ("--k 2 --n 5 --bases 12,14,25,45 --coloops 3", "--coloops decorates --perm"),
    ("--k 1 --n 12 --bases 10,11,12", "n <= 9; got n = 12"),
    ("--k 2 --n 5 --bases 12,14,25,45,9", "'9' is not 2 distinct digits in [1, 5]"),
    ("--k 2 --n 5 --bases 12,14,25,46", "'46' is not 2 distinct digits"),
    ("--k 2 --n 5 --bases 12,14,22", "'22' is not 2 distinct digits"),
    ("--k 2 --n 5 --bases 12,121", "'121' is not 2 distinct digits"),
    ("--k 2 --n 5 --bases 12,1x", "'1x' is not 2 distinct digits"),
    ("--k 2 --n 5 --bases 12,34", "bases have no Gale minimum; not a positroid"),
    ("--k 2 --n 5 --bases 13,24", "not a Grassmann necklace"),
])
def test_orthopositroids_test_refuses_what_it_cannot_read(flags, message, capsys):
    assert main(["orthopositroids", "test", *flags.split()]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and message in captured.err
    assert not captured.out


FORM_SPECS = ["standard", "alternating", "hyperbolic", "signed:1", "signed:2,5",
              "signed:", "signed:9", "elliptic"]


# (k, n) past the point guard of hodge-check: more than 924 k-subsets, or n
# above 24; sample's own bound admits the cheaper of them
PAST_POINT_GUARD = st.one_of(st.tuples(st.integers(5, 9), st.integers(14, 20)),
                             st.tuples(st.integers(-1, 3), st.integers(25, 40)))


@st.composite
def ortho_test_command(draw, n):
    """An orthopositroids test command line at n: a decorated word of n
    letters at its type k, or the bases of the uniform matroid of rank k on
    a set S (a positroid when |S| >= k >= 1); and now and then one fault: a
    word of n + 1 letters, k one off the word's type, a coloop past the
    word, one more token, or the word beside the bases."""
    perm = list(draw(st.permutations(range(1, max(n, 0) + 1))))
    fixed = [i for i, v in enumerate(perm, 1) if i == v]
    coloops = draw(st.lists(st.sampled_from(fixed), unique=True) if fixed else st.just([]))
    k = sum(v < i for i, v in enumerate(perm, 1)) + len(coloops)
    fault = draw(st.booleans()) and draw(
        st.sampled_from(["length", "type", "coloop", "token", "both"]))
    if fault == "length":
        perm.append(len(perm) + 1)
    if fault == "type":
        k += draw(st.sampled_from([-1, 1]))
    if fault == "coloop":
        coloops.append(len(perm) + 1)
    word = ["--perm", ",".join(map(str, perm)), "--coloops=" + ",".join(map(str, coloops))]
    if fault not in ("token", "both") and draw(st.booleans()):
        return ["orthopositroids", "test", "--k", str(k), "--n", str(n), *word]
    k = draw(st.integers(min(1, n), max(n, 1)))
    ground = draw(st.lists(st.integers(1, max(n, 1)), unique=True,
                           min_size=min(max(k, 0), max(n, 1))))
    tokens = ["".join(map(str, B)) for B in combinations(sorted(ground), max(k, 0))]
    if fault == "token":
        tokens.append(draw(st.text("0123456789", min_size=1, max_size=3)))
    return ["orthopositroids", "test", "--k", str(k), "--n", str(n),
            "--bases", ",".join(tokens), *(word if fault == "both" else [])]


@st.composite
def small_commands(draw):
    """One command line at a small (k, n), including sizes the command
    refuses (for sample, phi-map and hodge-check, sizes past the point
    guard), with any form spec."""
    k, n = draw(st.integers(-1, 7)), draw(st.integers(-1, 7))
    form = ["--form", draw(st.sampled_from(FORM_SPECS))]
    command = draw(st.sampled_from([
        "equations", "straighten", "groebner-check", "degree", "sample",
        "phi-map", "hodge-check", "orthopositroids test", "orthopositroids enumerate",
        "ogr1 cells", "ogr1 sample", "ogr1 canonical", "matchings map"]))
    if command in ("sample", "hodge-check") and draw(st.booleans()):
        k, n = draw(PAST_POINT_GUARD)
    size = ["--k", str(k), "--n", str(n)]
    if command == "straighten":
        return [command, *size, "--family", draw(st.sampled_from(["mu", "lambda", "both"]))]
    if command in ("equations", "sample"):
        field = ["--field", draw(st.sampled_from(["rational", "gaussian"]))]
        return [command, *size, *form] + (field if command == "sample" else [])
    if command == "phi-map":  # the image lives at (k, 2k + 1)
        k = draw(st.one_of(st.integers(-1, 3), st.integers(6, 12)))
        return [command, "--k", str(k)]
    if command == "hodge-check":
        return [command, *size, "--count", "3"]
    if command == "orthopositroids test":
        return draw(ortho_test_command(n))
    if command == "orthopositroids enumerate":  # n! permutations, so n <= 6
        n = min(n, 6)
        dims = ["--dims"] if n <= 3 and draw(st.booleans()) else []
        return ["orthopositroids", "enumerate", "--k", str(k), "--n", str(n), *dims]
    if command == "ogr1 sample":  # supports mostly of the right parity; --flag=value
        # keeps a value that starts with '-' from reading as a flag
        supports = [draw(st.lists(st.integers(-1, n + 1).map(parity), max_size=3, unique=True))
                    for parity in (lambda x: x | 1, lambda x: x & ~1)]
        params = [draw(st.lists(st.fractions(0, 4, max_denominator=4),
                                min_size=max(len(s) - 1, 0), max_size=len(s)))
                  for s in supports]
        return ["ogr1", "sample", "--n", str(n),
                *(f"--{flag}={','.join(map(str, v))}"
                  for flag, v in zip(("A", "B", "params", "params-b"), supports + params))]
    if command.startswith("ogr1"):
        return [*command.split(), "--n", str(n)]
    if command == "matchings map":
        return ["matchings", "map", "--k", str(min(k, 3))]
    return [command, *size]


def complete_or_refuse(argv):
    """Run one command line: it completes or is refused without a traceback,
    and an orthopositroids test that completes reports the positroid of its
    --k and --n."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if argv[:2] == ["orthopositroids", "test"] and code == 0:
        k, n = int(argv[3]), int(argv[5])
        positroid = json.loads(out.getvalue())["positroid"]
        assert len(positroid["perm"]) == n
        assert all(len(B) == k for B in positroid["bases"])


@settings(max_examples=240, deadline=None, derandomize=True, database=None)
@given(argv=small_commands())
def test_small_sizes_complete_or_are_refused(argv):
    complete_or_refuse(argv)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=st.integers(-1, 7).flatmap(ortho_test_command))
def test_orthopositroids_test_reports_its_size(argv):
    complete_or_refuse(argv)


# (k, n) past the guard of the numeric dimension sweep: k < 0, n > 2k + 2,
# or C(n, k) > 35
PAST_DIMS_GUARD = st.one_of(
    st.tuples(st.integers(-3, -1), st.integers(-1, 12)),
    st.integers(0, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(2 * k + 3, 30))),
    st.sampled_from([(3, 8), (4, 8), (4, 9), (4, 10), (5, 9), (5, 12), (6, 12)]),
)


# one flag value the sweep refuses: a negative seed ("--flag=value" keeps
# a negative value from reading as a flag)
BAD_DIMS_FLAG = st.integers(-10**6, -1).map(lambda seed: f"--seed={seed}")


@st.composite
def refused_dims_command(draw):
    """The sweep, alone or under enumerate, past its size guard or within
    it with one refused flag value."""
    command = draw(st.sampled_from([["dims"], ["enumerate", "--dims"]]))
    flags = ["--seed", str(draw(st.integers(0, 9)))]
    if draw(st.booleans()):
        k, n = draw(PAST_DIMS_GUARD)
    else:
        k, n = draw(st.sampled_from([(1, 3), (2, 4), (2, 6), (3, 6)]))
        flags.append(draw(BAD_DIMS_FLAG))
    return ["orthopositroids", *command, "--k", str(k), "--n", str(n), *flags]


def _sweep_started(*args, **kwargs):
    raise AssertionError("the sweep started work before refusing its input")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(argv=refused_dims_command())
def test_dims_past_its_guard_is_refused(argv):
    # a refusal comes before any work: enumeration or a cell solve fails
    # the example at once instead of running a sweep
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(orthopositroids, "enumerate_orthopositroids", _sweep_started), \
            mock.patch.object(orthopositroids, "cell_dim_in_ogr_numeric", _sweep_started):
        code = main(argv)
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("input error:"), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and not out.getvalue()


DIMS_COMMANDS = ["orthopositroids dims --k 2 --n 4",
                 "orthopositroids enumerate --k 2 --n 4 --dims"]


# the sweep's tolerance, cutoff and start counts are pinned constants, so
# these flags are gone; each value here once ran a sweep, and some reported
# wrong dimensions with "ok": true (--cutoff=10) or fell through to the
# retry starts (--starts below 1)
@pytest.mark.parametrize("flag", ["--cutoff=nan", "--cutoff=-1", "--cutoff=0",
                                  "--cutoff=inf", "--tol=nan", "--tol=-1", "--tol=0",
                                  "--tol=-inf", "--tol=1e-200", "--starts=0",
                                  "--starts=-3", "--cutoff=10", "--tol=1e-08",
                                  "--cutoff=0.0001", "--starts=32"])
@pytest.mark.parametrize("command", DIMS_COMMANDS)
def test_dims_flag_out_of_range_is_refused(command, flag, capsys):
    with mock.patch.object(orthopositroids, "enumerate_orthopositroids", _sweep_started), \
            mock.patch.object(orthopositroids, "cell_dim_in_ogr_numeric", _sweep_started):
        assert main([*command.split(), flag]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and not captured.out


# numpy's default_rng refused these deep in the sweep, as an internal error
@pytest.mark.parametrize("seed", ["-1", "-5"])
@pytest.mark.parametrize("command", DIMS_COMMANDS)
def test_negative_dims_seed_is_refused(command, seed, capsys):
    assert main([*command.split(), "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and not captured.out


def test_dims_runs_at_the_pinned_settings(capsys):
    # the smallest seed at the smallest size with a positive-dimensional cell
    code, payload = run_json(["orthopositroids", "dims", "--k", "2", "--n", "4",
                              "--seed", "0"], capsys)
    assert code == 0 and payload["histogram"] == {"1": 1, "0": 2}


def test_byte_determinism(capsys):
    args = ["sample", "--k", "2", "--n", "6", "--seed", "11"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_csv_format(capsys):
    code, out = run_cli(
        ["orthopositroids", "enumerate", "--k", "2", "--n", "5",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("perm;")
    assert len(lines) == 16  # header + 15 records


def test_csv_is_refused_before_any_work(monkeypatch, capsys):
    # only orthopositroids enumerate writes csv; elsewhere the parser
    # refuses it, so the check never starts
    def started(*args, **kwargs):
        raise AssertionError("hodge_failures ran")

    monkeypatch.setattr(cli, "hodge_failures", started)
    assert main(["hodge-check", "--k", "3", "--n", "7", "--format", "csv"]) == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


# sha256 of whole-command outputs; the sample and phi-map digests are those
# of the Fraction / GaussianRational kernel and matrix product that the
# integer-cleared ones replaced,
# the orthopositroids ones those of the per-pair a_sets loop and the
# sorted-rank Gale rule that the compiled bitmask tables replaced, the
# others those of the P Omega P^T residual that quadric evaluation replaced
OUTPUT_DIGESTS = {
    "sample --k 2 --n 6 --seed 0":
        "bd594b73c03a73eef5a92d32b50945bc12f7fb9e0dd2936e5577833f6b155818",
    "sample --k 2 --n 6 --seed 11":
        "f0c51a4ccebda8af405bf5e1d50bc03ce7dade0b216c2240977cf6ee6437559a",
    "sample --k 3 --n 7 --seed 4":
        "915760c75167e74cd24c6b90d8a267e038b61919186e7fdd4676867c976d58bf",
    "sample --k 2 --n 6 --form standard --field gaussian --seed 3":
        "606ae1a44844fc8ede1c276f0adb7a49aa6c632888dad36d7afc75753567675d",
    "sample --k 3 --n 7 --form standard --field gaussian --seed 7":
        "acaa08d7c914503e7d97b22219fa1266af4f18c3313a5064112c9d12305b1c6c",
    "sample --k 3 --n 6 --form hyperbolic --field gaussian --seed 2":
        "99773930a96bf649ffe059fe2f59e58a90904c904062c7f1a91cc4e9628eb08d",
    "sample --k 4 --n 9 --form signed:1,3 --field gaussian --seed 5":
        "170fed96c36b7107bff1742ea6b77f84d942e5e3989e34df364b3148d849fc73",
    "sample --k 4 --n 9 --form alternating --seed 5":
        "52d40b95f017c7852d1aec99df00127a34c0c3a019bc7e3583359ded5b45f96d",
    "sample --k 6 --n 12 --form alternating":
        "324a2030faef95da6bbd678b8e900401691f4618ead96e993a440a7501acf577",
    "phi-map --k 2 --seed 1":
        "e52c2fd47cecb341f1029a62b9a2e5d66b3529dc85e336f5d37409a50d7be2b5",
    "phi-map --k 3 --seed 2":
        "34cf1513860eb6578370c44b4cc9661ff1a3dd384c222b8522455b4420bdf3d1",
    "phi-map --k 3 --seed 9":
        "2c51898c4b05f01bc1b35ac446075e2ad7ecf55799a459d34f7e94d0d133a07c",
    "phi-map --k 5":
        "13d8409c38a89511a1a94a2b74368aaeb658b51b0331fba53038006f8c1a7bfd",
    "groebner-check --k 3 --n 7":
        "740b299b4277a1f03506e1865fe3ab5433e69a02c637431715007ce96d1b9145",
    "groebner-check --k 3 --n 8":
        "aacf72242dbe5f52598f7a2cea5ec41fa391eca101b74e227d1a2039a414d338",
    "groebner-check --k 3 --n 10":
        "58f3fa11f7fe919435a41528beb6b9bb77ab8ac07a7daa644fd3010db713e1a4",
    "straighten --k 3 --n 7":
        "b5f9ba063b21eaa2df3293e6ce82e640d56824b0259d7d417982ee34ce430b69",
    "straighten --k 2 --n 6 --family lambda":
        "7801fa5c131f800f1b0f1f68e408c4b4843cb8856b8bb0a4c696787d2aa16963",
    "straighten --k 3 --n 8":
        "f2eb96eb589ee3a0e7d0d8d62eb85bb98e91406e0caad71c3907463e36cc4b93",
    "straighten --k 3 --n 9 --family mu":
        "ac334c97ae82a1b98782eae5a73637f1bb8354658cf4e1a28711a386f3792469",
    "straighten --k 4 --n 8 --family lambda":
        "5fcfd2dcb61a091637ff0fc8f56535747b7dd5a816a15e2020c0f2e3b3bc7eaf",
    "equations --k 2 --n 5 --form standard":
        "a8e389549448e1aec4d3e14051b5844ee045e35e452b245feccbf9f20290023d",
    "equations --k 3 --n 7 --form standard":
        "4b58ecfb2520c9742106ba638e9d09f1d4fb77e81ebb30eda3a3b2abad5b7076",
    "equations --k 2 --n 6 --form hyperbolic":
        "0b3cb1f9a06b34c27e8b7a73cc3a3ea2c327bed355b658c1d76b3e10be1a2397",
    "ogr1 canonical --n 5":
        "4edbe96b06f2a90ff34f0f89ce16bdafbb4dc450506fc46374172369f15ae37a",
    "orthopositroids dims --k 2 --n 5":
        "043e6341817f525243d5335835040498b85d04c9ec3eb3e9d861e22bc3f7f00b",
    "orthopositroids dims --k 2 --n 6":
        "00492ede47dc3f5d2df1bae2ffadbfe007da69ab85546a7e09aa1b171a834969",
    "orthopositroids enumerate --k 2 --n 5 --dims":
        "dfa1a602cc37a44b52e80ea8801492636b31ca0298472a954944a21dff06d863",
    "orthopositroids enumerate --k 2 --n 6":
        "c03b50f9028e83039e4f391e0cc0e3ee717c2e6a461383c39d5191dc0e74b759",
    "orthopositroids enumerate --k 3 --n 6":
        "89ee95cab198d14be0ed1adb4232b8d3a71eafff91a6ff82814b193327c4c74f",
    "orthopositroids enumerate --k 3 --n 7 --format csv":
        "1fba8a52852205e4d3e54e3b08667de7c9c4d0aef3cae70a94ee2e384a15f0d2",
    "orthopositroids enumerate --k 1 --n 5":
        "80be53d5ff1d0ab7b1aaab80e4c319577e774fc74f028c8517418a01be22b067",
    "orthopositroids test --k 2 --n 5 --bases 12,14,25,45":
        "0f007c8c44d63571708edc6f7b4ddde8b0791194d5694bf9c0c91d473f2fe5e4",
    "orthopositroids test --k 2 --n 5 --bases 12,13,24,34":
        "3627e3f126405318986c0f4a20f1b248af2a6384d98171cdb68c35776ced3a4f",
    "orthopositroids test --k 2 --n 6 --perm 3,4,5,6,1,2":
        "906b1d3539aa77bf2c5f78253614d5e77cc95aceac5b76e16ea0bae19069ce27",
    "orthopositroids test --k 3 --n 7 --perm 4,1,6,5,7,2,3":
        "9d964268ce71bcacae98a3be6636efd77c6a4d17e461823fac3a7ce58f4d19ab",
}


def assert_output_unchanged(command, capsys):
    code, out = run_cli(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[command]


@pytest.mark.parametrize("flags", sorted(
    c.removeprefix("sample ") for c in OUTPUT_DIGESTS if c.startswith("sample ")))
def test_sample_output_unchanged(flags, capsys):
    assert_output_unchanged("sample " + flags, capsys)


@pytest.mark.parametrize("command", sorted(
    c for c in OUTPUT_DIGESTS if not c.startswith("sample ")))
def test_command_output_unchanged(command, capsys):
    assert_output_unchanged(command, capsys)


def test_closed_pipe_exits_quietly():
    src = Path(ogrlab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    # about 140 kB of output, more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "ogrlab.cli", "equations", "--k", "3", "--n", "7",
         "--form", "standard"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_python_dash_m_runs_the_cli():
    src = Path(ogrlab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ogrlab", "selftest", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ogrlab selftest")


@pytest.fixture
def two_criteria(monkeypatch):
    """Selftest over criteria 1 and 3 only, to keep the CLI tests short."""
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0] in (1, 3)])


def test_selftest_text_format(two_criteria, capsys):
    code, out = run_cli(["selftest"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[PASS] criterion  1 (orthopositroid count at (2,6))")
    assert lines[1].startswith("[PASS] criterion  3 ")


def test_selftest_json_format(two_criteria, capsys):
    code, out = run_cli(["selftest", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [c["number"] for c in payload["criteria"]] == [1, 3]
    assert all(c["passed"] is True for c in payload["criteria"])
    assert all(set(c) == {"number", "name", "passed", "detail"}
               for c in payload["criteria"])
    assert payload["criteria"][0]["name"] == "orthopositroid count at (2,6)"
    _, again = run_cli(["selftest", "--format", "json"], capsys)
    assert again == out


def test_selftest_rejects_unknown_format(capsys):
    assert main(["selftest", "--format", "csv"]) == 2


def test_fast_skips_only_the_numeric_sweep():
    slow = [number for number, _, _, is_slow in acceptance.CRITERIA if is_slow]
    assert slow == [2]
