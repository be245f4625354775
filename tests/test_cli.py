import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ogrlab
from ogrlab import acceptance, cli
from ogrlab.cli import main
from ogrlab.errors import InternalInvariantError


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


def test_ogr1_cells(capsys):
    code, payload = run_json(["ogr1", "cells", "--n", "4"], capsys)
    assert code == 0
    assert payload["count"] == 9
    assert payload["f_vector"] == [4, 4, 1]


def test_groebner_check_exit_code(capsys):
    code, payload = run_json(["groebner-check", "--k", "2", "--n", "5"], capsys)
    assert code == 0 and payload["ok"]


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


TOP_CELL_15_30 = ",".join(str((i + 14) % 30 + 1) for i in range(1, 31))


@pytest.mark.parametrize("command", [
    "orthopositroids enumerate --k 1 --n 12",
    "orthopositroids enumerate --k 1 --n 30",
    "orthopositroids test --k 15 --n 30 --perm " + TOP_CELL_15_30,
    "ogr1 canonical --n 3",
    "ogr1 cells --n 13",
    "ogr1 cells --n 30",
    "matchings map --k 6",
])
def test_refused_up_front(command, capsys):
    assert main(command.split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


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


# sha256 of whole-command outputs; the sample digests are those of the
# Fraction / GaussianRational kernel that the integer-cleared one replaced,
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
    "phi-map --k 2 --seed 1":
        "e52c2fd47cecb341f1029a62b9a2e5d66b3529dc85e336f5d37409a50d7be2b5",
    "phi-map --k 3 --seed 2":
        "34cf1513860eb6578370c44b4cc9661ff1a3dd384c222b8522455b4420bdf3d1",
    "groebner-check --k 3 --n 7":
        "740b299b4277a1f03506e1865fe3ab5433e69a02c637431715007ce96d1b9145",
    "groebner-check --k 3 --n 8":
        "aacf72242dbe5f52598f7a2cea5ec41fa391eca101b74e227d1a2039a414d338",
    "straighten --k 3 --n 7":
        "b5f9ba063b21eaa2df3293e6ce82e640d56824b0259d7d417982ee34ce430b69",
    "straighten --k 2 --n 6 --family lambda":
        "7801fa5c131f800f1b0f1f68e408c4b4843cb8856b8bb0a4c696787d2aa16963",
    "straighten --k 3 --n 8":
        "f2eb96eb589ee3a0e7d0d8d62eb85bb98e91406e0caad71c3907463e36cc4b93",
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
    "orthopositroids test --k 2 --n 5 --bases 12,14,25,45":
        "0f007c8c44d63571708edc6f7b4ddde8b0791194d5694bf9c0c91d473f2fe5e4",
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
