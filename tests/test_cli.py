"""CLI surface: subcommands, exit codes, machine formats."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sosforms import cli
from sosforms.chow import MAX_TABLE_DIM
from sosforms.cli import build_parser, main
from sosforms.formulas import SosFormula, construct_classical, construct_hurwitz_radon
from sosforms.rings import GaussianExt, PrimeField, QQ, ZZ, gaussian_ext
from test_formulas import rotate_gaussian
from test_poly import householder_dense

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def gauss_file(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(construct_classical("two").to_json())
    return str(path)


def test_hopf_inadmissible_exit_one(capsys):
    assert main(["hopf", "3", "3", "3"]) == 1
    out = capsys.readouterr().out
    assert "inadmissible" in out and "C(3,1) odd" in out


def test_hopf_admissible_exit_zero(capsys):
    assert main(["hopf", "4", "4", "4"]) == 0
    assert "admissible" in capsys.readouterr().out


def test_hopf_json_round_trip(capsys):
    assert main(["hopf", "3", "3", "3", "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data == {"r": 3, "s": 3, "n": 3, "admissible": False, "witness": 1}


def test_verify_gauss(capsys, gauss_file):
    assert main(["verify", gauss_file]) == 0
    assert "verified [2,2,2] over Z" in capsys.readouterr().out


def test_verify_broken_formula_exit_one(tmp_path, capsys):
    f = construct_classical("two")
    data = f.to_json_dict()
    data["tensor"][0][1][1] = 1
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 1
    assert "NOT verified" in capsys.readouterr().out


def test_verify_corrupted_hurwitz_radon_names_gram_witness(tmp_path, capsys):
    f = construct_hurwitz_radon(8)
    data = f.to_json_dict()
    data["tensor"][5][3][2] += 1
    broken = SosFormula.from_json_dict(data)
    witness = broken.gram_defect()
    assert witness is not None
    path = tmp_path / "broken_hr8.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "r": 8, "s": 8, "n": 8, "field": "Z",
        "verified": False, "by_expansion": False, "by_hurwitz": False,
    }
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Expansion defect at ")
    assert "(a, b, j, k) = ({}, {}, {}, {})".format(*witness) in lines[1]
    # a formula that holds prints nothing on stderr
    path.write_text(f.to_json())
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "k, i, j, line",
    [
        # T[0][0][0] = 1 -> 2: the defect is 3*x0^2*y0^2 + ...
        (0, 0, 0, "Expansion defect at x0^2*y0^2: coefficient 3 in "),
        # T[5][3][2] = 0 -> 1: the defect is 2*x3*y2*z5 + x3^2*y2^2, and z5
        # starts with x0*y5, so the square is not the first monomial
        (5, 3, 2, "Expansion defect at x0*x3*y2*y5: coefficient 2 in "),
    ],
)
def test_verify_corrupted_hurwitz_radon_names_expansion_witness(tmp_path, capsys, k, i, j, line):
    data = construct_hurwitz_radon(16).to_json_dict()
    data["tensor"][k][i][j] += 1
    path = tmp_path / "broken_hr16.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "r": 9, "s": 16, "n": 16, "field": "Z",
        "verified": False, "by_expansion": False, "by_hurwitz": False,
    }
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(line)
    assert lines[1].startswith("Gram defect at ")


def test_verify_expands_a_failed_formula_once(tmp_path, capsys, monkeypatch):
    data = construct_hurwitz_radon(8).to_json_dict()
    data["tensor"][0][0][0] += 1
    path = tmp_path / "broken_hr8.json"
    path.write_text(json.dumps(data))
    calls = []
    for name in ("expansion_defect", "gram_defect"):
        original = getattr(SosFormula, name)
        monkeypatch.setattr(SosFormula, name, lambda self, f=original, name=name: calls.append(name) or f(self))
    assert main(["verify", str(path)]) == 1
    assert calls == ["expansion_defect", "gram_defect"]  # each verifier runs once
    assert "NOT verified [8,8,8] over Z" in capsys.readouterr().out


def test_verify_malformed_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "field, entry", [({"kind": "Q"}, "1/0"), ({"kind": "Qi"}, "1/0"), ({"kind": "Qi"}, ["0", "1/0"])]
)
def test_verify_zero_denominator_exit_two(tmp_path, capsys, field, entry):
    path = tmp_path / "zero_denominator.json"
    path.write_text(json.dumps({"field": field, "r": 1, "s": 1, "n": 1, "tensor": [[[entry]]]}))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load formula")


@pytest.mark.parametrize(
    "field, r",
    [
        ({"kind": "Z"}, 1.0),
        ({"kind": "Z"}, True),
        ({"kind": "Zii"}, 1),
        ({"kind": "Qiii"}, 1),
        ({"kind": "GFii", "p": 3}, 1),
    ],
)
def test_verify_bad_dimension_or_field_exit_two(tmp_path, capsys, field, r):
    path = tmp_path / "bad_header.json"
    path.write_text(json.dumps({"field": field, "r": r, "s": 1, "n": 1, "tensor": [[[1]]]}))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load formula")


@pytest.mark.parametrize(
    "r, s, n, tensor",
    [
        (2, 2, 2, [[[1, 0], [0, -1]]]),  # one slice of two
        (2, 2, 2, [[[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 0], [0, 0]]]),  # three slices of two
        (2, 2, 2, [[[1, 0], [0]], [[0, 1], [1, 0]]]),  # a ragged row
        (2, 2, 2, [[[1, 0]], [[0, 1]]]),  # slices of one row, r = 2 declared
        (1, 3, 2, [[[1, 0]], [[0, 1]]]),  # rows of two entries, s = 3 declared
        (3, 2, 2, [[[1, 0], [0, -1]], [[0, 1], [1, 0]]]),  # two rows per slice, r = 3 declared
        (True, 2, 2, [[[1, 0], [0, -1]], [[0, 1], [1, 0]]]),  # a bool r
    ],
)
def test_verify_malformed_tensor_exit_two(tmp_path, capsys, r, s, n, tensor):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"field": {"kind": "Z"}, "r": r, "s": s, "n": n, "tensor": tensor}))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load formula")


@pytest.mark.parametrize(
    "field, zero, one, minus_one",
    [({"kind": "Q"}, "0/7", "7/7", "-1"), ({"kind": "Zi"}, [0, 0], [1, 0], [-1, 0])],
)
def test_zeros_in_a_rings_own_form_load_as_zeros(tmp_path, capsys, field, zero, one, minus_one):
    def gauss(z):  # Gauss's formula, with z for each zero
        return [[[one, z], [z, minus_one]], [[z, one], [one, z]]]

    written = {"field": field, "r": 2, "s": 2, "n": 2, "tensor": gauss(zero)}
    f = SosFormula.from_json(json.dumps(written))
    assert f == SosFormula.from_json(json.dumps({**written, "tensor": gauss(0)}))
    assert [len(entries) for entries in f.nonzeros] == [2, 2]
    path = tmp_path / "own_zeros.json"
    path.write_text(json.dumps(written))
    assert main(["verify", str(path)]) == 0
    assert "verified [2,2,2]" in capsys.readouterr().out


def test_verify_as_python_module_exit_codes(tmp_path, gauss_file):
    data = construct_classical("two").to_json_dict()
    data["tensor"][0][1][1] = 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for path, code, verdict in ((broken, 1, "NOT verified [2,2,2]"), (gauss_file, 0, "verified [2,2,2]")):
        proc = subprocess.run(
            [sys.executable, "-m", "sosforms.cli", "verify", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith(verdict)


def test_verify_over_a_large_prime_field(tmp_path, capsys):
    path = tmp_path / "large_prime.json"
    field = {"kind": "GF", "p": 2**61 - 1}
    path.write_text(json.dumps({"field": field, "r": 1, "s": 1, "n": 1, "tensor": [[[1]]]}))
    assert main(["verify", str(path)]) == 0
    assert f"verified [1,1,1] over GF({2**61 - 1})" in capsys.readouterr().out
    field["p"] = 2**89 - 1
    path.write_text(json.dumps({"field": field, "r": 1, "s": 1, "n": 1, "tensor": [[[1]]]}))
    assert main(["verify", str(path)]) == 2
    assert "too large" in capsys.readouterr().err


def test_ring_power_zero(capsys):
    assert main(["ring-power", "5", "6"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_ring_power_formal_rho(capsys):
    assert main(["ring-power", "1", "2", "--rho", "formal"]) == 0
    assert capsys.readouterr().out.strip() == "r*a"


def test_ring_power_epsilon_rho(capsys):
    assert main(["ring-power", "4", "5", "--rho", "formal", "--epsilon", "rho"]) == 0
    out = capsys.readouterr().out.strip()
    assert out != "0"  # a^5 = tau^2 a b^2 -> eps-rewritten, nonzero with eps = rho


def test_motivic_agrees_with_hopf(capsys):
    for args in (["3", "3", "3"], ["4", "4", "4"], ["5", "5", "8"]):
        motivic_rc = main(["motivic", *args])
        capsys.readouterr()
        hopf_rc = main(["hopf", *args])
        capsys.readouterr()
        assert motivic_rc == hopf_rc


def test_bounds_csv(capsys):
    assert main(["bounds", "2", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,s,hopf_lower,construct_upper,tight"
    assert "2,2,2,2,true" in lines


def test_chow_ring_output(capsys):
    assert main(["chow", "4"]) == 0
    out = capsys.readouterr().out
    assert "Z[x,y]/(x^3 - 2xy, x^3y, y^2 - x^2y)" in out
    assert "2:2" in out  # rank two in the middle


def test_chow_gysin_output(capsys):
    assert main(["chow", "gysin", "5"]) == 0
    out = capsys.readouterr().out
    assert "[[1, 1]]" in out  # the fold row
    assert "True" in out


def test_chow_usage_error(capsys):
    assert main(["chow", "gysin"]) == 2
    assert main(["chow", "a", "b"]) == 2


@pytest.mark.parametrize("value", [MAX_TABLE_DIM + 1, 10**8])
def test_chow_tables_above_the_cap_exit_two_at_once(capsys, value):
    for argv in (["chow", str(value)], ["chow", "gysin", str(value)]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: chow argument {value} exceeds the limit of {MAX_TABLE_DIM}\n"


def test_search_streams_json_lines(capsys):
    assert main(["search", "2", "2", "2", "3", "--exhaustive"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        f = SosFormula.from_json(line)
        assert f.verify_by_expansion()
    assert "exhausted=true" in captured.err
    assert "stop=exhausted" in captured.err


def test_search_summary_is_key_value(capsys):
    assert main(["search", "2", "2", "2", "3", "--max-solutions", "1"]) == 0
    summary = dict(item.split("=", 1) for item in capsys.readouterr().err.split())
    assert summary.keys() == {"found", "exhausted", "nodes", "stop"}
    assert summary["exhausted"] == "false"
    assert summary["stop"] == "max_solutions"


def test_sweep_csv_and_exit(capsys):
    assert main(["sweep", "2", "2", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "r,s,n,p,status"
    assert "2,2,2,3,found" in out


def test_usage_errors_exit_two(capsys):
    assert main(["hopf", "x", "y", "z"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["search", "1", "1", "1", "2"]) == 2  # char 2 field
    assert main(["search", "2", "2", "2", "3", "--format", "json"]) == 2  # search has no --format


def test_bad_search_options_exit_two(capsys):
    assert main(["search", "2", "2", "2", "3", "--max-solutions", "0"]) == 2
    assert main(["sweep", "2", "2", "2", "3", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_solutions" in captured.err and "time_budget" in captured.err


def test_empty_sweep_range_exits_two(capsys):
    for argv in (["0", "2", "3", "3"], ["2", "0", "3", "3"], ["2", "2", "0", "3"]):
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_oversized_full_search_exits_two(capsys):
    assert main(["search", "2", "2", "18", "3"]) == 2
    assert main(["search", "2", "2", "14", "3", "--no-canonical"]) == 2
    assert main(["sweep", "1", "1", "14", "3"]) == 2  # rejected before any cell runs
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("exceeds") == 3
    # signed-monomial mode keeps its 2n candidates and has no limit
    assert main(["search", "2", "2", "18", "3", "--signed-monomial", "--max-solutions", "1"]) == 0
    assert "found=1" in capsys.readouterr().err



def test_a_search_past_the_kept_formula_cap_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules["sosforms.search"], "MAX_KEPT_FORMULAS", 100)
    assert main(["search", "2", "2", "4", "3", "--no-canonical", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "100 formulas" in captured.err and "--max-solutions" in captured.err

def test_bounds_json_round_trip(capsys):
    assert main(["bounds", "3", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 9
    entry = next(r for r in rows if r["r"] == 3 and r["s"] == 3)
    assert entry == {"r": 3, "s": 3, "hopf_lower": 4, "construct_upper": 4, "tight": True}


@pytest.mark.parametrize("rmax, smax", [(18, 18), (1, 512), (25, 1)])
def test_oversized_bounds_table_exits_two(capsys, rmax, smax):
    assert main(["bounds", str(rmax), str(smax), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bound table")


def test_chow_json_round_trip(capsys):
    assert main(["chow", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ranks"]["2"] == 2
    assert [2, 1] in data["generator_degrees"]
    assert main(["chow", "gysin", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["double_cover"] is True
    assert data["rows"][2]["pushforward"] == [[1, 1]]


def test_sweep_json(capsys):
    assert main(["sweep", "2", "2", "2", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["violations"] == 0
    assert {"r": 2, "s": 2, "n": 2, "p": 3, "status": "found"} in data["cells"]


def test_ring_power_json(capsys):
    assert main(["ring-power", "5", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"n": 5, "m": 5, "value": "t^2*a*b^2", "zero": False}


def test_hopf_on_a_triple_too_large_to_scan():
    # the range 0 < i < 2^40 was once scanned step by step, which never ended
    big = 2**40
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "sosforms.cli", "hopf", str(big), str(big), str(big), "--format", "json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"r": big, "s": big, "n": big, "admissible": True, "witness": None}


# -- one verdict per command, whatever the --format -------------------------------------


def _format_choices() -> dict:
    """{subcommand: its --format choices, or None}, read off the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: next((a.choices for a in p._actions if a.dest == "format"), None)
        for name, p in sub.choices.items()
    }


# (argv, exit code); GOOD, BAD and MISSING stand for a formula file that holds, one that fails and none
FORMAT_CASES = [
    (["hopf", "3", "3", "3"], 1),
    (["hopf", "4", "4", "4"], 0),
    (["hopf", "-1", "2", "3"], 2),
    (["motivic", "3", "3", "3"], 1),
    (["motivic", "4", "4", "4"], 0),
    (["verify", "GOOD"], 0),
    (["verify", "BAD"], 1),
    (["verify", "MISSING"], 2),
    (["bounds", "4", "4"], 0),
    (["bounds", "18", "18"], 2),
    (["ring-power", "4", "3"], 0),
    (["chow", "5"], 0),
    (["chow", "gysin", "4"], 0),
    (["chow", "gysin", "0"], 2),
    (["sweep", "2", "2", "3", "3"], 0),
]


def test_format_cases_cover_every_command_with_a_format():
    choices = _format_choices()
    assert {argv[0] for argv, _ in FORMAT_CASES} == {name for name, c in choices.items() if c}
    assert choices["search"] is None
    for name in ("hopf", "motivic", "verify"):  # a true case and a false case each
        assert {0, 1} <= {c for argv, c in FORMAT_CASES if argv[0] == name}


@pytest.mark.parametrize("argv, code", FORMAT_CASES, ids=[" ".join(argv) for argv, _ in FORMAT_CASES])
def test_every_format_gives_one_exit_code_and_stderr(tmp_path, capsys, argv, code):
    good = construct_hurwitz_radon(8)
    data = good.to_json_dict()
    data["tensor"][5][3][2] += 1
    files = {"GOOD": good.to_json(), "BAD": json.dumps(data)}
    for placeholder, text in files.items():
        (tmp_path / placeholder).write_text(text)
    argv = [str(tmp_path / a) if a in (*files, "MISSING") else a for a in argv]
    runs = {}
    for fmt in (None, *_format_choices()[argv[0]]):
        runs[fmt] = (main(argv if fmt is None else [*argv, "--format", fmt]), *capsys.readouterr())
    assert {(c, err) for c, _, err in runs.values()} == {(code, runs["text"][2])}
    assert runs[None] == runs["text"]  # text is the default
    if code == 2:
        assert all(out == "" for _, out, _ in runs.values())
    else:
        json.loads(runs["json"][1])
        assert all(out for _, out, _ in runs.values())


# -- each command's parser is built once per process and reused ------------------------


@pytest.fixture
def fresh_cache():
    accessor = cli._command_parser  # a test may patch the name; clear the real cache
    accessor.cache_clear()
    yield
    accessor.cache_clear()


def _call_sequence(tmp_path):
    """One in-process session: every subcommand, usage errors, chow argument
    errors, --help, and commands repeated with and without optional flags."""
    gauss = tmp_path / "gauss.json"
    gauss.write_text(construct_classical("two").to_json())
    data = construct_classical("two").to_json_dict()
    data["tensor"][0][1][1] = 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    return [
        ["hopf", "3", "3", "3"],
        ["hopf", "3", "3", "3", "--format", "json"],
        ["hopf", "x", "y", "z"],
        ["hopf", "4", "4", "4"],
        ["hopf", "3", "3"],
        ["verify", str(gauss)],
        ["verify", str(broken), "--format", "json"],
        ["verify", str(tmp_path / "missing.json")],
        ["verify", str(gauss), "--format", "json"],
        ["--help"],
        ["bounds", "2", "2", "--format", "csv"],
        ["bounds", "2", "2"],
        ["bounds", "18", "18"],
        [],
        ["ring-power", "4", "5", "--rho", "formal", "--epsilon", "rho"],
        ["ring-power", "4", "5"],
        ["ring-power", "5", "5", "--format", "json"],
        ["motivic", "3", "3", "3"],
        ["nonsense"],
        ["motivic", "4", "4", "4", "--format", "json"],
        ["chow", "4"],
        ["chow", "gysin"],
        ["chow", "gysin", "5", "--format", "csv"],
        ["chow", "a", "b"],
        ["chow", "x"],
        ["chow", "gysin", "0"],
        ["chow", "gysin", "3"],
        ["chow", "4", "--format", "json"],
        ["hopf", "--help"],
        ["search", "2", "2", "2", "3", "--exhaustive"],
        ["search", "2", "2", "2", "3"],
        ["search", "2", "2", "2", "3", "--max-solutions", "1", "--signed-monomial"],
        ["search", "2", "2", "2", "3", "--format", "json"],
        ["search", "2", "2", "2", "3", "--no-canonical", "--budget", "30"],
        ["search", "-h"],
        ["search", "1", "1", "1", "2"],
        ["sweep", "2", "2", "2", "3"],
        ["sweep", "2", "2", "2", "3", "--format", "json", "--budget", "30"],
        ["sweep", "2", "2", "2", "3", "--budget", "-1"],
        ["sweep", "2", "2", "2", "3"],
        ["hopf", "3", "3", "3"],
        # leftover arguments, which the top-level parser reports (as it does
        # `search ... --format json` above)
        ["hopf", "3", "3", "3", "4"],
        ["bounds", "2", "2", "--bogus", "--format", "json"],
        ["chow", "gysin", "3", "--exhaustive"],
        # a top-level option before the command, `--`, and an unknown command
        ["-h", "hopf"],
        ["--format", "json", "hopf", "3", "3", "3"],
        ["--", "hopf", "3", "3", "3"],
        ["hopf", "--", "3", "3", "3"],
        ["Hopf", "3", "3", "3"],
        ["ring-power", "--help"],
        ["hopf", "3", "3", "3"],
    ]


def test_command_parsers_match_a_fresh_tree_call_by_call(tmp_path, capsys, monkeypatch, fresh_cache):
    # the reference parses every call through a whole new tree of parsers
    def session():
        results = []
        for argv in sequence:
            code = main(argv)
            out, err = capsys.readouterr()
            results.append((argv, code, out, err))
        return results

    sequence = _call_sequence(tmp_path)
    reused = session()
    monkeypatch.setattr(cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
    fresh = session()
    for got, expected in zip(reused, fresh):
        assert got == expected
    assert {code for _, code, _, _ in reused} == {0, 1, 2}
    helps = [out for argv, _, out, _ in reused if "--help" in argv or "-h" in argv]
    assert len(helps) == 5 and all(out.startswith("usage: sosforms") for out in helps)
    leftovers = [err for _, _, _, err in reused if "unrecognized arguments" in err]
    assert len(leftovers) == 4 and all(err.startswith("usage: sosforms [-h]") for err in leftovers)


def test_command_parser_is_its_subparser_in_the_tree():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)
    for name, tree_parser in sub.choices.items():
        own = cli._command_parser(name)
        assert own.prog == tree_parser.prog == f"sosforms {name}"
        assert own.format_help() == tree_parser.format_help()
        assert own._defaults == tree_parser._defaults


def test_fifty_calls_build_each_command_parser_once(capsys, monkeypatch, fresh_cache):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog", args[0] if args else None))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for k in range(50):
        main(["hopf", str(k % 7 + 1), "3", "4"] if k % 2 else ["chow", "gysin", str(k % 5 + 1)])
    capsys.readouterr()
    assert sorted(built) == ["sosforms chow", "sosforms hopf"]
    # an error the command's parser finds itself builds nothing more
    assert main(["hopf", "x", "3", "4"]) == 2
    capsys.readouterr()
    assert len(built) == 2
    # leftover arguments go through the whole tree: one parser per command
    # and the top-level one
    assert main(["hopf", "3", "3", "4", "5"]) == 2
    capsys.readouterr()
    assert len(built) == 2 + len(cli._COMMANDS) + 1


def test_importing_the_cli_builds_no_parser():
    # the benchmark times `import sosforms.cli` as set-up, so the parser is
    # built on the first main() call, not at import
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import sosforms.cli
at_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    sosforms.cli.main(["hopf", "3", "3", "3"])
print(at_import, len(built))
"""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    at_import, after_call = map(int, proc.stdout.split())
    assert at_import == 0
    assert after_call > 0  # the counter sees the build that main() makes


def test_importing_the_cli_loads_no_heavy_stdlib_module():
    # a short command's run time is mostly start-up; -S keeps site hooks
    # (.pth files) from loading these modules before the package does
    script = "import sys, sosforms.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "sosforms.cli" in loaded
    assert not loaded & {"dataclasses", "typing", "inspect", "importlib.resources"}


# -- byte identity: stdout, stderr and exit code of fixed invocations -----------------------


# name: ring, the formula, whether it is turned (``householder_dense`` by (1, ..., 1, 2),
# then ``rotate_gaussian`` over a Gaussian ring), and the entry (k, i, j) that the
# corrupted copy moves by the amount given
DIGEST_FORMULAS = {
    "Z": (ZZ, lambda: construct_hurwitz_radon(8), False, (5, 3, 2), 1),
    "Q": (QQ, lambda: construct_hurwitz_radon(8), True, (3, 7, 2), Fraction(1, 3)),
    "GF5": (PrimeField(5), lambda: construct_classical("eight"), True, (0, 0, 0), 1),
    "Qi": (gaussian_ext(QQ), lambda: construct_classical("four"), True, (2, 1, 3), (0, Fraction(1, 2))),
    "GF7i": (gaussian_ext(PrimeField(7)), lambda: construct_hurwitz_radon(8), True, (7, 0, 7), (1, 1)),
    # dense: the Gram check reads blocks of stacked rows, and over GF(3) the z_k,
    # split into eight supports by entries that vanish mod 3, are squared as one group
    "GF3": (PrimeField(3), lambda: construct_hurwitz_radon(8), True, (6, 5, 7), 1),
    "GF13": (PrimeField(13), lambda: construct_hurwitz_radon(8), True, (1, 7, 0), 5),
    # the largest formula of the benchmark's dense workload: nine matrices, one
    # group of 144 columns whose dots the expansion reads in 16-bit lanes
    "GF5-16": (PrimeField(5), lambda: construct_hurwitz_radon(16), True, (7, 4, 11), 1),
    # entries up to about 2^39, whose dots pass 64 bits: the wide lane reader
    "Z40": (ZZ, lambda: scaled_dense_eight(), False, (0, 0, 0), 1),
}
def scaled_dense_eight():
    """HR(8) turned over Q by (1, ..., 1, 2), whose entries have the
    denominator 11, times 11 * 2^36: an integer formula that fails the
    identity by the square of that factor."""
    f = householder_dense(construct_hurwitz_radon(8), QQ, (1,) * 7 + (2,))
    scale = 11 * 2**36
    tensor = [[[0] * 8 for _ in range(8)] for _ in range(8)]
    for k, entries in enumerate(f.nonzeros):
        for i, j, c in entries:
            tensor[k][i][j] = int(c * scale)
    return SosFormula(8, 8, 8, ZZ, tensor)


DIGEST_CASES = [
    "bounds 8 8 --format json", "bounds 12 12 --format csv", "bounds 5 5",
    "sweep 3 3 4 3", "sweep 2 3 4 3 --format json", "search 3 3 4 5 --format json", "search 3 3 4 5",
    "ring-power 9 7 --rho formal --epsilon rho --format json", "ring-power 8 9 --rho formal --epsilon rho",
    "ring-power 8 9", "motivic 5 5 8 --format json", "motivic 3 5 6", "hopf 3 5 6",
    "chow 6 --format json", "chow gysin 5",
] + [
    f"verify {name}{state}.json{fmt}" for name in DIGEST_FORMULAS for state in ("", "-bad") for fmt in ("", " --format json")
]
# sha256 of repr((exit code, stdout, stderr)) per case, recorded before the expansion's
# integer lift moved into sosforms.poly (the GF3 and GF13 cases: before the dense Gram
# kernel and the squaring of split supports as one group; the GF5-16 and Z40 cases:
# before the expansion's dots came from one multiply-add per coefficient); a change
# meant to alter an output re-records it
CLI_DIGESTS = {
    "bounds 8 8 --format json": "65670eea0f749c33206bd4f908e87037257b7dbbe889df486dba2b808cce7809",
    "bounds 12 12 --format csv": "69ce68816833258bcdea25955fb210e7245391cdb56cad7a4cca2e9fd4288fa2",
    "bounds 5 5": "e0581f2576824d3f81f7b708644f072fb90094f6e28eb7c384356bc25091c93e",
    "sweep 3 3 4 3": "b65e963e65bdd59ea5ed3c8c2b74b1a88f53c17dffd231670c597c2e4ac26011",
    "sweep 2 3 4 3 --format json": "24764df6f4f09f620d0d41aabc0adaf4b98af25f787ab9ea38300387b0ac39dc",
    "search 3 3 4 5 --format json": "64e3b1dbd278292cb817ff1e4d1ae73e5bbc0c5d0977bcc189507fb6db73c33b",
    "search 3 3 4 5": "0939520bbfb0550a268ac3bf9bcbc65a7c472705866227f8290e11a17afada8b",
    "ring-power 9 7 --rho formal --epsilon rho --format json": "0bfa56e4b08a15c62f3c7544c56b77c3a5379737c2d676aa33711f86df15fad4",
    "ring-power 8 9 --rho formal --epsilon rho": "fca12ff9ef0a2b21e269b74aaf6c4d0aec0cc82d3b1141a17079e58341e02e76",
    "ring-power 8 9": "fba11fb4aed7201bf3600ca6dd7a92642a7270690d6984326ea91e32063d3122",
    "motivic 5 5 8 --format json": "100df09fc7598f537817802fc0c0567d4f669f34ad87ae47a9968271311eef5a",
    "motivic 3 5 6": "87223838505625ddd09557edc6e8f39b8b4e0a00a1d22f07125ba4af69a4ea26",
    "hopf 3 5 6": "4b3d7f44b0870824655205af929f63e976ade0d24d7cb56c6efd96f59243a8c8",
    "chow 6 --format json": "678b184e51743e8ff52b3722e5c146dc4517e22ab0102351c54a5697308ea581",
    "chow gysin 5": "4b16d4ab14ed020f9fcc5f00b9e722250d7658b961b7fa39d24065895e33259b",
    "verify Z.json": "422e9448e301426ad38907408b7c3f92c581f388df3010c676be1994e63aa194",
    "verify Z.json --format json": "5eb4df489e78787c24538efbc7874f9d518bb9ff4980129d1aa6415edf1fd43a",
    "verify Z-bad.json": "fe6b17493378ff0fd99a86b52c6655ee08659186bf7ae611000c348820756843",
    "verify Z-bad.json --format json": "38fa8b7f765aa0b9496cabb66fc908d95228a0f5ddc3fdf22b4d26cce8c2797d",
    "verify Q.json": "86a4f56989cef361c0605a6270acf2dec777cbe9317193b70ce1dbf217c259c9",
    "verify Q.json --format json": "7ceda6c3f92ef1103e978b009117b215ebeb74b966d3e20589cc225f36a0e209",
    "verify Q-bad.json": "475d5d36c4bbbfa27ddadd3cd762f2674ce9e810be756eb9e2c2bf59840e33e0",
    "verify Q-bad.json --format json": "6271295b6fb1311b9d10762355ec4834f438fd1b926bc730871c3cc97ab9630f",
    "verify GF5.json": "322900dba0a1f7b2a088317b2dcb02a408ecaff5c40c6e6c12e3fc4ed1b3384b",
    "verify GF5.json --format json": "46eaea67f02323d9782a87d40a252070255176d1af64b65f68bc30fbe6cd5c8b",
    "verify GF5-bad.json": "7693c9aee012c6cf36337328d295cef6daddeba46a22c61b1f086abc937731a2",
    "verify GF5-bad.json --format json": "3460a3033c20ad5edb408d38fddf8d748cc50ad9e161f3e63202c216552aac9e",
    "verify Qi.json": "7f04b0db9356d522b8faa150a81490c7fd762506a84c5f06bbcfe71f901dc481",
    "verify Qi.json --format json": "2cdc36777e882519bdc97300d6a55345af8875c1ad7721077f51d4f3575f64fc",
    "verify Qi-bad.json": "4bbdc3c8c15bf16c42be20e2774f79b91a336ed0caa844c32f0aac7602ea4a03",
    "verify Qi-bad.json --format json": "cd15f379f700a0a09b70faf692acc06e0513553eaeef66b95360a26f484fd299",
    "verify GF7i.json": "c5fb5798e9171df63e11123b93f8bbdac3a5a64aa0c2880674e858ec8da71eca",
    "verify GF7i.json --format json": "fb29f9c33cb657c415c40b987ab9eb03c98cbdfeef59aa5b851009a06a2c4baf",
    "verify GF7i-bad.json": "f412bb4f7c48ecb7437c2ce0c322ffc901e68ec516b1c89bfba21f4d6e248efb",
    "verify GF7i-bad.json --format json": "c83855ddd72f107efc1a93249b9f9c3b0656874710c50d47b2d08605177f9061",
    "verify GF3.json": "8e948e334e7f96011600ec209b3bf06d8a57cd2bf49596d333558d47f54f4f7d",
    "verify GF3.json --format json": "46eaea67f02323d9782a87d40a252070255176d1af64b65f68bc30fbe6cd5c8b",
    "verify GF3-bad.json": "b0d5a28e614aba611706ac03654678f7334716dcbe80484c4178519777a21c35",
    "verify GF3-bad.json --format json": "8e8722f1fc74fb9a9fb654f5249d1c572554ec1d3468dd05dfe2ff1fad658921",
    "verify GF13.json": "cd229149eb53cbcf267ba16e85f213058d56d03ffba316036d57e72ffa08c5f0",
    "verify GF13.json --format json": "46eaea67f02323d9782a87d40a252070255176d1af64b65f68bc30fbe6cd5c8b",
    "verify GF13-bad.json": "d283fa84e28ea831d2a99bd845c34630a20f242fce45e9afb9dfcc79be36846c",
    "verify GF13-bad.json --format json": "5f6d02f161480aac2805ce198498d02198d76d7b8d8c06a5f8934c4695f87ded",
    "verify GF5-16.json": "2d8947084282a99c941af18d2e3399f0e23f230961c04ed0a5dba6c82852af63",
    "verify GF5-16.json --format json": "79aaaab4dccc55cefb586fc9e4bbcbec28fbfbfc6e0f9216b976cb59b61f2bcd",
    "verify GF5-16-bad.json": "71e868cfb8069619d85c6ca2a215ae0349e0af14da7612a8c654d0ec1580c877",
    "verify GF5-16-bad.json --format json": "51577552676e9e20dee0e5398e06756a1f84294ad5060df8008d5e1a94c9b7e3",
    "verify Z40.json": "6b51482f59f05b84a18172b8bf5dbba35e4f6e23a424ccba46fda89804530268",
    "verify Z40.json --format json": "7555dde167c351c8c6ac1050985236afe9307ceabb3971f42ac1ec4700641a58",
    "verify Z40-bad.json": "9f12835e0c488c469b5d7d5e1e37a2c60bfa66009ddd3f83720e33b1989192aa",
    "verify Z40-bad.json --format json": "344745fdcf93ca7ac8ad5bdf6709297f8a0041dd76629e306d53702404bdc111",
}


def digest_files(directory) -> None:
    """Write the formula files that the verify cases read into ``directory``."""
    for name, (ring, build, turn, (k, i, j), delta) in DIGEST_FORMULAS.items():
        f = build()
        if turn:
            f = householder_dense(f, ring, (1,) * (f.n - 1) + (2,))
            f = rotate_gaussian(f) if isinstance(ring, GaussianExt) else f
        else:
            f = f.change_ring(ring)
        (directory / f"{name}.json").write_text(f.to_json())
        data = f.to_json_dict()
        entry = ring.element_from_json(data["tensor"][k][i][j])
        data["tensor"][k][i][j] = ring.element_to_json(ring.add(entry, ring.coerce(delta)))
        (directory / f"{name}-bad.json").write_text(json.dumps(data))


def case_digest(case: str, directory) -> str:
    argv = [str(directory / a) if a.endswith(".json") else a for a in case.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue())).encode()).hexdigest()


@pytest.fixture(scope="module")
def digest_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("digests")
    digest_files(directory)
    return directory


@pytest.mark.parametrize("case", DIGEST_CASES)
def test_cli_output_is_byte_identical(monkeypatch, digest_dir, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    assert case_digest(case, digest_dir) == CLI_DIGESTS[case]
