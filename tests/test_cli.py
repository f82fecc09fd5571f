"""CLI surface: subcommands, exit codes, machine formats."""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sosforms import cli
from sosforms.chow import MAX_TABLE_DIM
from sosforms.cli import build_parser, main
from sosforms.formulas import SosFormula, construct_classical, construct_hurwitz_radon

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
    original = SosFormula.expansion_defect

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(SosFormula, "expansion_defect", counted)
    assert main(["verify", str(path)]) == 1
    assert len(calls) == 1
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
