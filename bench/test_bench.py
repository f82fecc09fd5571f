"""Tests of the benchmark's own checkers, and a tiny-size smoke run.

Every checker must reject a deliberately wrong output and accept the
program's output.  Run with ``pytest bench/test_bench.py`` (``src`` on the
path, as for the package's own tests).
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs_engines  # noqa: E402
import refcheck  # noqa: E402
from harness import Op, corrupt, dense_change, signed_permutation, to_ring  # noqa: E402
from jobs_search import Search, _check_sweep  # noqa: E402
from jobs_verify import VerifySparse  # noqa: E402
from worker import WORKLOADS, run_pass  # noqa: E402

GAUSS = [[[1, 0], [0, -1]], [[0, 1], [1, 0]]]  # z1 = x1y1 - x2y2, z2 = x1y2 + x2y1


def _hr(n):
    from sosforms import construct_hurwitz_radon

    return construct_hurwitz_radon(n).to_json_dict()["tensor"]


# -- reference computations --------------------------------------------------------------


def test_pfister_recursion_matches_brute_force():
    for r in range(1, 40):
        for s in range(1, 40):
            assert refcheck.hopf_stiefel(r, s) == refcheck.hopf_lower_comb(r, s), (r, s)


def test_hurwitz_radon_numbers():
    assert [refcheck.hr_rho(n) for n in (1, 2, 4, 8, 16, 32, 64, 3, 12)] == [1, 2, 4, 8, 9, 10, 12, 1, 4]
    assert refcheck.hr_upper(3, 5) == 8 and refcheck.hr_upper(10, 10) == 32


@pytest.mark.parametrize("kind,p", [("Z", 0), ("GF", 3), ("GF", 13), ("Q", 0), ("Zi", 0)])
def test_identity_witness_separates_formulas_from_corruptions(kind, p):
    ring = refcheck.Ring(kind, p)
    rng = random.Random(7)
    for tensor in (GAUSS, _hr(8)):
        good = to_ring(signed_permutation(tensor, rng), ring)
        assert refcheck.identity_witness(good, ring, rng, 20) is None
        assert refcheck.identity_witness(corrupt(good, ring, rng, dense=False), ring, rng, 400) is not None
        if kind in ("GF", "Q"):
            dense = dense_change(tensor, ring, rng)
            assert refcheck.identity_witness(dense, ring, rng, 20) is None
            assert refcheck.identity_witness(corrupt(dense, ring, rng, dense=True), ring, rng, 400) is not None


def test_text_parser_reads_the_program_output():
    from sosforms import DQRingSpec, diagonal_power, dq_power_a

    terms = refcheck.parse_classes(dq_power_a(DQRingSpec(6, rho=True), 5).to_text())
    assert terms and refcheck.class_bidegrees(terms) == {(5, 5)}
    assert refcheck.parse_classes(diagonal_power(3, 3, 3).to_text()) == {(1, 0, 1, 0, 0, 1), (1, 0, 0, 1, 1, 0)}
    assert refcheck.parse_classes("0") == frozenset()
    with pytest.raises(ValueError):
        refcheck.parse_classes("t*q")


# -- each checker rejects a wrong output -------------------------------------------------------


def _verify_op(tensor, ring, corrupted):
    info = {"ring": ring, "tensor": tensor, "corrupted": corrupted, "type": [len(tensor[0]), len(tensor[0][0]), len(tensor)]}
    return Op("test", None, info)


def test_verify_checker():
    wl = VerifySparse(1, "tiny", "")
    ring = refcheck.Ring("GF", 3)
    good = to_ring(GAUSS, ring)
    bad = corrupt(good, ring, random.Random(1), dense=False)
    ok = {"code": 0, "type": [2, 2, 2], "verified": True, "by_expansion": True, "by_hurwitz": True}
    assert wl.check(_verify_op(good, ring, False), ok) == []
    assert wl.check(_verify_op(good, ring, False), {**ok, "by_hurwitz": False})  # wrong verdict
    assert wl.check(_verify_op(good, ring, False), {**ok, "code": 1})  # wrong exit code
    assert wl.check(_verify_op(good, ring, False), {**ok, "type": [2, 2, 3]})
    rejected = {"code": 1, "type": [2, 2, 2], "verified": False, "by_expansion": False, "by_hurwitz": False}
    assert wl.check(_verify_op(bad, ring, True), rejected) == []
    assert wl.check(_verify_op(bad, ring, True), {"by_expansion": True})  # accepted a corruption
    # a copy labelled corrupted that still holds: the reference finds no witness
    assert wl.check(_verify_op(good, ring, True), rejected)


def test_engine_checkers():
    check = jobs_engines._CHECKS
    row = [refcheck.hopf_stiefel(5, s) for s in range(1, 11)]
    assert check["lower-row"]({"r": 5}, row) == []
    assert check["lower-row"]({"r": 5}, row[:3] + [row[3] + 1] + row[4:])

    csv = "r,s,hopf_lower,construct_upper,tight\n1,1,1,1,true\n1,2,2,2,true\n2,1,2,2,true\n2,2,2,2,true\n"
    assert check["bounds"]({"rmax": 2}, {"code": 0, "data": csv}) == []
    assert check["bounds"]({"rmax": 2}, {"code": 0, "data": csv.replace("2,2,2,2,true", "2,2,3,3,true")})
    assert check["bounds"]({"rmax": 2}, {"code": 0, "data": csv.replace("1,2,2,2,true", "1,2,2,2,false")})

    assert check["mismatches"]({}, []) == []
    assert check["mismatches"]({}, [(3, 3, 3, True, False)])

    ok = {"code": 0, "data": {"admissible": True}}
    assert check["motivic-cli"]({"triple": (3, 5, 7)}, ok) == []
    assert check["motivic-cli"]({"triple": (3, 5, 6)}, ok)  # C(6,4) is odd
    assert check["motivic-api"]({"triple": (3, 3, 3)}, False) == []
    assert check["motivic-api"]({"triple": (3, 3, 3)}, True)

    assert check["hopf-cli"]({"triple": (3, 3, 3)}, {"code": 1, "data": {"admissible": False, "witness": 1}}) == []
    assert check["hopf-cli"]({"triple": (3, 3, 3)}, {"code": 1, "data": {"admissible": False, "witness": 2}})

    # a^3 in DQ_2 vanishes at rho = 0; t*r*a has bidegree (2, 3), not (3, 3)
    powers = {"rho0": "0", "formal": "r^3", "eps": "r^3"}
    assert check["powers"]({"n": 2, "m": 3}, powers) == []
    assert check["powers"]({"n": 2, "m": 3}, {**powers, "eps": "t*r*a"})
    assert check["powers"]({"n": 2, "m": 3}, {**powers, "rho0": "t*a*b"})  # should vanish
    assert check["powers"]({"n": 4, "m": 3}, {"rho0": "t*a*b", "formal": "r^3", "eps": "r^3"})  # strip fails

    bock = {"bbx": "0", "b(xy)": "b + t*b", "b(x)y": "b", "xb(y)": "t*b"}
    assert check["bockstein"]({}, bock) == []
    assert check["bockstein"]({}, {**bock, "bbx": "r*b"})
    assert check["bockstein"]({}, {**bock, "xb(y)": "b"})

    assert check["table"]({"k": 1}, ((0, 1), (1, 0))) == []
    assert check["table"]({"k": 2}, ((0, 1), (1, 0)))
    assert check["dq-basis"]({"n": 3}, [(0, 0), (1, 1), (2, 1), (3, 2)]) == []
    assert check["dq-basis"]({"n": 3}, [(0, 0), (1, 1), (2, 1), (3, 1)])
    gysin = {"n": 2, "double_cover": True, "rows": [
        {"codim": 0, "pushforward": [[2]], "pullback": [[1]]},
        {"codim": 1, "pushforward": [[1]], "pullback": [[2]]}]}
    assert check["gysin"]({}, {"code": 0, "data": gysin}) == []
    gysin["rows"][1]["pullback"] = [[1]]
    assert check["gysin"]({}, {"code": 0, "data": gysin})
    assert check["chow"]({"m": 2}, {"code": 0, "data": {"ranks": {"0": 1, "1": 2, "2": 1}}}) == []
    assert check["chow"]({"m": 2}, {"code": 0, "data": {"ranks": {"0": 1, "1": 1, "2": 1}}})


def _search_op(cell, exhaustive=True):
    return Op("test", None, {"kind": "search", "cell": cell, "exhaustive": exhaustive})


def test_search_checker():
    wl = Search(1, "tiny", "")
    field = {"kind": "GF", "p": 3}
    gauss = {"r": 2, "s": 2, "n": 2, "field": field, "tensor": [[[1, 0], [0, 2]], [[0, 1], [1, 0]]]}
    ok = {"formulas": [gauss], "exhausted": True, "nodes": 5}
    assert wl._check_search(_search_op((2, 2, 2, 3)), ok) == []
    assert wl._check_search(_search_op((2, 2, 2, 3)), {**ok, "formulas": [gauss, gauss]})  # duplicate
    flipped = {**gauss, "tensor": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}
    assert wl._check_search(_search_op((2, 2, 2, 3)), {**ok, "formulas": [flipped]})  # fails identity
    assert wl._check_search(_search_op((2, 2, 2, 3)), {**ok, "formulas": []})  # HR says one exists
    assert wl._check_search(_search_op((2, 2, 2, 3)), {**ok, "exhausted": False})  # exhaustive stopped
    assert wl._check_search(_search_op((2, 2, 2, 3), exhaustive=False), {**ok, "formulas": [], "exhausted": False})
    # a formula in a Hopf-forbidden cell: (2, 3, 3) is inadmissible (C(3,2) = 3)
    wrong_cell = {"r": 2, "s": 3, "n": 3, "field": field, "tensor": [[[0] * 3] * 2] * 3}
    assert any("Hopf-forbidden" in p for p in wl._check_search(
        _search_op((2, 3, 3, 3)), {"formulas": [wrong_cell], "exhausted": True, "nodes": 1}))

    csv = "r,s,n,p,status\n1,1,1,3,found\n"
    assert _check_sweep((1, 1, 1, 3), {"code": 0, "csv": csv}) == []
    assert _check_sweep((1, 1, 1, 3), {"code": 0, "csv": csv.replace("found", "timeout")})
    assert _check_sweep((1, 2, 1, 3), {"code": 0, "csv": csv + "1,2,1,3,found\n"})  # forbidden cell


# -- each checker accepts the program's output; the smoke run ---------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checkers_accept_the_program(name):
    result = run_pass(name, seed=5, scale="tiny")
    assert result["problems"] == [] and result["failed"] == 0 and result["attempted"] > 0
    assert result["batch_s"] > 0 and result["setup_s"] > 0


def _run(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name):
    root = os.path.dirname(HERE)
    for trace, keys in (("0", {"batch_s", "setup_s", "peak_rss_mb"}), ("1", {"formulas.hurwitz_s", "rings.ops"})):
        proc = _run(root, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace, "--scale", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
        assert keys <= set(result["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "engines", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
