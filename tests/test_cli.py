"""CLI behavior: exit codes, determinism, report structure."""

import argparse
import contextlib
import csv
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rieszprod
from rieszprod import analysis, cli, core, qi
from rieszprod.cli import COMMANDS, build_parser, main
from rieszprod.core import GRID_BUDGET, CapError
from rieszprod.qi import MESH_GENERATOR_CAP, SIDON_GRID_BUDGET
from rieszprod.specio import load_spec, validate_document

GOOD_SPEC = {
    "frequencies": {"rule": "geometric", "base": 4, "count": 7},
    "coefficients": {"constant": {"r": 1.0, "theta": 0.0}},
    "regime": "lacunary3",
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GOOD_SPEC), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**changes) -> dict:
    """This environment with the package importable, updated by ``changes``
    (None drops a variable)."""
    src = str(Path(rieszprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.update(changes)
    return {key: value for key, value in env.items() if value is not None}


def run_child(*argv, env=None, **popen):
    """The CLI in a child interpreter, where an uncaught exception ends in a
    traceback on stderr.  ``popen`` may replace the captured stdout."""
    proc = subprocess.run([sys.executable, "-m", "rieszprod.cli", *argv],
                          **{"stdout": subprocess.PIPE, **popen}, stderr=subprocess.PIPE,
                          text=True, env=env or child_env())
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stdout, proc.stderr


def write_spec(tmp_path, doc) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# frequencies beyond int64: the expansion keeps exact integers
HUGE_FREQUENCIES = [1, 10, 10 ** 20, 10 ** 24]
HUGE_SPEC = {
    "frequencies": {"rule": "explicit", "values": HUGE_FREQUENCIES},
    "coefficients": {"constant": {"r": 0.5, "theta": 0.0}},
}
# 8 * (sum of the frequencies) quadrature nodes, far beyond the grid budget
GRID_FREQUENCIES = [2, 10, 10 ** 20, 10 ** 24, 10 ** 29]
GRID_SPEC = {**HUGE_SPEC, "frequencies": {"rule": "explicit", "values": GRID_FREQUENCIES}}
# a frequency beyond the float64 range
BEYOND_FLOAT_SPEC = {**HUGE_SPEC, "frequencies": {"rule": "explicit", "values": [1, 10 ** 400]}}
# lambda_2 = 2^1200 beyond the float64 range, with finite ratios
GEOMETRIC_BEYOND_FLOAT_SPEC = {**HUGE_SPEC,
                               "frequencies": {"rule": "geometric", "base": 2 ** 600, "count": 3}}
# int64 frequencies whose phases m*t near t = 0.5 reach about 5 * 10^16 > 2^52
PHASE_FREQUENCIES = [1, 10, 10 ** 15, 10 ** 17]
PHASE_SPEC = {**HUGE_SPEC, "frequencies": {"rule": "explicit", "values": PHASE_FREQUENCIES}}


def gap_spec(r0: float) -> dict:
    """Three base-4 frequencies with moduli (r0, 0.5, 0.5): two such specs
    differ at j = 0 alone, by a gap |a_0 - b_0| of the two r0."""
    return {"frequencies": {"rule": "geometric", "base": 4, "count": 3},
            "coefficients": {"explicit": [{"r": r0}, {"r": 0.5}, {"r": 0.5}]}}


def test_coeffs_csv_structure(capsys, spec_path):
    code, out, _ = run_cli(capsys, "coeffs", "--spec", spec_path, "--depth", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "frequency,re,im"
    rows = {int(ln.split(",")[0]): float(ln.split(",")[1]) for ln in lines[2:]}
    assert rows[0] == 1.0 and rows[1] == 0.5 and rows[5] == 0.25


def test_reports_are_byte_identical_across_runs(capsys, spec_path, tmp_path):
    out = tmp_path / "report.csv"
    argv = ["energy", "--spec", spec_path, "--alpha", "0.6",
            "--variant", "band_paper", "--out", str(out)]
    assert main(list(argv)) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert out.read_bytes() == first


def test_energy_band_paper_verdict_matches_threshold(capsys, spec_path):
    # r = 1, q = 4: divergent above alpha* = 0.5, convergent below
    code, out, _ = run_cli(capsys, "energy", "--spec", spec_path,
                           "--alpha", "0.6", "--variant", "band_paper")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("divergent")
    code, out, _ = run_cli(capsys, "energy", "--spec", spec_path,
                           "--alpha", "0.4", "--variant", "band_paper")
    assert out.strip().splitlines()[-1].endswith("convergent")


def test_qi_check_reports_witness(capsys):
    code, out, err = run_cli(capsys, "qi", "check", "--values", "1,2,3")
    assert code == 0
    assert "verdict: false" in err
    assert "witness: 1,1,-1" in err
    assert out.splitlines()[-1] == "false,\"1,1,-1\""


def test_qi_build_and_lambda_roundtrip_through_mesh(capsys, tmp_path):
    matrix_csv = tmp_path / "matrix.csv"
    code = main(["qi", "build", "--nu", "2", "--out", str(matrix_csv)])
    assert code == 0
    assert len(matrix_csv.read_text().splitlines()) == 2 + 8  # config+header+cols

    lambda_csv = tmp_path / "lambda.csv"
    code = main(["qi", "lambda", "--nu", "3", "--out", str(lambda_csv)])
    assert code == 0
    capsys.readouterr()

    code, _, err = run_cli(capsys, "mesh", "count", "--lambda", str(lambda_csv),
                           "--block", "2")
    assert code == 0
    assert "count: 8" in err


def test_mesh_count_rejects_a_bad_element_row(tmp_path):
    # only the first line after comments may be a header; a later row that
    # is not an integer is named with its line number, never dropped
    lambda_csv = tmp_path / "gamma.csv"
    lambda_csv.write_text("# elements\ngamma\n10\n1x7\n-3\n", encoding="utf-8")
    code, out, err = run_child("mesh", "count", "--lambda", str(lambda_csv), "--block", "1")
    assert code == 2 and out == ""
    assert err == f"invalid: {lambda_csv}:4: not an integer: '1x7'\n"


def test_mesh_padded_generators_keep_count(capsys, tmp_path):
    lambda_csv = tmp_path / "lambda.csv"
    main(["qi", "lambda", "--nu", "2", "--out", str(lambda_csv)])
    capsys.readouterr()
    code, _, err = run_cli(capsys, "mesh", "count", "--lambda", str(lambda_csv),
                           "--block", "2", "--k", "6")
    assert code == 0
    assert "count: 8" in err


@pytest.mark.parametrize("k, exit_code, message", [
    ("1000000", 3, f"refused: mesh padded to k=1000000 generators; the cap is "
                   f"{MESH_GENERATOR_CAP}\n"),
    ("3", 2, "invalid: --k must be >= the block size 4\n")])
def test_mesh_padding_refusals(tmp_path, k, exit_code, message):
    lambda_csv = tmp_path / "lambda.csv"
    lambda_csv.write_text("gamma\n5\n-7\n12\n", encoding="utf-8")
    code, out, err = run_child("mesh", "count", "--lambda", str(lambda_csv),
                               "--block", "2", "--k", k)
    assert (code, out, err) == (exit_code, "", message)


NOT_UTF8 = b'\xff{"frequencies": {}}\n'  # 0xff starts no UTF-8 sequence


@pytest.mark.parametrize("argv", [
    ("validate", "--spec", "BAD"),
    ("coeffs", "--depth", "2", "--spec", "BAD"),
    ("classify", "--spec-a", "GOOD", "--spec-b", "GOOD", "--tails", "BAD"),
    ("mesh", "count", "--block", "1", "--lambda", "BAD"),
], ids=["validate", "coeffs", "tails", "elements"])
def test_a_file_that_is_not_utf8_is_a_diagnostic(tmp_path, spec_path, argv):
    bad = tmp_path / "latin.json"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run_child(*({"BAD": str(bad), "GOOD": spec_path}.get(a, a) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"invalid: {bad}: unreadable file: 'utf-8' codec can't decode "
                          "byte 0xff in position 0")
    assert err.count("\n") == 1


def test_sidon_bound_and_estimate(capsys):
    code, out, _ = run_cli(capsys, "sidon", "bound", "--k", "1")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split(",")[-1])
    assert abs(value - 3 * math.sqrt(3)) < 1e-9

    code, out, _ = run_cli(capsys, "sidon", "estimate", "--set", "1,4,16,64",
                           "--trials", "5", "--seed", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["seed"] == 7
    assert payload["config"]["generator"] == "numpy-pcg64"


def test_sidon_estimate_requires_seed(capsys):
    code, _, err = run_cli(capsys, "sidon", "estimate", "--set", "1,4,16")
    assert code == 2
    assert "seed" in err


BEYOND_FLOAT = 10 ** 400


@pytest.mark.parametrize("values, grid, exit_code, message", [
    (f"1,{BEYOND_FLOAT}", "2000", 2, "invalid: grid size 2000 refused: must exceed pi * "
                                     f"degree for certification, degree = {BEYOND_FLOAT}"),
    (str(BEYOND_FLOAT), "2000", 2, f"degree = {BEYOND_FLOAT}"),
    (f"1,{BEYOND_FLOAT}", None, 3, f"refused: grid budget exceeded: 2 frequencies x "
                                   f"{64 * BEYOND_FLOAT} nodes > {SIDON_GRID_BUDGET}"),
    (str(BEYOND_FLOAT), None, 3, f"1 frequencies x {64 * BEYOND_FLOAT} nodes"),
], ids=["1,10^400 --grid", "10^400 --grid", "1,10^400", "10^400"])
def test_sidon_estimate_of_a_degree_beyond_float64(capsys, values, grid, exit_code, message):
    code, out, err = run_cli(capsys, "sidon", "estimate", "--set", values, "--seed", "1",
                             *(("--grid", grid) if grid else ()))
    assert (code, out) == (exit_code, "")
    assert err.count("\n") == 1 and message in err


def test_validate_good_and_bad(capsys, spec_path, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "--spec", spec_path)
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "frequencies": {"rule": "explicit", "values": [1, 4]},
        "coefficients": {"explicit": [{"r": 1.5}, {"r": 0.5}]},
    }), encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", "--spec", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("invalid: coefficients.explicit[0].r: ")


def test_missing_file_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--spec", "/nonexistent.json",
                           "--depth", "2")
    assert code == 2
    assert "invalid" in err


def test_cap_refusal_exits_three(capsys, spec_path, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({
        "frequencies": {"rule": "geometric", "base": 4, "count": 20},
        "coefficients": {"constant": {"r": 0.5, "theta": 0.0}},
    }), encoding="utf-8")
    code, _, err = run_cli(capsys, "coeffs", "--spec", str(deep), "--depth", "19")
    assert code == 3
    assert "refused" in err


def test_spectrum_at_the_deepest_lacunary3_depth(capsys, tmp_path):
    # 3^2584 is the last power of 3 within FREQUENCY_BITS; no expansion is formed
    k = 2584
    path = write_spec(tmp_path, {"frequencies": {"rule": "geometric", "base": 3, "count": k + 1},
                                 "coefficients": {"constant": {"r": 0.5, "theta": 0.0}}})
    code, out, _ = run_cli(capsys, "spectrum", "--spec", path, "--depth", str(k))
    assert code == 0
    rows = [tuple(map(int, line.split(","))) for line in out.splitlines()[2:]]
    assert rows == [(n, (3 ** n + 1) // 2, (3 ** (n + 1) - 1) // 2, 3 ** n)
                    for n in range(k + 1)]  # the last count is 3^k


@pytest.mark.parametrize("argv", [
    ("coeffs", "--spec", "s.json", "--depth", "1", "--seed", "1"),
    ("frobnicate",),
    (),
    ("coeffs", "--spec", "s.json"),
    ("coeffs", "--spec", "s.json", "--depth", "one"),
    ("qi",),
    ("energy", "--spec", "s.json", "--alpha", "0.5", "--variant", "exact"),
    ("eval", "--spec", "s.json", "--depth", "1", "--grid", "5", "--t", "1"),
], ids=["unknown option", "unknown command", "no command", "missing option", "bad integer",
        "missing mode", "bad choice", "exclusive options"])
def test_an_argparse_refusal_is_one_invalid_line(argv):
    code, out, err = run_child(*argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("invalid: "), err


def test_help_is_unchanged_by_the_refusal_parser(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["coeffs", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: riesz coeffs [-h]")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_eval_takes_points_or_a_grid_not_both(capsys, spec_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--spec", spec_path, "--depth", "1", "--grid", "5", "--t", "1"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def classify_argv(tmp_path) -> tuple[str, ...]:
    """A classify command line on a singular pair with a declared divergent tail."""
    freqs = {"rule": "geometric", "base": 4, "count": 16}
    spec_a = tmp_path / "a.json"
    spec_a.write_text(json.dumps({
        "frequencies": freqs,
        "coefficients": {"constant": {"r": 0.0, "theta": 0.0}},
    }), encoding="utf-8")
    spec_b = tmp_path / "b.json"
    spec_b.write_text(json.dumps({
        "frequencies": freqs,
        "coefficients": {"explicit": [
            {"r": 1 / math.sqrt(j + 1), "theta": 0.0} for j in range(16)]},
    }), encoding="utf-8")
    tails = tmp_path / "tails.json"
    tails.write_text(json.dumps({"l2_gap": "divergent"}), encoding="utf-8")
    return "classify", "--spec-a", str(spec_a), "--spec-b", str(spec_b), "--tails", str(tails)


def test_classify_command(capsys, tmp_path):
    code, out, err = run_cli(capsys, *classify_argv(tmp_path))
    assert code == 0
    assert "verdict: mutually_singular" in err
    assert "criterion: l2_gap_divergent" in err
    assert "l2_gap" in out  # evidence rows


def test_witness_command(capsys, tmp_path):
    freqs = {"rule": "geometric", "base": 4, "count": 8}
    spec_a = tmp_path / "a.json"
    spec_a.write_text(json.dumps({
        "frequencies": freqs,
        "coefficients": {"constant": {"r": 0.5, "theta": 0.0}},
    }), encoding="utf-8")
    spec_b = tmp_path / "b.json"
    spec_b.write_text(json.dumps({
        "frequencies": freqs,
        "coefficients": {"constant": {"r": 0.25, "theta": 0.0}},
    }), encoding="utf-8")
    code, out, _ = run_cli(capsys, "witness", "--spec-a", str(spec_a),
                           "--spec-b", str(spec_b))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "j,c_re,c_im,partial_inner,l2_partial"
    assert len(lines) == 2 + 8


@pytest.mark.parametrize("r0, exit_code", [(2.3e-162, 3), (1e-170, 3), (1.5e-154, 0)],
                         ids=["subnormal", "underflow", "normal"])
def test_witness_refuses_a_gap_whose_square_is_not_normal(tmp_path, r0, exit_code):
    # specs that differ at j = 0 alone: |a_0 - b_0|^2 is subnormal, 0.0 or normal
    spec_a, spec_b = tmp_path / "a.json", tmp_path / "b.json"
    spec_a.write_text(json.dumps(gap_spec(r0)), encoding="utf-8")
    spec_b.write_text(json.dumps(gap_spec(0.0)), encoding="utf-8")
    code, out, err = run_child("witness", "--spec-a", str(spec_a), "--spec-b", str(spec_b))
    assert code == exit_code
    if exit_code == 3:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("refused: ") and f"at j = 0: |a_j - b_j| = {r0!r}" in err
    else:
        assert_report(out, [])
        assert out.splitlines()[2].endswith(",1.0,4.4444444444444433e+307")


def test_interval_command_bound_dominates(capsys, spec_path):
    code, out, _ = run_cli(capsys, "interval", "--spec", spec_path,
                           "--depth", "5", "--t", "0.5,2.0", "--s", "0.1,0.01",
                           "--n", "1")
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        _, _, measure, bound = (float(x) for x in line.split(","))
        assert bound >= measure - 1e-12


def test_interval_command_matches_per_pair_readers(capsys, spec_path):
    code, out, _ = run_cli(capsys, "interval", "--spec", spec_path, "--depth", "6",
                           "--t", "0.5,2.0,0.5", "--s", "0.1,0.01,3.0", "--n", "2")
    assert code == 0
    spec = rieszprod.load_spec(spec_path)
    rows = [[float(x) for x in line.split(",")] for line in out.strip().splitlines()[2:]]
    assert [(t, s) for t, s, _, _ in rows] == [
        (t, s) for t in (0.5, 2.0, 0.5) for s in (0.1, 0.01, 3.0)]
    assert [(measure, bound) for _, _, measure, bound in rows] == [
        (rieszprod.interval_measure(spec, 6, t, s),
         rieszprod.interval_upper_bound(spec, 2, 6, t, s)) for t, s, _, _ in rows]


def test_interval_table_past_the_grid_budget_is_refused_before_any_mass(
        monkeypatch, capsys, spec_path):
    monkeypatch.setattr(core, "GRID_BUDGET", 3)
    monkeypatch.setattr(analysis, "interval_measure", None)  # a call would fail
    code, out, err = run_cli(capsys, "interval", "--spec", spec_path, "--depth", "1",
                             "--t", "0.5,1.5", "--s", "0.1,0.2")
    assert (code, out, err) == (
        3, "", "refused: the interval table needs 4 points; the grid budget is 3\n")


def test_dim_command_quadrature(capsys, spec_path):
    code, out, err = run_cli(capsys, "dim", "--spec", spec_path,
                             "--n-min", "1", "--n-max", "2", "--depth", "5")
    assert code == 0
    assert "dimension bracket" in err
    lines = out.strip().splitlines()
    assert lines[1] == "n,L_n"
    assert len(lines) == 2 + 2


def test_eval_and_spectrum_and_gram_and_convolve(capsys, spec_path):
    code, out, _ = run_cli(capsys, "eval", "--spec", spec_path, "--depth", "1",
                           "--t", "0.0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "0.0,4.0"

    code, out, _ = run_cli(capsys, "spectrum", "--spec", spec_path, "--depth", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 2 + 3

    code, out, _ = run_cli(capsys, "gram", "--spec", spec_path, "--j", "1",
                           "--k", "1", "--depth", "4")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1,1,0.75,0.0"

    code, out, _ = run_cli(capsys, "convolve", "--spec-a", spec_path,
                           "--spec-b", spec_path, "--depth", "1")
    assert code == 0
    rows = {int(ln.split(",")[0]): float(ln.split(",")[1])
            for ln in out.strip().splitlines()[2:]}
    assert rows[1] == 0.25


def test_holder_command(capsys, spec_path):
    code, out, _ = run_cli(capsys, "holder", "--spec", spec_path, "--depth", "5",
                           "--t", "0.0", "--scales", "0.25,0.125,0.0625")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "t,s,ratio"
    config = json.loads(lines[0][len("# config: "):])
    assert "alpha_estimate" in config


def test_json_format_mirrors_csv(capsys, spec_path):
    code, out_csv, _ = run_cli(capsys, "coeffs", "--spec", spec_path,
                               "--depth", "1")
    code, out_json, _ = run_cli(capsys, "coeffs", "--spec", spec_path,
                                "--depth", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out_json)
    csv_rows = [ln.split(",") for ln in out_csv.strip().splitlines()[2:]]
    assert len(payload["rows"]) == len(csv_rows)
    assert payload["header"] == ["frequency", "re", "im"]


def test_threads_flag_does_not_change_results(capsys, spec_path):
    _, out1, _ = run_cli(capsys, "coeffs", "--spec", spec_path, "--depth", "3")
    _, out4, _ = run_cli(capsys, "coeffs", "--spec", spec_path, "--depth", "3",
                         "--threads", "4")
    strip = lambda text: text.splitlines()[1:]  # config echoes differ
    assert strip(out1) == strip(out4)


def test_energy_band_exact_on_exact_integer_frequencies(tmp_path):
    path = write_spec(tmp_path, HUGE_SPEC)
    totals = {}
    for variant in ("band_exact", "direct"):
        code, out, _ = run_child("energy", "--spec", path, "--alpha", "0.5",
                                 "--variant", variant)
        assert code == 0
        totals[variant] = float(out.strip().splitlines()[-1].split(",")[1])
    assert abs(totals["band_exact"] - totals["direct"]) <= 1e-12 * totals["direct"]


@pytest.mark.parametrize("argv", [
    ("interval", "--depth", "3", "--t", "0.5", "--s", "0.1"),
    ("holder", "--depth", "3", "--t", "0.5", "--scales", "0.5,0.25"),
])
def test_float_phase_readers_refuse_exact_integer_frequencies(tmp_path, argv):
    code, out, err = run_child(*argv, "--spec", write_spec(tmp_path, HUGE_SPEC))
    assert code == 3
    assert err.startswith("refused: ")
    assert str(sum(HUGE_FREQUENCIES)) in err and "2^62" in err
    assert out == ""


@pytest.mark.parametrize("argv, reader, reach", [
    (("interval", "--depth", "3", "--t", "0.5", "--s", "0.1"), "interval_measure", "0.5"),
    # the measure's reach max(|t|, s) = 0.03 passes, the bound's |t| + s does not
    (("interval", "--depth", "3", "--t", "0.03", "--s", "0.03"), "interval_upper_bound",
     "0.06"),
    (("holder", "--depth", "3", "--t", "0.5", "--scales", "0.5,0.25"), "local_holder", "0.5"),
])
def test_float_phase_readers_refuse_phases_beyond_2_52(tmp_path, argv, reader, reach):
    code, out, err = run_child(*argv, "--spec", write_spec(tmp_path, PHASE_SPEC))
    assert code == 3 and out == ""
    assert err.startswith(f"refused: {reader} needs float64 phases")
    assert f"support bound {sum(PHASE_FREQUENCIES)}" in err
    assert f"reach {reach} " in err and "2^52" in err


def test_expansion_depth_cap(capsys, tmp_path):
    path = write_spec(tmp_path, {
        "frequencies": {"rule": "geometric", "base": 3, "count": 15},
        "coefficients": {"constant": {"r": 0.5, "theta": 0.0}}})
    code, out, err = run_cli(capsys, "coeffs", "--spec", path, "--depth", "13")
    assert code == 3 and out == ""
    assert err.startswith("refused: ")
    assert "depth 13" in err and "cap is depth 12" in err

    code, out, err = run_cli(capsys, "energy", "--spec", path, "--alpha", "0.5",
                             "--variant", "band_exact", "--n-max", "14")
    assert code == 3 and out == ""
    assert err.startswith("refused: ")
    assert "n_max=14" in err and "depth-13" in err and "cap is n_max=13" in err


def test_a_child_reports_what_main_reports(capsys, spec_path, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frequencies": {"rule": "explicit", "values": [1, 4]},
                               "coefficients": {"explicit": [{"r": 1.5}]}}), encoding="utf-8")
    for argv, exit_code in [(("coeffs", "--spec", spec_path, "--depth", "3"), 0),
                            (("validate", "--spec", str(bad)), 2),
                            (("coeffs", "--spec", spec_path, "--depth", "99"), 2),
                            (("coeffs", "--spec", spec_path, "--depth", "3", "--format", "json",
                              "--out", str(tmp_path)), 2),
                            (("qi", "build", "--nu", "9"), 3)]:
        reported = run_cli(capsys, *argv)
        assert reported[0] == exit_code
        assert run_child(*argv) == reported


def test_child_leaves_without_interpreter_teardown(spec_path):
    script = ("import atexit, sys; atexit.register(print, 'teardown', file=sys.stderr); "
              "from rieszprod.cli import console_main; "
              f"sys.argv = ['riesz', 'validate', '--spec', {spec_path!r}]; console_main()")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[1] == "path,message"


class FullStream(io.StringIO):
    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("code, expected", [(0, 2), (3, 3)])
def test_a_failed_final_flush_is_exit_2_unless_main_failed(monkeypatch, capsys, code, expected):
    exits = []
    monkeypatch.setattr(cli, "main", lambda: code)
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    monkeypatch.setattr(sys, "stdout", FullStream())
    cli.console_main()
    err = capsys.readouterr().err
    assert exits == [expected]
    assert err == ("invalid: [Errno 28] No space left on device\n" if code == 0 else "")


def test_closed_stdout_is_a_diagnostic(spec_path):
    code, _, err = run_child("validate", "--spec", spec_path, stdout=None,
                             preexec_fn=lambda: os.close(1))
    assert (code, err) == (2, "invalid: stdout is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_full_stdout_is_a_diagnostic(spec_path, unbuffered):
    with open("/dev/full", "w") as full:
        code, _, err = run_child("validate", "--spec", spec_path, stdout=full,
                                 env=child_env(PYTHONUNBUFFERED=unbuffered))
    assert code == 2
    assert err.startswith("invalid: [Errno 28]") and err.count("\n") == 1


# a 3^10-term report: on two or more CPUs it is formatted in forked parts
FORKED_SPEC = {"frequencies": {"rule": "geometric", "base": 3, "count": 11},
               "coefficients": {"random_phase": {"r": 0.7, "seed": 11}}}


def processes_naming(text: str) -> list[int]:
    """The pids of the processes whose command line holds ``text``; a forked
    part carries the command line of the riesz process that forked it."""
    pids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if text.encode() in fh.read():
                    pids.append(int(entry))
        except OSError:  # the process has ended
            pass
    return pids


def write_forked_report(tmp_path, stdout: str) -> tuple[int, str, list[int]]:
    """A forked 3^10-term coeffs report written to /dev/full, or into a pipe
    closed after one byte as by ``| head -c 1``: (exit code, stderr, the
    processes left).  stderr goes to a file, so that the child's exit, not
    the end of every process that holds its stderr, ends the wait."""
    path = write_spec(tmp_path, FORKED_SPEC)
    argv = [sys.executable, "-m", "rieszprod.cli", "coeffs", "--spec", path, "--depth", "9"]
    with open(tmp_path / "err", "wb") as err:
        if stdout == "closed pipe":
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=child_env())
            assert proc.stdout.read(1)
            proc.stdout.close()
        else:
            with open(stdout, "wb") as out:
                proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        proc.wait(timeout=120)
    return proc.returncode, (tmp_path / "err").read_text(), processes_naming(path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("stdout", ["/dev/full", "closed pipe"])
def test_a_forked_report_that_cannot_be_written_is_a_diagnostic(tmp_path, stdout):
    if stdout == "/dev/full" and not os.path.exists(stdout):
        pytest.skip(f"needs {stdout}")
    code, err, left = write_forked_report(tmp_path, stdout)
    assert left == []
    assert code == 2
    assert err.startswith("invalid: [Errno ") and err.count("\n") == 1


# every name the package exported when its __init__ imported each layer eagerly
PACKAGE_EXPORTS = {
    "core": "DYADIC LACUNARY3 CapError CoefficientSequence FourierCoefficient "
            "FrequencySequence RegimeError RieszSpec SignPattern SpectralBand "
            "SpectralGapError StabilityError TrigPolynomial ValidationError convolve_products "
            "eval_partial_product expand_partial_product fourier_coefficient "
            "gram_centered_exponentials randomize_phases spectrum_bands validate_spec",
    "analysis": "DimensionReport EnergyReport HolderSample alpha_energy_band_series "
                "alpha_energy_direct dimension_bounds dimension_integral "
                "energy_dimension_bound holder_transfer_check "
                "interval_measure interval_upper_bound local_holder series_verdict "
                "smooth_by_vp vallee_poussin_kernel",
    "classify": "DivergenceWitness SeriesEvidence TailDeclarations Verdict "
                "build_divergence_witness centered_series_partial_sums classify_pair "
                "disc_metric_distance series_gap_l2 series_gap_weighted",
    "qi": "DissociatedBase IntVectorSet LambdaSet Mesh MeshBoundReport MeshIntersection "
          "QiCheckResult QiMatrix SidonEstimate build_dissociated_base build_lambda "
          "build_qi_matrix closed_form_column_count mesh_intersection qi_check_bruteforce "
          "qi_check_mitm sidon_lower_estimate sidon_union_bound verify_mesh_bound",
    "specio": "Diagnostic SpecFileError load_spec schema_validate",
}


def test_every_package_export_still_resolves():
    for layer, names in PACKAGE_EXPORTS.items():
        namespace = {}
        exec(f"from rieszprod import {', '.join(names.split())}", namespace)
        module = getattr(rieszprod, layer)
        for name in names.split():
            assert namespace[name] is getattr(module, name), name
            assert name in dir(rieszprod)
    assert rieszprod.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        rieszprod.no_such_name


# 17 int64 values: past the scan's cap of 16, the meet-in-the-middle search sums int64 arrays
MITM_17 = ",".join(str(3 ** j) for j in range(17))


def run_python(script: str, **env) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(**env), check=True)
    return proc.stdout


def test_importing_the_package_loads_no_layer_and_no_numpy():
    script = ("import sys, rieszprod; print('numpy' in sys.modules, "
              "sorted(m for m in sys.modules if m.startswith('rieszprod.')))")
    assert run_python(script) == "False []\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
@pytest.mark.parametrize("blas, tasks", [(None, 1), ("2", 2)])
def test_the_cli_loads_numpy_with_one_blas_thread_unless_told(blas, tasks):
    """numpy loads at the first array command, not with the cli; it then
    starts one BLAS thread unless OPENBLAS_NUM_THREADS says otherwise, and
    leaves the environment as it found it."""
    if tasks > len(os.sched_getaffinity(0)):
        pytest.skip(f"OpenBLAS starts no more threads than the {tasks} CPUs this needs")
    script = ("import os, sys; before = dict(os.environ); import rieszprod.cli as cli; "
              "loaded = 'numpy' in sys.modules; "
              f"cli.main(['qi', 'check', '--method', 'mitm', '--values', '{MITM_17}', "
              "'--out', os.devnull]); "
              "print(len(os.listdir('/proc/self/task')), os.environ == before, "
              "os.environ.get('OPENBLAS_NUM_THREADS'), loaded, 'numpy' in sys.modules)")
    assert run_python(script, OPENBLAS_NUM_THREADS=blas).split() == [str(tasks), "True",
                                                                     str(blas), "False", "True"]


LAYERS = ("cli", "specio", "core", "analysis", "classify", "qi")
DEFERRED = {"analysis", "classify", "qi"}


def test_every_layer_keeps_reading_numpy_through_the_module_hook():
    """An array command leaves each layer's ``np`` bound to ``_lazynp``, which
    then holds numpy's values under the names read."""
    script = ("import os, sys, rieszprod._lazynp as lazy, rieszprod.cli as cli; "
              f"cli.main(['qi', 'check', '--method', 'mitm', '--values', '{MITM_17}', "
              "'--out', os.devnull]); "
              "import numpy; "
              f"print([sys.modules['rieszprod.' + layer].np is lazy for layer in {LAYERS!r}], "
              "lazy.ndarray is numpy.ndarray)")
    assert run_python(script) == f"{[True] * len(LAYERS)} True\n"


# prints the file of every source the child compiles; the CI step on the installed
# riesz script uses the same hook
COMPILE_HOOK = ("import sys; sys.addaudithook(lambda event, args: event == 'compile' "
                "and print('compiled:', args[1], file=sys.stderr)); ")
ENTRY_POINTS = {  # python -m rieszprod.cli, and the installed riesz script
    "module": "import runpy; runpy.run_module('rieszprod.cli', run_name='__main__', "
              "alter_sys=True)",
    "script": "from rieszprod.cli import console_main; console_main()",
}


def compiled_layers(tmp_path, entry: str, argv) -> set[str]:
    """The package modules that the CLI compiles in a child run through
    ``entry``.  The child reads its bytecode cache from an empty directory
    and writes none, so it compiles every module that it runs."""
    proc = subprocess.run(
        [sys.executable, "-B", "-X", f"pycache_prefix={tmp_path / 'pycache'}", "-c",
         COMPILE_HOOK + ENTRY_POINTS[entry], *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    package = Path(rieszprod.__file__).resolve().parent
    files = [Path(line.removeprefix("compiled: ")) for line in proc.stderr.splitlines()
             if line.startswith("compiled: ")]
    return {file.stem for file in files if file.resolve().parent == package}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv, deferred", [
    (("coeffs", "--spec", "{spec}", "--depth", "3"), set()),
    (("validate", "--spec", "{spec}"), set()),
    (("qi", "check", "--values", "1,2,3"), {"qi"}),
    (("dim", "--spec", "{spec}", "--depth", "5", "--n-min", "1", "--n-max", "2"),
     {"analysis"}),
    (("classify", "--spec-a", "{spec}", "--spec-b", "{spec}"), {"classify"}),
], ids=["coeffs", "validate", "qi-check", "dim", "classify"])
def test_a_command_compiles_only_the_layers_it_uses(tmp_path, spec_path, entry, argv,
                                                    deferred):
    layers = compiled_layers(tmp_path, entry, [a.format(spec=spec_path) for a in argv])
    assert {"__init__", "cli", "specio", "core"} <= layers
    assert layers & DEFERRED == deferred


# prints a line when the child imports numpy; the CI step on the installed riesz
# script uses the same hook
NUMPY_HOOK = ("import sys; sys.addaudithook(lambda event, args: event == 'import' "
              "and args[0] == 'numpy' and print('imported: numpy', file=sys.stderr)); ")
RANDOM_PHASE_SPEC = {**GOOD_SPEC, "coefficients": {"random_phase": {"r": 0.5, "seed": 7}}}
GRAM = ("gram", "--j", "1", "--k", "2", "--depth", "4", "--spec")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("argv, loads_numpy", [
    (("validate", "--spec", "{spec}"), False),
    (("validate", "--spec", "{random}"), False),  # the schema alone: no phase is drawn
    ((*GRAM, "{spec}"), False),
    (("classify", "--spec-a", "{a}", "--spec-b", "{b}", "--tails", "{tails}"), False),
    (("witness", "--spec-a", "{a}", "--spec-b", "{b}"), False),
    (("qi", "lambda", "--nu", "3"), False),
    (("qi", "build", "--nu", "3"), False),
    (("mesh", "count", "--lambda", "{lambda}", "--block", "2"), False),
    (("sidon", "bound", "--k", "3"), False),
    (("spectrum", "--spec", "{spec}", "--depth", "4"), False),
    (("energy", "--spec", "{spec}", "--alpha", "0.5", "--variant", "band_paper"), False),
    (("energy", "--spec", "{spec}", "--alpha", "0.5", "--variant", "band_exact"), True),
    (("coeffs", "--spec", "{spec}", "--depth", "3"), True),
    (("eval", "--spec", "{spec}", "--depth", "3", "--t", "0.5"), True),
    (("dim", "--spec", "{spec}", "--depth", "5", "--n-min", "1", "--n-max", "2"), True),
    (("qi", "check", "--values", "1,2,3"), False),  # auto: brute force, exact integers
    (("qi", "check", "--method", "mitm", "--values", "1,2,3"), False),  # up to 16: exact integers
    (("qi", "check", "--method", "mitm", "--values", MITM_17), True),  # 17 int64 codes
    (("sidon", "estimate", "--set", "1,3,9", "--seed", "1", "--trials", "5"), True),
    ((*GRAM, "{random}"), True),  # random phases are drawn from numpy's PCG64
], ids=["validate", "validate-random-phase", "gram", "classify", "witness", "qi-lambda",
        "qi-build", "mesh-count", "sidon-bound", "spectrum", "energy-band-paper",
        "energy-band-exact", "coeffs", "eval", "dim", "qi-check", "qi-check-mitm",
        "qi-check-mitm-17", "sidon-estimate", "gram-random-phase"])
def test_numpy_loads_only_for_commands_that_use_arrays(tmp_path, spec_path, entry, argv,
                                                       loads_numpy):
    _, _, a, _, b, _, tails = classify_argv(tmp_path)
    random = tmp_path / "random.json"
    random.write_text(json.dumps(RANDOM_PHASE_SPEC), encoding="utf-8")
    paths = {"spec": spec_path, "random": str(random), "a": a, "b": b, "tails": tails,
             "lambda": str(tmp_path / "lambda.csv")}
    assert main(["qi", "lambda", "--nu", "3", "--out", paths["lambda"]]) == 0
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_HOOK + ENTRY_POINTS[entry],
         *(arg.format(**paths) for arg in argv)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert ("imported: numpy" in proc.stderr.splitlines()) is loads_numpy


def test_a_dyadic_coefficient_past_the_expansion_cap_imports_no_numpy():
    # 41 dyadic factors: with a_j = 0 past factor 12, every c_m at depth 40 is
    # the depth-12 expansion's, bit for bit; with every a_j nonzero, c_0 = 1
    # and c_{2^40} = a_40/2, the one pattern of each
    phases = tuple(0.7 * j for j in range(41))
    capped = core.RieszSpec(core.FrequencySequence.geometric(2, 41), core.CoefficientSequence(
        tuple(0.9 - 0.05 * j if j <= 12 else 0.0 for j in range(41)), phases), "dyadic")
    full = core.replace(capped, coeffs=core.CoefficientSequence((0.5,) * 41, phases))
    ms = range(-2 ** 13 - 1, 2 ** 13 + 2)
    script = (NUMPY_HOOK + "from rieszprod.core import *; "
              f"capped, full = {capped!r}, {full!r}\n"
              f"for m in {ms!r}:\n    c = fourier_coefficient(capped, m, 40).value; "
              "print(repr(c.real), repr(c.imag))\n"
              "for m in (0, 2 ** 40):\n    c = fourier_coefficient(full, m, 40).value; "
              "print(repr(c.real), repr(c.imag))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    poly = core.expand_partial_product(capped, 12)
    expected = [poly.coefficient(m) for m in ms] + [1 + 0j, full.coefficient(40) / 2]
    assert proc.stdout.splitlines() == [f"{c.real!r} {c.imag!r}" for c in expected]


def public_functions(module) -> list[str]:
    """What ``bench/spans.py`` wraps: the public functions that ``module`` defines."""
    return sorted(name for name, value in vars(module).items() if not name.startswith("_")
                  and inspect.isfunction(value) and value.__module__ == module.__name__)


MODULE_GRAPH = f"""
import inspect, json, sys
import rieszprod, rieszprod.cli as cli
{inspect.getsource(public_functions)}
print(json.dumps({{
    "registered": [f"rieszprod.{{layer}}" in sys.modules for layer in {LAYERS!r}],
    "shared": [getattr(cli, layer) is sys.modules[f"rieszprod.{{layer}}"]
               is getattr(rieszprod, layer) for layer in {sorted(DEFERRED)!r}],
    "functions": [public_functions(sys.modules[f"rieszprod.{{layer}}"])
                  for layer in {LAYERS!r}],
}}))
"""


def test_the_cli_registers_every_layer_as_an_import_would():
    graph = json.loads(run_python(MODULE_GRAPH))
    assert all(graph["registered"]) and all(graph["shared"])
    for layer, functions in zip(LAYERS, graph["functions"]):
        assert functions, layer
        assert functions == public_functions(importlib.import_module(f"rieszprod.{layer}"))


LIBRARY_USER = "from rieszprod.qi import qi_check_mitm; import rieszprod.qi as qi"


@pytest.mark.parametrize("first, then", [(LIBRARY_USER, "import rieszprod.cli as cli"),
                                         ("import rieszprod.cli as cli", LIBRARY_USER)],
                         ids=["qi-first", "cli-first"])
def test_the_cli_and_a_library_user_share_one_qi_module(first, then):
    script = f"{first}; {then}; print(cli.qi is qi, cli.qi.qi_check_mitm is qi_check_mitm)"
    assert run_python(script) == "True True\n"


# a missing spec file is a diagnostic, a qi build past its cap a refusal
UNWRITABLE_STDERR_CASES = [(("coeffs", "--spec", "/nonexistent", "--depth", "2"), 2),
                           (("qi", "build", "--nu", "9"), 3)]


def run_child_without_stderr(argv, **popen):
    """The CLI in a child whose stderr cannot be written: (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-m", "rieszprod.cli", *argv],
                          stdout=subprocess.PIPE, text=True, env=child_env(), **popen)
    return proc.returncode, proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, exit_code", UNWRITABLE_STDERR_CASES)
def test_a_full_stderr_keeps_the_exit_code(argv, exit_code):
    with open("/dev/full", "w") as full:
        assert run_child_without_stderr(argv, stderr=full) == (exit_code, "")


def reopen_fd_2_read_only():
    os.close(2)
    os.open(os.devnull, os.O_RDONLY)  # the lowest free descriptor: 2


@pytest.mark.parametrize("argv, exit_code", UNWRITABLE_STDERR_CASES)
@pytest.mark.parametrize("stderr", [lambda: os.close(2), reopen_fd_2_read_only],
                         ids=["closed", "read-only"])
def test_a_closed_stderr_keeps_the_exit_code(argv, exit_code, stderr):
    # closed: the child has no sys.stderr, and the diagnostic must not go to stdout
    # read-only: every write to fd 2 fails with EBADF
    assert run_child_without_stderr(argv, preexec_fn=stderr) == (exit_code, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_report_does_not_depend_on_writing_its_stderr_note(spec_path):
    argv = ("dim", "--spec", spec_path, "--depth", "5", "--n-min", "1", "--n-max", "2")
    code, out, err = run_child(*argv)
    assert code == 0 and err.startswith("dimension bracket: [")
    with open("/dev/full", "w") as full:
        assert run_child_without_stderr(argv, stderr=full) == (0, out)


def run_child_to_file(path, *argv, **popen) -> tuple[int, str]:
    """The CLI in a child whose stdout is the file ``path``: (exit code, stderr)."""
    with open(path, "wb") as out:
        code, _, err = run_child(*argv, stdout=out, **popen)
    return code, err


# the one config entry that --out adds to a report, as each format writes it
OUT_ENTRY = {"csv": b'"out": "report", ', "json": b'\n    "out": "report",'}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_holds_only_the_report_and_stderr_the_note(tmp_path, spec_path, fmt):
    lambda_csv = tmp_path / "lambda.csv"
    assert main(["qi", "lambda", "--nu", "3", "--out", str(lambda_csv)]) == 0
    dim = analysis.dimension_bounds(load_spec(spec_path), range(1, 3), 5)
    estimate = qi.sidon_lower_estimate([1, 4, 16, 64], trials=5, seed=7)
    cases = [
        (("qi", "check", "--values", "1,2,3"), "verdict: false\nwitness: 1,1,-1\n"),
        (classify_argv(tmp_path), "verdict: mutually_singular criterion: l2_gap_divergent\n"),
        (("mesh", "count", "--lambda", str(lambda_csv), "--block", "2"), "count: 8\n"),
        (("sidon", "bound", "--k", "1"), f"bound: {3 * math.sqrt(3)!r}\n"),
        (("sidon", "estimate", "--set", "1,4,16,64", "--trials", "5", "--seed", "7"),
         f"certified lower bound: {estimate.lower_bound!r}\n"),
        (("dim", "--spec", spec_path, "--depth", "5", "--n-min", "1", "--n-max", "2"),
         f"dimension bracket: [{dim.lower!r}, {dim.upper!r}]\n"),
    ]
    for argv, note in cases:
        argv = (*argv, "--format", fmt)
        assert run_child_to_file(tmp_path / "stdout", *argv) == (0, note), argv
        assert run_child_to_file(tmp_path / "empty", *argv, "--out", "report",
                                 cwd=tmp_path) == (0, note), argv
        assert (tmp_path / "empty").read_bytes() == b""
        stdout = (tmp_path / "stdout").read_bytes()
        head, entry, tail = (tmp_path / "report").read_bytes().partition(OUT_ENTRY[fmt])
        assert entry and stdout == head + tail, argv
        if fmt == "json":
            json.loads(stdout)
        else:
            assert stdout.startswith(b"# config: {"), argv


def test_options_are_declared_only_where_they_act():
    declared = {name: {flag for action in parser._actions for flag in action.option_strings}
                for name, parser in _subcommands().items()}
    assert {name for name, flags in declared.items() if "--seed" in flags} == {"dim", "sidon"}
    assert not any("--emit" in flags for flags in declared.values())
    assert sum(len(flags - {"-h", "--help"}) for flags in declared.values()) == 99


@pytest.mark.parametrize("argv", [
    ("coeffs", "--spec", "SPEC", "--depth", "1", "--seed", "1"),
    ("validate", "--spec", "SPEC", "--seed", "1"),
    ("qi", "build", "--nu", "2", "--emit", "matrix.csv"),
], ids=["coeffs --seed", "validate --seed", "qi build --emit"])
def test_an_option_of_another_command_is_a_bad_argument(tmp_path, spec_path, argv):
    code, out, err = run_child(*(spec_path if arg == "SPEC" else arg for arg in argv),
                               cwd=tmp_path)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert not (tmp_path / "matrix.csv").exists()


MONTE_CARLO = ("dim", "--n-min", "1", "--n-max", "1", "--depth", "6",
               "--method", "monte_carlo", "--seed", "1", "--samples")
NEGATIVE_SEED_SPEC = {**GOOD_SPEC, "coefficients": {"random_phase": {"r": 0.5, "seed": -1}}}
# a JSON integer that float64 cannot hold
BEYOND_FLOAT_R_SPEC = {**GOOD_SPEC, "coefficients": {"constant": {"r": 10 ** 400}}}
BEYOND_FLOAT_THETA_SPEC = {**GOOD_SPEC,
                           "coefficients": {"constant": {"r": 0.5, "theta": -10 ** 400}}}


# the path of the row's spec file; rows without it get --spec appended
SPEC = "SPEC"

REFUSALS = [
    # arguments out of range
    (GOOD_SPEC, ("holder", "--depth", "100", "--t", "0.5", "--scales", "0.5"), 2,
     "depth=100 out of range [0, 6]"),
    (GOOD_SPEC, ("dim", "--n-min", "20", "--n-max", "20", "--depth", "6"), 2,
     "n=20 out of range [0, 6]"),
    (GOOD_SPEC, MONTE_CARLO + ("-1",), 2, "samples must be >= 1, got -1"),
    (GOOD_SPEC, MONTE_CARLO + ("0",), 2, "samples must be >= 1, got 0"),
    # a range is checked n by n: n = 4 is refused before the next n is formed
    (GOOD_SPEC, ("dim", "--n-min", "1", "--n-max", str(10 ** 12), "--depth", "6"), 2,
     "depth must be >= n + 3 for a faithful measure proxy, got n=4, depth=6"),
    # negative seeds, and JSON integers beyond float64
    (GOOD_SPEC, MONTE_CARLO[:-2] + ("-1",), 2, "seed must be >= 0, got -1"),
    (NEGATIVE_SEED_SPEC, ("coeffs", "--depth", "2"), 2,
     "coefficients.random_phase.seed: must be an integer >= 0"),
    (BEYOND_FLOAT_R_SPEC, ("coeffs", "--depth", "2"), 2,
     "coefficients.constant.r: must be a finite number"),
    (BEYOND_FLOAT_THETA_SPEC, ("coeffs", "--depth", "2"), 2,
     "coefficients.constant.theta: must be a finite number"),
    (GOOD_SPEC, ("gram", "--j", "-1", "--k", "-1", "--depth", "6"), 2, "j=-1, k=-1"),
    (GOOD_SPEC, ("eval", "--depth", "3", "--grid", "-5"), 2, "--grid must be >= 1, got -5"),
    (GOOD_SPEC, ("witness", "--spec-a", SPEC, "--spec-b", SPEC, "--terms", "-3"), 2,
     "terms must be >= 1, got -3"),
    (GOOD_SPEC, ("energy", "--alpha", "0.5", "--variant", "direct", "--cutoff", "0"), 2,
     "--cutoff must be >= 1, got 0"),
    (GOOD_SPEC, ("energy", "--alpha", "0.5", "--variant", "direct", "--cutoff", "-5"), 2,
     "--cutoff must be >= 1, got -5"),
    (GOOD_SPEC, ("mesh", "count", "--lambda", SPEC, "--block", "0"), 2,
     "base level must lie in [1, 8], got 0"),
    (GOOD_SPEC, ("mesh", "count", "--lambda", SPEC, "--block", "9"), 3,
     "base level must lie in [1, 8], got 9"),
    # lists with no number
    (GOOD_SPEC, ("eval", "--depth", "3", "--t", ","), 2, "expected finite numbers, got ','"),
    (GOOD_SPEC, ("interval", "--depth", "3", "--t", "0.5", "--s", " , "), 2, "got ' , '"),
    # non-finite points
    (GOOD_SPEC, ("eval", "--depth", "3", "--t", "0,nan"), 2, "'0,nan'"),
    (GOOD_SPEC, ("interval", "--depth", "3", "--t", "inf", "--s", "0.1"), 2, "'inf'"),
    (GOOD_SPEC, ("holder", "--depth", "5", "--t", "nan", "--scales", "0.25"), 2, "nan"),
    # the grid budget
    (GRID_SPEC, ("dim", "--n-min", "0", "--n-max", "1", "--depth", "4"), 3,
     f"needs {8 * sum(GRID_FREQUENCIES)} points; the grid budget is {GRID_BUDGET}"),
    (GOOD_SPEC, MONTE_CARLO + (str(GRID_BUDGET + 1),), 3,
     f"needs {GRID_BUDGET + 1} points; the grid budget is {GRID_BUDGET}"),
    (GOOD_SPEC, ("eval", "--depth", "3", "--grid", str(GRID_BUDGET + 1)), 3,
     f"needs {GRID_BUDGET + 1} points; the grid budget is {GRID_BUDGET}"),
    # mesh padding, checked before the elements are read, and a lambda CSV
    # without element rows (the spec file serves as one)
    (GOOD_SPEC, ("mesh", "count", "--lambda", SPEC, "--block", "1", "--k", "1000000"), 3,
     f"k=1000000 generators; the cap is {MESH_GENERATOR_CAP}"),
    (GOOD_SPEC, ("mesh", "count", "--lambda", SPEC, "--block", "1"), 2,
     "spec.json: no element rows"),
    # phases without float64 precision, frequencies beyond float64
    (HUGE_SPEC, ("eval", "--depth", "3", "--t", "0.5"), 3,
     f"below 2^52; factor 2 has lambda_j = {10 ** 20} and max |t| = 0.5"),
    (BEYOND_FLOAT_SPEC, ("eval", "--depth", "1", "--t", "0.5"), 3, str(10 ** 400)),
    (BEYOND_FLOAT_SPEC, ("energy", "--alpha", "0.5"), 2, "finite ratio_max"),
    (BEYOND_FLOAT_SPEC, ("energy", "--alpha", "0.5", "--variant", "band_paper"), 2,
     "finite ratio_max"),
    (BEYOND_FLOAT_SPEC, ("energy", "--alpha", "0.5", "--variant", "direct"), 3,
     f"|m| reaches {10 ** 400 + 1}"),
    (BEYOND_FLOAT_SPEC, ("holder", "--depth", "1", "--t", "0.5", "--scales", "0.5"), 3,
     f"prefix sum {1 + 10 ** 400} >= 2^62"),
    (GEOMETRIC_BEYOND_FLOAT_SPEC, ("energy", "--alpha", "0.25", "--variant", "band_paper"), 3,
     f"band n=2 need frequencies in float64; lambda_n = {2 ** 1200}"),
    (GEOMETRIC_BEYOND_FLOAT_SPEC, ("energy", "--alpha", "0.25", "--variant", "band_exact"), 3,
     f"band n=2 need frequencies in float64; lambda_n = {2 ** 1200}"),
]


@pytest.mark.parametrize("doc, argv, exit_code, named", REFUSALS,
                         ids=[" ".join(argv) for _, argv, _, _ in REFUSALS])
def test_argument_checks_and_refusals(tmp_path, doc, argv, exit_code, named):
    path = write_spec(tmp_path, doc)
    if SPEC not in argv:
        argv += ("--spec", SPEC)
    code, out, err = run_child(*(path if arg == SPEC else arg for arg in argv))
    assert code == exit_code and out == ""
    assert err.startswith("invalid: " if exit_code == 2 else "refused: ")
    assert named in err


# command lines that read no spec file
SPECLESS_REFUSALS = [
    (("qi", "build", "--nu", "0"), 2, "matrix level must lie in [1, 8], got 0"),
    (("qi", "build", "--nu", "9"), 3, "matrix level must lie in [1, 8], got 9"),
    (("qi", "lambda", "--nu", "-1"), 2, "lambda level must lie in [1, 6], got -1"),
    (("qi", "lambda", "--nu", "7"), 3, "lambda level must lie in [1, 6], got 7"),
    (("qi", "check", "--values", ","), 2, "expected comma-separated integers, got ','"),
    (("sidon", "estimate", "--set", "1,3,9", "--seed", "1", "--trials", "0"), 2,
     "trials must be >= 1, got 0"),
    (("sidon", "estimate", "--set", ",", "--seed", "1"), 2,
     "expected comma-separated integers, got ','"),
    (("sidon", "estimate", "--set", "1,3,9", "--seed", "-1"), 2, "seed must be >= 0, got -1"),
    # bounds beyond float64: inf at k = 10^210, k itself beyond it at 10^400
    (("sidon", "bound", "--k", str(10 ** 210)), 3, f"k = {10 ** 210} is beyond float64"),
    (("sidon", "bound", "--k", str(10 ** 400)), 3, f"k = {10 ** 400} is beyond float64"),
]


@pytest.mark.parametrize("argv, exit_code, named", SPECLESS_REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in SPECLESS_REFUSALS])
def test_specless_argument_checks_and_refusals(argv, exit_code, named):
    code, out, err = run_child(*argv)
    assert code == exit_code and out == ""
    assert err.startswith("invalid: " if exit_code == 2 else "refused: ")
    assert named in err


def test_sidon_estimate_refuses_more_trials_than_its_search_budget():
    # without the check this search runs for ages: the timeout makes that a failure
    trials = 10 ** 400
    code, out, err = run_child("sidon", "estimate", "--set", "1,3,9", "--seed", "1",
                               "--trials", str(trials), timeout=60)
    assert (code, out) == (3, "")
    assert err == (f"refused: search budget exceeded: {trials} trials x 3 frequencies x "
                   f"1024 nodes > {200 * SIDON_GRID_BUDGET}\n")


@pytest.mark.parametrize("doc, row", [
    (NEGATIVE_SEED_SPEC, "coefficients.random_phase.seed: must be an integer >= 0"),
    (BEYOND_FLOAT_R_SPEC, "coefficients.constant.r: must be a finite number"),
    (BEYOND_FLOAT_THETA_SPEC, "coefficients.constant.theta: must be a finite number"),
], ids=["negative seed", "r beyond float64", "theta beyond float64"])
def test_validate_names_negative_seeds_and_integers_beyond_float64(tmp_path, doc, row):
    code, out, err = run_child("validate", "--spec", write_spec(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"invalid: {row}"]


def _subcommands() -> dict:
    """Subcommand name -> its parser."""
    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_command_table_matches_parser():
    keys = set()
    for name, parser in _subcommands().items():
        modes = [action.choices for action in parser._actions if action.dest == "mode"]
        keys |= {(name, mode) for mode in (modes[0] if modes else [None])}
    assert keys == set(COMMANDS)


WRONG = st.sampled_from([None, True, "3", [], {}, 0, -1, 2.5, math.nan, math.inf, 4097,
                         10 ** 30])
# with moduli whose squares are subnormal (2.3e-162) or 0.0 (1e-170) in float64
MODULUS = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1, 1.0, 2.3e-162, 1e-170])
RT = st.fixed_dictionaries({"r": MODULUS}, optional={
    "theta": st.sampled_from([0, 0.0, 0.3, -2.0, 7.5, 1e300, 2.0 ** 52, sys.float_info.max])})


def _places(node):
    """(container, key) of every value inside a document."""
    for key in (range(len(node)) if isinstance(node, list) else node):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _places(node[key])


@st.composite
def spec_documents(draw):
    """A document of the schema in the specio docstring (every rule,
    coefficient kind and regime, at most 8 frequencies; half of them valid),
    or one with a value or two replaced by a wrong one or dropped, or
    something else in its place."""
    regime = draw(st.sampled_from([None, "lacunary3", "dyadic"]))
    base = draw(st.sampled_from([2, 2, 2, 3] if regime == "dyadic" else [2, 3, 4, 5]))
    count = draw(st.integers(1, 8))
    doc = {"frequencies": draw(st.sampled_from([
               {"rule": "geometric", "base": base, "count": count},
               {"rule": "explicit", "values": [base ** j for j in range(count)]}])),
           "coefficients": draw(st.one_of(
               st.fixed_dictionaries({"constant": RT}),
               st.fixed_dictionaries({"explicit": st.lists(RT, min_size=count,
                                                           max_size=count)}),
               st.fixed_dictionaries({"random_phase": st.fixed_dictionaries(
                   {"r": MODULUS, "seed": st.integers(0, 2 ** 70)})})))}
    if regime is not None:
        doc["regime"] = regime
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        node, key = draw(st.sampled_from(list(_places(doc))))
        action = draw(st.sampled_from(["replace", "drop", "whole"]))
        if action == "whole":
            return draw(WRONG)
        if action == "drop":
            del node[key]
        else:
            node[key] = draw(WRONG | st.sampled_from(["fibonacci", "Dyadic", "constant"]))
    return doc


def test_spec_documents_reach_every_rule_kind_and_regime():
    """The generator yields valid documents of every rule, coefficient kind
    and regime, so the fuzzed command lines reach the commands, not only
    the diagnostics."""
    seen = set()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(spec_documents())
    def record(doc):
        try:
            if isinstance(doc, dict) and validate_document(doc) == []:
                seen.add((doc["frequencies"]["rule"], *doc["coefficients"],
                          doc.get("regime", "lacunary3")))
        except CapError:  # a geometric rule beyond FREQUENCY_BITS
            pass

    record()
    assert seen == set(itertools.product(["geometric", "explicit"],
                                         ["constant", "explicit", "random_phase"],
                                         ["lacunary3", "dyadic"]))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Value strategies for the file options of the command line."""
    root = tmp_path_factory.mktemp("fuzz")

    def put(name, text):
        (root / name).write_text(text, encoding="utf-8")
        return str(root / name)

    docs = {"good": GOOD_SPEC, "huge": HUGE_SPEC, "beyond": BEYOND_FLOAT_SPEC,
            "geometric_beyond": GEOMETRIC_BEYOND_FLOAT_SPEC,
            "dyadic": {"frequencies": {"rule": "geometric", "base": 2, "count": 6},
                       "coefficients": {"constant": {"r": 0.5}}, "regime": "dyadic"},
            "bad": {"frequencies": {"rule": "explicit", "values": [1, 2]},
                    "coefficients": {"constant": {"r": 1.5}}}}
    specs = [put(f"{name}.json", json.dumps(doc)) for name, doc in docs.items()]

    def put_document(doc):
        text = json.dumps(doc)
        return put(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] + ".json", text)

    unreadable = [put("broken.json", "{"), put("deep.json", "[" * 100_000),
                  put("long_integer.json", '{"frequencies": {"rule": "explicit", "values": '
                                           '[1, ' + "9" * 5000 + "]}}")]
    # three specs whose coefficients differ only at j = 0, by gaps whose squares
    # are subnormal or 0.0 in float64: any two of them make a witness refusal
    gaps = [put(f"gap_{r}.json", json.dumps(gap_spec(r))) for r in (0.0, 2.3e-162, 1e-170)]
    specs = st.sampled_from(specs + unreadable + [str(root / "missing.json")]) \
        | st.sampled_from(gaps) | spec_documents().map(put_document)
    return {
        "spec": specs, "spec_a": specs, "spec_b": specs,
        "tails": st.sampled_from([put("tails.json", json.dumps({"l2_gap": "divergent"})),
                                  put("bad_tails.json", json.dumps({"gap": "maybe"}))]),
        "lambda_csv": st.just(put("lambda.csv", "ell,block,gamma\n0,1,5\n1,1,-7\n2,1,12\n")),
    }


# small indices first: the fuzz specs have at most 7 frequencies; then the grid
# budget and one past it, 2^52, and sizes whose floats are infinite (10^210
# squared) or that are beyond float64 themselves
FUZZ_INTEGERS = (st.integers(0, 6) | st.integers(-5, 40)
                 | st.sampled_from([GRID_BUDGET, GRID_BUDGET + 1, 2 ** 52, 10 ** 210,
                                    10 ** 400])).map(str)
# points whose phases reach 2^52, and float64's largest value
FUZZ_POINT = st.sampled_from(["0", "0.25", "0.5", "0.75", "-1.25", "3", "1e300",
                              str(2 ** 52), repr(sys.float_info.max), "nan", "inf", "-inf"])
FUZZ_VALUES = {
    "t": st.lists(FUZZ_POINT, min_size=1, max_size=3).map(",".join),
    "s": st.lists(FUZZ_POINT, min_size=1, max_size=3).map(",".join),
    "scales": st.lists(FUZZ_POINT, min_size=1, max_size=3).map(",".join),
    "values": st.lists(st.integers(-5, 40) | st.sampled_from([10 ** 210, 10 ** 400]),
                       min_size=1, max_size=8).map(lambda xs: ",".join(map(str, xs))),
}

# text around a line break, as an argument or a file name may hold one
FUZZ_BROKEN_LINE = st.tuples(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), max_size=4),
    st.sampled_from(["\n", "\r\n", "\x0b", "\x85", "\u2028"]),
    st.sampled_from(["", "1", "x.json", "--depth"])).map("".join)


def _fuzz_argv(data, files) -> list[str]:
    """One command line: every required option of a drawn command and some
    of its optional ones, each with a drawn value.  Output files are never
    named."""
    subcommands = _subcommands()
    name = data.draw(st.sampled_from(sorted(subcommands)))
    argv = [name]
    for action in subcommands[name]._actions:
        if action.dest in ("help", "out"):
            continue
        if action.choices is not None:
            value = st.sampled_from(list(action.choices))
        elif action.type is int:
            value = FUZZ_INTEGERS
        elif action.type is float:
            value = FUZZ_POINT
        else:
            value = {**FUZZ_VALUES, **files}[action.dest]
        if not action.option_strings:
            argv.append(data.draw(value))
        elif action.required or data.draw(st.booleans()):
            argv.append(f"{action.option_strings[0]}={data.draw(value)}")
    if data.draw(st.integers(0, 9)) == 9:  # an option's value or one more argument
        at = data.draw(st.sampled_from([i for i, arg in enumerate(argv) if arg[:2] == "--"]
                                       + [len(argv)]))
        text = data.draw(FUZZ_BROKEN_LINE)
        argv[at:at + 1] = [f"{argv[at].partition('=')[0]}={text}" if at < len(argv) else text]
    return argv


# report columns whose float cells may be inf or nan
NON_FINITE_COLUMNS = frozenset()


def non_finite(cell) -> bool:
    """Whether a report cell is inf or nan: a float parsed from JSON, or the
    text that ``repr`` writes for one in CSV."""
    return isinstance(cell, float) and not math.isfinite(cell) or cell in ("inf", "-inf", "nan")


def assert_report(text: str, argv) -> None:
    """``text`` parses as a report of the format that ``argv`` names (CSV by
    default): a '# config: ' line holding a JSON object, a header and rows,
    or a JSON object of "config", "header" and "rows"; each row holds one
    cell per header name, and no float cell is inf or nan outside
    ``NON_FINITE_COLUMNS``."""
    fmt = next((arg.partition("=")[2] for arg in reversed(argv)
                if arg.startswith("--format=")), "csv")
    if fmt == "json":
        report = json.loads(text)
        assert sorted(report) == ["config", "header", "rows"], argv
        config, header, rows = report["config"], report["header"], report["rows"]
    else:
        line, _, body = text.partition("\n")
        assert line.startswith("# config: "), (argv, line)
        config = json.loads(line.removeprefix("# config: "))
        header, *rows = csv.reader(io.StringIO(body))
    assert isinstance(config, dict) and header, (argv, text[:200])
    assert all(len(row) == len(header) for row in rows), (argv, header)
    for row in rows:
        for name, cell in zip(header, row):
            assert name in NON_FINITE_COLUMNS or not non_finite(cell), (argv, name, cell)


@settings(max_examples=700, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_line_ends_in_exit_0_2_or_3(fuzz_files, data):
    argv = _fuzz_argv(data, fuzz_files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_info:  # argparse refuses the command line
            code = exit_info.code
            assert code == 2, argv
    assert code in (0, 2, 3), argv
    lines = err.getvalue().splitlines()
    if code == 2:  # diagnostics, one line each, and no report
        assert out.getvalue() == "" and lines, argv
        assert all(line.startswith("invalid: ") for line in lines), (argv, lines)
    elif code == 3:  # one refusal line and no report
        assert out.getvalue() == "" and len(lines) == 1, (argv, lines)
        assert lines[0].startswith("refused: "), (argv, lines)
        assert any(c.isdigit() for c in lines[0]), (argv, lines)  # it names a number
    else:  # the report alone on stdout
        assert_report(out.getvalue(), argv)
