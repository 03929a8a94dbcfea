"""CLI behavior: exit codes, determinism, report structure."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rieszprod
from rieszprod.cli import main

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


def run_child(*argv):
    """The CLI in a child interpreter, where an uncaught exception ends in a
    traceback on stderr."""
    src = str(Path(rieszprod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "rieszprod.cli", *argv],
                          capture_output=True, text=True, env=env)
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
    code, out, _ = run_cli(capsys, "qi", "check", "--values", "1,2,3")
    assert code == 0
    assert "verdict: false" in out
    assert "witness: 1,1,-1" in out


def test_qi_build_and_lambda_roundtrip_through_mesh(capsys, tmp_path):
    matrix_csv = tmp_path / "matrix.csv"
    code = main(["qi", "build", "--nu", "2", "--emit", str(matrix_csv)])
    assert code == 0
    assert len(matrix_csv.read_text().splitlines()) == 2 + 8  # config+header+cols

    lambda_csv = tmp_path / "lambda.csv"
    code = main(["qi", "lambda", "--nu", "3", "--emit", str(lambda_csv)])
    assert code == 0
    capsys.readouterr()

    code, out, _ = run_cli(capsys, "mesh", "count", "--lambda", str(lambda_csv),
                           "--block", "2")
    assert code == 0
    assert "count: 8" in out


def test_mesh_padded_generators_keep_count(capsys, tmp_path):
    lambda_csv = tmp_path / "lambda.csv"
    main(["qi", "lambda", "--nu", "2", "--emit", str(lambda_csv)])
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "mesh", "count", "--lambda", str(lambda_csv),
                           "--block", "2", "--k", "6")
    assert code == 0
    assert "count: 8" in out


def test_sidon_bound_and_estimate(capsys):
    code, out, _ = run_cli(capsys, "sidon", "bound", "--k", "1")
    assert code == 0
    value = float(out.strip().splitlines()[-1].split(",")[-1])
    assert abs(value - 3 * math.sqrt(3)) < 1e-9

    code, out, _ = run_cli(capsys, "sidon", "estimate", "--set", "1,4,16,64",
                           "--trials", "5", "--seed", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out[out.index("{"):])
    assert payload["config"]["seed"] == 7
    assert payload["config"]["generator"] == "numpy-pcg64"


def test_sidon_estimate_requires_seed(capsys):
    code, _, err = run_cli(capsys, "sidon", "estimate", "--set", "1,4,16")
    assert code == 2
    assert "seed" in err


def test_validate_good_and_bad(capsys, spec_path, tmp_path):
    code, out, _ = run_cli(capsys, "validate", "--spec", spec_path)
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "frequencies": {"rule": "explicit", "values": [1, 4]},
        "coefficients": {"explicit": [{"r": 1.5}, {"r": 0.5}]},
    }), encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", "--spec", str(bad))
    assert code == 2
    assert "coefficients.explicit[0].r" in out


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


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_classify_command(capsys, tmp_path):
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
    code, out, _ = run_cli(capsys, "classify", "--spec-a", str(spec_a),
                           "--spec-b", str(spec_b), "--tails", str(tails))
    assert code == 0
    assert "verdict: mutually_singular" in out
    assert "criterion: l2_gap_divergent" in out
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


def test_interval_command_bound_dominates(capsys, spec_path):
    code, out, _ = run_cli(capsys, "interval", "--spec", spec_path,
                           "--depth", "5", "--t", "0.5,2.0", "--s", "0.1,0.01",
                           "--n", "1")
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        _, _, measure, bound = (float(x) for x in line.split(","))
        assert bound >= measure - 1e-12


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
