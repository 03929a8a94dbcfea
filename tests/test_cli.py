"""CLI behavior: exit codes, determinism, report structure."""

import argparse
import hashlib
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
from rieszprod import analysis, cli, qi
from rieszprod.cli import COMMANDS, build_parser, main
from rieszprod.core import GRID_BUDGET, CapError
from rieszprod.qi import MESH_GENERATOR_CAP
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
# int64 frequencies whose phases m*t near t = 0.5 reach about 5 * 10^16 > 2^52
PHASE_FREQUENCIES = [1, 10, 10 ** 15, 10 ** 17]
PHASE_SPEC = {**HUGE_SPEC, "frequencies": {"rule": "explicit", "values": PHASE_FREQUENCIES}}


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
    code = main(["qi", "build", "--nu", "2", "--emit", str(matrix_csv)])
    assert code == 0
    assert len(matrix_csv.read_text().splitlines()) == 2 + 8  # config+header+cols

    lambda_csv = tmp_path / "lambda.csv"
    code = main(["qi", "lambda", "--nu", "3", "--emit", str(lambda_csv)])
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
    main(["qi", "lambda", "--nu", "2", "--emit", str(lambda_csv)])
    capsys.readouterr()
    code, _, err = run_cli(capsys, "mesh", "count", "--lambda", str(lambda_csv),
                           "--block", "2", "--k", "6")
    assert code == 0
    assert "count: 8" in err


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
                "energy_dimension_bound holder_transfer_check interval_masses "
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
    if tasks > len(os.sched_getaffinity(0)):
        pytest.skip(f"OpenBLAS starts no more threads than the {tasks} CPUs this needs")
    script = ("import os; before = dict(os.environ); import rieszprod.cli; "
              "print(len(os.listdir('/proc/self/task')), os.environ == before, "
              "os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert run_python(script, OPENBLAS_NUM_THREADS=blas).split() == [str(tasks), "True",
                                                                     str(blas)]


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


def test_emit_is_out(tmp_path):
    for flag in ("emit", "out"):
        (tmp_path / flag).mkdir()
        assert run_child("qi", "build", "--nu", "2", f"--{flag}", "matrix.csv",
                         cwd=tmp_path / flag) == (0, "", "")
    emitted = (tmp_path / "emit" / "matrix.csv").read_bytes()
    assert emitted == (tmp_path / "out" / "matrix.csv").read_bytes()
    assert b'"out": "matrix.csv"' in emitted


MONTE_CARLO = ("dim", "--n-min", "1", "--n-max", "1", "--depth", "6",
               "--method", "monte_carlo", "--seed", "1", "--samples")


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
]


@pytest.mark.parametrize("argv, exit_code, named", SPECLESS_REFUSALS,
                         ids=[" ".join(argv) for argv, _, _ in SPECLESS_REFUSALS])
def test_specless_argument_checks_and_refusals(argv, exit_code, named):
    code, out, err = run_child(*argv)
    assert code == exit_code and out == ""
    assert err.startswith("invalid: " if exit_code == 2 else "refused: ")
    assert named in err


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
MODULUS = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1, 1.0])
RT = st.fixed_dictionaries({"r": MODULUS}, optional={
    "theta": st.sampled_from([0, 0.0, 0.3, -2.0, 7.5, 1e300])})


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
    specs = st.sampled_from(specs + unreadable + [str(root / "missing.json")]) \
        | spec_documents().map(put_document)
    return {
        "spec": specs, "spec_a": specs, "spec_b": specs,
        "tails": st.sampled_from([put("tails.json", json.dumps({"l2_gap": "divergent"})),
                                  put("bad_tails.json", json.dumps({"gap": "maybe"}))]),
        "lambda_csv": st.just(put("lambda.csv", "ell,block,gamma\n0,1,5\n1,1,-7\n2,1,12\n")),
    }


# small indices first: the fuzz specs have at most 7 frequencies
FUZZ_INTEGERS = (st.integers(0, 6) | st.integers(-5, 40)).map(str)
FUZZ_POINT = st.sampled_from(["0", "0.25", "0.5", "0.75", "-1.25", "3", "1e300",
                              "nan", "inf", "-inf"])
FUZZ_VALUES = {
    "t": st.lists(FUZZ_POINT, min_size=1, max_size=3).map(",".join),
    "s": st.lists(FUZZ_POINT, min_size=1, max_size=3).map(",".join),
    "scales": st.lists(FUZZ_POINT, min_size=1, max_size=3).map(",".join),
    "values": st.lists(st.integers(-5, 40), min_size=1, max_size=8).map(
        lambda xs: ",".join(map(str, xs))),
}


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
    return argv


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_line_ends_in_exit_0_2_or_3(fuzz_files, data):
    argv = _fuzz_argv(data, fuzz_files)
    try:
        code = main(argv)
    except SystemExit as exit_info:  # argparse refuses the command line
        code = exit_info.code
        assert code == 2, argv
    assert code in (0, 2, 3), argv
