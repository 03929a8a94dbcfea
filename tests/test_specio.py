"""Spec file schema validation and report rendering."""

import contextlib
import json
import math
import os
import signal
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszprod import core, load_spec, schema_validate, specio
from rieszprod.core import (
    CoefficientSequence,
    FrequencySequence,
    RieszSpec,
    expand_partial_product,
    randomize_phases,
)
from rieszprod.specio import (
    CHUNK_ROWS,
    SpecFileError,
    load_tails,
    render,
    validate_document,
    write_report,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


GOOD = {
    "frequencies": {"rule": "geometric", "base": 4, "count": 6},
    "coefficients": {"constant": {"r": 1.0, "theta": 0.0}},
    "regime": "lacunary3",
}


def test_valid_spec_loads(tmp_path):
    path = write(tmp_path, "good.json", GOOD)
    assert schema_validate(path) == []
    spec = load_spec(path)
    assert spec.freqs.values == (1, 4, 16, 64, 256, 1024)
    assert spec.coeffs.moduli == (1.0,) * 6


def test_explicit_frequencies_and_coefficients(tmp_path):
    doc = {
        "frequencies": {"rule": "explicit", "values": [1, 4, 16]},
        "coefficients": {"explicit": [{"r": 0.5, "theta": 0.1},
                                      {"r": 0.25},
                                      {"r": 0.0, "theta": 2.0}]},
    }
    spec = load_spec(write(tmp_path, "explicit.json", doc))
    assert spec.coeffs.moduli == (0.5, 0.25, 0.0)
    assert spec.coeffs.phases[2] == 0.0  # canonicalized with zero modulus


def test_random_phase_spec_is_seeded_and_deterministic(tmp_path):
    doc = {
        "frequencies": {"rule": "geometric", "base": 4, "count": 5},
        "coefficients": {"random_phase": {"r": 0.8, "seed": 7}},
    }
    path = write(tmp_path, "random.json", doc)
    spec1, spec2 = load_spec(path), load_spec(path)
    assert spec1 == spec2
    assert spec1.phase_seed == 7
    assert spec1.phase_generator == "numpy-pcg64"
    assert spec1.coeffs.moduli == (0.8,) * 5


@pytest.mark.parametrize("coefficients, path, message", [
    ({"random_phase": {"r": 0.8, "seed": -1}}, "coefficients.random_phase.seed",
     "must be an integer >= 0"),
    ({"random_phase": {"r": 0.8, "seed": 1.0}}, "coefficients.random_phase.seed",
     "must be an integer >= 0"),
    ({"constant": {"r": 10 ** 400}}, "coefficients.constant.r", "must be a finite number"),
    ({"explicit": [{"r": 0.5, "theta": -10 ** 400}]}, "coefficients.explicit[0].theta",
     "must be a finite number"),
], ids=["negative seed", "float seed", "r beyond float64", "theta beyond float64"])
def test_seeds_below_zero_and_integers_beyond_float64_have_a_diagnostic(coefficients, path,
                                                                         message):
    doc = {"frequencies": {"rule": "geometric", "base": 4, "count": 1},
           "coefficients": coefficients}
    assert validate_document(doc) == [specio.Diagnostic(path, message)]
    with pytest.raises(SpecFileError, match=message):
        specio.spec_from_document(doc)
    # the largest float64 as an integer is still a number
    doc["frequencies"]["count"], doc["coefficients"] = 2, {"constant": {
        "r": 0.5, "theta": int(sys.float_info.max)}}
    assert validate_document(doc) == []


def test_modulus_violation_diagnostic_cites_the_entry():
    doc = {
        "frequencies": {"rule": "explicit", "values": [1, 4]},
        "coefficients": {"explicit": [{"r": 1.5, "theta": 0.0},
                                      {"r": 0.5, "theta": 0.0}]},
    }
    diagnostics = validate_document(doc)
    assert len(diagnostics) == 1
    assert diagnostics[0].path == "coefficients.explicit[0].r"
    assert "modulus bound" in diagnostics[0].message


def test_geometric_base_two_without_dyadic_is_rejected():
    doc = {
        "frequencies": {"rule": "geometric", "base": 2, "count": 5},
        "coefficients": {"constant": {"r": 0.9, "theta": 0.0}},
    }
    diagnostics = validate_document(doc)
    assert len(diagnostics) == 1
    assert diagnostics[0].path == "frequencies.base"
    assert "lacunarity ratio" in diagnostics[0].message
    doc_dyadic = dict(doc, regime="dyadic")
    assert validate_document(doc_dyadic) == []
    # an unknown regime is named and the lacunary3 checks still run
    assert [(d.path, d.message) for d in validate_document(dict(doc, regime="triadic"))] == [
        ("regime", "must be 'lacunary3' or 'dyadic'"), ("frequencies.base", diagnostics[0].message)]


def test_structural_diagnostics_have_paths():
    diagnostics = validate_document({"frequencies": {"rule": "geometric"},
                                     "coefficients": {}})
    paths = {d.path for d in diagnostics}
    assert "frequencies.base" in paths
    assert "coefficients" in paths
    assert validate_document([1, 2]) != []


def test_coefficient_count_mismatch():
    doc = {
        "frequencies": {"rule": "geometric", "base": 4, "count": 3},
        "coefficients": {"explicit": [{"r": 0.5}]},
    }
    diagnostics = validate_document(doc)
    assert any(d.path == "coefficients.explicit" for d in diagnostics)


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(SpecFileError):
        load_spec(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    for text in ("{not json", "[" * 100_000, '{"frequencies": {"rule": "explicit", "values": [1, '
                 + "9" * 5000 + "]}}"):  # deep nesting, an integer past 4,300 digits
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(SpecFileError, match="not valid JSON"):
            schema_validate(bad)


def test_a_file_that_is_not_utf8_names_its_path(tmp_path):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\n1\n")
    for read in (load_spec, schema_validate, load_tails, specio.load_elements):
        with pytest.raises(SpecFileError) as info:
            read(bad)
        [diagnostic] = info.value.diagnostics
        assert diagnostic.path == str(bad)
        assert diagnostic.message.startswith("unreadable file: 'utf-8' codec can't decode")


@pytest.mark.parametrize("coefficients, path", [
    ({"constant": None}, "coefficients.constant"),
    ({"explicit": [{"r": 0.5}, None]}, "coefficients.explicit[1]"),
    ({"random_phase": 3}, "coefficients.random_phase"),
])
def test_coefficients_that_are_not_objects_have_a_diagnostic(coefficients, path):
    doc = {"frequencies": {"rule": "geometric", "base": 4, "count": 2},
           "coefficients": coefficients}
    assert validate_document(doc) == [specio.Diagnostic(path, "must be an object")]
    with pytest.raises(SpecFileError, match="must be an object"):
        specio.spec_from_document(doc)


def test_load_tails(tmp_path):
    path = write(tmp_path, "tails.json",
                 {"l2_gap": "divergent", "lacunarity": "convergent"})
    tails = load_tails(path)
    assert tails.l2_gap == "divergent"
    assert tails.weighted_gap_ab == "unknown"
    with pytest.raises(SpecFileError) as info:
        load_tails(write(tmp_path, "bad_tails.json", {"l2_gap": "maybe"}))
    assert [(d.path, d.message) for d in info.value.diagnostics] == [
        ("l2_gap", "tail must be one of ('divergent', 'convergent', 'unknown')")]
    with pytest.raises(SpecFileError) as info:
        load_tails(write(tmp_path, "bad_name.json", {"mystery": "divergent"}))
    assert [(d.path, d.message) for d in info.value.diagnostics] == [(
        "mystery", "unknown series name; expected one of ('l2_gap', 'weighted_gap_ab', "
        "'weighted_gap_ba', 'disc_metric_gap', 'lacunarity')")]


def test_render_csv_shape():
    text = "".join(render("csv", ["a", "b"], [[1, 2], [0.5, 0.25]], {"command": "x"}))
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "a,b"
    assert lines[2] == "1,0.5"
    assert json.loads(lines[0][len("# config: "):]) == {"command": "x"}


def test_render_json_roundtrip():
    text = "".join(render("json", ["a"], [[1.25]], {"seed": 3}))
    payload = json.loads(text)
    assert payload["rows"] == [[1.25]]
    assert payload["config"]["seed"] == 3


# The row-by-row renderers that the column renderer replaced: the reference
# for its bytes.


def row_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def row_csv(header, rows, config) -> str:
    lines = ["# config: " + json.dumps(config, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(row_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def row_json(header, rows, config) -> str:
    payload = {"config": config, "header": list(header), "rows": [list(r) for r in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                  1e16, 1e-5, 1.0, -1.7976931348623157e308, 0.1 + 0.2]
SPECIAL_INTS = [0, -1, 2 ** 63 - 1, -2 ** 63]
BEYOND_INT64 = [2 ** 63, -2 ** 63 - 1, 10 ** 30, -(3 ** 90)]
TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r\tz\\é\u2028')), max_size=6)

# column kind -> (value strategy, how a pool of values becomes the column)
COLUMN_KINDS = {
    "float64": (st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()),
                lambda v: np.array(v, dtype=np.float64)),
    "int64": (st.one_of(st.sampled_from(SPECIAL_INTS), st.integers(-2 ** 63, 2 ** 63 - 1)),
              lambda v: np.array(v, dtype=np.int64)),
    "object": (st.one_of(st.sampled_from(BEYOND_INT64), st.integers()),
               lambda v: np.array(v, dtype=object)),
    "bool": (st.booleans(), list),
    "bool array": (st.booleans(), lambda v: np.array(v, dtype=bool)),
    "str": (TEXT, list),
    "float list": (st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats()), list),
    "int list": (st.one_of(st.sampled_from(BEYOND_INT64), st.integers()), list),
}


def mirrored(draw, kind: str, n: int) -> np.ndarray:
    """A float64 or int64 column whose lower half is its upper half reversed,
    negated for sign -1, around a drawn middle row.  The upper half starts
    with a special value (NaN, +-inf, +-0, 0, -2^63, ...); one lower row may
    be overwritten to break the mirror."""
    values, build = COLUMN_KINDS[kind]
    special = SPECIAL_FLOATS if kind == "float64" else SPECIAL_INTS
    pool = [draw(st.sampled_from(special)), *draw(st.lists(values, max_size=4))]
    upper = build([pool[i % len(pool)] for i in range(n // 2)])
    lower = (upper if draw(st.sampled_from([1, -1])) > 0 else -upper)[::-1]
    middle = build([draw(values)] * (n % 2))
    column = np.concatenate([lower, middle, upper])
    if n > 1 and draw(st.booleans()):
        column[draw(st.integers(0, n // 2 - 1))] = draw(values)
    return column


MIRRORED_KINDS = ["mirrored float64", "mirrored int64"]


@st.composite
def tables(draw):
    """(chunk size, header, columns, rows): every column holds n rows cycled
    from a drawn pool, or mirrored around the middle row; n is 0, 1, or sits
    on or beside a chunk or chunk-pair boundary."""
    chunk = draw(st.sampled_from([1, 3, 8]))
    n = draw(st.sampled_from([0, 1, 2, chunk - 1, chunk, chunk + 1, 2 * chunk - 1,
                              2 * chunk, 2 * chunk + 1, 3 * chunk, 3 * chunk + 1,
                              4 * chunk + 1]))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS) + MIRRORED_KINDS),
                          min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        if kind in MIRRORED_KINDS:
            columns.append(mirrored(draw, kind.split()[1], n))
            continue
        values, build = COLUMN_KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=5))
        columns.append(build([pool[i % len(pool)] for i in range(n)]))
    as_lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    rows = [[col[i] for col in as_lists] for i in range(n)]
    header = [f"{kind}{i}" for i, kind in enumerate(kinds)]
    return chunk, header, columns, rows


@contextlib.contextmanager
def forced_parts(cpus: int):
    """Patches under which every table of two or more rows is cut into up
    to ``cpus`` parts, each part after the first in a forked process."""
    with mock.patch.object(specio, "PART_ROWS", 1), \
            mock.patch.object(core, "_cpus", lambda: cpus):
        yield


@settings(max_examples=400, deadline=None, derandomize=True)
@given(tables(), st.dictionaries(st.sampled_from(["seed", "out", "x"]),
                                 st.one_of(st.integers(), TEXT), max_size=2),
       st.integers(2, 4))
def test_column_renderer_matches_row_renderer(table, config, cpus):
    """In one part, and cut into up to ``cpus`` parts of forked processes."""
    chunk, header, columns, rows = table
    with mock.patch.object(specio, "CHUNK_ROWS", chunk):
        for fmt, reference in (("csv", row_csv), ("json", row_json)):
            expected = reference(header, rows, config).encode("utf-8")
            assert "".join(render(fmt, header, columns, config)).encode("utf-8") == expected
            with forced_parts(cpus):
                assert "".join(render(fmt, header, columns, config)).encode("utf-8") == expected
            if not rows:  # an empty table may also come as no columns at all
                assert "".join(render(fmt, header, [], config)).encode("utf-8") == expected


@pytest.mark.parametrize("fmt, reference", [("csv", row_csv), ("json", row_json)])
@pytest.mark.parametrize("n", [2 * CHUNK_ROWS, 4 * CHUNK_ROWS + 5])  # chunk pairs
def test_write_report_at_chunk_boundaries(tmp_path, fmt, reference, n):
    rng = np.random.default_rng(n)
    ms = np.arange(n, dtype=np.int64) - n // 2
    re, im = rng.standard_normal(n), rng.standard_normal(n) * 1e-300
    re[::7] = -0.0
    verdict = ["a, \"b\""] * n
    path = tmp_path / f"report.{fmt}"
    text = write_report(path, fmt, ["m", "re", "im", "v"], [ms, re, im, verdict], {"n": n})
    assert path.read_bytes() == text.encode("utf-8")
    rows = list(zip(ms.tolist(), re.tolist(), im.tolist(), verdict))
    assert text == reference(["m", "re", "im", "v"], rows, {"n": n})


@pytest.mark.parametrize("fmt, reference", [("csv", row_csv), ("json", row_json)])
def test_write_report_of_a_real_expansion(tmp_path, fmt, reference):
    """A Hermitian table of 3^10 rows, more than one chunk pair at the real
    CHUNK_ROWS, with an odd middle row, in two parts: one forked."""
    spec = randomize_phases(RieszSpec(FrequencySequence.geometric(3, 11),
                                      CoefficientSequence.constant(0.7, 0.0, 11)), 11)
    ms, cs = expand_partial_product(spec, 9).arrays()
    assert ms.size == 3 ** 10 > 2 * CHUNK_ROWS
    path = tmp_path / f"report.{fmt}"
    with mock.patch.object(core, "_cpus", lambda: 2), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        text = write_report(path, fmt, ["frequency", "re", "im"], [ms, cs.real, cs.imag],
                            {"depth": 9})
    assert fork.call_count == 1
    assert path.read_bytes() == text.encode("utf-8")
    rows = list(zip(ms.tolist(), cs.real.tolist(), cs.imag.tolist()))
    assert text == reference(["frequency", "re", "im"], rows, {"depth": 9})


@pytest.mark.parametrize("cpus, threads, forks", [(1, 0, 0), (2, 1, 1)])
def test_core_cpus_alone_sets_the_grid_threads_and_the_report_forks(cpus, threads, forks):
    """One CPU count for both paths: a factor chain of 2 * SPLIT_MIN points
    runs in ``cpus`` parts, one thread for each part after the first, and a
    3^10-row coeffs table in ``cpus`` parts, one fork for each part after the
    first."""
    spec = randomize_phases(RieszSpec(FrequencySequence.geometric(3, 11),
                                      CoefficientSequence.constant(0.7, 0.0, 11)), 11)
    ms, cs = expand_partial_product(spec, 9).arrays()
    ts = np.linspace(0.0, 2 * math.pi, 2 * core.SPLIT_MIN, endpoint=False)
    with mock.patch.object(core, "_cpus", lambda: cpus), \
            mock.patch.object(threading.Thread, "start", autospec=True,
                              side_effect=threading.Thread.start) as start, \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        core.eval_partial_product(spec, 9, ts)
        assert (start.call_count, fork.call_count) == (threads, 0)
        render("csv", ["frequency", "re", "im"], [ms, cs.real, cs.imag], {})
    assert (start.call_count, fork.call_count) == (threads, forks)


VERDICT = "convergent"
ONE = 2 ** 70  # an exact integer beyond int64, one object


@pytest.mark.parametrize("fmt, reference", [("csv", row_csv), ("json", row_json)])
@pytest.mark.parametrize("column", [
    np.array([0.0, -0.0] * 4), np.array([-0.0, 0.0, 0.0]), np.array([0.1] * 5 + [0.1 + 1e-17]),
    np.full(6, math.nan), np.full(5, -math.inf), np.full(7, 0.3), np.full(4, 0.3)[::-1],
    np.array([1.5 + 2j] * 4).imag, [0.0, -0.0, 0.0], [1, 1.0, True], [True, 1, 1.0],
    [VERDICT] * 5, ["a, \"b\""] * 3, (ONE,) * 4, [ONE, int(str(ONE)), ONE], [math.nan] * 3,
], ids=repr)
def test_constant_looking_chunks_format_like_each_cell(fmt, reference, column):
    """Cells that look alike but differ (0.0 and -0.0; 1, 1.0 and True;
    equal integers that are two objects) keep their own text; cells that
    are one value are formatted once."""
    rows = [[v] for v in (column.tolist() if isinstance(column, np.ndarray) else column)]
    for chunk_rows in (2, len(rows)):
        with mock.patch.object(specio, "CHUNK_ROWS", chunk_rows):
            text = "".join(render(fmt, ["c"], [column], {}))
        assert text.encode("utf-8") == reference(["c"], rows, {}).encode("utf-8")


def test_a_constant_chunk_is_formatted_once():
    n = 2 * CHUNK_ROWS + 1  # one chunk pair and the middle row
    # in one part: a forked part's calls are not counted here
    with mock.patch.object(specio, "_cell", wraps=specio._cell) as cell, \
            mock.patch.object(core, "_cpus", lambda: 1):
        text = "".join(render("csv", ["v"], [[VERDICT] * n], {}))
    assert cell.call_count == 3
    assert text.splitlines()[2:] == [VERDICT] * n


# forked parts: every process is reaped, and a failed part is formatted here

PART_TABLE = [np.arange(-40, 41, dtype=np.int64), np.linspace(-1.0, 1.0, 81),
              [VERDICT, "a, \"b\""] * 40 + [VERDICT]]


def render_part_table(cpus: int = 3) -> str:
    with forced_parts(cpus):
        return "".join(render("csv", ["m", "x", "v"], PART_TABLE, {}))


def one_part_text() -> str:
    with mock.patch.object(core, "_cpus", lambda: 1):
        return "".join(render("csv", ["m", "x", "v"], PART_TABLE, {}))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_render_leaves_no_process():
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert render_part_table() == one_part_text()
    assert fork.call_count == 2
    assert_no_child_left()


def in_forked_parts(action):
    """``specio._part`` that runs ``action`` first in a forked part, and
    returns what it returns, if anything, in place of the walk."""
    walk = specio._part

    def part(*args, parent=None):
        return (parent is not None and action()) or walk(*args, parent)
    return mock.patch.object(specio, "_part", part)


def send_wrong_text_then_exit_1():
    leave = os._exit
    os._exit = lambda status: leave(1)  # in the forked part only
    return ["wrong\n"], ["text\n"]


@pytest.mark.parametrize("action", [
    lambda: os._exit(1),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
    lambda: os._exit(0),  # leaves without sending anything
    send_wrong_text_then_exit_1,
], ids=["exit 1", "SIGKILL", "silent exit 0", "text sent, then exit 1"])
def test_a_failed_part_is_formatted_here(action):
    with in_forked_parts(action), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        text = render_part_table()
    assert fork.call_count == 2
    assert text.encode("utf-8") == one_part_text().encode("utf-8")
    assert_no_child_left()


def test_text_that_utf8_cannot_hold_is_formatted_here():
    column = ["\ud800, x"] * 9  # a lone surrogate fails a forked part's UTF-8 encoding
    with forced_parts(2):
        text = "".join(render("csv", ["c"], [column], {}))
    assert text == row_csv(["c"], [[v] for v in column], {})
    assert_no_child_left()


def test_an_error_in_the_callers_part_kills_and_reaps_the_forked_parts():
    walk = specio._part

    def part(*args, parent=None):
        if parent is not None:  # a forked part outlives the test unless killed
            time.sleep(30)
            return walk(*args, parent)
        raise RuntimeError("caller's part")

    start = time.perf_counter()
    with mock.patch.object(specio, "_part", part), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            pytest.raises(RuntimeError, match="caller's part"):
        render_part_table()
    assert fork.call_count == 2
    assert time.perf_counter() - start < 10
    assert_no_child_left()


def test_a_forked_part_stops_once_its_parent_is_gone():
    with mock.patch.object(os, "_exit", side_effect=SystemExit) as leave, \
            pytest.raises(SystemExit):
        specio._part(PART_TABLE, 81, "csv", ",", "\n", 0, 40, os.getppid() + 1)
    leave.assert_called_once_with(1)
    head, tail = specio._part(PART_TABLE, 81, "csv", ",", "\n", 0, 40, os.getppid())
    assert "".join(head + tail) == one_part_text().split("\n", 2)[2].replace(
        "0,0.0,convergent\n", "")


def test_no_fork_without_os_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert render_part_table() == one_part_text()


def test_no_fork_on_one_cpu():
    with mock.patch.object(os, "fork") as fork:
        assert render_part_table(cpus=1) == one_part_text()
    fork.assert_not_called()


def test_no_fork_while_another_thread_runs():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with mock.patch.object(os, "fork") as fork:
            assert render_part_table() == one_part_text()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    fork.assert_not_called()


def test_a_failed_fork_leaves_its_part_here():
    with mock.patch.object(os, "fork", side_effect=OSError("no process")) as fork:
        assert render_part_table() == one_part_text()
    assert fork.call_count == 2
