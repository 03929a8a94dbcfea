"""Structured-text spec files and deterministic CSV/JSON reports.

Spec files are JSON documents:

    {
      "frequencies":  {"rule": "geometric", "base": 4, "count": 9}
                    | {"rule": "explicit", "values": [1, 4, 16]},
      "coefficients": {"constant": {"r": 1.0, "theta": 0.0}}
                    | {"explicit": [{"r": 0.5, "theta": 0.1}, ...]}
                    | {"random_phase": {"r": 0.8, "seed": 7}},
      "regime": "lacunary3" | "dyadic"        (default "lacunary3")
    }

``schema_validate`` lists every violation with a path into the document;
``load_spec`` raises on the first bad file.  Reports are CSV (headers
mandatory, '.' decimal separator, config echoed on a leading '#' line) or
JSON mirrors of the same table.
"""

from __future__ import annotations

import functools
import json
import math
import os
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from .classify import TAILS, TailDeclarations
from .core import (
    LACUNARY3,
    REGIMES,
    CoefficientSequence,
    FrequencySequence,
    Record,
    RieszSpec,
    ValidationError,
    _parts,
    randomize_phases,
)


class Diagnostic(Record):
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class SpecFileError(ValidationError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics) or "invalid spec")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x) -> bool:
    return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)


def _check_frequencies(doc, out: list[Diagnostic]) -> FrequencySequence | None:
    freqs = doc.get("frequencies")
    if not isinstance(freqs, dict):
        out.append(Diagnostic("frequencies", "required object is missing or not an object"))
        return None
    rule = freqs.get("rule")
    if rule == "geometric":
        base, count = freqs.get("base"), freqs.get("count")
        if not _is_int(base) or base < 2:
            out.append(Diagnostic("frequencies.base", "must be an integer >= 2"))
            return None
        if not _is_int(count) or count < 1:
            out.append(Diagnostic("frequencies.count", "must be an integer >= 1"))
            return None
        return FrequencySequence.geometric(base, count)
    if rule == "explicit":
        values = freqs.get("values")
        if not isinstance(values, list) or not values:
            out.append(Diagnostic("frequencies.values", "must be a nonempty list"))
            return None
        for i, v in enumerate(values):
            if not _is_int(v):
                out.append(Diagnostic(f"frequencies.values[{i}]", "must be an integer"))
                return None
        try:
            return FrequencySequence(tuple(values))
        except ValidationError as err:
            where = f"frequencies.values[{err.index}]" if err.index is not None \
                else "frequencies.values"
            out.append(Diagnostic(where, str(err)))
            return None
    out.append(Diagnostic("frequencies.rule", "must be 'geometric' or 'explicit'"))
    return None


def _check_rt(obj, where: str, out: list[Diagnostic]) -> bool:
    if not isinstance(obj, dict):
        out.append(Diagnostic(where, "must be an object"))
        return False
    ok = True
    if not _is_num(obj.get("r")):
        out.append(Diagnostic(f"{where}.r", "must be a finite number"))
        ok = False
    elif obj["r"] < 0:
        out.append(Diagnostic(f"{where}.r", "modulus must be >= 0"))
        ok = False
    if "theta" in obj and not _is_num(obj["theta"]):
        out.append(Diagnostic(f"{where}.theta", "must be a finite number"))
        ok = False
    return ok


def _check_coefficients(doc, count: int | None, out: list[Diagnostic]):
    """Returns (CoefficientSequence | None, random_seed | None)."""
    coeffs = doc.get("coefficients")
    if not isinstance(coeffs, dict):
        out.append(Diagnostic("coefficients", "required object is missing or not an object"))
        return None, None
    kinds = [k for k in ("constant", "explicit", "random_phase") if k in coeffs]
    if len(kinds) != 1:
        out.append(Diagnostic(
            "coefficients",
            "exactly one of 'constant', 'explicit', 'random_phase' is required"))
        return None, None
    kind = kinds[0]
    if kind == "constant":
        obj = coeffs["constant"]
        if not _check_rt(obj, "coefficients.constant", out):
            return None, None
        if count is None:
            return None, None
        return CoefficientSequence.constant(obj["r"], obj.get("theta", 0.0), count), None
    if kind == "explicit":
        entries = coeffs["explicit"]
        if not isinstance(entries, list):
            out.append(Diagnostic("coefficients.explicit", "must be a list"))
            return None, None
        ok = True
        for i, obj in enumerate(entries):
            if not _check_rt(obj, f"coefficients.explicit[{i}]", out):
                ok = False
        if not ok:
            return None, None
        if count is not None and len(entries) != count:
            out.append(Diagnostic(
                "coefficients.explicit",
                f"{len(entries)} entries but {count} frequencies"))
            return None, None
        return CoefficientSequence(
            tuple(e["r"] for e in entries),
            tuple(e.get("theta", 0.0) for e in entries)), None
    obj = coeffs["random_phase"]
    if not _check_rt(obj, "coefficients.random_phase", out):
        return None, None
    if not _is_int(obj.get("seed")):
        out.append(Diagnostic("coefficients.random_phase.seed", "must be an integer"))
        return None, None
    if count is None:
        return None, None
    return CoefficientSequence.constant(obj["r"], 0.0, count), obj["seed"]


def _semantic_path(doc, err: ValidationError) -> str:
    if err.condition in ("modulus_bound", "dyadic_modulus", "modulus"):
        coeffs = doc.get("coefficients", {})
        if "explicit" in coeffs:
            return f"coefficients.explicit[{err.index}].r"
        if "constant" in coeffs:
            return "coefficients.constant.r"
        return "coefficients.random_phase.r"
    if err.condition in ("lacunarity_ratio", "dyadic_frequencies"):
        freqs = doc.get("frequencies", {})
        if freqs.get("rule") == "explicit":
            return f"frequencies.values[{err.index}]"
        return "frequencies.base"
    return "spec"


def _build_spec(doc, out: list[Diagnostic]):
    """Returns (validated RieszSpec | None, random_seed | None), appending
    every schema and regime violation to ``out``."""
    if not isinstance(doc, dict):
        out.append(Diagnostic("", "document must be a JSON object"))
        return None, None
    regime = doc.get("regime", LACUNARY3)
    if regime not in REGIMES:
        out.append(Diagnostic("regime", f"must be {' or '.join(map(repr, REGIMES))}"))
        regime = LACUNARY3
    freqs = _check_frequencies(doc, out)
    coeffs, seed = _check_coefficients(
        doc, len(freqs) if freqs is not None else None, out)
    if freqs is None or coeffs is None:
        return None, None
    try:
        return RieszSpec(freqs, coeffs, regime), seed
    except ValidationError as err:
        out.append(Diagnostic(_semantic_path(doc, err), str(err)))
        return None, None


def validate_document(doc) -> list[Diagnostic]:
    """Every schema and regime violation, each with a path into the document."""
    out: list[Diagnostic] = []
    _build_spec(doc, out)
    return out


def spec_from_document(doc) -> RieszSpec:
    out: list[Diagnostic] = []
    spec, seed = _build_spec(doc, out)
    if out:
        raise SpecFileError(out)
    return spec if seed is None else randomize_phases(spec, seed)


def _read_text(path) -> str:
    """The file's text; an unreadable or non-UTF-8 file is a diagnostic naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise SpecFileError([Diagnostic(str(path), f"unreadable file: {err}")])


def read_document(path) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # also integers past 4,300 digits, deep nesting
        raise SpecFileError([Diagnostic(str(path), f"not valid JSON: {err}")])


def schema_validate(path) -> list[Diagnostic]:
    return validate_document(read_document(path))


def load_spec(path) -> RieszSpec:
    return spec_from_document(read_document(path))


def load_tails(path) -> TailDeclarations:
    doc = read_document(path)
    if not isinstance(doc, dict):
        raise SpecFileError([Diagnostic(str(path), "tails file must be a JSON object")])
    known = TailDeclarations._fields
    diagnostics = []
    for key, value in doc.items():
        if key not in known:
            diagnostics.append(Diagnostic(key, f"unknown series name; expected one of {known}"))
        elif value not in TAILS:
            diagnostics.append(Diagnostic(key, f"tail must be one of {TAILS}"))
    if diagnostics:
        raise SpecFileError(diagnostics)
    return TailDeclarations(**doc)


def load_elements(path) -> list[int]:
    """Set elements from a CSV: the last column of each row.  Blank lines and
    '#' lines are skipped; only the first other line may be a header."""
    lines = [(number, ln.strip()) for number, ln in enumerate(_read_text(path).split("\n"), 1)
             if ln.strip() and not ln.startswith("#")]
    values = []
    for i, (number, ln) in enumerate(lines):
        try:
            values.append(int(ln.split(",")[-1]))
        except ValueError:
            if i:  # rows after the header
                raise SpecFileError([Diagnostic(f"{path}:{number}", f"not an integer: {ln!r}")])
    if not values:
        raise SpecFileError([Diagnostic(str(path), "no element rows")])
    return values


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


CHUNK_ROWS = 1 << 14  # rows per chunk; a step formats a chunk pair: a few MB of cells


def _constant(chunk) -> bool:
    """Whether every cell of the chunk has the text of its first: float64
    cells equal bit for bit (0.0 and -0.0 differ), or list or tuple items that
    are one object (1, 1.0 and True are three)."""
    if isinstance(chunk, np.ndarray):
        if chunk.dtype != np.float64:
            return False
        bits = chunk.view(np.int64)
        return bool(bits[0] == bits[-1] and (bits == bits[0]).all())
    if isinstance(chunk, (list, tuple)):
        return all(cell is chunk[0] for cell in chunk)
    return False


def _cells(chunk, fmt: str):
    """One chunk of a column as text: repr for float64 arrays, str for int64
    and object (exact integer) arrays, else ``_cell`` or the JSON encoder.
    A constant chunk (float64 cells equal bit for bit, or a list or tuple of
    one object) formats its first cell once."""
    if len(chunk) > 1 and _constant(chunk):
        return list(_cells(chunk[:1], fmt)) * len(chunk)
    if isinstance(chunk, np.ndarray):
        if chunk.dtype.kind == "f" and (fmt == "csv" or np.isfinite(chunk).all()):
            return map(repr, chunk.tolist())
        if chunk.dtype.kind in "iuO":
            return map(str, chunk.tolist())
        chunk = chunk.tolist()
    return map(_cell if fmt == "csv" else json.dumps, chunk)


def _mirror_sign(lower, upper) -> int:
    """1 when ``lower`` equals ``upper`` reversed bit for bit, -1 when it
    equals ``-upper`` reversed, else 0.  Only float64 and int64 arrays
    mirror; -1 needs a finite float64 ``upper`` (no '-nan') or a positive
    int64 one (no '-0', no -2^63), so that each lower cell is its partner's
    text with the sign flipped."""
    if not isinstance(upper, np.ndarray) or upper.dtype not in (np.float64, np.int64):
        return 0
    bits, mirror = lower.view(np.int64), upper[::-1]
    if np.array_equal(bits, mirror.view(np.int64)):
        return 1
    flips = np.isfinite(upper).all() if upper.dtype == np.float64 else (upper > 0).all()
    return -1 if flips and np.array_equal(bits, (-mirror).view(np.int64)) else 0


def _pair_cells(lower, upper, fmt: str):
    """The cells of a lower chunk and of its upper partner; a mirrored column
    formats only the upper one."""
    sign = _mirror_sign(lower, upper)
    if not sign:
        return _cells(lower, fmt), _cells(upper, fmt)
    cells = list(_cells(upper, fmt))
    if sign > 0:
        return reversed(cells), cells
    return (c[1:] if c[0] == "-" else "-" + c for c in reversed(cells)), cells


def _part(columns, n: int, fmt: str, cell_sep: str, row_sep: str, lo: int, hi: int,
          parent: int | None = None):
    """The head and the tail of the row pairs [lo, hi): rows [lo, hi) and rows
    [n - hi, n - lo), at most CHUNK_ROWS rows to a string, each followed by
    row_sep.  The walk goes chunk pair by chunk pair, so that a Hermitian
    table (c_{-m} = conj(c_m)) formats each mirrored cell once.  A forked
    part (``parent`` the pid that forked it) stops once that process is gone."""
    head, tail = [], []  # tail holds (row_sep, text) from the end, so it is read reversed
    for a in range(lo, hi, CHUNK_ROWS):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        b = min(a + CHUNK_ROWS, hi)
        lower, upper = zip(*(_pair_cells(col[a:b], col[n - b:n - a], fmt)
                             for col in columns))
        tail += (row_sep, row_sep.join(map(cell_sep.join, zip(*upper))))
        head += (row_sep.join(map(cell_sep.join, zip(*lower))), row_sep)
    return head, tail[::-1]


def _fork(walk, lo: int, hi: int):
    """``walk(lo, hi)`` in a forked process that sends one frame through a pipe
    (the head's length in 8 bytes, then head and tail in UTF-8; text that UTF-8
    cannot hold fails the part) and leaves by ``os._exit``; (pid, read end),
    or None when no process could be started."""
    parent = os.getpid()
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        head, tail = ("".join(text).encode() for text in walk(lo, hi, parent=parent))
        with open(write, "wb") as pipe:
            pipe.writelines((len(head).to_bytes(8, "little"), head, tail))
        status = 0
    finally:
        os._exit(status)


def _collect(pid: int, read: int, kill: bool = False):
    """The head and tail that the forked part ``pid`` sent, or None unless it
    exited 0.  Its pipe is read to the end, or with ``kill`` not at all and
    the process killed, as it is when the reading fails; it is then reaped."""
    frame = None
    try:
        with open(read, "rb") as pipe:
            frame = None if kill else pipe.read()
    finally:
        if frame is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if kill or status != 0 or len(frame) < 8:  # a part that exited 0 sent its whole frame
        return None
    view, size = memoryview(frame), int.from_bytes(frame[:8], "little")
    return [[str(view[8:8 + size], "utf-8")], [str(view[8 + size:], "utf-8")]]


PART_ROWS = 1 << 12  # row pairs a forked part must hold to outrun the fork


def _rows(columns, fmt: str, cell_sep: str, row_sep: str) -> list[str]:
    """Every row, each followed by row_sep; no columns, no rows.  The row
    pairs [0, n // 2) are cut into the ``core._parts`` that hold at least
    PART_ROWS pairs; part 0 is walked here, every other part in a forked
    process (or here, when that process cannot start or fails), and the
    text is heads 0..P-1, the middle row of an odd table, tails P-1..0.  No
    process is forked without ``os.fork``, or while another thread runs: a
    fork copies its locks but not the thread."""
    n = len(columns[0]) if columns else 0
    half = n // 2
    forks = hasattr(os, "fork") and threading.active_count() == 1
    bounds = _parts(half, PART_ROWS) if forks else [0, half]
    walk = functools.partial(_part, columns, n, fmt, cell_sep, row_sep)
    started = {}
    try:
        for i in range(1, len(bounds) - 1):
            started[i] = _fork(walk, bounds[i], bounds[i + 1])
        texts = [walk(bounds[0], bounds[1])]
        for i in range(1, len(bounds) - 1):
            forked = started.pop(i)
            texts.append(forked and _collect(*forked) or walk(bounds[i], bounds[i + 1]))
    finally:
        for forked in filter(None, started.values()):  # the caller's own walk raised
            _collect(*forked, kill=True)
    middle = []
    if n % 2:
        middle = [cell_sep.join(next(_cells(col[half:half + 1], fmt)) for col in columns),
                  row_sep]
    return [*(piece for head, _ in texts for piece in head), *middle,
            *(piece for _, tail in reversed(texts) for piece in tail)]


def render(fmt: str, header, columns, config) -> list[str]:
    """The report in pieces of text.  CSV: the config on a '#' line, the
    header, the rows.  JSON: json.dumps({"config", "header", "rows"},
    sort_keys=True, indent=2) and a newline."""
    if fmt == "csv":
        return [f"# config: {json.dumps(config, sort_keys=True)}\n{','.join(header)}\n",
                *_rows(columns, fmt, ",", "\n")]
    head, tail = json.dumps({"config": config, "header": list(header), "rows": []},
                            sort_keys=True, indent=2).rsplit("[]", 1)  # "rows" sorts last
    rows = _rows(columns, fmt, ",\n      ", "\n    ],\n    [\n      ")
    body = ["[\n    [\n      ", *rows[:-1], "\n    ]\n  ]"] if rows else ["[]"]
    return [head, *body, tail + "\n"]  # rows[-1] is the separator after the last row


def write_report(out_path, fmt: str, header, columns, config) -> str:
    """Render the columns, write the pieces to ``out_path`` or stdout, return the text."""
    pieces = render(fmt, header, columns, config)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    elif sys.stdout is None:
        raise OSError("stdout is closed")
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()  # a full or broken stdout fails here, inside main
    return "".join(pieces)
