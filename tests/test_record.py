"""The bundled run against its committed record (tests/data/bundled).

Every column of the five CSVs must match the record to 1e-12 absolute, not
bit for bit, since another CPU's BLAS may move the last bit; the smallest
value an enhancement divides by, eta at z = 0.1 cm, is 2.2e-6, so the
bound holds there too.  `check`'s lines must match in verdict and wording,
and each number in them to the same 1e-12."""

import importlib.util
import re
from pathlib import Path

import numpy as np

RECORD = Path(__file__).resolve().parent / "data" / "bundled"
TOLERANCE = 1e-12
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")

_spec = importlib.util.spec_from_file_location("regenerate", RECORD / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _table(path: Path):
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows])


def _parts(line: str):
    """A `check` line as its wording with each number replaced by #, and
    its numbers."""
    return _NUMBER.sub("#", line), [float(v) for v in _NUMBER.findall(line)]


def test_bundled_run_matches_the_record(tmp_path):
    check = regenerate.run_bundled(tmp_path)
    for name in regenerate.CSV_NAMES:
        header, got = _table(tmp_path / name)
        want_header, want = _table(RECORD / name)
        assert header == want_header, name
        assert got.shape == want.shape, name
        moves = np.abs(got - want).max(axis=0)
        moved = {col: float(m) for col, m in zip(header.split(","), moves)
                 if not m <= TOLERANCE}
        assert moved == {}, f"{name}: columns moved past {TOLERANCE:g}"

    lines = check.splitlines()
    want_lines = (RECORD / regenerate.CHECK_NAME).read_text().splitlines()
    assert len(lines) == len(want_lines)
    for line, want_line in zip(lines, want_lines):
        (text, numbers), (want_text, want_numbers) = _parts(line), _parts(want_line)
        assert text == want_text
        assert np.allclose(numbers, want_numbers, rtol=0.0, atol=TOLERANCE), line
