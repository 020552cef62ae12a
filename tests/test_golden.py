"""Golden parity of ``geotrack`` outputs: outputs regenerated through
``cli.main`` match the committed bytes of ``tests/data/golden/``."""

import csv
import gzip
import os
import sys

import pytest

from conftest import DATA_DIR

sys.path.insert(0, os.path.join(DATA_DIR, "golden"))
import regen  # noqa: E402


def describe_mismatch(want: bytes, got: bytes, jsonl: bool) -> str:
    """The first differing line of two outputs and, for a CSV, over the rows
    both hold, the largest delta of each numeric column and the count of
    differing fields of each text column."""
    want_rows, got_rows = want.decode().splitlines(), got.decode().splitlines()
    first = next((i for i, (a, b) in enumerate(zip(want_rows, got_rows)) if a != b),
                 min(len(want_rows), len(got_rows)))
    lines = [f"{len(want_rows)} lines expected, {len(got_rows)} written; first "
             f"difference at line {first + 1}:",
             f"  expected {want_rows[first] if first < len(want_rows) else '<end>'}",
             f"  written  {got_rows[first] if first < len(got_rows) else '<end>'}"]
    if jsonl:
        return "\n".join(lines)
    want_csv, got_csv = csv.reader(want_rows), csv.reader(got_rows)
    header = next(want_csv)
    next(got_csv)
    deltas, text_diffs = dict.fromkeys(header, 0.0), dict.fromkeys(header, 0)
    for a, b in zip(want_csv, got_csv):
        for col, x, y in zip(header, a, b):
            if x == y:
                continue
            try:
                deltas[col] = max(deltas[col], abs(float(x) - float(y)))
            except ValueError:  # a text or empty field compares exactly
                text_diffs[col] += 1
    lines += [f"  {col}: largest delta {deltas[col]!r}"
              + (f", {text_diffs[col]} text fields differ" if text_diffs[col] else "")
              for col in header]
    return "\n".join(lines)


def check_golden(name, work):
    """One case writes its golden output and stderr byte for byte. The goldens
    pin numpy 2.4 on its bundled OpenBLAS (scipy-openblas 0.3.31): another
    numpy or BLAS build may move the last digits of a float. When a change is
    meant to move the outputs, ``tests/data/golden/regen.py`` rewrites them."""
    out_path, err_path = regen.golden_paths(name)
    got_out, got_err = regen.run_case(name, work)
    want_out = gzip.decompress(out_path.read_bytes())
    assert got_out == want_out, describe_mismatch(want_out, got_out,
                                                  jsonl=out_path.name.endswith(".jsonl.gz"))
    assert got_err == gzip.decompress(err_path.read_bytes())


@pytest.mark.parametrize("name", list(regen.TRACK_CASES),
                         ids=[f"{feed}-{rate}" for feed, rate in regen.TRACK_CASES.values()])
def test_track_output_matches_its_golden(name, tmp_path):
    """``track`` on the first corpus lines, plain and timed, at two rates."""
    check_golden(name, tmp_path)


@pytest.mark.parametrize("name", list(regen.CLI_CASES))
def test_output_matches_its_golden(name, tmp_path):
    """``simulate`` on Boston and on a two-leg lawnmower file, ``decode`` of the
    corpus to CSV and JSONL, a small ``study sphere-error``, and ``track`` on a
    small harbour feed."""
    check_golden(name, tmp_path)
