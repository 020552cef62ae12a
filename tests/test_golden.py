"""Golden parity of ``geotrack track``: outputs regenerated through ``cli.main``
match the committed bytes of ``tests/data/golden/``."""

import gzip
import os
import sys

import pytest

from conftest import DATA_DIR

sys.path.insert(0, os.path.join(DATA_DIR, "golden"))
import regen  # noqa: E402


def describe_mismatch(want: bytes, got: bytes) -> str:
    """The first differing row of two ``track`` CSVs and, over the rows both
    hold, the largest delta of each column."""
    want_rows, got_rows = want.decode().splitlines(), got.decode().splitlines()
    first = next((i for i, (a, b) in enumerate(zip(want_rows, got_rows)) if a != b),
                 min(len(want_rows), len(got_rows)))
    lines = [f"{len(want_rows)} rows expected, {len(got_rows)} written; first difference "
             f"at line {first + 1}:",
             f"  expected {want_rows[first] if first < len(want_rows) else '<end>'}",
             f"  written  {got_rows[first] if first < len(got_rows) else '<end>'}"]
    deltas = dict.fromkeys(want_rows[0].split(","), 0.0)
    for a, b in zip(want_rows[1:], got_rows[1:]):
        for col, x, y in zip(deltas, a.split(","), b.split(",")):
            deltas[col] = max(deltas[col], abs(float(x) - float(y)))
    lines += [f"  {col}: largest delta {delta!r}" for col, delta in deltas.items()]
    return "\n".join(lines)


@pytest.mark.parametrize("feed,rate", regen.CASES)
def test_track_output_matches_its_golden(feed, rate, tmp_path):
    """``track`` on the first corpus lines writes the golden CSV and stderr
    byte for byte. The goldens pin numpy 2.4 on its bundled OpenBLAS
    (scipy-openblas 0.3.31): another numpy or BLAS build may move the last
    digits of a float. When a change is meant to move the outputs,
    ``tests/data/golden/regen.py`` rewrites them."""
    csv_path, err_path = regen.golden_paths(feed, rate)
    got_csv, got_err = regen.run_track(feed, rate, tmp_path)
    want_csv = gzip.decompress(csv_path.read_bytes())
    assert got_csv == want_csv, describe_mismatch(want_csv, got_csv)
    assert got_err == gzip.decompress(err_path.read_bytes())
