"""Rewrite the golden ``geotrack track`` outputs that tests/test_golden.py
compares byte for byte.

The inputs are the first ``CORPUS_LINES`` lines of ``tests/data/ais_corpus.nmea``,
plain and with a sidecar time of 2i s on line i; each runs at every rate in
``RATES``. Run from the repository root, only after a change that is meant to
move the outputs:

    PYTHONPATH=src python3 tests/data/golden/regen.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import tempfile
from pathlib import Path

from geotrack.cli import EXIT_OK, main

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "ais_corpus.nmea"
CORPUS_LINES = 12
RATES = (1, 7)
CASES = [(feed, rate) for feed in ("plain", "timed") for rate in RATES]


def feed_text(feed: str) -> str:
    with open(CORPUS, encoding="utf-8") as fh:
        lines = [next(fh) for _ in range(CORPUS_LINES)]
    if feed == "timed":
        lines = [f"{2.0 * i},{line}" for i, line in enumerate(lines)]
    return "".join(lines)


def golden_paths(feed: str, rate: int) -> tuple[Path, Path]:
    """The gzipped golden CSV and stderr of one case."""
    stem = HERE / f"track-{feed}-rate{rate}"
    return stem.with_suffix(".csv.gz"), stem.with_suffix(".stderr.gz")


def run_track(feed: str, rate: int, work: Path) -> tuple[bytes, bytes]:
    """The CSV and stderr bytes of ``geotrack track --rate rate`` on one feed."""
    src, out = work / f"{feed}.nmea", work / f"{feed}-rate{rate}.csv"
    src.write_text(feed_text(feed), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["track", "-i", str(src), "-o", str(out), "--rate", str(rate)])
    if code != EXIT_OK:
        raise RuntimeError(f"track exited {code}: {err.getvalue()}")
    return out.read_bytes(), err.getvalue().encode("utf-8")


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as work:
        for feed, rate in CASES:
            for path, data in zip(golden_paths(feed, rate),
                                  run_track(feed, rate, Path(work))):
                path.write_bytes(gzip.compress(data, mtime=0))
                print(f"{path.name}: {len(data)} bytes")


if __name__ == "__main__":
    regenerate()
