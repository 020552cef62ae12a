"""Rewrite the golden ``geotrack`` outputs that tests/test_golden.py compares
byte for byte.

The ``track`` cases read the first ``CORPUS_LINES`` lines of
``tests/data/ais_corpus.nmea``, plain and with a sidecar time of 2i s on line
i; each runs at every rate in ``RATES``. The ``CLI_CASES`` are ``simulate`` on
the Boston scenario and on a two-leg lawnmower file written by
``sim.format_scenario``, ``decode`` of the whole corpus to CSV and to JSONL, a
small ``study sphere-error``, and ``track`` on a small harbour feed of
``perfbench/feeds.py`` (dateline crossings, a positionless first report, a
masked field, type 5 fragments and a garbage line). Every case keeps its
output and its stderr. Run from the repository root, only after a change that
is meant to move the outputs:

    PYTHONPATH=src python3 tests/data/golden/regen.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import sys
import tempfile
from pathlib import Path

from geotrack import sim
from geotrack.cli import EXIT_OK, main

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[2] / "perfbench"))
import feeds  # noqa: E402

CORPUS = HERE.parent / "ais_corpus.nmea"
CORPUS_LINES = 12
RATES = (1, 7)
TRACK_CASES = {f"track-{feed}-rate{rate}": (feed, rate)
               for feed in ("plain", "timed") for rate in RATES}


def harbor_text() -> str:
    return "\n".join(feeds.harbor_feed(21, 5, 40.0).lines) + "\n"


def lawnmower_text() -> str:
    return sim.format_scenario(sim.lawnmower_scenario(10.0, n_legs=2))


# name -> the ``geotrack`` arguments before ``-o``; a (file name, text
# function) pair stands for a file that the case writes first
CLI_CASES = {
    "simulate-boston-seed0": ["simulate", "--seed", "0"],
    "simulate-lawnmower-2leg": ["simulate", "--scenario", ("lawnmower.scn", lawnmower_text)],
    "decode-corpus": ["decode", "-i", str(CORPUS)],
    "decode-corpus-jsonl": ["decode", "-i", str(CORPUS), "--format", "jsonl"],
    "sphere-error-300": ["study", "sphere-error", "--samples", "300", "--seed", "0"],
    "track-harbor": ["track", "-i", ("harbor.nmea", harbor_text)],
}


def feed_text(feed: str) -> str:
    with open(CORPUS, encoding="utf-8") as fh:
        lines = [next(fh) for _ in range(CORPUS_LINES)]
    if feed == "timed":
        lines = [f"{2.0 * i},{line}" for i, line in enumerate(lines)]
    return "".join(lines)


def golden_paths(name: str) -> tuple[Path, Path]:
    """The gzipped golden output and stderr of one case."""
    suffix = ".jsonl.gz" if name.endswith("jsonl") else ".csv.gz"
    return HERE / (name + suffix), HERE / (name + ".stderr.gz")


def write_input(work: Path, arg) -> str:
    """An argument of ``CLI_CASES``; a (file name, text function) pair is
    written into ``work`` and stands for its path."""
    if isinstance(arg, str):
        return arg
    name, text = arg
    (work / name).write_text(text(), encoding="utf-8")
    return str(work / name)


def case_argv(name: str, work: Path) -> list[str]:
    """The ``geotrack`` arguments of one case before ``-o``; the files it reads,
    but the corpus, are first written into ``work``."""
    if name in CLI_CASES:
        return [write_input(work, arg) for arg in CLI_CASES[name]]
    feed, rate = TRACK_CASES[name]
    src = work / f"{feed}.nmea"
    src.write_text(feed_text(feed), encoding="utf-8")
    return ["track", "-i", str(src), "--rate", str(rate)]


def run_case(name: str, work: Path) -> tuple[bytes, bytes]:
    """The output and stderr bytes of one case, run through ``cli.main``."""
    out = work / f"{name}.out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(case_argv(name, work) + ["-o", str(out)])
    if code != EXIT_OK:
        raise RuntimeError(f"{name} exited {code}: {err.getvalue()}")
    return out.read_bytes(), err.getvalue().encode("utf-8")


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as work:
        for name in [*TRACK_CASES, *CLI_CASES]:
            for path, data in zip(golden_paths(name), run_case(name, Path(work))):
                path.write_bytes(gzip.compress(data, mtime=0))
                print(f"{path.name}: {len(data)} bytes")


if __name__ == "__main__":
    regenerate()
