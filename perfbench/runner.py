"""Child process of the benchmark: time geotrack's set-up, then run rounds.

Usage: python3 runner.py PLAN.json START_MONOTONIC

START_MONOTONIC is the parent's ``time.monotonic()`` just before it started
this process, so that ``setup_s`` covers interpreter start-up, the import
of ``geotrack`` and building the CLI parser. The plan names the CLI calls
of one round; the runner repeats whole rounds until the measuring time is
spent, times a fixed reference loop before each round, and writes the round
and reference times, output digests and, in a traced run, the span
aggregates to the plan's result file.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_TRACED_ROUNDS = 3  # enough 1 Hz ticks on harbor-replay for a p90
REFERENCE_LOOP = 1_000_000  # iterations of the speed probe run before each round


def reference_loop_s() -> float:
    """Time a fixed pure-Python loop: the machine's speed just before a round."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return time.perf_counter() - start


def run_round(cli, calls) -> float:
    elapsed = 0.0
    for argv in calls:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed += time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"geotrack {' '.join(argv)} exited {code}")
    return elapsed


def digest(paths) -> str:
    import hashlib

    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_rounds(cli, plan, result, tracer=None) -> None:
    """Whole rounds until the plan's seconds have passed, each preceded by
    the reference loop. With a tracer, rounds alternate untraced and
    traced, so that drift in the machine's speed falls on both alike."""
    modes = ("", "traced_") if tracer else ("",)
    start = time.perf_counter()
    while (time.perf_counter() - start < plan["seconds"]
           or (tracer and len(result["traced_round_s"]) < MIN_TRACED_ROUNDS)):
        for mode in modes:
            result[mode + "ref_s"].append(reference_loop_s())
            if mode:
                tracer.install()
            result[mode + "round_s"].append(run_round(cli, plan["calls"]))
            if mode:
                tracer.uninstall()
            result["digests"].append(digest(plan["outputs"]))


def main() -> None:
    sys.path.insert(0, SRC)
    import geotrack.cli as cli

    cli.build_parser()
    setup_s = time.monotonic() - float(sys.argv[2])

    import json

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"geotrack imported from {cli.__file__}, not from {SRC}")
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    result = {"setup_s": setup_s, "round_s": [], "ref_s": [], "traced_round_s": [],
              "traced_ref_s": [], "digests": []}
    if not plan["setup_only"]:
        tracer = None
        if plan["trace"]:
            from spans import Tracer

            tracer = Tracer()
        run_rounds(cli, plan, result, tracer)
        if tracer:
            result["spans"] = tracer.aggregate(keep_durations=("tracker.TrackTable.tick",))
            result["stream_counts"] = tracer.stream_counts
            with open(plan["trace_file"], "w", encoding="utf-8") as fh:
                json.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
