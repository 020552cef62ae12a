"""geotrack benchmark: one workload, one seed, end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload harbor-replay --seed 1 --seconds 20 --trace 0

The run makes the workload's inputs from the seed, starts a few set-up-only
children to time ``import geotrack``, then one child (``runner.py``) that
repeats whole rounds of ``geotrack.cli.main`` calls for the given seconds.
It checks the outputs, prints every metric by name, writes them to
``perfbench/work/results/`` and prints one JSON object as its last line:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CHILDREN = 8      # set-up-only children; the measuring child is one more
RUN_TIMEOUT_S = 170.0   # the whole run, inputs and checks included
# runner.reference_loop_s() on the 2-vCPU machine the benchmark was tuned on;
# a round's time is scaled by it so that rates read in that machine's seconds
REFERENCE_NOMINAL_S = 0.1


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(plan: dict, work: Path, label: str, deadline: float) -> tuple[dict, str, float]:
    """Run runner.py on ``plan``; return its result, its stderr and peak RSS in MB."""
    plan_path, err_path = work / f"{label}.plan.json", work / f"{label}.stderr"
    plan = dict(plan, result=str(work / f"{label}.result.json"))
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "runner.py"), str(plan_path),
                                 repr(start)], stdout=err, stderr=err, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                proc.kill()
                proc.wait()
                fail(f"{label} child ran past the time limit")
            time.sleep(0.02)
    stderr = err_path.read_text(encoding="utf-8")
    if proc.returncode != 0:
        fail(f"{label} child exited {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    return result, stderr, usage.ru_maxrss / 1024.0


def round_cost(result: dict, mode: str = "") -> float:
    """A round's time in reference-loop units: the run's total round time
    over the total time of the reference loops run just before them."""
    return sum(result[mode + "round_s"]) / sum(result[mode + "ref_s"])


def layer_metrics(result: dict, items_per_round: int) -> tuple[dict, list[str]]:
    """Per-layer figures of a traced run, from its span aggregates."""
    sp = result["spans"]
    rounds = len(result["traced_round_s"])
    problems = []

    def per_call(name, scale):
        e = sp[name]
        return e["total_ns"] / e["calls"] / scale if e["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    counts = result["stream_counts"]
    ingest = sp["tracker.TrackTable.ingest"]["note_counts"]
    tick = sp["tracker.TrackTable.tick"]
    ticks_ms = sorted(d / 1e6 for d in tick["durations_ns"])
    p90 = 0.0
    if ticks_ms:
        if len(ticks_ms) < 100:
            problems.append(f"{len(ticks_ms)} ticks traced, a p90 needs 100")
        else:
            p90 = statistics.quantiles(ticks_ms, n=10)[-1]
    predict = sp["ukf.GeodeticUkf.predict"]
    steps = items_per_round * rounds
    lines = counts.get("lines", 0)
    m = {
        "ais.parse_sentence.us": per_call("ais.parse_sentence", 1e3),
        "ais.dearmor.us": per_call("ais.dearmor", 1e3),
        "ais.decode_payload.us": per_call("ais.decode_payload", 1e3),
        "ais.decode_lines.self_us_per_line":
            ratio(sp["ais.decode_lines"]["self_ns"] / 1e3, lines),
        "ais.lines": lines / rounds,
        "ais.decoded": counts.get("decoded", 0) / rounds,
        "ais.malformed": counts.get("malformed", 0) / rounds,
        "ais.unsupported": counts.get("unsupported", 0) / rounds,
        "geodesy.propagate_sphere_arrays.us": per_call("geodesy.propagate_sphere_arrays", 1e3),
        "geodesy.vincenty_inverse.us": per_call("geodesy.vincenty_inverse", 1e3),
        "geodesy.vincenty_direct_arrays.ns_per_point":
            ratio(sp["geodesy.vincenty_direct_arrays"]["total_ns"],
                  sp["geodesy.vincenty_direct_arrays"]["note_sum"]),
        "geodesy.vincenty_inverse.calls_per_sim_step":
            ratio(sp["geodesy.vincenty_inverse"]["calls"], steps),
        "noise.build_process_noise.us": per_call("noise.build_process_noise", 1e3),
        "ukf.sigma_points.us": per_call("ukf.sigma_points", 1e3),
        "ukf.GeodeticUkf.predict.us": per_call("ukf.GeodeticUkf.predict", 1e3),
        "ukf.GeodeticUkf.update.us": per_call("ukf.GeodeticUkf.update", 1e3),
        "ukf.eig_calls_per_predict": ratio(predict["eig_calls"], predict["calls"]),
        "ukf.predicts_per_track_step": ratio(predict["calls"], steps),
        "ekf.PlanarEkf.predict.us": per_call("ekf.PlanarEkf.predict", 1e3),
        "ekf.PlanarEkf.update.us": per_call("ekf.PlanarEkf.update", 1e3),
        "ekf.PlanarEkf.geodetic_position.us": per_call("ekf.PlanarEkf.geodetic_position", 1e3),
        "tracker.TrackTable.tick.median_ms": statistics.median(ticks_ms) if ticks_ms else 0.0,
        "tracker.TrackTable.tick.p90_ms": p90,
        "tracker.TrackTable.tick.us_per_track": ratio(tick["total_ns"] / 1e3, tick["note_sum"]),
        "tracker.TrackTable.ingest.us": per_call("tracker.TrackTable.ingest", 1e3),
        "tracker.tracks_per_tick": ratio(tick["note_sum"], tick["calls"]),
        "tracker.created": ingest.get("created", 0) / rounds,
        "tracker.updated": ingest.get("updated", 0) / rounds,
        "tracker.skipped": ingest.get("skipped", 0) / rounds,
        "tracker.dropped_stale": ingest.get("dropped_stale", 0) / rounds,
        "sim.generate_truth.ms": per_call("sim.generate_truth", 1e6),
        "sim.sample_ais.ms": per_call("sim.sample_ais", 1e6),
        "sim.run_comparison.self_ms":
            ratio(sp["sim.run_comparison"]["self_ns"] / 1e6, sp["sim.run_comparison"]["calls"]),
        "cli.main.self_s": ratio(sp["cli.main"]["self_ns"] / 1e9, sp["cli.main"]["calls"]),
        "trace.overhead_pct": 100.0 * (round_cost(result, "traced_") / round_cost(result)
                                       - 1.0),
    }
    return m, problems


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    for needed in ("src/geotrack/cli.py", "tests/data/make_ais_corpus.py"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} is missing: run from a geotrack checkout")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = HERE / "work" / args.workload
    (work / "results").mkdir(parents=True, exist_ok=True)
    plan = workload.make(args.seed, work)
    base = {"calls": plan.calls, "outputs": [str(p) for p in plan.outputs],
            "seconds": args.seconds, "trace": args.trace,
            "trace_file": str(work / "results" / f"spans-seed{args.seed}.json")}

    setups = [spawn(dict(base, setup_only=True), work, f"setup{i}", deadline)[0]["setup_s"]
              for i in range(SETUP_CHILDREN)]
    result, stderr, rss_mb = spawn(dict(base, setup_only=False), work, "run", deadline)
    setups.append(result["setup_s"])

    outcome = workload.check(plan, stderr)
    problems = list(outcome.problems)
    if len(set(result["digests"])) != 1:
        problems.append("rounds wrote different outputs from the same inputs")
    rounds = len(result["round_s"]) + len(result["traced_round_s"])

    if args.trace:
        metrics, more = layer_metrics(result, outcome.items)
        problems += more
        silent = [n for n in workload.spans if result["spans"][n]["calls"] == 0]
        if silent:
            fail(f"traced wrappers saw no calls on {args.workload}: {', '.join(silent)}")
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": rss_mb,
                   "items_per_ref_s": outcome.items / (round_cost(result)
                                                       * REFERENCE_NOMINAL_S)}
        wanted = spec["end_to_end"]
    differ = set(metrics) ^ {m["name"] for m in wanted}
    if differ:
        fail(f"computed metrics differ from BENCHMARK.json: {sorted(differ)}")

    report = {"correct": not problems, "attempted": outcome.ops * rounds,
              "failed": outcome.failed * rounds,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    details = dict(report, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   problems=problems, checks=outcome.stats, setup_s=setups,
                   wall_items_per_s=outcome.items / statistics.median(result["round_s"]),
                   **{k: result[k] for k in ("round_s", "ref_s", "traced_round_s",
                                             "traced_ref_s")})
    out = work / "results" / f"result-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"problem: {problem}")
    for name, m in report["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds = {rounds}, attempted = {report['attempted']}, "
          f"failed = {report['failed']}, wall items/s = {details['wall_items_per_s']:.6g}, "
          f"checks = {json.dumps(outcome.stats)}")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
