"""The four benchmark workloads: seeded inputs, CLI calls and output checks.

A round is the list of ``geotrack`` CLI calls in ``Plan.calls``; a run
repeats whole rounds on the same inputs. Each check works from the
generator's own expectation or from a property of the method, never from
a saved copy of geotrack's output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import feeds

# the lawnmower AIS intervals of filter-study, and the least share of steps
# whose UKF error lies inside its own 3-sigma radius; at 30 s and 60 s the
# filter coasts through whole 180-degree turns, so the share falls
CONTAINMENT_FLOOR = {"boston": 0.95, 3: 0.95, 10: 0.80, 30: 0.65, 60: 0.35}
LAWNMOWER_LEGS = 4
BOSTON_RMSE_RATIO = 1.25       # UKF position RMSE at most this times the EKF's
SPHERE_VS_ELLIPSOID = 0.006    # relative gap of haversine against Vincenty

HARBOR_VESSELS = 200
HARBOR_DURATION_S = 40.0
HARBOR_BOUND_M = 25.0          # estimate to true position, at the row's time
# a row's time is its belief's timestamp, a float sum of filter steps, so the
# rows of one tick can differ in the last digits
TIME_ORDER_TOLERANCE_S = 1e-6
DECODE_LINES = 16000
SPHERE_SAMPLES = 100000
SPHERE_MAX_DISTANCE_M = 500e3
SPHERE_MAX_PCT = 0.58          # WGS84 against the mean-radius sphere

STEP_SPANS = ("ukf.GeodeticUkf.predict", "ukf.sigma_points", "noise.build_process_noise",
              "geodesy.propagate_sphere_arrays", "numpy.linalg.eigh",
              "numpy.linalg.eigvalsh", "ukf.GeodeticUkf.update")
DECODE_SPANS = ("ais.parse_sentence", "ais.dearmor", "ais.decode_payload",
                "ais.decode_lines")


@dataclass
class Plan:
    calls: list[list[str]]    # the geotrack CLI argv of each call in a round
    outputs: list[Path]       # the file each call writes
    context: dict = field(default_factory=dict)


@dataclass
class Outcome:
    items: int                # work items per round, the numerator of items_per_s
    ops: int                  # operations per round
    failed: int               # failed operations in one round
    problems: list[str]       # faults that make the whole run incorrect
    stats: dict


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _summary_lines(stderr: str) -> list[dict]:
    """The ``key=value ...`` summary lines geotrack prints to stderr."""
    out = []
    for line in stderr.splitlines():
        if line.startswith("lines="):
            out.append({k: int(v) for k, v in (kv.split("=") for kv in line.split())})
    return out


# --------------------------------------------------------------------------
# harbor-replay
# --------------------------------------------------------------------------

def make_harbor(seed: int, work: Path) -> Plan:
    feed = feeds.harbor_feed(seed, HARBOR_VESSELS, HARBOR_DURATION_S)
    src, out = work / "harbor.nmea", work / "harbor-tracks.csv"
    src.write_text("\n".join(feed.lines) + "\n", encoding="utf-8")
    return Plan([["track", "--input", str(src), "--output", str(out)]], [out],
                {"feed": feed})


def check_harbor(plan: Plan, stderr: str) -> Outcome:
    feed = plan.context["feed"]
    rows = _rows(plan.outputs[0])
    failed, worst, prev_t, problems = 0, 0.0, -math.inf, []
    for row in rows:
        t, mmsi = float(row["t"]), int(row["mmsi"])
        vessel = feed.vessels.get(mmsi)
        trace = float(row["p_trace"])
        ok = (vessel is not None and t >= prev_t - TIME_ORDER_TOLERANCE_S
              and math.isfinite(trace) and trace > 0)
        if ok:
            err = feeds.haversine_m(float(row["lon_deg"]), float(row["lat_deg"]),
                                    *vessel.position(t))
            worst = max(worst, err)
            ok = err <= HARBOR_BOUND_M
        failed += not ok
        prev_t = max(prev_t, t)
    st = feed.stats
    summaries = _summary_lines(stderr)
    want = {"lines": st["lines"], "decoded": st["reports"] + st["type5"],
            "malformed": st["garbage"]}
    if not summaries or any(summaries[-1][k] != v for k, v in want.items()):
        problems.append(f"track summary {summaries[-1:]} does not match {want}")
    if not rows:
        problems.append("track wrote no rows")
    return Outcome(len(rows), len(rows), failed, problems, {"max_error_m": worst})


# --------------------------------------------------------------------------
# feed-decode
# --------------------------------------------------------------------------

_INT_FIELDS = {"mmsi": "mmsi", "msg_type": "msg_type", "heading_deg": "heading",
               "timestamp_sec": "timestamp_sec", "imo": "imo", "type_code": "type_code",
               "dim_to_bow_m": "dim_to_bow", "dim_to_stern_m": "dim_to_stern",
               "dim_to_port_m": "dim_to_port", "dim_to_starboard_m": "dim_to_starboard"}
_FLOAT_FIELDS = {"lon_deg": "lon", "lat_deg": "lat", "sog_mps": "sog", "cog_deg": "cog",
                 "draught_m": "draught"}


def make_decode(seed: int, work: Path) -> Plan:
    feed = feeds.decode_feed(seed, DECODE_LINES)
    src, out = work / "decode.nmea", work / "decode.csv"
    src.write_text("\n".join(feed.lines) + "\n", encoding="utf-8")
    return Plan([["decode", "--input", str(src), "--output", str(out)]], [out],
                {"feed": feed})


def _row_matches(row: dict, exp: dict) -> bool:
    if row["kind"] != exp["kind"] or row["name"] != exp.get("name", ""):
        return False
    for col, key in _INT_FIELDS.items():
        want = exp.get(key)
        if (row[col] == "") != (want is None) or (want is not None and int(row[col]) != want):
            return False
    for col, key in _FLOAT_FIELDS.items():
        want = exp.get(key)
        if (row[col] == "") != (want is None):
            return False
        if want is not None and abs(float(row[col]) - want) > 1e-9:
            return False
    return True


def check_decode(plan: Plan, stderr: str) -> Outcome:
    feed = plan.context["feed"]
    rows = _rows(plan.outputs[0])
    problems = []
    if len(rows) != len(feed.expected):
        problems.append(f"{len(rows)} rows, expected {len(feed.expected)}")
    failed = sum(n for row, exp, n in zip(rows, feed.expected, feed.lines_per_report)
                 if not _row_matches(row, exp))
    summaries = _summary_lines(stderr)
    if not summaries:
        problems.append("decode printed no summary")
    else:
        s = summaries[-1]
        failed += (abs(s["malformed"] - feed.n_malformed)
                   + abs(s["unsupported"] - feed.n_unsupported))
        if s["lines"] != len(feed.lines) or s["decoded"] != len(feed.expected):
            problems.append(f"decode summary {s} does not match the feed")
    n = len(feed.lines)
    return Outcome(n, n, failed, problems, {"rows": len(rows)})


# --------------------------------------------------------------------------
# filter-study
# --------------------------------------------------------------------------

def make_filter(seed: int, work: Path) -> Plan:
    from geotrack import sim  # writes the lawnmower scenario files

    calls, outputs, steps = [], [], []
    names = ["boston"] + list(k for k in CONTAINMENT_FLOOR if k != "boston")
    for i, name in enumerate(names):
        out = work / f"sim-{name}.csv"
        scenario_seed = seed * 10 + i
        if name == "boston":
            scenario = sim.boston_departure_scenario(seed=scenario_seed)
            call = ["simulate", "--seed", str(scenario_seed)]
        else:
            scenario = sim.lawnmower_scenario(float(name), n_legs=LAWNMOWER_LEGS,
                                              seed=scenario_seed)
            path = work / f"lawnmower-{name}s.scn"
            path.write_text(sim.format_scenario(scenario), encoding="utf-8")
            call = ["simulate", "--scenario", str(path)]
        calls.append(call + ["--output", str(out)])
        outputs.append(out)
        steps.append(int(math.floor(sum(s.duration for s in scenario.segments)
                                    * scenario.truth_rate_hz + 1e-9)))
    return Plan(calls, outputs, {"names": names, "steps": steps})


def check_filter(plan: Plan, stderr: str) -> Outcome:
    failed, problems, stats = 0, [], {}
    for name, path, steps in zip(plan.context["names"], plan.outputs,
                                 plan.context["steps"]):
        rows = _rows(path)
        if len(rows) != steps:
            problems.append(f"{name}: {len(rows)} rows, expected {steps}")
            continue
        sq = {"ukf": 0.0, "ekf": 0.0}
        agree, inside = True, 0
        for row in rows:
            truth = float(row["truth_lon"]), float(row["truth_lat"])
            for f in ("ukf", "ekf"):
                err = feeds.haversine_m(float(row[f"{f}_lon"]), float(row[f"{f}_lat"]),
                                        *truth)
                reported = float(row[f"err_{f}_m"])
                agree &= abs(err - reported) <= SPHERE_VS_ELLIPSOID * reported + 1e-6
                sq[f] += err * err
            inside += float(row["err_ukf_m"]) < float(row["sigma3_m"])
        ratio = math.sqrt(sq["ukf"] / sq["ekf"])
        containment = inside / len(rows)
        ok = agree and containment >= CONTAINMENT_FLOOR[name]
        if name == "boston":
            ok &= ratio <= BOSTON_RMSE_RATIO
        failed += not ok
        stats[name] = {"ukf_over_ekf_rmse": ratio, "containment_3sigma": containment}
    return Outcome(sum(plan.context["steps"]), len(plan.calls), failed, problems, stats)


# --------------------------------------------------------------------------
# sphere-study
# --------------------------------------------------------------------------

def make_sphere(seed: int, work: Path) -> Plan:
    out = work / "sphere-error.csv"
    return Plan([["study", "sphere-error", "--samples", str(SPHERE_SAMPLES),
                  "--seed", str(seed), "--max-distance", str(SPHERE_MAX_DISTANCE_M),
                  "--output", str(out)]], [out])


def check_sphere(plan: Plan, stderr: str) -> Outcome:
    rows = _rows(plan.outputs[0])
    problems = []
    if len(rows) != SPHERE_SAMPLES:
        problems.append(f"{len(rows)} rows, expected {SPHERE_SAMPLES}")
    failed, worst = 0, 0.0
    for row in rows:
        dist, pct = float(row["distance_m"]), float(row["normalized_error_pct"])
        worst = max(worst, pct)
        failed += not (1.0 <= dist <= SPHERE_MAX_DISTANCE_M and 0.0 <= pct <= SPHERE_MAX_PCT)
    return Outcome(SPHERE_SAMPLES, SPHERE_SAMPLES, failed, problems,
                   {"max_normalized_error_pct": worst})


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, Path], Plan]
    check: Callable[[Plan, str], Outcome]
    spans: tuple[str, ...]    # wrappers that must see calls in the traced run


WORKLOADS = {
    "harbor-replay": Workload(make_harbor, check_harbor,
                              DECODE_SPANS + STEP_SPANS + (
                                  "tracker.TrackTable.tick", "tracker.TrackTable.ingest",
                                  "cli.main")),
    "feed-decode": Workload(make_decode, check_decode, DECODE_SPANS + ("cli.main",)),
    "filter-study": Workload(make_filter, check_filter,
                             STEP_SPANS + ("geodesy.vincenty_inverse",
                                           "ekf.PlanarEkf.predict", "ekf.PlanarEkf.update",
                                           "ekf.PlanarEkf.geodetic_position",
                                           "sim.generate_truth", "sim.sample_ais",
                                           "sim.run_comparison", "cli.main")),
    "sphere-study": Workload(make_sphere, check_sphere,
                             ("geodesy.propagate_sphere_arrays",
                              "geodesy.vincenty_direct_arrays", "cli.main")),
}
