"""Command-line entry point: decode, track, simulate, and study subcommands.

All outputs are header-first CSV; diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import ais, geodesy, noise, sim
from .ais import DynamicAisReport, StaticAisReport, StreamCounters
from .geodesy import GeoPoint
from .tracker import TrackTable

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

SEED_ENV_VAR = "GEOTRACK_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _open_input(path: str):
    if path == "-":
        return sys.stdin
    try:
        return open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise FileNotFoundError(str(exc)) from exc


def _open_output(path: str):
    if path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8", newline="")


def _report_to_dict(report) -> dict:
    if isinstance(report, DynamicAisReport):
        return {"kind": "dynamic", "mmsi": report.mmsi, "msg_type": report.msg_type,
                "lon_deg": report.lon, "lat_deg": report.lat,
                "sog_mps": report.sog, "cog_deg": report.cog,
                "heading_deg": report.heading, "timestamp_sec": report.timestamp_sec}
    assert isinstance(report, StaticAisReport)
    return {"kind": "static", "mmsi": report.mmsi, "msg_type": 5,
            "imo": report.imo, "name": report.name, "type_code": report.type_code,
            "dim_to_bow_m": report.dim_to_bow, "dim_to_stern_m": report.dim_to_stern,
            "dim_to_port_m": report.dim_to_port,
            "dim_to_starboard_m": report.dim_to_starboard,
            "draught_m": report.draught}

_DECODE_CSV_COLUMNS = ["kind", "mmsi", "msg_type", "lon_deg", "lat_deg", "sog_mps",
                       "cog_deg", "heading_deg", "timestamp_sec", "imo", "name",
                       "type_code", "dim_to_bow_m", "dim_to_stern_m", "dim_to_port_m",
                       "dim_to_starboard_m", "draught_m"]


def cmd_decode(args) -> int:
    counters = StreamCounters()
    with _open_input(args.input) as src, _open_output(args.output) as dst:
        reports = ais.decode_lines(src, counters)
        if args.format == "jsonl":
            for report in reports:
                dst.write(json.dumps(_report_to_dict(report)) + "\n")
        else:
            writer = csv.writer(dst, lineterminator="\n")
            writer.writerow(_DECODE_CSV_COLUMNS)
            for report in reports:
                d = _report_to_dict(report)
                writer.writerow([d.get(c) for c in _DECODE_CSV_COLUMNS])
    print(f"lines={counters.lines} decoded={counters.decoded} "
          f"malformed={counters.malformed} unsupported={counters.unsupported}",
          file=sys.stderr)
    return EXIT_OK


# Synthetic arrival intervals by transponder class when no timestamp sidecar
# column is present (Class A underway vs Class B underway).
_SYNTHETIC_INTERVAL_S = {18: 30.0, 1: 10.0, 2: 10.0, 3: 10.0}


def _timed_reports(lines, counters: StreamCounters):
    """Yield (t, report) pairs; time comes from a leading sidecar column when
    present, else from per-MMSI synthetic arrival at class-typical rates."""
    synthetic_clock: dict[int, float] = {}
    buffered = []
    for line in lines:
        line = line.rstrip("\n")
        if not line.strip():
            continue
        t = None
        payload = line
        if not line.lstrip().startswith(("!", "$")) and "," in line:
            head, rest = line.split(",", 1)
            try:
                t = float(head)
                payload = rest
            except ValueError:
                payload = line
        buffered.append((t, payload))

    decoded = []
    nmea_lines = [p for _, p in buffered]
    times = [t for t, _ in buffered]
    idx = 0

    def _tracking_lines():
        nonlocal idx
        for i, text in enumerate(nmea_lines):
            idx = i
            yield text

    for report in ais.decode_lines(_tracking_lines(), counters):
        decoded.append((times[idx], report))

    for t, report in decoded:
        if not isinstance(report, DynamicAisReport):
            continue
        if t is None:
            interval = _SYNTHETIC_INTERVAL_S.get(report.msg_type, 10.0)
            t = synthetic_clock.get(report.mmsi, -interval) + interval
        synthetic_clock[report.mmsi] = t
        yield t, report


def cmd_track(args) -> int:
    counters = StreamCounters()
    table = TrackTable(filter_rate_hz=args.rate, stale_timeout=args.stale_timeout)
    with _open_input(args.input) as src, _open_output(args.output) as dst:
        dst.write("t,mmsi,lon_deg,lat_deg,sog_mps,cog_deg,p_trace\n")
        clock = None
        for t, report in _timed_reports(src, counters):
            if clock is None:
                clock = math.floor(t)
            # drive ticks of the replay clock up to this report's time
            while clock < t:
                if not table.tracks:  # nothing to predict: jump to the last tick before t
                    clock += max(0, math.ceil((t - clock) * args.rate) - 1) / args.rate
                clock += 1.0 / args.rate
                for mmsi, belief in table.tick(min(clock, t)):
                    m = belief.mean
                    dst.write(f"{belief.timestamp},{mmsi},{m.lon!r},{m.lat!r},"
                              f"{m.sog!r},{m.cog!r},{float(np.trace(belief.cov))!r}\n")
            table.ingest(report, t)
    print(f"lines={counters.lines} decoded={counters.decoded} "
          f"malformed={counters.malformed} tracks={len(table.tracks)} "
          f"stale_drops={table.stale_drops} skipped={table.skipped_reports} "
          f"retired={table.retired}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.scenario:
        scenario = sim.load_scenario(args.scenario)
    else:
        scenario = sim.boston_departure_scenario()
    if args.seed is not None:
        scenario = sim.replace(scenario, seed=args.seed)
    run = sim.run_comparison(scenario, filters=args.filters)

    with _open_output(args.output) as dst:
        writer = csv.writer(dst, lineterminator="\n")
        writer.writerow(["t", "truth_lon", "truth_lat", "truth_sog", "truth_cog",
                         "ukf_lon", "ukf_lat", "ukf_sog", "ukf_cog",
                         "ekf_lon", "ekf_lat", "ekf_sog", "ekf_cog",
                         "err_ukf_m", "err_ekf_m", "sigma3_m"])
        truth = run.truth
        for i in range(len(truth)):
            ukf_cols = (list(run.ukf.est[i]) if run.ukf else [None] * 4)
            ekf_cols = (list(run.ekf.est[i]) if run.ekf else [None] * 4)
            err_u = run.ukf.err_pos_m[i] if run.ukf else None
            err_e = run.ekf.err_pos_m[i] if run.ekf else None
            sigma3 = run.ukf.sigma3_m[i] if run.ukf else (
                run.ekf.sigma3_m[i] if run.ekf else None)
            row = ([truth.t[i], truth.lon[i], truth.lat[i], truth.sog[i],
                    truth.cog[i]] + ukf_cols + ekf_cols + [err_u, err_e, sigma3])
            writer.writerow([None if v is None else float(v) for v in row])
    for label, metrics in (("ukf", run.ukf_metrics), ("ekf", run.ekf_metrics)):
        if metrics is None:
            continue
        print(f"{label}: rmse_lon={metrics.rmse_lon:.3e} rmse_lat={metrics.rmse_lat:.3e} "
              f"rmse_sog={metrics.rmse_sog:.3f} rmse_cog={metrics.rmse_cog:.3f} "
              f"rmse_pos_m={metrics.rmse_pos_m:.2f} "
              f"within_3sigma={metrics.frac_within_3sigma:.3f}", file=sys.stderr)
    return EXIT_OK


# Samples are drawn in blocks of this size, block k from seeds seed + k and
# (seed + k, start); the block size therefore fixes the sample draw.
SPHERE_ERROR_BLOCK = 20000


def _sphere_error_block(seed: int, start: int, count: int,
                        max_distance: float) -> np.ndarray:
    lon, lat = geodesy.sample_uniform_sphere_arrays(count, seed)
    rng = np.random.default_rng((seed, start))
    bearing = rng.random(count) * 360.0
    # log-uniform distance so the filter's short-arc regime is well represented
    distance = np.exp(rng.uniform(np.log(1.0), np.log(max_distance), count))
    s_lon, s_lat = geodesy.propagate_sphere_arrays(lon, lat, bearing, distance)
    v_lon, v_lat, _, _ = geodesy.vincenty_direct_arrays(lon, lat, bearing, distance)
    # meters per degree on WGS84 at the destination: meridional radius M(phi)
    # along latitude, N(phi) cos(phi) along longitude
    phi = np.radians(v_lat)
    w2 = 1.0 - geodesy.WGS84_E2 * np.sin(phi) ** 2
    a_per_deg = math.pi / 180.0 * geodesy.WGS84_SEMI_MAJOR_M
    dlat = (s_lat - v_lat) * a_per_deg * (1.0 - geodesy.WGS84_E2) / w2 ** 1.5
    dlon = (((s_lon - v_lon + 180.0) % 360.0 - 180.0)
            * a_per_deg * np.cos(phi) / np.sqrt(w2))
    err = np.hypot(dlon, dlat)
    return np.column_stack((lat, bearing, distance, err, err / distance * 100.0))


def sphere_error_rows(samples: int, seed: int,
                      max_distance: float = 500e3) -> np.ndarray:
    """Sphere-vs-WGS84 propagation error of ``samples`` random arcs.

    Returns a ``(samples, 5)`` array with the columns lat (deg), bearing (deg),
    distance (m), error (m) and error as a percentage of distance.
    """
    starts = range(0, samples, SPHERE_ERROR_BLOCK)
    blocks = [_sphere_error_block(seed + k, start,
                                  min(SPHERE_ERROR_BLOCK, samples - start),
                                  max_distance)
              for k, start in enumerate(starts)]
    return np.concatenate(blocks) if blocks else np.empty((0, 5))


def cmd_study(args) -> int:
    with _open_output(args.output) as dst:
        if args.kind == "sphere-error":
            dst.write("lat_deg,bearing_deg,distance_m,error_m,normalized_error_pct\n")
            # row by row, so that no Python copy of the whole array is held
            for row in sphere_error_rows(args.samples, args.seed, args.max_distance):
                dst.write(",".join(map(repr, row.tolist())) + "\n")
        elif args.kind == "plane-error":
            dst.write("L1_m,L2_m,gamma_rad,delta_L_m,delta_s_m,epsilon_m\n")
            radii = np.linspace(0.0, args.max_distance, args.grid)
            gammas = np.linspace(0.0, math.pi, args.grid)
            for l1 in radii:
                for l2 in radii:
                    for gamma in gammas:
                        dl, ds, eps = geodesy.tangent_plane_separation_error(
                            float(l1), float(l2), float(gamma))
                        dst.write(",".join(repr(float(v)) for v in
                                           (l1, l2, gamma, dl, ds, eps)) + "\n")
        else:  # wave-table
            dst.write("beaufort,Hs_m,Tp_s,zeta_m,umax_mps\n")
            for scale, hs, tp in noise.BEAUFORT_SEA_STATES:
                wk = noise.wave_orbital_kinematics(hs, tp)
                dst.write(f"{scale},{hs},{tp},{wk.orbital_radius!r},"
                          f"{wk.orbital_speed!r}\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="geotrack",
                     description="Geodetic AIS vessel tracking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode NMEA AIVDM sentences to records")
    p.add_argument("--input", "-i", default="-", help="NMEA file or '-' for stdin")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("track", help="run per-MMSI filters over an NMEA stream")
    p.add_argument("--input", "-i", default="-")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--rate", type=float, default=1.0, help="filter tick rate, Hz")
    p.add_argument("--stale-timeout", type=float, default=180.0)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("simulate", help="truth + noisy AIS simulation with filters")
    p.add_argument("--scenario", help="scenario file (default: Boston departure)")
    p.add_argument("--filters", choices=["ukf", "ekf", "both"], default="both")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("study", help="error / kinematics studies as CSV")
    p.add_argument("kind", choices=["sphere-error", "plane-error", "wave-table"])
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--max-distance", type=float, default=500e3)
    p.add_argument("--grid", type=int, default=25)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (FileNotFoundError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (geodesy.NonConvergenceError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
