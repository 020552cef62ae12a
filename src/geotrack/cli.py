"""Command-line entry point: decode, track, simulate, and study subcommands.

All outputs are header-first CSV; diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import ais, geodesy, noise, sim
from ._linalg import SingularInnovation
from .ais import DynamicAisReport, StreamCounters
from .tracker import TrackTable
from .ukf import FactorizationFailure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


# AIS reports arrive at most every 2 s; a faster replay clock only repeats
# predictions
MAX_RATE_HZ = 100.0


class UsageError(Exception):
    pass


class InputError(Exception):
    """Input that can be read but not understood."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(kind, most: float = math.inf):
    """An argparse type: a finite value of ``kind`` above zero, at most ``most``."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most:g}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid float value"
    return parse


def _seed(text: str) -> int:
    """An argparse type: a non-negative integer, as a random seed must be."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


_seed.__name__ = "int"  # argparse names it in "invalid int value"


def _open_input(path: str):
    # a byte that is not UTF-8 reads as a lone surrogate: a malformed line
    if path == "-":
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return sys.stdin
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _open_output(path: str):
    if path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8", newline="")


_DECODE_CSV_COLUMNS = ["kind", "mmsi", "msg_type", "lon_deg", "lat_deg", "sog_mps",
                       "cog_deg", "heading_deg", "timestamp_sec", "imo", "name",
                       "type_code", "dim_to_bow_m", "dim_to_stern_m", "dim_to_port_m",
                       "dim_to_starboard_m", "draught_m"]


def _csv_row(report) -> tuple:
    """The ``_DECODE_CSV_COLUMNS`` of one report; None writes an empty field."""
    if isinstance(report, DynamicAisReport):
        return ("dynamic", report.mmsi, report.msg_type, report.lon, report.lat,
                report.sog, report.cog, report.heading, report.timestamp_sec,
                None, None, None, None, None, None, None, None)
    return ("static", report.mmsi, 5, None, None, None, None, None, None,
            report.imo, report.name, report.type_code, report.dim_to_bow,
            report.dim_to_stern, report.dim_to_port, report.dim_to_starboard,
            report.draught)


# The columns a JSONL record of each kind holds, in ``_DECODE_CSV_COLUMNS``
# order: a record leaves out the columns its kind never fills.
_JSONL_COLUMNS = {"dynamic": _DECODE_CSV_COLUMNS[:9],
                  "static": _DECODE_CSV_COLUMNS[:3] + _DECODE_CSV_COLUMNS[9:]}


def _jsonl_record(report) -> str:
    row = dict(zip(_DECODE_CSV_COLUMNS, _csv_row(report)))
    return json.dumps({c: row[c] for c in _JSONL_COLUMNS[row["kind"]]})


def cmd_decode(args) -> int:
    counters = StreamCounters()
    with _open_input(args.input) as src, _open_output(args.output) as dst:
        reports = ais.decode_lines(src, counters)
        if args.format == "jsonl":
            for _, report in reports:
                dst.write(_jsonl_record(report) + "\n")
        else:
            writer = csv.writer(dst, lineterminator="\n")
            writer.writerow(_DECODE_CSV_COLUMNS)
            writer.writerows(_csv_row(report) for _, report in reports)
    print(f"lines={counters.lines} decoded={counters.decoded} "
          f"malformed={counters.malformed} unsupported={counters.unsupported}",
          file=sys.stderr)
    return EXIT_OK


# Synthetic arrival intervals by transponder class when no timestamp sidecar
# column is present (Class A underway vs Class B underway).
_SYNTHETIC_INTERVAL_S = {18: 30.0, 1: 10.0, 2: 10.0, 3: 10.0}


def _timed_reports(lines, counters: StreamCounters):
    """Yield (t, report) pairs as the lines arrive; time comes from a leading
    sidecar column when present, else from per-MMSI synthetic arrival at
    class-typical rates."""
    synthetic_clock: dict[int, float] = {}
    for t, report in ais.decode_lines(lines, counters):
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
        k = None  # index of the next replay tick, at time k / rate
        for t, report in _timed_reports(src, counters):
            last = math.floor(t * args.rate)  # the last tick at or before t
            k = last if k is None else k
            while k <= last:
                if not table.rows:  # nothing to predict: jump to the last tick
                    k = last
                rows = table.tick(k / args.rate)
                filt = rows.filt
                p_trace = np.trace(filt.cov, axis1=-2, axis2=-1)
                dst.writelines(f"{t_row!r},{mmsi},{lon!r},{lat!r},{sog!r},{cog!r},{p!r}\n"
                               for t_row, mmsi, (lon, lat, sog, cog), p
                               in zip(filt.time.tolist(), rows.mmsi.tolist(),
                                      filt.mean.tolist(), p_trace.tolist()))
                dst.flush()  # on a live feed, each tick's rows go out at once
                k += 1
            table.ingest(report, t)
    live = len(table.tracks)  # fuses the reports that came after the last tick
    print(f"lines={counters.lines} decoded={counters.decoded} "
          f"malformed={counters.malformed} tracks={live} "
          f"stale_drops={table.stale_drops} skipped={table.skipped_reports} "
          f"retired={table.retired}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.scenario:
        try:
            scenario = sim.load_scenario(args.scenario)
        except ValueError as exc:  # parse errors, bad values, undecodable text
            raise InputError(f"{args.scenario}: {exc}") from exc
    else:
        scenario = sim.boston_departure_scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    # a filter that overflows fails at once, as FloatingPointError (exit 3)
    with np.errstate(over="raise", invalid="raise"):
        run = sim.run_comparison(scenario)

    truth, ukf, ekf = run.truth, run.ukf, run.ekf
    rows = np.column_stack([truth.t, truth.lon, truth.lat, truth.sog, truth.cog,
                            ukf.est, ekf.est, ukf.err_pos_m, ekf.err_pos_m,
                            ukf.sigma3_m])
    with _open_output(args.output) as dst:
        writer = csv.writer(dst, lineterminator="\n")
        writer.writerow(["t", "truth_lon", "truth_lat", "truth_sog", "truth_cog",
                         "ukf_lon", "ukf_lat", "ukf_sog", "ukf_cog",
                         "ekf_lon", "ekf_lat", "ekf_sog", "ekf_cog",
                         "err_ukf_m", "err_ekf_m", "sigma3_m"])
        writer.writerows(rows.tolist())
    for label, metrics in (("ukf", run.ukf_metrics), ("ekf", run.ekf_metrics)):
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
    if args.kind == "plane-error" and args.max_distance >= geodesy.MEAN_EARTH_RADIUS_M:
        raise UsageError(f"plane-error --max-distance must be below the mean Earth "
                         f"radius, {geodesy.MEAN_EARTH_RADIUS_M:g} m")
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
    p.add_argument("--rate", type=_positive(float, MAX_RATE_HZ), default=1.0,
                   help=f"filter tick rate, Hz (at most {MAX_RATE_HZ:g})")
    p.add_argument("--stale-timeout", type=_positive(float), default=180.0)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("simulate", help="truth + noisy AIS simulation with filters")
    p.add_argument("--scenario", help="scenario file (default: Boston departure)")
    p.add_argument("--output", "-o", default="-")
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("study", help="error / kinematics studies as CSV")
    p.add_argument("kind", choices=["sphere-error", "plane-error", "wave-table"])
    p.add_argument("--samples", type=_positive(int), default=100000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--max-distance", type=_positive(float), default=500e3)
    p.add_argument("--grid", type=_positive(int), default=25)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_study)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (geodesy.DomainError, geodesy.NonConvergenceError, FactorizationFailure,
            SingularInnovation, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
