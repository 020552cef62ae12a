"""Command-line entry point: decode, track, simulate, and study subcommands.

All outputs are header-first CSV; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import ais, geodesy, noise, sim
from .ais import DynamicAisReport, StreamCounters
from .tracker import DEFAULT_STALE_TIMEOUT_S, TrackTable, replay

EXIT_OK, EXIT_USAGE, EXIT_INPUT = 0, 1, 2
EXIT_NUMERIC = geodesy.GeotrackError.exit_code


# AIS reports arrive at most every 2 s; a faster replay clock only repeats
# predictions
MAX_RATE_HZ = 100.0


class UsageError(geodesy.GeotrackError):
    exit_code, label = EXIT_USAGE, "usage error"


class InputError(geodesy.GeotrackError):
    """Input that can be read but not understood."""
    exit_code, label = EXIT_INPUT, "input error"


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
    if path == "-":  # stdin outlives the run, so it is not closed
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return contextlib.nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


@contextlib.contextmanager
def _open_output(path: str):
    if path != "-":
        with open(path, "w", encoding="utf-8", newline="") as dst:
            yield dst
        return
    try:  # stdout outlives the run, so it is flushed, not closed
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): stdout now writes to devnull, so
        # that the interpreter's last flush of it cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


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


def _dynamic_line(r: DynamicAisReport) -> str:
    """``_csv_row(r)`` as ``csv.writer`` writes it: a float as its ``repr``, an int
    as its ``str``, None as an empty field; a number is never quoted."""
    lon, lat, sog, cog, heading, ts = r.lon, r.lat, r.sog, r.cog, r.heading, r.timestamp_sec
    return (f"dynamic,{r.mmsi},{r.msg_type},{'' if lon is None else repr(lon)},"
            f"{'' if lat is None else repr(lat)},{'' if sog is None else repr(sog)},"
            f"{'' if cog is None else repr(cog)},{'' if heading is None else heading},"
            f"{'' if ts is None else ts},,,,,,,,\n")


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
            dst.writelines(_jsonl_record(report) + "\n" for _, report in reports)
        else:
            writer = csv.writer(dst, lineterminator="\n")  # a type 5 name may need quotes
            writer.writerow(_DECODE_CSV_COLUMNS)
            for _, report in reports:
                if isinstance(report, DynamicAisReport):
                    dst.write(_dynamic_line(report))
                else:
                    writer.writerow(_csv_row(report))
    print(f"lines={counters.lines} decoded={counters.decoded} "
          f"malformed={counters.malformed} unsupported={counters.unsupported}",
          file=sys.stderr)
    return EXIT_OK


def cmd_track(args) -> int:
    counters = StreamCounters()
    table = TrackTable(filter_rate_hz=args.rate, stale_timeout=args.stale_timeout)
    with _open_input(args.input) as src, _open_output(args.output) as dst:
        dst.write("t,mmsi,lon_deg,lat_deg,sog_mps,cog_deg,p_trace\n")
        for t_tick, rows in replay(ais.decode_lines(src, counters), table):
            stamp = repr(t_tick)  # every row of a tick carries its time
            p_trace = np.trace(table.filt.cov[rows], axis1=-2, axis2=-1)
            dst.writelines(f"{stamp},{mmsi},{lon!r},{lat!r},{sog!r},{cog!r},{p!r}\n"
                           for mmsi, (lon, lat, sog, cog), p
                           in zip(table.mmsi[rows].tolist(),
                                  table.filt.mean[rows].tolist(), p_trace.tolist()))
            dst.flush()  # on a live feed, each tick's rows go out at once
    print(f"lines={counters.lines} decoded={counters.decoded} "
          f"malformed={counters.malformed} tracks={len(table.rows)} "
          f"stale_drops={table.stale_drops} skipped={table.skipped_reports} "
          f"retired={table.retired} timed_out={table.timed_out} "
          f"clock_resets={table.clock_resets}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.scenario is not None:
        try:
            scenario = sim.load_scenario(args.scenario)
        except ValueError as exc:  # parse errors, bad values, undecodable text
            raise InputError(f"{args.scenario}: {exc}") from exc
    else:
        scenario = sim.boston_departure_scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    try:  # a filter that overflows fails at once, as a numerical failure
        with np.errstate(over="raise", invalid="raise"):
            run = sim.run_comparison(scenario)
    except FloatingPointError as exc:
        raise geodesy.GeotrackError(exc) from exc

    truth, ukf, ekf = run.truth, run.ukf, run.ekf
    rows = np.column_stack([truth.t, truth.state, ukf.est, ekf.est, ukf.err_pos_m,
                            ekf.err_pos_m, ukf.sigma3_m])
    with _open_output(args.output) as dst:
        dst.write("t,truth_lon,truth_lat,truth_sog,truth_cog,ukf_lon,ukf_lat,ukf_sog,"
                  "ukf_cog,ekf_lon,ekf_lat,ekf_sog,ekf_cog,err_ukf_m,err_ekf_m,sigma3_m\n")
        dst.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
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
    v_lon, v_lat, _ = geodesy.vincenty_direct_arrays(lon, lat, bearing, distance)
    # meters per degree on WGS84 at the destination: meridional radius M(phi)
    # along latitude, N(phi) cos(phi) along longitude
    phi = np.radians(v_lat)
    w2 = 1.0 - geodesy.WGS84_E2 * np.sin(phi) ** 2
    a_per_deg = math.pi / 180.0 * geodesy.WGS84_SEMI_MAJOR_M
    dlat = (s_lat - v_lat) * a_per_deg * (1.0 - geodesy.WGS84_E2) / w2 ** 1.5
    dlon = geodesy.normalize_lon(s_lon - v_lon) * a_per_deg * np.cos(phi) / np.sqrt(w2)
    err = np.hypot(dlon, dlat)
    return np.column_stack((lat, bearing, distance, err, err / distance * 100.0))


def _sphere_error_blocks(samples: int, seed: int, max_distance: float):
    """The rows of ``sphere_error_rows``, one block at a time."""
    for k, start in enumerate(range(0, samples, SPHERE_ERROR_BLOCK)):
        yield _sphere_error_block(seed + k, start, min(SPHERE_ERROR_BLOCK, samples - start),
                                  max_distance)


def sphere_error_rows(samples: int, seed: int,
                      max_distance: float = 500e3) -> np.ndarray:
    """Sphere-vs-WGS84 propagation error of ``samples`` random arcs.

    Returns a ``(samples, 5)`` array with the columns lat (deg), bearing (deg),
    distance (m), error (m) and error as a percentage of distance.
    """
    return np.concatenate([np.empty((0, 5)),
                           *_sphere_error_blocks(samples, seed, max_distance)])


def cmd_study(args) -> int:
    if args.kind == "plane-error" and args.max_distance >= geodesy.MEAN_EARTH_RADIUS_M:
        raise UsageError(f"plane-error --max-distance must be below the mean Earth "
                         f"radius, {geodesy.MEAN_EARTH_RADIUS_M:g} m")
    if args.kind == "sphere-error" and args.max_distance < 1.0:
        raise UsageError("sphere-error --max-distance must be at least 1 m")
    with _open_output(args.output) as dst:
        if args.kind == "sphere-error":
            dst.write("lat_deg,bearing_deg,distance_m,error_m,normalized_error_pct\n")
            # each block is written row by row as soon as it is computed, so
            # memory holds one block, whatever --samples is
            for block in _sphere_error_blocks(args.samples, args.seed, args.max_distance):
                for row in block:
                    dst.write(",".join(map(repr, row.tolist())) + "\n")
        elif args.kind == "plane-error":
            dst.write("L1_m,L2_m,gamma_rad,delta_L_m,delta_s_m,epsilon_m\n")
            radii = np.linspace(0.0, args.max_distance, args.grid).tolist()
            gammas = np.linspace(0.0, math.pi, args.grid).tolist()
            for l1, l2, gamma in itertools.product(radii, radii, gammas):
                errors = geodesy.tangent_plane_separation_error(l1, l2, gamma)
                dst.write(",".join(map(repr, (l1, l2, gamma, *errors))) + "\n")
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
    p.add_argument("--stale-timeout", type=_positive(float),
                   default=DEFAULT_STALE_TIMEOUT_S)
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
    except geodesy.GeotrackError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # the run ends where the reader left
            return EXIT_OK
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
