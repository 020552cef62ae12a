import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import make_ais_corpus as enc
from geotrack import cli
from geotrack.ais import DynamicAisReport, StaticAisReport, decode_lines
from geotrack.cli import (_DECODE_CSV_COLUMNS, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK,
                          EXIT_USAGE, _csv_row, main, sphere_error_rows)
from geotrack.geodesy import GeotrackError
from geotrack.tracker import TrackTable
from conftest import DATA_DIR

CORPUS = os.path.join(DATA_DIR, "ais_corpus.nmea")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(DATA_DIR))), "src")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def untimed_corpus_track(tmp_path_factory):
    """One ``track`` run over the untimed corpus: its exit code, CSV rows and
    stderr."""
    out = tmp_path_factory.mktemp("untimed") / "tracks.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["track", "-i", CORPUS, "-o", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows, err.getvalue()


class TestDecode:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "decoded.csv"
        code, _, err = run_cli(["decode", "-i", CORPUS, "-o", str(out)], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 525
        assert "decoded=525" in err
        assert "malformed=3" in err
        dynamic = [r for r in rows if r["kind"] == "dynamic"]
        assert dynamic[0]["sog_mps"] == "5.1444"
        static = [r for r in rows if r["kind"] == "static"]
        assert any(r["name"] == "GLOVIS CHORUS" for r in static)

    # the field of tests/data/ais_corpus_truth.json that each column holds
    TRUTH_KEYS = {"kind": "kind", "mmsi": "mmsi", "msg_type": "msg_type", "lon_deg": "lon",
                  "lat_deg": "lat", "sog_mps": "sog", "cog_deg": "cog",
                  "heading_deg": "heading", "timestamp_sec": "timestamp_sec",
                  "imo": "imo", "name": "name", "type_code": "type_code",
                  "dim_to_bow_m": "dim_to_bow", "dim_to_stern_m": "dim_to_stern",
                  "dim_to_port_m": "dim_to_port",
                  "dim_to_starboard_m": "dim_to_starboard", "draught_m": "draught"}

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_every_field_matches_the_corpus_truth(self, fmt, tmp_path, capsys):
        out = tmp_path / f"decoded.{fmt}"
        code, _, err = run_cli(["decode", "-i", CORPUS, "-o", str(out),
                                "--format", fmt], capsys)
        assert code == EXIT_OK
        with open(os.path.join(DATA_DIR, "ais_corpus_truth.json")) as fh:
            truth = json.load(fh)
        assert err == (f"lines={truth['n_lines']} decoded={truth['n_reports']} "
                       f"malformed={truth['n_malformed']} "
                       f"unsupported={truth['n_unsupported']}\n")
        with open(out, newline="") as fh:
            if fmt == "csv":
                reader = csv.reader(fh)
                assert next(reader) == _DECODE_CSV_COLUMNS
                rows = [dict(zip(_DECODE_CSV_COLUMNS, row, strict=True)) for row in reader]
            else:
                rows = [json.loads(line) for line in fh]
        assert len(rows) == truth["n_reports"]
        for row, want in zip(rows, truth["reports"]):
            for column, key in self.TRUTH_KEYS.items():
                got, expected = row.get(column), want.get(key)
                if fmt == "csv" and expected is not None and not isinstance(expected, str):
                    got = type(expected)(got)
                if expected is None:  # a missing field is empty
                    assert got == ("" if fmt == "csv" else None), (column, row)
                elif isinstance(expected, float):
                    assert got == pytest.approx(expected, rel=1e-12), (column, row)
                else:
                    assert got == expected and type(got) is type(expected), (column, row)

    def test_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "decoded.jsonl"
        code, _, _ = run_cli(["decode", "-i", CORPUS, "-o", str(out),
                              "--format", "jsonl"], capsys)
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 525
        assert all("mmsi" in r for r in records)

    def test_name_with_comma_is_quoted(self, tmp_path, capsys):
        bits = enc.encode_type5(440292000, 9674907, "D7WQ", "ALPHA,BRAVO", 70,
                                199, 33, 12, 20, 1, 98, "BOSTON")
        payload, fill = enc.armor_bits(bits)
        feed = tmp_path / "type5.nmea"
        feed.write_text(enc.sentence(2, 1, 3, "A", payload[:60], 0) + "\n"
                        + enc.sentence(2, 2, 3, "A", payload[60:], fill) + "\n")
        out = tmp_path / "decoded.csv"
        code, _, err = run_cli(["decode", "-i", str(feed), "-o", str(out)], capsys)
        assert code == EXIT_OK
        assert "decoded=1" in err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert None not in rows[0]  # no field spilled past the header
        assert rows[0]["name"] == "ALPHA,BRAVO"
        assert rows[0]["type_code"] == "70"
        assert rows[0]["draught_m"] == "9.8"

    def test_csv_row_holds_the_jsonl_fields_in_column_order(self, tmp_path, capsys):
        out = tmp_path / "decoded.jsonl"
        code, _, _ = run_cli(["decode", "-i", CORPUS, "-o", str(out),
                              "--format", "jsonl"], capsys)
        assert code == EXIT_OK
        with open(CORPUS) as fh:
            reports = [r for _, r in decode_lines(fh)]
        assert {type(r) for r in reports} == {DynamicAisReport, StaticAisReport}
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == len(reports)
        # a record holds its kind's columns, in CSV column order
        kind_columns = {"dynamic": _DECODE_CSV_COLUMNS[:9],
                        "static": _DECODE_CSV_COLUMNS[:3] + _DECODE_CSV_COLUMNS[9:]}
        for report, record in zip(reports, records):
            assert list(record) == kind_columns[record["kind"]]
            assert _csv_row(report) == tuple(record.get(c) for c in _DECODE_CSV_COLUMNS)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_sidecar_times_decode_like_plain_lines(self, fmt, tmp_path, capsys):
        with open(CORPUS) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        outputs = []
        for name, text in (("plain", "".join(f"{ln}\n" for ln in lines)),
                           ("timed", "".join(f"{i * 2.0},{ln}\n"
                                             for i, ln in enumerate(lines)))):
            feed, out = tmp_path / f"{name}.nmea", tmp_path / f"{name}.{fmt}"
            feed.write_text(text)
            code, _, err = run_cli(["decode", "-i", str(feed), "-o", str(out),
                                    "--format", fmt], capsys)
            assert code == EXIT_OK
            outputs.append((out.read_bytes(), err))
        assert outputs[0] == outputs[1]
        assert outputs[0][1] == "lines=534 decoded=525 malformed=3 unsupported=1\n"

    def test_sidecar_only_line_is_one_malformed_line(self, tmp_path, capsys):
        report = TestTrack.timed_report(0.0, 366999784, 42.0)
        feed = tmp_path / "feed.nmea"
        feed.write_text(report + "5.0,\n" + TestTrack.timed_report(3.0, 366999784, 42.0))
        summaries = []
        for command in ("decode", "track"):
            code, _, err = run_cli([command, "-i", str(feed),
                                    "-o", str(tmp_path / f"{command}.out")], capsys)
            assert code == EXIT_OK
            summaries.append(err.split()[:4])
        assert summaries == [["lines=3", "decoded=2", "malformed=1", "unsupported=0"],
                             ["lines=3", "decoded=2", "malformed=1", "tracks=1"]]

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", ["decode", "track"])
    def test_line_that_is_not_utf8_is_one_malformed_line(self, command, source, tmp_path,
                                                         capsys, monkeypatch):
        report = TestTrack.timed_report(0.0, 366999784, 42.0).encode()
        feed = (report + b"\xff\xfe\n" + report.replace(b"AIVDM", b"AIVD\xe9")
                + TestTrack.timed_report(3.0, 366999784, 42.0).encode())
        path = tmp_path / "feed.nmea"
        path.write_bytes(feed)
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(feed),
                                                               encoding="utf-8"))
            path = "-"
        code, _, err = run_cli([command, "-i", str(path),
                                "-o", str(tmp_path / f"{command}.out")], capsys)
        assert code == EXIT_OK
        assert err.split()[:3] == ["lines=4", "decoded=2", "malformed=2"]


class TestTrack:
    def test_sidecar_timestamps(self, tmp_path, capsys):
        # prefix each corpus line with a monotone timestamp column
        stream = tmp_path / "timed.nmea"
        with open(CORPUS) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        with open(stream, "w") as fh:
            for i, ln in enumerate(lines):
                fh.write(f"{i * 2.0},{ln}\n")
        out = tmp_path / "tracks.csv"
        code, _, err = run_cli(["track", "-i", str(stream), "-o", str(out)],
                               capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "track output is empty"
        assert set(rows[0]) == {"t", "mmsi", "lon_deg", "lat_deg", "sog_mps",
                                "cog_deg", "p_trace"}
        times = [float(r["t"]) for r in rows]
        assert times == sorted(times)
        assert all(float(r["p_trace"]) > 0.0 for r in rows)
        assert "tracks=" in err

    def test_polar_report_is_not_tracked(self, tmp_path, capsys):
        def report(t, mmsi, lat):
            bits = enc.encode_class_a(1, mmsi, 70, int(-70.9 * 600000),
                                      int(lat * 600000), 900, 90, 0)
            payload, fill = enc.armor_bits(bits)
            return f"{t},{enc.sentence(1, 1, None, 'A', payload, fill)}\n"

        stream = tmp_path / "polar.nmea"
        stream.write_text(report(0.0, 366999784, 42.0)
                          + report(1.0, 211234560, 90.0)
                          + report(3.0, 366999784, 42.0))
        out = tmp_path / "tracks.csv"
        code, _, err = run_cli(["track", "-i", str(stream), "-o", str(out)],
                               capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert {r["mmsi"] for r in rows} == {"366999784"}
        assert "tracks=1" in err

    @staticmethod
    def timed_report(t, mmsi, lat):
        bits = enc.encode_class_a(1, mmsi, 70, int(-70.9 * 600000),
                                  int(lat * 600000), 900, 90, 0)
        payload, fill = enc.armor_bits(bits)
        return f"{t},{enc.sentence(1, 1, None, 'A', payload, fill)}\n"

    def test_summary_prints_every_count(self, untimed_corpus_track):
        code, _, err = untimed_corpus_track
        assert code == EXIT_OK
        assert err.splitlines()[-1] == ("lines=534 decoded=525 malformed=3 tracks=8 "
                                        "stale_drops=0 skipped=0 retired=0 timed_out=5 "
                                        "clock_resets=0")

    def test_failed_track_is_retired_not_fatal(self, tmp_path, capsys, monkeypatch):
        ingest = TrackTable.ingest

        def poisoning_ingest(table, report, t):
            kind = ingest(table, report, t)
            if report.mmsi == 211234560 and kind == "created":
                table.filt.cov[table.rows[report.mmsi]] = float("nan")
            return kind

        monkeypatch.setattr(TrackTable, "ingest", poisoning_ingest)
        stream = tmp_path / "two.nmea"
        stream.write_text(self.timed_report(0.0, 366999784, 42.0)
                          + self.timed_report(0.5, 211234560, 42.1)
                          + self.timed_report(3.0, 366999784, 42.0))
        out = tmp_path / "tracks.csv"
        code, _, err = run_cli(["track", "-i", str(stream), "-o", str(out)], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["mmsi"] for r in rows} == {"366999784"}
        assert "tracks=1 " in err and "retired=1" in err

    def test_non_finite_sidecar_time_is_malformed(self, tmp_path, capsys):
        stream = tmp_path / "bad-times.nmea"
        report = self.timed_report(0.0, 366999784, 42.0).split(",", 1)[1]
        stream.write_text(f"nan,{report}" + self.timed_report(1.0, 366999784, 42.0)
                          + f"inf,{report}" + f"-inf,{report}"
                          + self.timed_report(3.0, 366999784, 42.0))
        out = tmp_path / "tracks.csv"
        code, _, err = run_cli(["track", "-i", str(stream), "-o", str(out)], capsys)
        assert code == EXIT_OK
        assert err.splitlines() == ["lines=5 decoded=2 malformed=3 tracks=1 "
                                    "stale_drops=0 skipped=0 retired=0 timed_out=0 "
                                    "clock_resets=0"]

    def test_sidecar_time_too_large_to_step_is_malformed(self, tmp_path, capsys):
        # epoch nanoseconds: there a 1 s tick step is below half the float
        # spacing, and a replay clock at such a time could not move
        stream = tmp_path / "ns-times.nmea"
        stream.write_text(self.timed_report(1e18, 366999784, 42.0)
                          + self.timed_report(1.000000000000001e18, 366999784, 42.0))
        out = tmp_path / "tracks.csv"
        code, _, err = run_cli(["track", "-i", str(stream), "-o", str(out)], capsys)
        assert code == EXIT_OK
        assert out.read_text() == "t,mmsi,lon_deg,lat_deg,sog_mps,cog_deg,p_trace\n"
        assert err.splitlines() == ["lines=2 decoded=0 malformed=2 tracks=0 "
                                    "stale_drops=0 skipped=0 retired=0 timed_out=0 "
                                    "clock_resets=0"]

    def test_synthetic_timestamps(self, untimed_corpus_track):
        code, rows, _ = untimed_corpus_track
        assert code == EXIT_OK
        assert rows


class TestSimulate:
    def test_default_scenario(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, _, err = run_cli(["simulate", "-o", str(out), "--seed", "0"],
                               capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 600
        assert "ukf:" in err and "ekf:" in err
        last = rows[-1]
        assert float(last["err_ukf_m"]) >= 0.0
        assert float(last["sigma3_m"]) > 0.0

    def test_scenario_file(self, tmp_path, capsys):
        scn = os.path.join(os.path.dirname(DATA_DIR), "..",
                           "scenarios", "boston_departure.scn")
        out = tmp_path / "run.csv"
        code, _, _ = run_cli(["simulate", "--scenario", scn, "-o", str(out)], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        filter_columns = [c for c in rows[0] if c.startswith(("ukf_", "ekf_"))]
        assert len(filter_columns) == 8
        assert all(row[c] != "" for row in rows for c in filter_columns)

    @pytest.mark.parametrize("text", [
        "garbage\n",
        "",
        "start_lon = -71.0\n[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\n[segments]\nwarp 60 7\n",
        "start_lon = -71.0\nstart_lat = 95\n[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\nseed = -3\n[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\nseed = 2.7\n[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\n[segments]\nstraight 0.5 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\nais_interval = 2.5\n[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\ntruth_rate_hz = 2\nais_interval = 1.25\n"
        "[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\nais_intervall = 30\nsed = 4\n"
        "[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\n[segments]\nstraight 10 5 3.0\n",
        "start_lon = -71.0\nstart_lat = 42.3\n[segments]\nturn 10 5 -\n",
        "start_lon = -71.0\nstart_lat = 42.3\nsog_noise = -0.1\n[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\nmeas_lat_noise = -1e-5\n"
        "[segments]\nstraight 60 7\n",
        "start_lon = -71.0\nstart_lat = 42.3\ntruth_rate_hz = 1e300\n"
        "[segments]\nstraight 60 7\n",
    ], ids=["garbage", "empty", "no-start-lat", "unknown-kind", "lat-95",
            "negative-seed", "fractional-seed", "shorter-than-one-step",
            "interval-off-the-truth-grid", "interval-off-the-2hz-grid", "unknown-keys",
            "straight-with-rate", "turn-without-rate", "negative-sog-noise",
            "negative-meas-noise", "too-many-steps"])
    def test_bad_scenario_file_is_input_error(self, text, tmp_path, capsys):
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        code, _, err = run_cli(["simulate", "--scenario", str(scn),
                                "-o", str(tmp_path / "run.csv")], capsys)
        assert code == EXIT_INPUT
        assert len(err.splitlines()) == 1
        assert err.startswith("input error: ")

    def test_empty_scenario_path_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, _, err = run_cli(["simulate", "--scenario", "", "-o", str(out)], capsys)
        assert code == EXIT_INPUT
        assert len(err.splitlines()) == 1
        assert err.startswith("input error: ")
        assert not out.exists()

    # speeds that carry the EKF's plane position past the Earth's limb in
    # one step, where no surface point lies below it (DomainError); at
    # 1e200 m/s its covariance overflows first (FloatingPointError). numpy
    # warns of nothing before the one stderr line
    @pytest.mark.parametrize("segment", ["straight 60 1e100", "straight 20 1e50",
                                         "straight 10 1e100", "straight 10 1e200"])
    def test_filter_leaving_the_earth_is_numerical_failure(self, segment, tmp_path,
                                                           capsys):
        scn = tmp_path / "fast.scn"
        scn.write_text(f"start_lon = -71.0\nstart_lat = 42.3\n[segments]\n{segment}\n")
        code, _, err = run_cli(["simulate", "--scenario", str(scn),
                                "-o", str(tmp_path / "run.csv")], capsys)
        assert code == EXIT_NUMERIC
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical failure: ")


class TestStudy:
    def test_wave_table(self, tmp_path, capsys):
        out = tmp_path / "waves.csv"
        code, _, _ = run_cli(["study", "wave-table", "-o", str(out)], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = {int(r["beaufort"]): r for r in csv.DictReader(fh)}
        assert set(rows) == {4, 5, 6, 7, 8, 9, 10}
        assert float(rows[6]["zeta_m"]) == pytest.approx(1.65, rel=0.05)
        assert float(rows[6]["umax_mps"]) == pytest.approx(1.14, rel=0.05)

    def test_sphere_error_sampled(self, tmp_path, capsys):
        out = tmp_path / "sphere.csv"
        code, _, _ = run_cli(["study", "sphere-error", "--samples", "2000",
                              "--seed", "1", "-o", str(out)], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2000
        assert max(float(r["normalized_error_pct"]) for r in rows) <= 0.58

    def test_plane_error_grid(self, tmp_path, capsys):
        out = tmp_path / "plane.csv"
        code, _, _ = run_cli(["study", "plane-error", "--grid", "5",
                              "-o", str(out)], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 * 5 * 5

    def test_rows_helper_deterministic(self):
        a = sphere_error_rows(1000, 3)
        b = sphere_error_rows(1000, 3)
        assert a.shape == (1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_sphere_error_streams_the_rows_of_the_helper(self, tmp_path, capsys):
        """Across a block boundary (one full block, then a 3-row block) the
        streamed CSV holds the rows of ``sphere_error_rows``, float for float."""
        out = tmp_path / "sphere.csv"
        code, _, _ = run_cli(["study", "sphere-error", "--samples", "20003",
                              "--seed", "5", "-o", str(out)], capsys)
        assert code == EXIT_OK
        want = [",".join(map(repr, row)) for row in sphere_error_rows(20003, 5).tolist()]
        assert out.read_text().splitlines()[1:] == want

    def test_sphere_error_memory_does_not_grow_with_samples(self, monkeypatch):
        """The study holds one block at a time: with 500-row blocks, ten times
        the samples raise the traced peak by well under the 0.36 MB of the
        extra rows' floats."""
        monkeypatch.setattr(cli, "SPHERE_ERROR_BLOCK", 500)

        def peak(samples):
            tracemalloc.start()
            try:
                assert main(["study", "sphere-error", "--samples", str(samples),
                             "-o", os.devnull]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the first run also traces one-time imports and caches
        assert peak(10000) - peak(1000) < 0.25e6


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["track", "--rate", "0"],
        ["track", "--rate", "-1"],
        ["track", "--rate", "nan"],
        ["track", "--stale-timeout", "0"],
        ["track", "--stale-timeout", "-5"],
        ["study", "sphere-error", "--samples", "0"],
        ["study", "sphere-error", "--samples", "-5"],
        ["study", "plane-error", "--grid", "0"],
        ["study", "sphere-error", "--max-distance", "0"],
        ["study", "sphere-error", "--max-distance", "-1"],
        ["study", "plane-error", "--max-distance", "6.371e6"],
        ["study", "plane-error", "--max-distance", "1e7"],
        ["track", "--rate", "1e20"],
        ["simulate", "--seed", "-1"],
        ["study", "sphere-error", "--seed", "-1"],
        ["study", "sphere-error", "--max-distance", "0.5"],
    ])
    def test_bad_numeric_value(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        if argv[0] == "track":
            argv = argv + ["-i", CORPUS]
        code, _, err = run_cli(argv + ["-o", str(out)], capsys)
        assert code == EXIT_USAGE
        assert len(err.splitlines()) == 1
        assert err.startswith("usage error: ")


SCN = "start_lon = -71.0\nstart_lat = 42.3\n"
SIMULATE = ["simulate", "--scenario", "{scn}"]
USAGE, INPUT, NUMERIC = ((EXIT_USAGE, "usage error"), (EXIT_INPUT, "input error"),
                         (EXIT_NUMERIC, "numerical failure"))

# Every exit code and example that README's "Exit codes" names: the arguments
# before ``-o``, the text of the scenario file that "{scn}" names (or None),
# and the exit code and stderr label of the run.
EXIT_CASES = {
    "success": (["study", "wave-table"], None, (EXIT_OK, None)),
    "no-command": ([], None, USAGE),
    "unknown-study": (["study", "warp-field"], None, USAGE),
    "rate-not-positive": (["track", "-i", CORPUS, "--rate", "0"], None, USAGE),
    "rate-above-100": (["track", "-i", CORPUS, "--rate", "101"], None, USAGE),
    "stale-timeout-not-finite": (["track", "-i", CORPUS, "--stale-timeout", "inf"], None,
                                 USAGE),
    "samples-not-positive": (["study", "sphere-error", "--samples", "0"], None, USAGE),
    "grid-not-positive": (["study", "plane-error", "--grid", "-2"], None, USAGE),
    "max-distance-not-finite": (["study", "sphere-error", "--max-distance", "nan"], None,
                                USAGE),
    "plane-error-beyond-earth-radius": (["study", "plane-error", "--max-distance",
                                         "6.371e6"], None, USAGE),
    "sphere-error-below-1m": (["study", "sphere-error", "--max-distance", "0.5"], None,
                              USAGE),
    "simulate-negative-seed": (["simulate", "--seed", "-1"], None, USAGE),
    "study-fractional-seed": (["study", "sphere-error", "--seed", "1.5"], None, USAGE),
    "missing-input-file": (["decode", "-i", "/nonexistent/file.nmea"], None, INPUT),
    "unreadable-scenario": (["simulate", "--scenario", "/nonexistent/file.scn"], None,
                            INPUT),
    "empty-scenario-path": (["simulate", "--scenario", ""], None, INPUT),
    "scenario-not-key-value": (SIMULATE, "garbage\n", INPUT),
    "scenario-unknown-key": (SIMULATE, SCN + "sed = 4\n[segments]\nstraight 60 7\n", INPUT),
    "scenario-no-segments": (SIMULATE, SCN, INPUT),
    "scenario-no-start-lat": (SIMULATE, "start_lon = -71.0\n[segments]\nstraight 60 7\n",
                              INPUT),
    "scenario-unknown-segment-kind": (SIMULATE, SCN + "[segments]\nwarp 60 7\n", INPUT),
    "scenario-straight-with-rate": (SIMULATE, SCN + "[segments]\nstraight 10 5 3.0\n",
                                    INPUT),
    "scenario-turn-without-rate": (SIMULATE, SCN + "[segments]\nturn 10 5 -\n", INPUT),
    "scenario-latitude-95": (SIMULATE, "start_lon = -71.0\nstart_lat = 95\n"
                             "[segments]\nstraight 60 7\n", INPUT),
    "scenario-value-not-finite": (SIMULATE, SCN + "[segments]\nstraight 60 nan\n", INPUT),
    "scenario-negative-noise": (SIMULATE, SCN + "sog_noise = -0.1\n[segments]\n"
                                "straight 60 7\n", INPUT),
    "scenario-fractional-seed": (SIMULATE, SCN + "seed = 2.7\n[segments]\nstraight 60 7\n",
                                 INPUT),
    "scenario-shorter-than-one-step": (SIMULATE, SCN + "[segments]\nstraight 0.5 7\n",
                                       INPUT),
    "scenario-too-many-steps": (SIMULATE, SCN + "truth_rate_hz = 1e300\n[segments]\n"
                                "straight 60 7\n", INPUT),
    "scenario-interval-off-the-truth-grid": (SIMULATE, SCN + "ais_interval = 2.5\n"
                                             "[segments]\nstraight 60 7\n", INPUT),
    "filter-passes-the-earths-limb": (SIMULATE, SCN + "[segments]\nstraight 60 1e100\n",
                                      NUMERIC),
    "filter-overflows": (SIMULATE, SCN + "[segments]\nstraight 10 1e200\n", NUMERIC),
}


class TestExitCodes:
    @pytest.mark.parametrize("name", list(EXIT_CASES))
    def test_exit_code_and_stderr_line(self, name, tmp_path, capsys):
        """A failed run prints one ``label: message`` line, exits with its
        code and writes no output file; a run that succeeds prints nothing."""
        argv, scenario, (want_code, label) = EXIT_CASES[name]
        scn, out = tmp_path / "case.scn", tmp_path / "out.csv"
        if scenario is not None:
            scn.write_text(scenario)
        argv = [str(scn) if arg == "{scn}" else arg for arg in argv]
        code, _, err = run_cli(argv + ["-o", str(out)] if argv else argv, capsys)
        assert code == want_code
        if label is None:
            assert err == "" and out.exists()
        else:
            assert len(err.splitlines()) == 1 and err.startswith(f"{label}: ")
            assert not out.exists()

    def test_every_failure_exit_code_is_named_by_its_class(self):
        assert (cli.UsageError.exit_code, cli.InputError.exit_code,
                GeotrackError.exit_code) == (EXIT_USAGE, EXIT_INPUT, EXIT_NUMERIC)
        assert {label for _, _, (_, label) in EXIT_CASES.values()} == {
            None, cli.UsageError.label, cli.InputError.label, GeotrackError.label}

    def test_reader_that_leaves_early_ends_the_run_quietly(self):
        """``geotrack ... | head -2``: exit 0, and nothing on stderr, not even
        from the interpreter's last flush of stdout."""
        argv = [sys.executable, "-m", "geotrack.cli", "study", "sphere-error",
                "--samples", "20000"]  # 1.9 MB, far more than a pipe holds
        env = dict(os.environ, PYTHONPATH=SRC)
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().startswith(b"lat_deg,")
            proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (EXIT_OK, b"")


class TestStandardStreams:
    def test_stdout_stays_open_for_the_next_run(self, capsys):
        for _ in range(2):
            code, out, err = run_cli(["study", "wave-table", "-o", "-"], capsys)
            assert (code, err) == (EXIT_OK, "")
            assert out.startswith("beaufort,Hs_m,Tp_s,zeta_m,umax_mps\n4,")

    def test_stdin_stays_open_for_the_next_run(self, capsys, monkeypatch):
        with open(CORPUS, "rb") as fh:
            feed = fh.read()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(feed), encoding="utf-8"))
        summaries = [run_cli(["decode", "-i", "-", "-o", "-"], capsys)[2] for _ in range(2)]
        # the first run reads the whole feed, and the second finds stdin at its end
        assert summaries == ["lines=534 decoded=525 malformed=3 unsupported=1\n",
                             "lines=0 decoded=0 malformed=0 unsupported=0\n"]


# One encoded report of a feed: the step of the feed clock (none, a short step,
# a gap past the stale timeout, or back in time by less or more than it), whether
# the line carries that time, and the raw fields the decoder reads: positions
# at the poles, at the dateline or not available, any SOG, COG and heading.
_RAW_POSITION = st.tuples(
    st.sampled_from((-180, 180, 181)) | st.integers(-180, 180),
    st.sampled_from((-90, 90, 91)) | st.integers(-90, 90)).map(
        lambda deg: (deg[0] * 600000, deg[1] * 600000)) | st.tuples(
    st.integers(-108000000, 108000000), st.integers(-54000000, 54000000))
_FEED_ENTRY = st.tuples(
    st.sampled_from((0.0,)) | st.floats(0.0, 3.0) | st.floats(25.0, 400.0)
    | st.floats(-15.0, 0.0) | st.floats(-3000.0, -25.0),
    st.booleans(),
    st.sampled_from((211234560, 244660000, 366999784, 538001234)),
    st.sampled_from((1, 3, 18)),
    _RAW_POSITION,
    st.integers(0, 1023), st.integers(0, 4095), st.sampled_from((0, 359, 511)))


@settings(max_examples=25)
@given(entries=st.lists(_FEED_ENTRY, max_size=16), duplicate=st.booleans())
def test_encoded_feed_runs_the_whole_path(tmp_path_factory, entries, duplicate):
    """Encoded reports, decoded and replayed to CSV by ``track``, and decoded by
    ``decode``: every run exits 0 with its one summary line, and every track
    row holds a finite belief off the poles."""
    clock, lines = 1000.0, []
    for step, timed, mmsi, msg_type, (lon, lat), sog, cog, heading in entries:
        clock += step
        if msg_type == 18:
            bits = enc.encode_class_b(mmsi, sog, lon, lat, cog, heading, 60)
        else:
            bits = enc.encode_class_a(msg_type, mmsi, sog, lon, lat, cog, heading, 60)
        payload, fill = enc.armor_bits(bits)
        line = enc.sentence(1, 1, None, "A", payload, fill)
        lines.append(f"{clock!r},{line}\n" if timed else line + "\n")
    if duplicate and lines:
        lines.append(lines[-1])
    work = tmp_path_factory.mktemp("feed")
    feed, out = work / "feed.nmea", work / "out.csv"
    feed.write_text("".join(lines))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["track", "-i", str(feed), "-o", str(out), "--stale-timeout", "20"]) == EXIT_OK
        assert main(["decode", "-i", str(feed), "-o", os.devnull]) == EXIT_OK
    track_summary, decode_summary = err.getvalue().splitlines()
    assert track_summary.startswith(f"lines={len(lines)} decoded={len(lines)} malformed=0 ")
    assert decode_summary == f"lines={len(lines)} decoded={len(lines)} malformed=0 unsupported=0"
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        belief = [float(row[c]) for c in ("lon_deg", "lat_deg", "sog_mps", "cog_deg", "p_trace")]
        assert all(map(math.isfinite, belief)) and abs(belief[1]) < 90.0, row
