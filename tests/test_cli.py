import csv
import io
import json
import os
import time

import numpy as np
import pytest

import make_ais_corpus as enc
from geotrack.cli import (EXIT_INPUT, EXIT_OK, EXIT_USAGE, main,
                          sphere_error_rows)
from geotrack.tracker import TrackTable
from conftest import DATA_DIR

CORPUS = os.path.join(DATA_DIR, "ais_corpus.nmea")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_jsonl_output(self, tmp_path, capsys):
        out = tmp_path / "decoded.jsonl"
        code, _, _ = run_cli(["decode", "-i", CORPUS, "-o", str(out),
                              "--format", "jsonl"], capsys)
        assert code == EXIT_OK
        records = [json.loads(line) for line in open(out)]
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

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(["decode", "-i", "/nonexistent/file.nmea"], capsys)
        assert code == EXIT_INPUT
        assert "input error" in err


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

    def test_summary_prints_every_count(self, tmp_path, capsys):
        code, _, err = run_cli(["track", "-i", CORPUS, "-o", str(tmp_path / "t.csv")],
                               capsys)
        assert code == EXIT_OK
        assert err.splitlines()[-1] == ("lines=534 decoded=525 malformed=3 tracks=5 "
                                        "stale_drops=29 skipped=12 retired=0")

    def test_failed_track_is_retired_not_fatal(self, tmp_path, capsys, monkeypatch):
        ingest = TrackTable.ingest

        def poisoning_ingest(table, report, t):
            kind = ingest(table, report, t)
            if report.mmsi == 211234560 and kind == "created":
                table.tracks[report.mmsi].filt.belief.cov[:] = float("nan")
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

    def test_silent_gap_is_jumped(self, tmp_path, capsys):
        stream = tmp_path / "gap.nmea"
        stream.write_text(self.timed_report(0.0, 366999784, 42.0)
                          + self.timed_report(1e7 + 0.5, 366999784, 42.0)
                          + self.timed_report(1e7 + 2.0, 366999784, 42.0))
        out = tmp_path / "tracks.csv"
        start = time.perf_counter()
        code, _, err = run_cli(["track", "-i", str(stream), "-o", str(out)], capsys)
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            times = [float(r["t"]) for r in csv.DictReader(fh)]
        # ticks at 1..180 until the track goes stale; the clock then jumps to
        # 1e7, ticks once (empty) up to the next report, and the new track
        # is first ticked at 1e7 + 2
        assert times == [float(k) for k in range(1, 181)] + [1e7 + 2.0]

    def test_synthetic_timestamps(self, tmp_path, capsys):
        out = tmp_path / "tracks.csv"
        code, _, _ = run_cli(["track", "-i", CORPUS, "-o", str(out)], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
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
        code, _, _ = run_cli(["simulate", "--scenario", scn, "-o", str(out),
                              "--filters", "ukf"], capsys)
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["ekf_lon"] == ""


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


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_bad_study_kind(self, capsys):
        code, _, _ = run_cli(["study", "warp-field"], capsys)
        assert code == EXIT_USAGE
