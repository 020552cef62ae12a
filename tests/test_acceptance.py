"""End-to-end acceptance criteria for the toolkit.

Each test evaluates every clause of one numbered criterion, prints a single
``criterion N: PASS``/``FAIL`` line (bypassing output capture so the line
always appears in the run log), and then asserts.
"""

import json
import math
import os
import random
import sys
import time

import numpy as np
import pytest

from geotrack import ais, geodesy, noise, sim
from geotrack.cli import sphere_error_rows
from geotrack.geodesy import (GeoPoint, great_circle_inverse,
                              sample_uniform_sphere_arrays,
                              tangent_plane_separation_error, vincenty_direct,
                              vincenty_inverse)
from geotrack.noise import BEAUFORT_SEA_STATES, ProcessNoiseParams
from geotrack.ukf import (GaussianBelief, GeodeticState, GeodeticUkf,
                          Measurement, sigma_points, update, wrap_residual)
import conftest
from conftest import DATA_DIR

M_PER_DEG = math.pi / 180.0 * geodesy.WGS84_SEMI_MAJOR_M

# reference head-to-head RMSE figures for the Boston comparison run
TABLE2_UKF = {"lon": 1.25e-5, "lat": 1.24e-5, "sog": 0.13, "cog": 2.031}

# reference orbital radius / speed per Beaufort number
TABLE1 = {4: (0.5, 0.62), 5: (1.0, 0.89), 6: (1.65, 1.14), 7: (2.65, 1.45),
          8: (4.10, 1.80), 9: (5.70, 2.12), 10: (7.75, 2.47)}


def criterion(num: int, clauses: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in clauses if not ok]
    verdict = "PASS" if not failed else "FAIL"
    line = f"criterion {num:2d}: {verdict}"
    if failed:
        line += " (" + "; ".join(failed) + ")"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__)
    assert not failed, line


class TestAcceptance:
    def test_criterion_01_spherical_propagation_error_study(self):
        t0 = time.perf_counter()
        rows = sphere_error_rows(100_000, seed=0)
        elapsed = time.perf_counter() - t0
        dist, err, pct = rows[:, 2], rows[:, 3], rows[:, 4]
        short = dist <= 200.0
        criterion(1, [
            (f"sample count {len(rows)} >= 1e5", len(rows) >= 100_000),
            (f"max normalized error {pct.max():.4f}% <= 0.58%",
             pct.max() <= 0.58),
            (f"p75 normalized error {np.percentile(pct, 75):.4f}% <= 0.43%",
             np.percentile(pct, 75) <= 0.43),
            (f"max abs error on arcs <= 200 m is {err[short].max():.3f} m < 1 m",
             bool(err[short].max() < 1.0)),
            (f"runtime {elapsed:.1f} s < 30 s", elapsed < 30.0),
        ])

    def test_criterion_02_geodesic_solver_accuracy(self):
        rng = np.random.default_rng(20)
        n = 10_000
        lon, lat = sample_uniform_sphere_arrays(n, 21)
        lat = np.clip(lat, -85.0, 85.0)
        bearing = rng.uniform(0.0, 360.0, n)
        dist = rng.uniform(10.0, 2e6, n)
        d_lon, d_lat, _, _ = geodesy.vincenty_direct_arrays(lon, lat, bearing, dist)
        worst_rel = 0.0
        for i in range(n):
            try:
                back, _ = vincenty_inverse(GeoPoint(lon[i], lat[i]),
                                           GeoPoint(d_lon[i], d_lat[i]))
            except geodesy.NonConvergenceError:
                continue
            worst_rel = max(worst_rel, abs(back - dist[i]) / dist[i])

        with open(os.path.join(DATA_DIR, "geodesic_vectors.json")) as fh:
            vectors = json.load(fh)["cases"]
        worst_mm = 0.0
        for v in vectors:
            sol = vincenty_direct(GeoPoint(v["lon1"], v["lat1"]),
                                  v["bearing_deg"], v["distance_m"])
            d = math.hypot(
                (sol.destination.lat - v["lat2"]) * M_PER_DEG,
                ((sol.destination.lon - v["lon2"] + 180.0) % 360.0 - 180.0)
                * M_PER_DEG * math.cos(math.radians(v["lat2"])))
            worst_mm = max(worst_mm, d * 1000.0)
        criterion(2, [
            (f"direct/inverse roundtrip rel error {worst_rel:.2e} < 1e-9",
             worst_rel < 1e-9),
            (f"worst oracle-vector error {worst_mm:.4f} mm < 1 mm",
             worst_mm < 1.0),
        ])

    def test_criterion_03_sigma_point_construction(self):
        b = GaussianBelief(GeodeticState(-71.0, 42.0, 7.0, 90.0),
                           np.diag([1e-6, 2e-6, 0.3, 2.0]))
        sp = sigma_points(b.mean.as_vector(), b.cov)
        w0_ok = abs(sp.weights[0] + 1.0 / 3.0) < 1e-15
        wi_ok = bool(np.all(np.abs(sp.weights[1:] - 1.0 / 6.0) < 1e-15))
        sum_ok = abs(sp.weights.sum() - 1.0) < 1e-12

        rng = np.random.default_rng(31)
        linear_ok = True
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            mapped = sp.points @ a.T
            mean = sp.weights @ mapped
            res = mapped - mean
            cov = (sp.weights[:, None] * res).T @ res
            x = np.array([-71.0, 42.0, 7.0, 90.0])
            if not (np.allclose(mean, a @ x, atol=1e-10)
                    and np.allclose(cov, a @ b.cov @ a.T, atol=1e-10)):
                linear_ok = False
        criterion(3, [
            ("W0 == -1/3", w0_ok),
            ("Wi == 1/6", wi_ok),
            ("weights sum to 1 within 1e-12", sum_ok),
            ("linear maps reproduced to 1e-10", linear_ok),
        ])

    def test_criterion_04_covariance_health_under_stress(self):
        rng = np.random.default_rng(4)
        cycles = 0
        sym_ok = True
        eig_ok = True
        worst_asym, worst_eig = 0.0, 0.0
        while cycles < 10_000:
            filt = GeodeticUkf.from_first_measurement(Measurement.full(
                rng.uniform(-179, 179), rng.uniform(-80, 80),
                rng.uniform(0, 15), rng.uniform(0, 360)))
            for _ in range(100):
                filt.predict(float(rng.uniform(0.1, 30.0)))
                m = filt.belief.mean
                z = Measurement.full(
                    m.lon + rng.normal(0, 2e-5),
                    float(np.clip(m.lat + rng.normal(0, 2e-5), -89.0, 89.0)),
                    max(0.0, m.sog + rng.normal(0, 0.1)),
                    (m.cog + rng.normal(0, 1.0)) % 360.0)
                filt.update(z)
                p = filt.belief.cov
                asym = float(np.max(np.abs(p - p.T)))
                lam = float(np.linalg.eigvalsh(p)[0])
                worst_asym = max(worst_asym, asym)
                worst_eig = min(worst_eig, lam)
                sym_ok &= asym < 1e-12
                eig_ok &= lam >= -1e-9
                cycles += 1
        criterion(4, [
            (f"{cycles} cycles, worst asymmetry {worst_asym:.2e} < 1e-12",
             sym_ok),
            (f"worst min eigenvalue {worst_eig:.2e} >= -1e-9", eig_ok),
        ])

    def test_criterion_05_angular_residual_handling(self):
        examples_ok = (wrap_residual(1.0, 359.0) == -2.0
                       and wrap_residual(180.0, 180.0) == 0.0
                       and wrap_residual(350.0, 10.0) == 20.0)

        def run(delta):
            b = GaussianBelief(
                GeodeticState(-71.0, 42.0, 0.0, (40.0 + delta) % 360.0),
                np.diag([0.0, 0.0, 0.0, 25.0]))
            filt = GeodeticUkf(b)
            history = []
            for k in range(25):
                filt.predict(1.0)
                filt.update(Measurement.from_fields(
                    cog=(40.0 + 7.0 * k + delta) % 360.0))
                history.append(filt.belief.mean.cog)
            return history

        base = run(0.0)
        rotation_ok = True
        for delta in (17.0, 180.0, 271.5, 359.0):
            for c0, cd in zip(base, run(delta)):
                diff = (cd - c0 - delta + 180.0) % 360.0 - 180.0
                rotation_ok &= abs(diff) < 1e-9
        criterion(5, [
            ("wrap_residual worked examples exact", examples_ok),
            ("course estimates rotation-invariant to 1e-9", rotation_ok),
        ])

    def test_criterion_06_boston_head_to_head(self):
        t0 = time.perf_counter()
        run = sim.run_comparison(sim.boston_departure_scenario(seed=0))
        elapsed = time.perf_counter() - t0
        u, e = run.ukf_metrics, run.ekf_metrics
        got = {"lon": u.rmse_lon, "lat": u.rmse_lat,
               "sog": u.rmse_sog, "cog": u.rmse_cog}
        ekf = {"lon": e.rmse_lon, "lat": e.rmse_lat,
               "sog": e.rmse_sog, "cog": e.rmse_cog}
        clauses = []
        for key, bound in TABLE2_UKF.items():
            clauses.append((
                f"UKF {key} RMSE {got[key]:.3e} <= 2x reference {2 * bound:.3e}",
                got[key] <= 2.0 * bound))
        clauses.append((
            f"3-sigma containment {u.frac_within_3sigma:.3f} >= 0.99",
            u.frac_within_3sigma >= 0.99))
        for key in TABLE2_UKF:
            ratio = got[key] / ekf[key]
            clauses.append((
                f"UKF/EKF {key} ratio {ratio:.3f} <= 1.25", ratio <= 1.25))
        clauses.append((f"runtime {elapsed:.1f} s < 10 s", elapsed < 10.0))
        criterion(6, clauses)

    def test_criterion_07_report_interval_stability_sweep(self):
        t0 = time.perf_counter()
        sweep = sim.stability_sweep(intervals=range(2, 69))
        elapsed = time.perf_counter() - t0
        diverged = []
        rmse = {}
        for interval, run in sweep:
            u = run.ukf_metrics
            rmse[interval] = u.rmse_pos_m
            # every step is scored: a track born by fusing its first report
            # starts near R, so there is no startup transient to skip
            trace = run.ukf.cov_trace
            if trace.max() >= 10.0 * np.median(trace):
                diverged.append(interval)
        criterion(7, [
            (f"no divergence (intervals with trace >= 10x median: {diverged})",
             not diverged),
            (f"RMSE at 68 s ({rmse[68.0]:.2f} m) > RMSE at 2 s "
             f"({rmse[2.0]:.2f} m)", rmse[68.0] > rmse[2.0]),
            (f"runtime {elapsed:.1f} s < 120 s", elapsed < 120.0),
        ])

    def test_criterion_08_tangent_plane_error_model(self):
        _, _, eps100 = tangent_plane_separation_error(100e3, 100e3, math.pi)
        _, _, eps50 = tangent_plane_separation_error(50e3, 50e3, math.pi)

        radii = np.linspace(0.0, 100e3, 50)
        gammas = np.linspace(0.0, math.pi, 20)
        monotone = True
        worst_dip = 0.0
        for l1 in radii:
            for l2 in radii:
                prev = None
                for g in gammas:
                    _, _, eps = tangent_plane_separation_error(
                        float(l1), float(l2), float(g))
                    if prev is not None and eps < prev - 1e-9:
                        monotone = False
                        worst_dip = max(worst_dip, prev - eps)
                    prev = eps
        criterion(8, [
            (f"eps(100 km, 100 km, pi) = {eps100:.3f} m < 8.3 m", eps100 < 8.3),
            (f"eps(50 km, 50 km, pi) = {eps50:.5f} m <= 1.0 m", eps50 <= 1.0),
            (f"eps monotone in gamma on 50x50x20 grid "
             f"(worst decrease {worst_dip:.3f} m)", monotone),
        ])

    def test_criterion_09_ais_decoder_fidelity(self):
        with open(os.path.join(DATA_DIR, "ais_corpus.nmea")) as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        with open(os.path.join(DATA_DIR, "ais_corpus_truth.json")) as fh:
            truth = json.load(fh)

        counters = ais.StreamCounters()
        reports = list(ais.decode_lines(lines, counters))
        agree = len(reports) == truth["n_reports"]
        saw_multifragment_static = False
        for got, want in zip(reports, truth["reports"]):
            if want["kind"] == "dynamic":
                keys = ("msg_type", "mmsi", "lon", "lat", "sog", "cog",
                        "heading", "timestamp_sec")
            else:
                saw_multifragment_static = True
                keys = ("mmsi", "imo", "name", "type_code", "dim_to_bow",
                        "dim_to_stern", "dim_to_port", "dim_to_starboard",
                        "draught")
            for key in keys:
                g, w = getattr(got, key), want[key]
                if g is None or w is None:
                    agree &= g is None and w is None
                elif isinstance(w, float):
                    agree &= g == pytest.approx(w, rel=1e-12)
                else:
                    agree &= g == w

        sog_ok = reports[0].sog == pytest.approx(5.1444, rel=1e-12)
        dyn = [r for r in reports if isinstance(r, ais.DynamicAisReport)]
        sentinel_ok = (any(r.lon is None for r in dyn)
                       and any(r.sog is None for r in dyn)
                       and any(r.cog is None for r in dyn)
                       and any(r.heading is None for r in dyn)
                       and any(r.timestamp_sec is None for r in dyn))

        rng = random.Random(9)
        printable = "".join(chr(c) for c in range(32, 127))
        fuzz = []
        for _ in range(100_000):
            if rng.random() < 0.5:
                fuzz.append("".join(rng.choice(printable)
                                    for _ in range(rng.randrange(0, 50))))
            else:
                body = "AIVDM," + ",".join(
                    "".join(rng.choice(printable)
                            for _ in range(rng.randrange(0, 8)))
                    for _ in range(rng.randrange(1, 8)))
                fuzz.append(f"!{body}*{ais.compute_checksum(body):02X}")
        crashed = False
        try:
            for _ in ais.decode_lines(fuzz):
                pass
        except Exception:
            crashed = True
        criterion(9, [
            (f"{len(lines)}-sentence corpus: 100% field agreement", agree),
            ("corpus includes reassembled multi-fragment static messages",
             saw_multifragment_static and len(lines) >= 500),
            ("speed raw 100 decodes to 5.1444 m/s", sog_ok),
            ("all sentinel codes decode to missing", sentinel_ok),
            ("100k-line fuzz stream decoded without raising", not crashed),
        ])

    def test_criterion_10_environment_noise_calibration(self):
        wave_ok = True
        for scale, hs, tp in BEAUFORT_SEA_STATES:
            zeta_ref, u_ref = TABLE1[scale]
            wk = noise.wave_orbital_kinematics(hs, tp)
            wave_ok &= abs(wk.orbital_radius - zeta_ref) <= 0.05 * zeta_ref
            wave_ok &= abs(wk.orbital_speed - u_ref) <= 0.05 * u_ref

        p = ProcessNoiseParams()
        sigma_eq = p.zeta0 / (p.lon_scale * math.cos(0.0))
        sigma_70 = p.zeta0 / (p.lon_scale * math.cos(math.radians(70.0)))
        footnote_ok = (abs(sigma_eq - 1.78e-5) <= 0.01 * 1.78e-5
                       and abs(sigma_70 - 5.25e-5) <= 0.01 * 5.25e-5)
        criterion(10, [
            ("all seven sea-state rows within 5%", wave_ok),
            ("longitude noise densities at 0/70 deg within 1%", footnote_ok),
        ])
