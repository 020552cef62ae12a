import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geotrack.geodesy import DomainError
from geotrack.noise import (
    BEAUFORT_SEA_STATES,
    METERS_PER_DEGREE,
    SIGMA_COG_DEG,
    SIGMA_SOG_MPS,
    ZETA0_M,
    build_process_noise,
    default_measurement_noise,
    wave_orbital_kinematics,
)

# reference orbital radius / speed for fully-developed sea states
TABLE_ROWS = {
    4: (0.5, 0.62),
    5: (1.0, 0.89),
    6: (1.65, 1.14),
    7: (2.65, 1.45),
    8: (4.10, 1.80),
    9: (5.70, 2.12),
    10: (7.75, 2.47),
}


class TestMeasurementNoise:
    def test_diagonal_values(self):
        r = default_measurement_noise()
        assert r[0, 0] == pytest.approx(3.61e-10, rel=1e-9)
        assert r[1, 1] == pytest.approx(1.45e-5 ** 2, rel=1e-12)
        assert r[2, 2] == pytest.approx(2.5e-3, rel=1e-12)
        assert r[3, 3] == pytest.approx(0.04, rel=1e-12)

    def test_off_diagonals_zero(self):
        r = default_measurement_noise()
        assert np.all((r - np.diag(np.diag(r))) == 0.0)

    def test_positive_definite(self):
        assert np.all(np.linalg.eigvalsh(default_measurement_noise()) > 0)


class TestProcessNoise:
    def test_sigma_lon_footnote_values(self):
        sigma_eq = ZETA0_M / (METERS_PER_DEGREE * math.cos(0.0))
        sigma_70 = ZETA0_M / (METERS_PER_DEGREE * math.cos(math.radians(70.0)))
        assert sigma_eq == pytest.approx(1.78e-5, rel=0.01)
        assert sigma_70 == pytest.approx(5.25e-5, rel=0.01)

    def test_equator_matrix_entries(self):
        q = build_process_noise(lat_deg=0.0, cog_deg=0.0, dt=1.0)
        sigma_lat = ZETA0_M / METERS_PER_DEGREE
        assert q[1, 1] == pytest.approx(sigma_lat ** 2, rel=1e-9)
        assert q[2, 2] == pytest.approx(SIGMA_SOG_MPS ** 2, rel=1e-9)
        assert q[3, 3] == pytest.approx(SIGMA_COG_DEG ** 2, rel=1e-9)
        # course due North: lon-speed coupling vanishes, lat-speed is maximal
        assert q[0, 2] == pytest.approx(0.0, abs=1e-15)
        assert q[1, 2] == pytest.approx(sigma_lat ** 2, rel=1e-6)

    def test_dt_scaling_modes(self):
        # position variances scale as dt^2, the SOG and COG ones as dt
        q4 = build_process_noise(30.0, 45.0, 4.0)
        q1 = build_process_noise(30.0, 45.0, 1.0)
        assert q4[0, 0] == pytest.approx(16.0 * q1[0, 0], rel=1e-9)
        assert q4[2, 2] == pytest.approx(4.0 * q1[2, 2], rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            build_process_noise(90.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            build_process_noise(0.0, 0.0, 0.0)

    @given(st.floats(-89.9, 89.9), st.floats(0.0, 359.999),
           st.floats(0.001, 120.0))
    def test_symmetric_and_psd(self, lat, cog, dt):
        q = build_process_noise(lat, cog, dt)
        assert np.allclose(q, q.T, atol=0.0)
        assert np.linalg.eigvalsh(q).min() >= -1e-18

    def test_sigma_lon_times_cos_constant(self):
        ref = ZETA0_M / METERS_PER_DEGREE
        for lat in (-80.0, -42.0, 0.0, 13.0, 66.0, 89.0):
            sigma = ZETA0_M / (METERS_PER_DEGREE * math.cos(math.radians(lat)))
            assert sigma * math.cos(math.radians(lat)) == pytest.approx(
                ref, rel=1e-12)


class TestWaveKinematics:
    @pytest.mark.parametrize("row", BEAUFORT_SEA_STATES)
    def test_table_rows_within_5pct(self, row):
        scale, hs, tp = row
        zeta_ref, u_ref = TABLE_ROWS[scale]
        wk = wave_orbital_kinematics(hs, tp)
        assert wk.orbital_radius == pytest.approx(zeta_ref, rel=0.05)
        assert wk.orbital_speed == pytest.approx(u_ref, rel=0.05)

    def test_deep_water_radius_is_half_height(self):
        wk = wave_orbital_kinematics(2.0, 6.0, depth=5000.0)
        assert wk.orbital_radius == pytest.approx(1.0, rel=1e-6)

    def test_dispersion_consistency(self):
        # shallow water raises the orbital radius above H/2
        deep = wave_orbital_kinematics(2.0, 10.0, depth=4000.0)
        shallow = wave_orbital_kinematics(2.0, 10.0, depth=10.0)
        assert shallow.orbital_radius > deep.orbital_radius

    def test_monotone_in_height(self):
        a = wave_orbital_kinematics(1.0, 8.0)
        b = wave_orbital_kinematics(2.0, 8.0)
        assert b.orbital_radius > a.orbital_radius
        assert b.orbital_speed > a.orbital_speed

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            wave_orbital_kinematics(-1.0, 5.0)
        with pytest.raises(DomainError):
            wave_orbital_kinematics(1.0, 0.0)
