"""Truth-trajectory generation, AIS report synthesis, and filter scoring.

Truth states evolve only through kinematics: white noise enters through the
speed and course used for each step, never directly through position.  A
straight segment therefore follows one great circle exactly when noise-free,
because the course is carried forward as the arrival bearing of each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ekf import PlanarEkf, TangentPlane
from .geodesy import (GeoPoint, great_circle_final_bearing, great_circle_inverse,
                      propagate_sphere, vincenty_inverse, NonConvergenceError)
from .noise import (MEAS_STD_COG_DEG, MEAS_STD_LAT_DEG, MEAS_STD_LON_DEG, MEAS_STD_SOG_MPS,
                    METERS_PER_DEGREE)
from .ukf import GeodeticUkf, Measurement

STRAIGHT = "straight"
TURN = "turn"


@dataclass(frozen=True)
class TrajectorySegment:
    kind: str
    duration: float       # seconds
    speed: float          # m/s
    turn_rate: float = 0.0  # deg/s: zero on a straight, nonzero on a turn

    def __post_init__(self):
        if self.kind not in (STRAIGHT, TURN):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.duration <= 0 or self.speed < 0:
            raise ValueError("segment duration must be > 0 and speed >= 0")
        if (self.kind == TURN) != (self.turn_rate != 0):
            raise ValueError(f"{self.kind} at {self.turn_rate:g} deg/s: a straight has "
                             "no turn rate and a turn a nonzero one")


# run_comparison's (n, 4, 4) float64 covariance stacks must be addressable
MAX_STEPS = np.iinfo(np.intp).max // (4 * 4 * 8)


@dataclass(frozen=True)
class Scenario:
    start: GeoPoint
    segments: tuple[TrajectorySegment, ...]
    initial_cog: float = 0.0
    truth_rate_hz: float = 1.0
    ais_interval: float = 6.0
    sog_noise: float = 0.1      # process jitter injected into SOG, m/s
    cog_noise: float = 0.5      # process jitter injected into COG, deg
    meas_noise: tuple[float, float, float, float] = (
        MEAS_STD_LON_DEG, MEAS_STD_LAT_DEG, MEAS_STD_SOG_MPS, MEAS_STD_COG_DEG)
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        if not self.truth_rate_hz > 0:
            raise ValueError("truth_rate_hz must be positive")
        # reports are sampled on the truth grid, every ais_interval / dt steps
        steps = self.ais_interval * self.truth_rate_hz
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9):
            raise ValueError(f"ais_interval must be a positive whole number of truth steps "
                             f"of {1.0 / self.truth_rate_hz:g} s, got {self.ais_interval:g}")
        # the filters start from the report at step 0
        steps = self.duration * self.truth_rate_hz + 1e-9
        if not 1 <= steps < MAX_STEPS:
            raise ValueError(f"scenario must span 1 to {MAX_STEPS} truth steps, got {steps:g}")
        if not all(std >= 0 for std in (self.sog_noise, self.cog_noise, *self.meas_noise)):
            raise ValueError("noise standard deviations must be >= 0")
        if not self.seed == int(self.seed) >= 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def duration(self) -> float:
        return sum(s.duration for s in self.segments)

    @property
    def n_steps(self) -> int:
        """Truth steps at t = 0, dt, ..., duration - dt (dt = 1/truth_rate_hz)."""
        return int(math.floor(self.duration * self.truth_rate_hz + 1e-9))


@dataclass
class TruthTrajectory:
    t: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    sog: np.ndarray
    cog: np.ndarray

    def __len__(self):
        return len(self.t)

    def state_vector(self, i: int) -> np.ndarray:
        return np.array([self.lon[i], self.lat[i], self.sog[i], self.cog[i]])


def generate_truth(scenario: Scenario) -> TruthTrajectory:
    """Truth states at t = 0, dt, ..., duration - dt (dt = 1/truth_rate_hz)."""
    rng = np.random.default_rng(scenario.seed)
    dt = 1.0 / scenario.truth_rate_hz
    n = scenario.n_steps

    segments = list(scenario.segments)
    seg_idx = 0
    seg_time_left = segments[0].duration
    pos = scenario.start
    course = scenario.initial_cog % 360.0

    t = np.arange(n) * dt
    lon = np.empty(n)
    lat = np.empty(n)
    sog = np.empty(n)
    cog = np.empty(n)

    for k in range(n):
        seg = segments[seg_idx]
        jitter_s = rng.normal(0.0, scenario.sog_noise) if scenario.sog_noise else 0.0
        jitter_c = rng.normal(0.0, scenario.cog_noise) if scenario.cog_noise else 0.0
        speed = max(0.0, seg.speed + jitter_s)
        course_used = (course + jitter_c) % 360.0

        lon[k], lat[k] = pos.lon, pos.lat
        sog[k] = speed
        cog[k] = course_used

        # advance one output step, splitting at segment boundaries
        remaining = dt
        while remaining > 1e-12:
            seg = segments[seg_idx]
            # the final segment absorbs any sub-step overrun caused by a
            # non-integer total duration
            last_segment = seg_idx + 1 == len(segments)
            tau = remaining if last_segment and seg_time_left < remaining \
                else min(remaining, seg_time_left)
            speed = max(0.0, seg.speed + jitter_s)
            course_used = (course + jitter_c) % 360.0
            dist = speed * tau
            new_pos = propagate_sphere(pos, course_used, dist)
            if dist > 1e-9:
                arrival = great_circle_final_bearing(pos, new_pos)
            else:
                arrival = course_used
            course = (arrival - jitter_c + seg.turn_rate * tau) % 360.0
            pos = new_pos
            remaining -= tau
            seg_time_left -= tau
            if seg_time_left <= 1e-12 and seg_idx + 1 < len(segments):
                seg_idx += 1
                seg_time_left = segments[seg_idx].duration
    return TruthTrajectory(t, lon, lat, sog, cog)


def sample_ais(truth: TruthTrajectory, scenario: Scenario
               ) -> list[tuple[float, Measurement]]:
    """Noisy AIS reports at every ais_interval multiple of the truth timeline."""
    rng = np.random.default_rng(scenario.seed + 1)
    dt = 1.0 / scenario.truth_rate_hz
    stride = int(round(scenario.ais_interval / dt))
    stds = np.asarray(scenario.meas_noise, dtype=float)
    out = []
    for i in range(0, len(truth), stride):
        z = truth.state_vector(i)
        if stds.any():
            z = z + rng.normal(0.0, stds)
        z[2] = max(0.0, z[2])
        z[3] %= 360.0
        out.append((float(truth.t[i]), Measurement(z, np.ones(4, dtype=bool))))
    return out


@dataclass
class RunMetrics:
    rmse_lon: float
    rmse_lat: float
    rmse_sog: float
    rmse_cog: float
    rmse_pos_m: float
    frac_within_3sigma: float
    max_cov_trace: float
    median_cov_trace: float


@dataclass
class FilterRunRecord:
    """Per-step estimates of one filter over one scenario run, scored
    against the truth."""
    est: np.ndarray       # (n, 4) lon, lat, sog, cog
    err_pos_m: np.ndarray
    sigma3_m: np.ndarray
    cov_trace: np.ndarray


def _position_error_m(lon1, lat1, lon2, lat2) -> float:
    p1, p2 = GeoPoint(float(lon1), float(lat1)), GeoPoint(float(lon2), float(lat2))
    try:
        dist, _ = vincenty_inverse(p1, p2)
    except NonConvergenceError:
        dist, _ = great_circle_inverse(p1, p2)
    return dist


def _metrics(truth: TruthTrajectory, record: FilterRunRecord) -> RunMetrics:
    res = record.est - np.column_stack([truth.lon, truth.lat, truth.sog, truth.cog])
    res[:, 3] = (res[:, 3] + 180.0) % 360.0 - 180.0
    rmse = np.sqrt(np.mean(res ** 2, axis=0))
    return RunMetrics(
        rmse_lon=float(rmse[0]), rmse_lat=float(rmse[1]),
        rmse_sog=float(rmse[2]), rmse_cog=float(rmse[3]),
        rmse_pos_m=float(np.sqrt(np.mean(record.err_pos_m ** 2))),
        frac_within_3sigma=float(np.mean(record.err_pos_m < record.sigma3_m)),
        max_cov_trace=float(np.max(record.cov_trace)),
        median_cov_trace=float(np.median(record.cov_trace)),
    )


@dataclass
class ComparisonRun:
    scenario: Scenario
    truth: TruthTrajectory
    ukf: FilterRunRecord
    ekf: FilterRunRecord
    ukf_metrics: RunMetrics
    ekf_metrics: RunMetrics


def _score(truth: TruthTrajectory, est: np.ndarray, cov: np.ndarray,
           sigma3_m: np.ndarray) -> FilterRunRecord:
    err = np.array([_position_error_m(lon, lat, t_lon, t_lat) for lon, lat, t_lon, t_lat
                    in zip(est[:, 0], est[:, 1], truth.lon, truth.lat)])
    return FilterRunRecord(est, err, sigma3_m, np.trace(cov, axis1=1, axis2=2))


def run_comparison(scenario: Scenario) -> ComparisonRun:
    """Run the geodetic and planar filters on one shared measurement stream,
    stepping both at the truth rate from the first report at t = 0."""
    truth = generate_truth(scenario)
    # reports keyed by truth index
    measurements = {round(tm * scenario.truth_rate_hz): meas
                    for tm, meas in sample_ais(truth, scenario)}
    ukf = GeodeticUkf.from_first_measurement(measurements[0])
    ekf = PlanarEkf.from_first_measurement(measurements[0], TangentPlane(scenario.start))

    dt = 1.0 / scenario.truth_rate_hz
    n = len(truth)
    ukf_est, ekf_est = np.zeros((n, 4)), np.zeros((n, 4))
    ukf_cov, ekf_cov = np.zeros((n, 4, 4)), np.zeros((n, 4, 4))
    for i in range(n):
        if i:
            ukf.predict(dt)
            ekf.predict(dt)
            meas = measurements.get(i)
            if meas is not None:
                ukf.update(meas)
                ekf.update(meas)
        ukf_est[i], ukf_cov[i] = ukf.mean, ukf.cov
        pos = ekf.geodetic_position()
        ekf_est[i] = pos.lon, pos.lat, ekf.x[2], ekf.cog_deg
        ekf_cov[i] = ekf.p

    m_lon = METERS_PER_DEGREE * np.cos(np.radians(ukf_est[:, 1]))
    ukf_sigma3 = 3.0 * np.sqrt(np.maximum(0.0, ukf_cov[:, 0, 0]) * m_lon ** 2
                               + np.maximum(0.0, ukf_cov[:, 1, 1]) * METERS_PER_DEGREE ** 2)
    # the EKF's position covariance is already in metres on its plane
    ekf_sigma3 = 3.0 * np.sqrt(np.maximum(0.0, ekf_cov[:, 0, 0])
                               + np.maximum(0.0, ekf_cov[:, 1, 1]))
    rec_ukf = _score(truth, ukf_est, ukf_cov, ukf_sigma3)
    rec_ekf = _score(truth, ekf_est, ekf_cov, ekf_sigma3)
    return ComparisonRun(scenario, truth, rec_ukf, rec_ekf,
                         _metrics(truth, rec_ukf), _metrics(truth, rec_ekf))


# ---------------------------------------------------------------------------
# Canonical scenarios
# ---------------------------------------------------------------------------

def boston_departure_scenario(seed: int = 0) -> Scenario:
    """Eastbound harbor departure at 7 m/s with several constant-turn arcs."""
    speed = 7.0
    segments = (
        TrajectorySegment(STRAIGHT, 120.0, speed),
        TrajectorySegment(TURN, 45.0, speed, turn_rate=0.8),
        TrajectorySegment(STRAIGHT, 90.0, speed),
        TrajectorySegment(TURN, 60.0, speed, turn_rate=-0.6),
        TrajectorySegment(STRAIGHT, 120.0, speed),
        TrajectorySegment(TURN, 45.0, speed, turn_rate=0.5),
        TrajectorySegment(STRAIGHT, 120.0, speed),
    )
    return Scenario(start=GeoPoint(-71.0237, 42.3469), initial_cog=90.0,
                    segments=segments, seed=seed, name="boston-departure")


def lawnmower_scenario(ais_interval: float, n_legs: int = 10, seed: int = 0) -> Scenario:
    """Survey pattern at 15 m/s: 855 m straights joined by 180-degree turns
    of 50 m radius."""
    speed = 15.0
    straight_time = 855.0 / speed
    turn_time = math.pi * 50.0 / speed
    turn_rate = 180.0 / turn_time
    segments = []
    for leg in range(n_legs):
        segments.append(TrajectorySegment(STRAIGHT, straight_time, speed))
        sign = 1.0 if leg % 2 == 0 else -1.0
        segments.append(TrajectorySegment(TURN, turn_time, speed,
                                          turn_rate=sign * turn_rate))
    return Scenario(start=GeoPoint(-70.9, 42.3), initial_cog=0.0,
                    segments=tuple(segments), ais_interval=ais_interval,
                    seed=seed, name=f"lawnmower-{int(ais_interval)}s")


def stability_sweep(intervals=range(2, 69), n_legs: int = 10
                    ) -> list[tuple[float, ComparisonRun]]:
    """Lawnmower runs over a range of AIS update intervals (seed 0 for all)."""
    out = []
    for interval in intervals:
        run = run_comparison(lawnmower_scenario(float(interval), n_legs))
        out.append((float(interval), run))
    return out


# ---------------------------------------------------------------------------
# Scenario file format: key = value lines plus a [segments] table
# ---------------------------------------------------------------------------

# The file keys in file order: the Scenario field each one sets, and its
# place in that field when the field holds several numbers
_FILE_KEYS = {
    "start_lon": ("start", 0), "start_lat": ("start", 1),
    "initial_cog": ("initial_cog", None), "truth_rate_hz": ("truth_rate_hz", None),
    "ais_interval": ("ais_interval", None),
    "sog_noise": ("sog_noise", None), "cog_noise": ("cog_noise", None),
    "meas_lon_noise": ("meas_noise", 0), "meas_lat_noise": ("meas_noise", 1),
    "meas_sog_noise": ("meas_noise", 2), "meas_cog_noise": ("meas_noise", 3),
    "seed": ("seed", None),
}


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Scenario from its file text; every fault in the text is a ValueError."""
    fields = {"start": [None, None], "meas_noise": list(Scenario.meas_noise)}
    segments: list[TrajectorySegment] = []
    in_segments = False
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip().lower()
        if line == "[segments]":
            in_segments = True
        elif in_segments and line:
            kind, *numbers = line.split()
            if len(numbers) not in (2, 3):
                raise ValueError(f"bad segment row: {raw_line!r}")
            if numbers[2:] == ["-"]:  # the rate of a straight
                numbers.pop()
            segments.append(TrajectorySegment(kind, *map(_number, numbers)))
        elif line:
            key, equals, value = (part.strip() for part in line.partition("="))
            if not equals:
                raise ValueError(f"bad scenario line: {raw_line!r}")
            if key not in _FILE_KEYS:
                raise ValueError(f"unknown scenario key {key!r}")
            field, index = _FILE_KEYS[key]
            # a seed in digits is read exactly, past float precision too
            value = int(value) if field == "seed" and value.isdecimal() else _number(value)
            if index is None:
                fields[field] = value
            else:
                fields[field][index] = value
    missing = [key for key, v in zip(("start_lon", "start_lat"), fields["start"]) if v is None]
    if missing:
        raise ValueError(f"scenario has no {' or '.join(missing)}")
    return Scenario(**dict(fields, start=GeoPoint(*fields["start"]),
                           meas_noise=tuple(fields["meas_noise"])),
                    segments=tuple(segments), name=name)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), name=path)


def format_scenario(s: Scenario) -> str:
    fields = dict(vars(s), start=(s.start.lon, s.start.lat))
    lines = [f"{key} = {fields[field] if index is None else fields[field][index]}"
             for key, (field, index) in _FILE_KEYS.items()]
    lines += ["", "[segments]", "# kind duration_s speed_mps turn_rate_dps"]
    for seg in s.segments:
        rate = "-" if seg.kind == STRAIGHT else repr(seg.turn_rate)
        lines.append(f"{seg.kind} {seg.duration} {seg.speed} {rate}")
    return "\n".join(lines) + "\n"
