"""Per-MMSI track management: asynchronous report ingestion with fixed-rate
prediction between reports, every due track stepped in one stacked call."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ais import DynamicAisReport
from .geodesy import DomainError, EarthModel
from .noise import ProcessNoiseParams, build_process_noise
from .ukf import (FactorizationFailure, GaussianBelief, GeodeticState, GeodeticUkf,
                  Measurement, MotionModel, SingularInnovation, predict_arrays)

DEFAULT_STALE_TIMEOUT_S = 180.0  # longest Class A reporting interval (anchored)
OUT_OF_ORDER_TOLERANCE_S = 1.0

# errors of one track's filter step; the track is retired, the table goes on
TRACK_FAILURES = (DomainError, FactorizationFailure, SingularInnovation)


@dataclass
class Track:
    mmsi: int
    filt: GeodeticUkf
    last_update: float  # time the belief is valid for
    last_seen: float    # time of the last accepted report

    @property
    def belief(self) -> GaussianBelief:
        return self.filt.belief


def measurement_from_report(report: DynamicAisReport) -> Measurement:
    """Map a decoded dynamic report onto the filter's masked measurement.

    A position at a pole is dropped: the longitude process noise is
    undefined there.
    """
    lon, lat = report.lon, report.lat
    if lat is not None and abs(lat) >= 90.0:
        lon = lat = None
    return Measurement.from_fields(lon=lon, lat=lat, sog=report.sog, cog=report.cog)


def _healthy(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Which beliefs of a stack a filter step can take: finite, off the poles."""
    return (np.isfinite(mean).all(-1) & np.isfinite(cov).all((-2, -1))
            & (np.abs(mean[..., 1]) < 90.0))


class TrackTable:
    """Single-owner table of live filters keyed by MMSI.

    Callers serialize ``ingest``/``tick``; tracks are mutually independent, and
    one whose filter step fails or goes non-finite is retired and counted.
    """

    def __init__(self, filter_rate_hz: float = 1.0,
                 stale_timeout: float = DEFAULT_STALE_TIMEOUT_S,
                 measurement_noise: np.ndarray | None = None,
                 process_params: ProcessNoiseParams | None = None,
                 model: MotionModel | None = None,
                 earth: EarthModel | None = None):
        if filter_rate_hz <= 0:
            raise ValueError("filter rate must be positive")
        self.filter_rate_hz = filter_rate_hz
        self.stale_timeout = stale_timeout
        self.process_params = process_params or ProcessNoiseParams()
        self.model = model or MotionModel()
        self.earth = earth or EarthModel.sphere()
        self._filter_kwargs = dict(measurement_noise=measurement_noise,
                                   process_params=self.process_params,
                                   model=self.model, earth=self.earth)
        self.tracks: dict[int, Track] = {}
        self.stale_drops = 0
        self.skipped_reports = 0
        self.retired = 0

    def _retire(self, track: Track) -> None:
        del self.tracks[track.mmsi]
        self.retired += 1

    def _predict_to(self, track: Track, t: float) -> None:
        """Advance a track to time t in fixed-rate steps plus a final partial step."""
        step = 1.0 / self.filter_rate_hz
        while t - track.last_update > 1e-9:
            dt = min(step, t - track.last_update)
            track.filt.predict(dt)
            track.last_update += dt

    def ingest(self, report: DynamicAisReport, t: float) -> str:
        """Route one report; returns the applied event kind."""
        meas = measurement_from_report(report)
        track = self.tracks.get(report.mmsi)
        if track is None:
            if not (meas.mask[0] and meas.mask[1]):
                # cannot seed a position estimate from a positionless report
                self.skipped_reports += 1
                return "skipped"
            filt = GeodeticUkf.from_first_measurement(meas, timestamp=t,
                                                      **self._filter_kwargs)
            self.tracks[report.mmsi] = Track(report.mmsi, filt, t, t)
            return "created"
        if t < track.last_update - OUT_OF_ORDER_TOLERANCE_S:
            self.stale_drops += 1
            return "dropped_stale"
        try:
            if t >= track.last_update:
                self._predict_to(track, t)
            belief = track.filt.update(meas)
        except TRACK_FAILURES:
            belief = None
        if belief is None or not _healthy(belief.mean.as_vector(), belief.cov):
            self._retire(track)
            return "retired"
        track.last_seen = t
        return "updated"

    def _step(self, due: list[Track], dt: list[float]) -> None:
        """One stacked filter step of ``dt[i]`` seconds for each track ``due[i]``."""
        mean = np.array([tr.belief.mean.as_vector() for tr in due])
        cov = np.array([tr.belief.cov for tr in due])
        ok, step = _healthy(mean, cov), np.array(dt)
        q = build_process_noise(self.process_params, mean[ok, 1], mean[ok, 3], step[ok])
        mean[ok], cov[ok] = predict_arrays(mean[ok], cov[ok], self.model, step[ok],
                                           q, self.earth)
        ok &= _healthy(mean, cov)
        for tr, m, c, d, good in zip(due, mean, cov, dt, ok):
            if not good:
                self._retire(tr)
                continue
            tr.filt.belief = GaussianBelief(GeodeticState.from_vector(m), c,
                                            tr.belief.timestamp + d)
            tr.last_update += d

    def tick(self, t: float) -> list[tuple[int, GaussianBelief]]:
        """Predict every live track to time t, dropping stale ones first; all
        tracks short of t take their next fixed-rate step in one stacked call."""
        for mmsi in [m for m, tr in self.tracks.items()
                     if t - tr.last_seen > self.stale_timeout]:
            del self.tracks[mmsi]
        step = 1.0 / self.filter_rate_hz
        while due := [tr for tr in self.tracks.values() if t - tr.last_update > 1e-9]:
            self._step(due, [min(step, t - tr.last_update) for tr in due])
        return [(mmsi, self.tracks[mmsi].belief) for mmsi in sorted(self.tracks)]
