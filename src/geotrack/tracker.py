"""Per-MMSI track management: asynchronous report ingestion with fixed-rate
prediction between reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ais import DynamicAisReport
from .geodesy import EarthModel
from .noise import ProcessNoiseParams
from .ukf import GaussianBelief, GeodeticUkf, Measurement, MotionModel

DEFAULT_STALE_TIMEOUT_S = 180.0  # longest Class A reporting interval (anchored)
OUT_OF_ORDER_TOLERANCE_S = 1.0


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


class TrackTable:
    """Single-owner table of live filters keyed by MMSI.

    Callers serialize ``ingest``/``tick``; tracks are mutually independent.
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
        self._filter_kwargs = dict(measurement_noise=measurement_noise,
                                   process_params=process_params,
                                   model=model, earth=earth)
        self.tracks: dict[int, Track] = {}
        self.stale_drops = 0
        self.skipped_reports = 0

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
        if t >= track.last_update:
            self._predict_to(track, t)
        track.filt.update(meas)
        track.last_seen = t
        return "updated"

    def tick(self, t: float) -> list[tuple[int, GaussianBelief]]:
        """Predict every live track to time t, retiring stale ones first."""
        for mmsi in [m for m, tr in self.tracks.items()
                     if t - tr.last_seen > self.stale_timeout]:
            del self.tracks[mmsi]
        out = []
        for mmsi in sorted(self.tracks):
            track = self.tracks[mmsi]
            self._predict_to(track, t)
            out.append((mmsi, track.belief))
        return out
