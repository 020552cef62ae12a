"""Per-MMSI track management over one stacked filter: reports are queued as
they arrive and fused at the next tick or ``fuse()``, and every track step, to
a report or to a tick, is one stacked call for all the tracks that take it.
``replay`` drives a table on its tick clock through ``timed_reports``."""

from __future__ import annotations

import math

import numpy as np

from .ais import DynamicAisReport, StreamCounters, decode_lines
from .ukf import INITIAL_COV, GeodeticUkf, Measurement, normalize_state

DEFAULT_STALE_TIMEOUT_S = 180.0  # longest Class A reporting interval (anchored)
OUT_OF_ORDER_TOLERANCE_S = 1.0
ON_TIME_S = 1e-9  # a belief this close to a target time has reached it
# Arrival intervals of a report without a sidecar time: Class A 10 s, Class B 30 s
_SYNTHETIC_INTERVAL_S = {18: 30.0, 1: 10.0, 2: 10.0, 3: 10.0}


class TrackTable:
    """Single-owner table of live tracks keyed by MMSI, held as arrays.

    Row i of the stacked filter ``filt`` and of ``mmsi``, ``last_seen`` (the
    latest report time) and ``live`` is one track; ``rows`` maps an MMSI to
    its row, and a freed row is reused. ``ingest`` queues a report, and the
    queue is fused at the next ``tick`` or ``fuse()``. Callers serialize ``ingest``,
    ``tick`` and ``fuse``; tracks are mutually independent, and one whose
    belief goes non-finite or polar is retired and counted before a filter
    step takes it, so rows are freed only inside ``tick`` and ``fuse``.
    """

    def __init__(self, filter_rate_hz: float = 1.0,
                 stale_timeout: float = DEFAULT_STALE_TIMEOUT_S):
        if filter_rate_hz <= 0:
            raise ValueError("filter rate must be positive")
        self.filter_rate_hz = filter_rate_hz
        self.stale_timeout = stale_timeout
        self.filt = GeodeticUkf(np.zeros((0, 4)), INITIAL_COV)
        self.mmsi = np.zeros(0, dtype=np.int64)
        self.last_seen = np.zeros(0)
        self.live = np.zeros(0, dtype=bool)
        self.rows: dict[int, int] = {}
        self._free: list[int] = []
        self._queue: list[tuple] = []  # (row, t, lon, lat, sog, cog); None if missing
        self.stale_drops = 0
        self.skipped_reports = 0
        self.retired = 0  # after a failed filter step
        self.timed_out = 0  # silent for longer than stale_timeout
        self.clock_resets = 0  # backward clock jumps that started a new epoch

    def _new_row(self) -> int:
        if not self._free:  # double the capacity
            n = len(self.live)
            grow = max(n, 16)

            def pad(a):
                return np.concatenate([a, np.zeros((grow,) + a.shape[1:], a.dtype)])
            filt = self.filt
            filt.mean, filt.cov, filt.time = pad(filt.mean), pad(filt.cov), pad(filt.time)
            self.mmsi, self.last_seen = pad(self.mmsi), pad(self.last_seen)
            self.live = pad(self.live)
            self._free = list(range(n + grow - 1, n - 1, -1))
        return self._free.pop()

    def _drop(self, rows: list[int]) -> None:
        for row in rows:
            del self.rows[int(self.mmsi[row])]
        self.live[rows] = False
        self._free.extend(rows)

    def _retire_unhealthy(self, rows: np.ndarray) -> np.ndarray:
        """Retire the rows whose belief a filter step cannot take (not finite,
        or at a pole); returns which of ``rows`` remain."""
        mean, cov = self.filt.mean[rows], self.filt.cov[rows]
        ok = (np.isfinite(mean).all(-1) & np.isfinite(cov).all((-2, -1))
              & (np.abs(mean[:, 1]) < 90.0))
        if not ok.all():
            self._drop(rows[~ok].tolist())
            self.retired += int((~ok).sum())
        return ok

    def ingest(self, report: DynamicAisReport, t: float) -> str:
        """Route one report and queue its fields for fusion; returns its event
        kind. A position at a pole is dropped: the longitude process noise is
        undefined there."""
        lon, lat = report.lon, report.lat
        if lat is not None and abs(lat) >= 90.0:
            lon = lat = None
        row = self.rows.get(report.mmsi)
        if row is None:
            if lon is None or lat is None:
                # cannot seed a position estimate from a positionless report
                self.skipped_reports += 1
                return "skipped"
            row = self.rows[report.mmsi] = self._new_row()
            self.mmsi[row], self.live[row] = report.mmsi, True
            # the prior that the queued report is fused into, as in
            # GeodeticUkf.from_first_measurement
            prior = np.array([lon, lat, report.sog, report.cog], dtype=float)
            self.filt.mean[row] = normalize_state(np.where(np.isnan(prior), 0.0, prior))
            self.filt.cov[row] = INITIAL_COV
            self.filt.time[row] = self.last_seen[row] = t
            kind = "created"
        else:
            seen = self.last_seen[row]
            # against the belief time once the queued reports are fused
            if t < max(self.filt.time[row], seen) - OUT_OF_ORDER_TOLERANCE_S:
                self.stale_drops += 1
                return "dropped_stale"
            self.last_seen[row] = max(seen, t)
            kind = "updated"
        self._queue.append((row, t, lon, lat, report.sog, report.cog))
        return kind

    def _advance(self, rows: np.ndarray, target: np.ndarray) -> None:
        """Predict each of ``rows`` to its ``target`` time in stacked fixed-rate
        steps plus a final partial step; a step that reaches its target sets
        the row's time to the target itself. A row past its target stays."""
        filt, step = self.filt, 1.0 / self.filter_rate_hz
        ok = self._retire_unhealthy(rows)
        while True:
            rows, target = rows[ok], target[ok]
            gap = target - filt.time[rows]
            due = gap > ON_TIME_S
            if not due.any():
                return
            rows, target = rows[due], target[due]
            dt = np.zeros(filt.time.shape)
            dt[rows] = np.minimum(step, gap[due])
            filt.predict(dt)
            landed = target - filt.time[rows] <= ON_TIME_S
            filt.time[rows[landed]] = target[landed]
            ok = self._retire_unhealthy(rows)

    def fuse(self) -> None:
        """Fuse the queued reports in arrival order per track: for the k-th
        queued report of every track at once, predict each track to its
        report time, then take one stacked update."""
        batches: list[list] = []
        count: dict[int, int] = {}
        for entry in self._queue:
            k = count[entry[0]] = count.get(entry[0], -1) + 1
            if k == len(batches):
                batches.append([])
            batches[k].append(entry)
        self._queue = []
        for batch in batches:
            # a track retired by an earlier report takes no later one
            batch = [entry for entry in batch if self.live[entry[0]]]
            if not batch:
                continue
            fields = np.array(batch, dtype=float)  # a missing field reads as nan
            rows = fields[:, 0].astype(np.intp)
            self._advance(rows, fields[:, 1])
            z = np.full(self.filt.mean.shape, np.nan)
            z[rows] = fields[:, 2:]
            # a row retired on the way to its report takes no update
            self.filt.update(Measurement(z, ~np.isnan(z) & self.live[:, None]))
            self._retire_unhealthy(rows[self.live[rows]])

    def tick(self, t: float) -> np.ndarray:
        """Fuse the queued reports, drop and count the tracks silent for longer
        than ``stale_timeout``, and predict every live track to time t; all
        tracks short of t take their next fixed-rate step in one stacked call.
        Returns the live rows in MMSI order."""
        self.fuse()
        live = np.flatnonzero(self.live)
        stale = t - self.last_seen[live] > self.stale_timeout
        self._drop(live[stale].tolist())
        self.timed_out += int(np.count_nonzero(stale))
        self._advance(live[~stale], np.full(np.count_nonzero(~stale), float(t)))
        rows = np.flatnonzero(self.live)
        return rows[np.argsort(self.mmsi[rows])]


def timed_reports(lines, counters: StreamCounters):
    """Yield (t, report) pairs as the lines arrive; t is the sidecar time, else
    a per-MMSI synthetic clock that advances by ``_SYNTHETIC_INTERVAL_S`` and
    never runs behind the latest time already given out."""
    synthetic_clock: dict[int, float] = {}
    latest = -math.inf
    for t, report in decode_lines(lines, counters):
        if not isinstance(report, DynamicAisReport):
            continue
        if t is None:
            interval = _SYNTHETIC_INTERVAL_S.get(report.msg_type, 10.0)
            t = max(synthetic_clock.get(report.mmsi, -interval) + interval, latest)
        synthetic_clock[report.mmsi] = t
        latest = max(latest, t)
        yield t, report


def replay(reports, table: TrackTable):
    """Drive ``table`` through (t, report) pairs, yielding ``(k / rate, rows)``
    for each tick k of ``filter_rate_hz``: ``tick``'s rows, read before the
    next resume. Each tick at or before a report's time is taken before the
    report is ingested; while no track is live the clock jumps to the last such
    tick. A report more than ``stale_timeout`` before the last tick taken is a
    backward clock jump: it starts a new epoch, in which every track is timed
    out and the clock restarts at the report. The reports after the last tick
    are fused when the reports end."""
    rate = table.filter_rate_hz
    k = None  # index of the next tick
    for t, report in reports:
        last = math.floor(t * rate)  # the last tick at or before t
        if k is not None and t < (k - 1) / rate - table.stale_timeout:
            # the clock could never tick or time out a track behind it
            table.tick(math.inf)  # fuses the queue, then times out every track
            table.clock_resets += 1
            k = None
        k = last if k is None else k
        while k <= last:
            if not table.rows:  # nothing to predict: jump to the last tick
                k = last
            t_tick = k / rate
            yield t_tick, table.tick(t_tick)
            k += 1
        table.ingest(report, t)
    table.fuse()
