"""Per-MMSI track management over one stacked filter: reports are queued as
they arrive and fused at the next tick or ``fuse()``, and every track step, to
a report or to a tick, is one stacked call for all the tracks that take it.
``replay`` drives a table through a feed's reports on one clock: it gives each
report its time and takes the ticks."""

from __future__ import annotations

import math

import numpy as np

from .ais import MAX_SIDECAR_TIME_S, DynamicAisReport
from .ukf import GeodeticUkf, Measurement, birth_prior, report_vector

DEFAULT_STALE_TIMEOUT_S = 180.0  # longest Class A reporting interval (anchored)
OUT_OF_ORDER_TOLERANCE_S = 1.0
ON_TIME_S = 1e-9  # a belief this close to a target time has reached it
# Arrival intervals of a report without a sidecar time: Class A 10 s, Class B 30 s
_SYNTHETIC_INTERVAL_S = {18: 30.0, 1: 10.0, 2: 10.0, 3: 10.0}


class TrackTable:
    """Single-owner table of live tracks keyed by MMSI, held as arrays.

    Row i of the stacked filter ``filt`` and of ``mmsi``, ``last_seen`` (the
    latest report time) and ``live`` is one track; ``rows`` maps an MMSI to
    its row, and a new track takes the lowest row not ``live``. ``ingest``
    queues a report, and the queue is fused at the next ``tick`` or
    ``fuse()``. Callers serialize ``ingest``, ``tick`` and ``fuse``; tracks are
    mutually independent, and one whose belief goes non-finite or polar is
    retired and counted before a filter step takes it, so rows are freed only
    inside ``tick`` and ``fuse``.
    """

    def __init__(self, filter_rate_hz: float = 1.0,
                 stale_timeout: float = DEFAULT_STALE_TIMEOUT_S):
        for name, value in (("filter rate", filter_rate_hz), ("stale timeout", stale_timeout)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.filter_rate_hz = filter_rate_hz
        self.stale_timeout = stale_timeout
        self.filt = GeodeticUkf(np.zeros((0, 4)), np.zeros((0, 4, 4)))
        self.mmsi = np.zeros(0, dtype=np.int64)
        self.last_seen = np.zeros(0)
        self.live = np.zeros(0, dtype=bool)
        self.rows: dict[int, int] = {}
        self._queue: list[tuple] = []  # (row, t, report_vector)
        self.stale_drops = 0
        self.skipped_reports = 0
        self.retired = 0  # after a failed filter step
        self.timed_out = 0  # silent for longer than stale_timeout
        self.clock_resets = 0  # backward clock jumps that started a new epoch

    def _new_row(self) -> int:
        if len(self.rows) == len(self.live):  # every row is live: double them
            n = len(self.live)
            grow = max(n, 16)

            def pad(a):
                return np.concatenate([a, np.zeros((grow,) + a.shape[1:], a.dtype)])
            filt = self.filt
            filt.mean, filt.cov, filt.time = pad(filt.mean), pad(filt.cov), pad(filt.time)
            self.mmsi, self.last_seen = pad(self.mmsi), pad(self.last_seen)
            self.live = pad(self.live)
        return int(np.argmin(self.live))

    def _drop(self, rows: list[int]) -> None:
        for row in rows:
            del self.rows[int(self.mmsi[row])]
        self.live[rows] = False

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
        """Route one report and queue its ``ukf.report_vector`` for fusion;
        returns its event kind. A new track needs a position in that vector."""
        if not math.isfinite(t):
            raise ValueError(f"report time must be finite, got {t!r}")
        z = report_vector(report.lon, report.lat, report.sog, report.cog)
        row = self.rows.get(report.mmsi)
        if row is None:
            if not np.isfinite(z[:2]).all():
                self.skipped_reports += 1
                return "skipped"
            row = self.rows[report.mmsi] = self._new_row()
            self.mmsi[row], self.live[row] = report.mmsi, True
            self.filt.mean[row], self.filt.cov[row] = birth_prior(z)
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
        self._queue.append((row, t, z))
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
            rows, times, fields = map(np.array, zip(*batch))
            self._advance(rows, times)
            live = self.live[rows]  # a row retired on the way takes no update
            z = np.full(self.filt.mean.shape, np.nan)
            z[rows[live]] = fields[live]
            self.filt.update(Measurement(z))
            self._retire_unhealthy(rows[live])

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


def replay(reports, table: TrackTable):
    """Drive ``table`` through the (t, report) pairs of ``ais.decode_lines``,
    yielding ``(k / rate, rows)`` for each tick k of ``filter_rate_hz``:
    ``tick``'s rows, read before the next resume. Static reports are skipped.
    A report whose t is None, or not a time that the decoder could give (finite
    and below ``ais.MAX_SIDECAR_TIME_S`` in magnitude, so that every tick step
    moves the clock), is stamped by its vessel's synthetic clock, which
    advances by ``_SYNTHETIC_INTERVAL_S`` and never runs behind the latest time
    already given out. Each tick at or before a report's time is taken before
    the report is ingested; while no track is live the clock jumps to the last
    such tick. A report more than ``stale_timeout`` before the last tick taken
    is a backward clock jump: it starts a new epoch, in which every track is
    timed out and every clock restarts at the report. The reports after the
    last tick are fused when the reports end."""
    rate = table.filter_rate_hz
    k = None  # index of the next tick
    synthetic_clock: dict[int, float] = {}
    latest = -math.inf
    for t, report in reports:
        if not isinstance(report, DynamicAisReport):
            continue
        if t is None or not abs(t) < MAX_SIDECAR_TIME_S:
            # never behind the last tick taken, so never a jump
            interval = _SYNTHETIC_INTERVAL_S.get(report.msg_type, 10.0)
            t = max(synthetic_clock.get(report.mmsi, -interval) + interval, latest)
        elif k is not None and t < (k - 1) / rate - table.stale_timeout:
            # the clock could never tick or time out a track behind it
            table.tick(math.inf)  # fuses the queue, then times out every track
            table.clock_resets += 1
            k, synthetic_clock, latest = None, {}, -math.inf
        synthetic_clock[report.mmsi] = t
        latest = max(latest, t)
        last = math.floor(t * rate)  # the last tick at or before t
        k = last if k is None else k
        while k <= last:
            if not table.rows:  # nothing to predict: jump to the last tick
                k = last
            t_tick = k / rate
            yield t_tick, table.tick(t_tick)
            k += 1
        table.ingest(report, t)
    table.fuse()
