"""In-memory span tracing of geotrack's layers, installed from outside.

Each wrapper records one span per call: a name, a start, an end and the
span that was open when it began (its parent). A generator function gets
one span per resumption. Self time is a span's duration minus the time its
child spans cover. A wrapper replaces the original in every ``geotrack``
module namespace that binds it, so that ``from .geodesy import X`` copies
are traced too.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

EIG_SPANS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")


def _points(args, kwargs, result):
    return int(np.size(args[0]))


def _tracks(args, kwargs, result):
    return len(result)


def _outcome(args, kwargs, result):
    return result


# (module, attribute path, span name, note taken from the call or None)
TARGETS = [
    ("geotrack.ais", "parse_sentence", "ais.parse_sentence", None),
    ("geotrack.ais", "dearmor", "ais.dearmor", None),
    ("geotrack.ais", "decode_payload", "ais.decode_payload", None),
    ("geotrack.ais", "decode_lines", "ais.decode_lines", None),
    ("geotrack.geodesy", "propagate_sphere_arrays", "geodesy.propagate_sphere_arrays", None),
    ("geotrack.geodesy", "vincenty_inverse", "geodesy.vincenty_inverse", None),
    ("geotrack.geodesy", "vincenty_direct_arrays", "geodesy.vincenty_direct_arrays", _points),
    ("geotrack.noise", "build_process_noise", "noise.build_process_noise", None),
    ("geotrack.ukf", "sigma_points", "ukf.sigma_points", None),
    ("geotrack.ukf", "GeodeticUkf.predict", "ukf.GeodeticUkf.predict", None),
    ("geotrack.ukf", "GeodeticUkf.update", "ukf.GeodeticUkf.update", None),
    ("geotrack.ekf", "PlanarEkf.predict", "ekf.PlanarEkf.predict", None),
    ("geotrack.ekf", "PlanarEkf.update", "ekf.PlanarEkf.update", None),
    ("geotrack.ekf", "PlanarEkf.geodetic_position", "ekf.PlanarEkf.geodetic_position", None),
    ("geotrack.tracker", "TrackTable.tick", "tracker.TrackTable.tick", _tracks),
    ("geotrack.tracker", "TrackTable.ingest", "tracker.TrackTable.ingest", _outcome),
    ("geotrack.sim", "generate_truth", "sim.generate_truth", None),
    ("geotrack.sim", "sample_ais", "sim.sample_ais", None),
    ("geotrack.sim", "run_comparison", "sim.run_comparison", None),
    ("geotrack.cli", "main", "cli.main", None),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh", None),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh", None),
]


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    # one (name index, start ns, end ns, parent span index or -1, note) per span
    spans: list = field(default_factory=list)
    # StreamCounters totals seen by decode_lines when each stream ended
    stream_counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=lambda: [-1])
    _patches: list = field(default_factory=list)

    def wrap(self, name: str, fn, note=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(idx)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        spans[idx] = (nid, start, clock(), parent, None)
                        stack.pop()
                    yield item
                counters = args[1] if len(args) > 1 else kwargs.get("counters")
                for key, value in vars(counters or {}).items():
                    self.stream_counts[key] = self.stream_counts.get(key, 0) + value
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, None)
            if note:
                spans[idx] = (nid, start, end, parent, note(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Replace every target in every namespace that binds it."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build_patches(self) -> list:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "geotrack" or n.startswith("geotrack."))]
        patches = []
        for module_name, path, name, note in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, note)
            patches.append((owner, attr, original, wrapped))
            if isinstance(owner, type):
                continue
            patches += [(mod, key, original, wrapped) for mod in modules
                        for key, value in vars(mod).items()
                        if value is original and mod is not owner]
        return patches

    def aggregate(self, keep_durations=()) -> dict:
        """Per span name: calls, total and self time in ns, the notes summed
        (numbers) or counted (strings), and the durations of the names in
        ``keep_durations``."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "note_sum": 0,
                      "note_counts": {}, "durations_ns": []} for name in self.names}
        for i, (nid, start, end, _, note) in enumerate(self.spans):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[i]
            if self.names[nid] in keep_durations:
                entry["durations_ns"].append(end - start)
            if isinstance(note, str):
                entry["note_counts"][note] = entry["note_counts"].get(note, 0) + 1
            elif note is not None:
                entry["note_sum"] += note
        out["ukf.GeodeticUkf.predict"]["eig_calls"] = self._count_under(
            EIG_SPANS, "ukf.GeodeticUkf.predict")
        return out

    def _count_under(self, names, ancestor) -> int:
        ids = {i for i, n in enumerate(self.names) if n in names}
        target = self.names.index(ancestor)
        count = 0
        for nid, _, _, parent, _ in self.spans:
            if nid not in ids:
                continue
            while parent >= 0:
                if self.spans[parent][0] == target:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count
