"""Host-time span tracer that wraps layer entry points from outside.

The traced run patches each entry point in :data:`ENTRY_POINTS` on its
class for the duration of one batch and records one span per call:
name, start, end and parent (the span open on the host call stack when
it began).  Generator entry points are timed per resume: the wrapper
returns a proxy whose ``send``/``throw``/``__next__`` open a span
around each step, because resuming a process is the only call the
engine makes into a generator.  A span's self time is its duration
minus the time its child spans cover.

Spans are kept in typed arrays in memory and written out once, at the
end of the run (:meth:`Tracer.save`).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter_ns

#: (metric name, module, class, attribute, kind).  ``kind`` is "call"
#: for plain functions and "gen" for generator functions (timed per
#: resume).  The metric name's first dotted part is the layer.
ENTRY_POINTS = (
    ("sim.engine.run", "repro.sim.engine", "Engine", "run", "call"),
    ("sim.engine.run_process", "repro.sim.engine", "Engine", "run_process", "call"),
    ("sim.bandwidth.transfer", "repro.sim.bandwidth", "SharedBandwidth", "transfer", "gen"),
    ("storage.volume.read", "repro.storage.volume", "Volume", "read", "gen"),
    ("storage.volume.write", "repro.storage.volume", "Volume", "write", "gen"),
    ("drives.burn", "repro.drives.drive", "OpticalDrive", "burn", "gen"),
    ("drives.read_bytes", "repro.drives.drive", "OpticalDrive", "read_bytes", "gen"),
    ("media.burn_track", "repro.media.disc", "OpticalDisc", "burn_track", "call"),
    ("media.read_track", "repro.media.disc", "OpticalDisc", "read_track", "call"),
    ("mechanics.load_array", "repro.mechanics.library", "MechanicalSubsystem", "load_array", "gen"),
    ("mechanics.unload_array", "repro.mechanics.library", "MechanicalSubsystem", "unload_array", "gen"),
    ("mechanics.geometry.addresses", "repro.mechanics.geometry", "RollerGeometry", "addresses", "gen"),
    ("plc.execute", "repro.plc.controller", "PLCController", "execute", "gen"),
    ("udf.serialize", "repro.udf.image", "DiscImage", "serialize", "call"),
    ("udf.deserialize", "repro.udf.image", "DiscImage", "deserialize", "call"),
    ("olfs.posix.write_file", "repro.olfs.posix", "POSIXInterface", "write_file", "gen"),
    ("olfs.posix.read_file", "repro.olfs.posix", "POSIXInterface", "read_file", "gen"),
    ("olfs.images.unburned_data_images", "repro.olfs.images", "DiscImageManager", "unburned_data_images", "call"),
    ("olfs.burning.maybe_schedule", "repro.olfs.burning", "BurnController", "maybe_schedule", "call"),
    ("olfs.mechanical.find_blank_tray", "repro.olfs.mechanical", "MechanicalController", "find_blank_tray", "call"),
    ("olfs.fetching.fetch_file", "repro.olfs.fetching", "FetchController", "fetch_file", "gen"),
    ("serve.session.perform", "repro.serve.session", "ClientSession", "perform", "gen"),
    ("serve.admission.admit", "repro.serve.tenancy", "AdmissionController", "admit", "gen"),
    ("serve.loadgen.pool_run", "repro.serve.loadgen", "ClientPool", "run", "gen"),
    ("fleet.store.put", "repro.fleet.store", "FleetStore", "put", "gen"),
    ("fleet.store.get", "repro.fleet.store", "FleetStore", "get", "gen"),
    ("fleet.recovery.rebuild_all", "repro.fleet.recovery", "RecoveryManager", "rebuild_all", "gen"),
    ("fleet.supervisor.evaluate", "repro.fleet.supervisor", "FleetSupervisor", "evaluate", "call"),
    ("tsdb.append", "repro.tsdb.store", "TimeSeriesStore", "append", "call"),
)

#: The modules of the program, one layer each, in report order.
LAYERS = (
    "sim", "storage", "drives", "media", "mechanics", "plc", "udf",
    "olfs", "serve", "fleet", "tsdb",
)

#: The engine's own host time: Engine.run/run_process not covered by
#: any layer span.
ENGINE_SPANS = ("sim.engine.run", "sim.engine.run_process")


class Tracer:
    """Records spans into parallel arrays and keeps per-name totals."""

    def __init__(self):
        self.names = [entry[0] for entry in ENTRY_POINTS]
        self._patched: list[tuple[type, str, object]] = []
        self.clear()

    def clear(self) -> None:
        """Forget every span and total (called when the measured phase
        starts, with no span open)."""
        self.starts = array("q")
        self.ends = array("q")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack: list[list[int]] = []  # [span id, start, child ns]
        count = len(self.names)
        self.calls = [0] * count
        self.resumes = [0] * count
        self.self_ns = [0] * count

    # -- spans ---------------------------------------------------------
    def begin(self, name_id: int) -> None:
        span_id = len(self.starts)
        stack = self._stack
        start = perf_counter_ns()
        self.starts.append(start)
        self.ends.append(0)
        self.name_ids.append(name_id)
        self.parents.append(stack[-1][0] if stack else -1)
        stack.append([span_id, start, 0])

    def end(self) -> None:
        now = perf_counter_ns()
        span_id, start, child_ns = self._stack.pop()
        self.ends[span_id] = now
        duration = now - start
        self.self_ns[self.name_ids[span_id]] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration

    # -- patching ------------------------------------------------------
    def install(self) -> "Tracer":
        for name_id, (_, module, owner, attribute, kind) in enumerate(
            ENTRY_POINTS
        ):
            cls = getattr(importlib.import_module(module), owner)
            raw = inspect.getattr_static(cls, attribute)
            function = getattr(raw, "__func__", raw)
            if inspect.isgeneratorfunction(function) != (kind == "gen"):
                raise TypeError(
                    f"{module}.{owner}.{attribute} is not a {kind} entry"
                )
            wrapped = self._wrap(function, name_id, kind)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._patched.append((cls, attribute, raw))
            setattr(cls, attribute, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patched:
            cls, attribute, raw = self._patched.pop()
            setattr(cls, attribute, raw)

    def _wrap(self, function, name_id: int, kind: str):
        tracer = self
        if kind == "gen":

            def traced_generator(*args, **kwargs):
                tracer.calls[name_id] += 1
                return _ResumeProxy(function(*args, **kwargs), tracer, name_id)

            return traced_generator

        def traced_call(*args, **kwargs):
            tracer.calls[name_id] += 1
            tracer.begin(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end()

        return traced_call

    # -- results -------------------------------------------------------
    def entry_totals(self) -> dict[str, dict]:
        return {
            name: {
                "calls": self.calls[index],
                "resumes": self.resumes[index],
                "self_s": self.self_ns[index] / 1e9,
            }
            for index, name in enumerate(self.names)
        }

    def layer_self_s(self) -> dict[str, float]:
        layers = {layer: 0.0 for layer in LAYERS}
        for index, name in enumerate(self.names):
            layers[name.split(".", 1)[0]] += self.self_ns[index] / 1e9
        return layers

    def save(self, path) -> None:
        """Write every span as gzipped JSON lines: a header naming the
        entry points, then ``[id, name index, start ns, end ns, parent
        id]`` per span (parent -1 for a root)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for span_id in range(len(self.starts)):
                out.write(
                    f"[{span_id},{self.name_ids[span_id]},"
                    f"{self.starts[span_id]},{self.ends[span_id]},"
                    f"{self.parents[span_id]}]\n"
                )


class _ResumeProxy:
    """Generator stand-in that opens one span per resume."""

    __slots__ = ("_generator", "_tracer", "_name_id")

    def __init__(self, generator, tracer: Tracer, name_id: int):
        self._generator = generator
        self._tracer = tracer
        self._name_id = name_id

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.resumes[self._name_id] += 1
        tracer.begin(self._name_id)
        try:
            return self._generator.send(value)
        finally:
            tracer.end()

    def throw(self, *args):
        tracer = self._tracer
        tracer.resumes[self._name_id] += 1
        tracer.begin(self._name_id)
        try:
            return self._generator.throw(*args)
        finally:
            tracer.end()

    def close(self):
        return self._generator.close()
