"""The three benchmark workloads, run against the public ``repro`` API.

Each workload runs one fixed simulated input to completion (a host-side
batch) and returns a :class:`Batch`: host times of its set-up and
measured phases, the simulated results, the deterministic per-layer
counts and any correctness problems.  See ``README.md`` for why each
workload exists and which layers it loads.

Nothing here imports ``repro`` at module import time: ``run.py`` times
the imports as part of set-up.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

#: Simulated serving time of one ``ingest`` batch (seconds).
INGEST_DURATION_S = 15.0

#: ``recall`` vault: files written and burned in set-up, their size
#: range, and the read stream replayed against them.
RECALL_FILES = 1200
RECALL_FILE_BYTES = (4_000, 24_000)
RECALL_READS = 6000
#: Mean gap of the open-loop Poisson read stream (simulated seconds).
RECALL_MEAN_GAP_S = 400.0
#: Zipf exponent of file popularity; the ranking is one seeded shuffle.
RECALL_ZIPF_S = 1.0
#: Read cache size in disc images (the paper's default).
RECALL_CACHE_IMAGES = 4

#: Simulated serving time of one ``fleet_outage`` batch (seconds).
FLEET_DURATION_S = 60.0
#: Invariants the monitored fleet campaign must report, all ok: I9,
#: I8, the engine drained, and no admitted request lost.
FLEET_INVARIANTS = frozenset({
    "remediation_converges",
    "fleet_recoverable",
    "engine_drained",
    "no_admitted_request_lost",
})

#: Per-layer counts every workload reports (0 where a layer is unused),
#: with their units.
COUNT_UNITS = {
    "sim.events": "count",
    "sim.events_per_op": "count/op",
    "olfs.cache.hit_rate": "fraction",
    "olfs.cache.evictions": "count",
    "olfs.ftm.fetch_retries": "count",
    "plc.instructions": "count",
    "serve.admission.rejected": "count",
    "fleet.store.failovers": "count",
    "fleet.recovery.shards_rebuilt": "count",
    "tsdb.points_ingested": "count",
}


@dataclass
class Batch:
    """One finished batch of a workload."""

    setup_s: float
    run_s: float
    ops: int
    failed: int
    ok_bytes: float
    sim_seconds: float
    p50_s: float
    tail_s: float
    #: which percentile ``tail_s`` is, and how many latency samples
    tail_label: str
    samples: int
    counts: dict
    failures: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def simulated(self) -> dict:
        """Every simulated result: identical at equal seeds."""
        return {
            "ops": self.ops,
            "failed": self.failed,
            "ok_bytes": self.ok_bytes,
            "sim_seconds": self.sim_seconds,
            "p50_s": self.p50_s,
            "tail_s": self.tail_s,
            "tail_label": self.tail_label,
            "samples": self.samples,
            "failures": dict(sorted(self.failures.items())),
            "counts": self.counts,
            "problems": self.problems,
        }


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def tail_percentile(samples: int, offered=(99, 95, 90, 50)) -> Optional[int]:
    """Highest offered percentile with at least ten samples beyond it."""
    for percentile in offered:
        if samples - math.ceil(samples * percentile / 100) >= 10:
            return percentile
    return None


def nearest_rank(ordered: list, percentile: int) -> float:
    index = max(0, math.ceil(len(ordered) * percentile / 100) - 1)
    return ordered[index]


def _report_latency(entry: dict, samples: int) -> tuple[float, str]:
    """Tail latency out of a serve-style tenant entry (p50/p95/p99)."""
    percentile = tail_percentile(samples, offered=(99, 95, 50))
    if percentile is None:
        raise ValueError(f"{samples} latency samples: too few for a tail")
    return entry[f"p{percentile}_s"], f"p{percentile}"


def _outcome_problems(tenants: dict) -> list[str]:
    return [
        f"tenant {name}: outcomes sum to {sum(entry['outcomes'].values())},"
        f" ops {entry['ops']}"
        for name, entry in tenants.items()
        if sum(entry["outcomes"].values()) != entry["ops"]
    ]


def _failures(tenants: dict) -> dict:
    """Non-ok outcomes summed over tenants, by status."""
    failures = Counter()
    for entry in tenants.values():
        for status, count in entry["outcomes"].items():
            if status != "ok" and count:
                failures[status] += count
    return dict(failures)


def _counts(**values) -> dict:
    counts = dict.fromkeys(COUNT_UNITS, 0)
    for key, value in values.items():
        name = key.replace("__", ".")
        if name not in counts:
            raise KeyError(name)
        counts[name] = value
    return counts


# ----------------------------------------------------------------------
# Phase split for API calls that build their own system
# ----------------------------------------------------------------------
class PhaseClock:
    """Marks where an API call's measured phase begins.

    ``run_serve`` and ``run_fleet_monitor`` construct and pre-populate
    their system, then run the load as their last top-level
    ``Engine.run_process`` call.  This hook notes the host time at each
    top-level call; the last mark splits set-up from the measured phase.
    Installed outermost, so ``on_mark`` runs with no span open.
    """

    def __init__(self, on_mark: Optional[Callable[[], None]] = None):
        self.marks: list[float] = []
        self.on_mark = on_mark
        self._depth = 0
        self._original = None

    def __enter__(self) -> "PhaseClock":
        from repro.sim.engine import Engine

        original = self._original = Engine.run_process
        clock = self

        def run_process(engine, *args, **kwargs):
            if clock._depth == 0:
                clock.marks.append(perf_counter())
                if clock.on_mark is not None:
                    clock.on_mark()
            clock._depth += 1
            try:
                return original(engine, *args, **kwargs)
            finally:
                clock._depth -= 1

        Engine.run_process = run_process
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim.engine import Engine

        Engine.run_process = self._original

    def split(self, start: float, end: float) -> tuple[float, float]:
        if not self.marks:
            raise RuntimeError("the workload never ran the engine")
        return self.marks[-1] - start, end - self.marks[-1]


class _Captured:
    """Collects instances of ``cls`` built while the context is open."""

    def __init__(self, cls):
        self.cls = cls
        self.instances: list = []

    def __enter__(self) -> "_Captured":
        cls, instances = self.cls, self.instances
        self._init = init = cls.__init__

        def capturing_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            instances.append(obj)

        cls.__init__ = capturing_init
        return self

    def __exit__(self, *exc) -> None:
        self.cls.__init__ = self._init


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def run_ingest(seed: int, on_mark=None) -> Batch:
    from repro import ROS
    from repro.serve import run_serve

    with _Captured(ROS) as racks, PhaseClock(on_mark) as phase:
        start = perf_counter()
        report = run_serve(seed, duration_s=INGEST_DURATION_S, include_events=True)
        end = perf_counter()
    setup_s, run_s = phase.split(start, end)
    (ros,) = racks.instances

    problems = _outcome_problems(report["tenants"])
    if not report["admission_audit"]["ok"]:
        problems.append(f"admission audit: {report['admission_audit']['detail']}")
    totals = report["totals"]
    if totals["ops"] != sum(entry["ops"] for entry in report["tenants"].values()):
        problems.append("totals.ops differs from the tenant sum")

    gold = report["tenants"]["gold"]
    samples = gold["outcomes"]["ok"]
    tail_s, tail_label = _report_latency(gold, samples)
    cache = ros.cache.health()
    events = report["events_issued"]
    return Batch(
        setup_s=setup_s,
        run_s=run_s,
        ops=totals["ops"],
        failed=totals["ops"] - totals["ok"],
        ok_bytes=totals["ok_bytes"],
        sim_seconds=report["duration_s"],
        p50_s=gold["p50_s"],
        tail_s=tail_s,
        tail_label=tail_label,
        samples=samples,
        counts=_counts(
            sim__events=events,
            sim__events_per_op=events / totals["ops"],
            olfs__cache__hit_rate=cache["hit_rate"],
            olfs__cache__evictions=cache["evictions"],
            olfs__ftm__fetch_retries=ros.ftm.fetch_retries,
            plc__instructions=ros.mech.plc.health()["instructions_executed"],
            serve__admission__rejected=totals["rejected"],
        ),
        failures=_failures(report["tenants"]),
        problems=problems,
    )


# ----------------------------------------------------------------------
# recall
# ----------------------------------------------------------------------
@dataclass
class RecallInputs:
    """The vault's files and the read stream, made from the seed."""

    payloads: dict
    arrivals: list  # (gap seconds, path)


def recall_inputs(seed: int) -> RecallInputs:
    rng = random.Random(seed)
    payloads = {}
    for index in range(RECALL_FILES):
        size = rng.randint(*RECALL_FILE_BYTES)
        payloads[f"/vault/d{index % 16:02d}/f{index:05d}.bin"] = rng.randbytes(size)
    cumulative, total = [], 0.0
    for rank in range(len(payloads)):
        total += 1.0 / (rank + 1) ** RECALL_ZIPF_S
        cumulative.append(total)
    by_popularity = list(payloads)
    rng.shuffle(by_popularity)
    arrivals = []
    for _ in range(RECALL_READS):
        gap = rng.expovariate(1.0 / RECALL_MEAN_GAP_S)
        pick = bisect.bisect_left(cumulative, rng.random() * total)
        arrivals.append((gap, by_popularity[min(pick, len(by_popularity) - 1)]))
    return RecallInputs(payloads, arrivals)


def _recall_rack():
    from repro import ROS, OLFSConfig, units

    config = OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=1,
        read_cache_images=RECALL_CACHE_IMAGES,
    ).scaled_for_tests(bucket_capacity=64 * units.KB)
    return ROS(config=config, roller_count=1, buffer_volume_capacity=200 * units.MB)


def run_recall(seed: int, on_mark=None) -> Batch:
    from repro.errors import ROSError
    from repro.sim.engine import AllOf, Delay, Spawn

    start = perf_counter()
    inputs = recall_inputs(seed)
    ros = _recall_rack()
    for path, payload in inputs.payloads.items():
        ros.write(path, payload)
    ros.flush()
    ros.settle()
    setup_s = perf_counter() - start

    engine, pi = ros.engine, ros.pi
    cache0 = ros.cache.health()
    retries0 = ros.ftm.fetch_retries
    plc0 = ros.mech.plc.health()["instructions_executed"]
    events0 = engine.events_issued
    latencies: list[float] = []
    failures: Counter = Counter()
    state = {"ok_bytes": 0, "mismatched": 0, "late_s": 0.0, "end": 0.0}

    def read_one(path: str, due: float):
        try:
            result = yield from pi.read_file(path)
        except ROSError as error:
            failures[type(error).__name__] += 1
            return
        latencies.append(engine.now - due)
        if result.data == inputs.payloads[path]:
            state["ok_bytes"] += len(result.data)
        else:
            state["mismatched"] += 1

    def arrivals():
        due, readers = engine.now, []
        for number, (gap, path) in enumerate(inputs.arrivals):
            due += gap
            yield Delay(max(0.0, due - engine.now))
            state["late_s"] = max(state["late_s"], engine.now - due)
            readers.append((yield Spawn(read_one(path, due), f"recall-{number}")))
        yield AllOf(readers)
        state["end"] = engine.now

    if on_mark is not None:
        on_mark()
    began_sim = engine.now
    measured = perf_counter()
    ros.run(arrivals(), "recall-stream")
    ros.settle()
    run_s = perf_counter() - measured

    problems = []
    if state["mismatched"]:
        problems.append(f"{state['mismatched']} reads returned wrong bytes")
    if len(latencies) + sum(failures.values()) != RECALL_READS:
        problems.append("a read neither returned nor failed")
    if state["late_s"] > 0:
        problems.append(f"arrival generator ran {state['late_s']:.6f} s late")
    ordered = sorted(latencies)
    percentile = tail_percentile(len(ordered))
    if percentile is None:
        raise ValueError(f"{len(ordered)} reads succeeded: too few for a tail")
    cache = ros.cache.health()
    lookups = (cache["hits"] - cache0["hits"]) + (cache["misses"] - cache0["misses"])
    events = engine.events_issued - events0
    return Batch(
        setup_s=setup_s,
        run_s=run_s,
        ops=RECALL_READS,
        failed=sum(failures.values()),
        ok_bytes=float(state["ok_bytes"]),
        sim_seconds=state["end"] - began_sim,
        p50_s=nearest_rank(ordered, 50),
        tail_s=nearest_rank(ordered, percentile),
        tail_label=f"p{percentile}",
        samples=len(ordered),
        counts=_counts(
            sim__events=events,
            sim__events_per_op=events / RECALL_READS,
            olfs__cache__hit_rate=(
                (cache["hits"] - cache0["hits"]) / lookups if lookups else 0.0
            ),
            olfs__cache__evictions=cache["evictions"] - cache0["evictions"],
            olfs__ftm__fetch_retries=ros.ftm.fetch_retries - retries0,
            plc__instructions=(
                ros.mech.plc.health()["instructions_executed"] - plc0
            ),
        ),
        failures=dict(failures),
        problems=problems,
    )


# ----------------------------------------------------------------------
# fleet_outage
# ----------------------------------------------------------------------
def run_fleet_outage(seed: int, on_mark=None) -> Batch:
    from repro.fleet.monitor import run_fleet_monitor

    with PhaseClock(on_mark) as phase:
        start = perf_counter()
        report = run_fleet_monitor(seed, duration_s=FLEET_DURATION_S)
        end = perf_counter()
    setup_s, run_s = phase.split(start, end)

    problems = _outcome_problems(report["tenants"])
    checked = {invariant["invariant"] for invariant in report["invariants"]}
    for name in sorted(FLEET_INVARIANTS - checked):
        problems.append(f"invariant {name} was not checked")
    for invariant in report["invariants"]:
        if not invariant["ok"]:
            problems.append(f"invariant {invariant['invariant']} failed")
    if report["bytes_lost"] != 0:
        problems.append(f"{report['bytes_lost']} bytes lost")
    if not report["ok"]:
        problems.append("campaign report not ok")

    tenants = report["tenants"]
    ops = sum(entry["ops"] for entry in tenants.values())
    ok = sum(entry["outcomes"]["ok"] for entry in tenants.values())
    # The worst site: the highest tail latency, ties to the lowest name.
    worst = None
    for name in sorted(tenants):
        entry = tenants[name]
        tail_s, tail_label = _report_latency(entry, entry["outcomes"]["ok"])
        if worst is None or tail_s > worst[0]:
            worst = (tail_s, tail_label, name)
    tail_s, tail_label, site = worst
    events = report["events_issued"]
    return Batch(
        setup_s=setup_s,
        run_s=run_s,
        ops=ops,
        failed=ops - ok,
        ok_bytes=sum(entry["ok_bytes"] for entry in tenants.values()),
        sim_seconds=report["duration_s"],
        p50_s=tenants[site]["p50_s"],
        tail_s=tail_s,
        tail_label=tail_label,
        samples=tenants[site]["outcomes"]["ok"],
        counts=_counts(
            sim__events=events,
            sim__events_per_op=events / ops,
            serve__admission__rejected=sum(
                entry["outcomes"]["rejected"] for entry in tenants.values()
            ),
            fleet__store__failovers=report["store"]["stats"]["failovers"],
            fleet__recovery__shards_rebuilt=report["recovery"]["shards_rebuilt"],
            tsdb__points_ingested=report["telemetry"]["central"]["points_ingested"],
        ),
        failures=_failures(tenants),
        problems=problems,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    #: the ``repro`` module whose import is timed as part of set-up
    module: str
    run: Callable[..., Batch]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("ingest", "repro.serve", run_ingest),
        Workload("recall", "repro.olfs", run_recall),
        Workload("fleet_outage", "repro.fleet.monitor", run_fleet_outage),
    )
}
