"""Canonical end-to-end scenarios measured in wall-clock seconds.

Three workloads chosen to exercise different layers of the stack:

``cold_read``
    Write a batch of files, burn them, evict the cache and read one back
    through the full robotic fetch path (the Table-1 latency scenario).
``longevity_slice``
    A slice of ``benchmarks/bench_longevity.py``: burn a small vault,
    age every disc with the seeded sector-error model for a few periods
    and re-read everything (drives the parity-repair read path).
``chaos_campaign``
    One seeded fault-injection campaign (``repro chaos``) — the heaviest
    consumer of the engine, tracing and fault subsystems together.
``serve``
    One multi-tenant serving run (``repro serve``): three client fleets
    through the 10GbE link and the admission controller — the scenario
    that stresses the bandwidth sharing and event-wakeup machinery.
``fleet``
    One (scaled-down) multi-site fleet campaign (``repro fleet``):
    erasure-coded placement over 12 racks, aggregate-pooled clients,
    a site destroyed mid-run and rebuilt by the recovery manager —
    stresses the pooling refactor and the shard fan-out paths.
``fleet_monitor``
    The monitored fleet campaign (``repro fleet-monitor``): the
    ``fleet`` shape plus per-rack telemetry agents replicating into the
    central TSDB and the closed-loop supervisor — tracks the telemetry
    pipeline's overhead on top of the bare fleet.
``serve_xl``
    The sharded-event-loop XL serving campaign (``repro.serve.xl``):
    eight racks, ~32k requests (13x the ``serve`` scenario), vectorized
    arrivals, cross-rack reads over the conservative-window mailbox —
    the scenario the ``--shards`` matrix and the events/s figures in
    ``BENCH_engine.json`` track.

Each scenario is a zero-argument callable returning a small stats dict;
the harness owns the timing, so the same callables feed both
``repro bench`` (wall-clock) and ``repro profile`` (cProfile).
"""

from __future__ import annotations

from typing import Callable, Dict


def _small_ros(**kwargs):
    # Mirrors the test-suite rack: tiny buckets so burns finish in
    # simulated minutes while still crossing every layer.
    from repro import OLFSConfig, ROS, units

    config = OLFSConfig(
        data_discs_per_array=3, parity_discs_per_array=1
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    return ROS(
        config=config,
        roller_count=1,
        buffer_volume_capacity=200 * units.MB,
        **kwargs,
    )


def scenario_cold_read(monitor: bool = False) -> dict:
    ros = _small_ros(tracing=monitor, monitoring=monitor)
    for index in range(9):
        ros.write(f"/perf/file-{index}.bin", bytes([index + 1]) * 9000)
    ros.flush()
    path = "/perf/file-0.bin"
    ros.cache.evict(ros.stat(path)["locations"][0])
    result = ros.read(path)
    ros.drain_background()
    stats = {
        "source": result.source,
        "sim_seconds": round(ros.now, 3),
        "read_seconds": round(result.total_seconds, 3),
    }
    if monitor:
        from repro.obs import build_report

        stats["run_report"] = build_report(
            ros, monitor=ros.monitor, recorder=ros.recorder
        )
    return stats


def scenario_longevity_slice(periods: int = 3, aging_rate: float = 1e-3) -> dict:
    from repro.media.errors_model import SectorErrorModel
    from repro.sim.rng import DeterministicRNG

    ros = _small_ros()
    payloads = {}
    for index in range(12):
        path = f"/vault/f{index:02d}.bin"
        payloads[path] = bytes([index + 1]) * 20000
        ros.write(path, payloads[path])
    ros.flush()

    model = SectorErrorModel(
        DeterministicRNG(7).child("aging"), sector_error_rate=aging_rate
    )
    errors = 0
    for _ in range(periods):
        for roller in ros.mech.rollers:
            for tray in roller.trays.values():
                for disc in tray.discs():
                    if disc.tracks:
                        errors += model.age_disc(disc)

    readable = 0
    for path, payload in payloads.items():
        image = ros.stat(path)["locations"][0]
        ros.cache.evict(image)
        try:
            if ros.read(path).data == payload:
                readable += 1
        except Exception:  # noqa: BLE001 - unreadable file is the datum
            continue
    return {
        "files": len(payloads),
        "readable": readable,
        "sector_errors": errors,
        "sim_seconds": round(ros.now, 3),
    }


def scenario_chaos_campaign(
    seed: int = 42, ops: int = 120, monitor: bool = False
) -> dict:
    from repro.faults.campaign import run_campaign

    report = run_campaign(seed, ops, monitor=monitor)
    stats = {
        "seed": seed,
        "ops": ops,
        "fault_events": len(report["fault_events"]),
        "invariants_ok": all(inv["ok"] for inv in report["invariants"]),
        "sim_seconds": round(report["final_time"], 3),
    }
    if monitor:
        stats["run_report"] = {
            "monitor": report["monitor"],
            "flight_recorder": report["flight_recorder"],
        }
    return stats


def scenario_serve(seed: int = 42, duration_s: float = 30.0) -> dict:
    from repro.serve import run_serve

    report = run_serve(
        seed, duration_s=duration_s, prepopulate=9, include_events=True
    )
    ops = report["totals"]["ops"]
    events = report["events_issued"]
    return {
        "seed": seed,
        "ops": ops,
        "ok": report["totals"]["ok"],
        "rejected": report["totals"]["rejected"],
        "admission_ok": report["admission_audit"]["ok"],
        "sim_seconds": round(report["duration_s"], 3),
        "events": events,
        "events_per_op": round(events / ops, 1) if ops else 0.0,
    }


def scenario_serve_xl(
    seed: int = 42, shards: int = 1, duration_s: float = 100.0
) -> dict:
    """The XL serving campaign: ~13x the ``serve`` scenario's volume.

    ``shards`` picks the event-loop layout; the campaign report is
    byte-identical for every value, so the stats here differ only in
    ``wall_seconds`` (and the harness-computed events/s).
    """
    from repro.serve.xl import run_serve_xl

    report = run_serve_xl(seed, shards=shards, duration_s=duration_s)
    ops = report["totals"]["ops"]
    events = report["events_issued"]
    return {
        "seed": seed,
        "shards": shards,
        "ops": ops,
        "ok": report["totals"]["ok"],
        "failed": report["totals"]["failed"],
        "remote": report["totals"]["remote"],
        "sim_seconds": round(report["final_time"], 3),
        "events": events,
        "events_per_op": round(events / ops, 1) if ops else 0.0,
    }


def scenario_fleet_monitor(seed: int = 42, duration_s: float = 10.0) -> dict:
    """The monitored fleet campaign: telemetry agents + supervisor.

    Same fleet shape as ``fleet`` (12 racks, aggregate pooling) plus 15
    telemetry agents replicating over the site links and the closed-loop
    supervisor — the overhead the <10% events guard in
    ``tests/test_fleet_monitor.py`` tracks against the agent-free run.
    """
    from repro.fleet.monitor import run_fleet_monitor

    report = run_fleet_monitor(seed, duration_s=duration_s)
    return {
        "seed": seed,
        "ops": sum(t["ops"] for t in report["tenants"].values()),
        "remediations": report["remediations"],
        "points_ingested": report["telemetry"]["central"]["points_ingested"],
        "shards_rebuilt": report["recovery"]["shards_rebuilt"],
        "bytes_lost": report["bytes_lost"],
        "invariants_ok": all(i["ok"] for i in report["invariants"]),
        "sim_seconds": round(report["final_time"], 3),
        "events": report["events_issued"],
    }


def scenario_fleet(seed: int = 42, duration_s: float = 10.0) -> dict:
    from repro.fleet import run_fleet

    report = run_fleet(
        seed,
        sites=3,
        racks_per_site=4,
        clients=30_000,
        duration_s=duration_s,
        objects=12,
        arrival_rate=40.0,
    )
    return {
        "seed": seed,
        "ops": sum(t["ops"] for t in report["tenants"].values()),
        "shards_rebuilt": report["recovery"]["shards_rebuilt"],
        "bytes_lost": report["bytes_lost"],
        "invariants_ok": all(i["ok"] for i in report["invariants"]),
        "sim_seconds": round(report["final_time"], 3),
        "events": report["events_issued"],
    }


SCENARIOS: Dict[str, Callable[[], dict]] = {
    "cold_read": scenario_cold_read,
    "longevity_slice": scenario_longevity_slice,
    "chaos_campaign": scenario_chaos_campaign,
    "serve": scenario_serve,
    "fleet": scenario_fleet,
    "fleet_monitor": scenario_fleet_monitor,
    "serve_xl": scenario_serve_xl,
}

#: Scenarios that accept ``monitor=True`` to attach a repro.obs run report.
MONITORABLE = frozenset({"cold_read", "chaos_campaign"})


def run_scenarios(
    names: list[str] | None = None, monitor: bool = False
) -> Dict[str, dict]:
    """Run scenarios by name (all by default); stats dict per scenario."""
    import time

    selected = names or list(SCENARIOS)
    results: Dict[str, dict] = {}
    for name in selected:
        fn = SCENARIOS[name]
        start = time.perf_counter()
        stats = fn(monitor=True) if monitor and name in MONITORABLE else fn()
        wall = time.perf_counter() - start
        entry = {"wall_seconds": round(wall, 4), **stats}
        # Scenarios that report their engine event count get a derived
        # wall-clock events/s — the number the sharding work moves.
        if wall > 0 and "events" in stats:
            entry["events_per_sec"] = round(stats["events"] / wall)
        results[name] = entry
    return results
