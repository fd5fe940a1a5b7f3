"""Decades-scale preservation campaigns and the loss-rate verdict.

``run_preserve(seed, ...)`` compresses a preservation decade-scale
timeline into one simulated run: a two-rack replicated cluster is
populated with a seeded archive, every disc then ages on an accelerated
clock (optionally with a chaos fault storm and an accelerated-aging
shock on top), while — when enabled — the background scrubber patrols
each rack, the anti-entropy auditor compares and repairs replicas
across racks, and old arrays are migrated onto fresh media.  The final
verdict evicts every cache and reads each archived file back from
media, counting what survived, and reduces the damage to the headline
preservation metric: **bytes lost per exabyte-decade**.

Everything derives from the one seed, so a campaign is a pure function
of its arguments and its JSON report is byte-reproducible; the CLI
(``python -m repro preserve``) runs each configuration twice and fails
on any byte difference.
"""

from __future__ import annotations

from repro import units
from repro.errors import ROSError
from repro.faults.invariants import (
    check_audit_convergence,
    check_engine_drained,
    check_metadata_consistency,
    check_spans,
)
from repro.faults.plan import FaultPlan
from repro.media.errors_model import SectorErrorModel
from repro.olfs.config import OLFSConfig
from repro.preserve.aging import AgingClock
from repro.preserve.audit import AntiEntropyAuditor
from repro.preserve.scrubber import BackgroundScrubber
from repro.sim.engine import Delay
from repro.sim.rng import DeterministicRNG
from repro.sim.tracing import Tracer

#: campaign clock: this many simulated seconds cover ``years``
CAMPAIGN_SECONDS = 600.0

#: aging ticker period (decay lands in steps, not one cliff)
TICK_PERIOD = 30.0

#: anti-entropy round period during the campaign window
AUDIT_PERIOD = 150.0

#: year-zero sector hazard of campaign media (elevated so that a
#: simulation-scale archive actually decays within ``years``; the
#: paper-rate reliability math lives in repro.reliability).  Tuned so an
#: unattended archive loses data within three decades while the damage
#: accumulating between patrol scrubs stays within one array's parity.
CAMPAIGN_SECTOR_ERROR_RATE = 1.8e-4

#: hazard growth per year of disc age (media degrade faster when old)
CAMPAIGN_GROWTH_PER_YEAR = 0.35

#: arrays whose oldest disc passes this age are migrated to fresh media
MIGRATE_AFTER_YEARS = 18.0


def _build_cluster(seed: int):
    """The campaign cluster: two chaos-sized racks, one replica."""
    from repro.cluster import RackCluster

    config = OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=1,
        open_buckets=2,
        read_cache_images=2,
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    cluster = RackCluster(
        rack_count=2,
        replicas=1,
        config=config,
        roller_count=1,
        buffer_volume_capacity=200 * units.MB,
    )
    tracer = Tracer(cluster.engine, seed=seed)
    cluster.engine.trace = tracer
    for rack in cluster.racks:
        rack.tracer = tracer
    return cluster, tracer


def _populate(cluster, rng, files: int) -> dict:
    """Seeded archive: ``files`` files written through the namespace."""
    acked: dict[str, bytes] = {}
    for index in range(files):
        path = f"/archive/f{index:04d}.bin"
        size = 6000 + rng.integers(0, 18000)
        pattern = rng.bytes(16)
        data = (pattern * (size // len(pattern) + 1))[:size]
        try:
            cluster.write(path, data)
        except ROSError:
            continue
        acked[path] = data
    try:
        cluster.flush()
    except ROSError:
        pass
    for rack in cluster.racks:
        rack.settle()
    return acked


def _repair_rack(rack) -> None:
    """Post-storm administration (no scrubbing — that is the feature
    under test, not part of the baseline repair)."""
    from repro.plc import Calibrate

    for index in range(len(rack.mech.plc.suites)):
        rack.run(
            rack.mech.channel.send(Calibrate(index)), "preserve-calibrate"
        )
    rack.run(rack.mech.reset_after_fault(), "preserve-mech-reset")
    rack.btm._claimed.clear()
    try:
        rack.flush(wait=False)
    except ROSError:
        pass
    rack.settle()


def _evict_everything(rack) -> None:
    """Drop every cached/buffered copy so the verdict reads real media."""
    for image_id in list(rack.cache.cached_ids):
        try:
            rack.cache.evict(image_id)
        except ROSError:
            # A cached image superseded mid-campaign (scrub migration
            # marked it lost); its MV entries point elsewhere already.
            pass
    file_cache = getattr(rack.ftm, "file_cache", None)
    if file_cache is not None:
        from repro.olfs.prefetch import FileGrainCache

        rack.ftm.file_cache = FileGrainCache(file_cache.capacity_bytes)
    for image_id in sorted(rack.dim.records):
        record = rack.dim.records[image_id]
        if record.state == "burned" and record.image is not None:
            rack.dim.evict_content(image_id)


def _verdict(cluster, acked: dict, years: float) -> dict:
    """Read every archived file back from media; reduce to the metric.

    Plain per-holder reads — no scrub, no parity rescue, no repair: the
    verdict measures what the *campaign* preserved, not what a heroic
    recovery could still salvage afterwards.
    """
    stored_bytes = sum(len(data) for data in acked.values())
    copies = cluster.replicas + 1
    bytes_lost = 0
    files_lost = []
    copy_losses = 0
    copies_checked = 0
    for path in sorted(acked):
        expected = acked[path]
        survivors = 0
        for index in cluster._alive(cluster.placement(path)):
            copies_checked += 1
            try:
                data = cluster.racks[index].read(path).data
            except ROSError:
                copy_losses += 1
                continue
            if data != expected:
                copy_losses += 1
                continue
            survivors += 1
        if survivors == 0:
            bytes_lost += len(expected)
            files_lost.append(path)
    for rack in cluster.racks:
        rack.settle()
    decades = years / 10.0
    per_exabyte_decade = (
        0.0
        if stored_bytes == 0 or decades == 0
        else bytes_lost / stored_bytes * 1e18 / decades
    )
    return {
        "files": len(acked),
        "stored_bytes": stored_bytes,
        "copies": copies,
        "copies_checked": copies_checked,
        "copy_losses": copy_losses,
        "files_lost": files_lost,
        "bytes_lost": bytes_lost,
        "bytes_lost_per_exabyte_decade": round(per_exabyte_decade, 6),
    }


def run_preserve(
    seed: int,
    files: int = 12,
    years: float = 30.0,
    intensity: float = 1.0,
    scrub: bool = True,
    audit: bool = True,
    migrate: bool = True,
    faults: bool = True,
    scrub_rate_bytes: float = 4 * units.MB,
) -> dict:
    """One preservation campaign; returns the (JSON-safe) report dict."""
    rng = DeterministicRNG(seed).child("preserve")
    plan = None
    if faults:
        # Drawn over [0, CAMPAIGN_SECONDS] relative time, then shifted
        # onto the campaign window once populate has finished — the
        # storm tests preservation under load, not archive ingestion.
        plan = FaultPlan.randomized(
            rng.child("plan"),
            CAMPAIGN_SECONDS,
            intensity=intensity,
            preserve=True,
        )

    cluster, tracer = _build_cluster(seed)
    engine = cluster.engine

    models = [
        SectorErrorModel(
            rng.child(f"media-{index}"),
            sector_error_rate=CAMPAIGN_SECTOR_ERROR_RATE,
            growth_per_year=CAMPAIGN_GROWTH_PER_YEAR,
        )
        for index in range(len(cluster.racks))
    ]
    clocks = [
        AgingClock(rack, model, years_per_second=years / CAMPAIGN_SECONDS)
        for rack, model in zip(cluster.racks, models)
    ]

    acked = _populate(cluster, rng.child("workload"), files)
    paths = sorted(acked)

    # The campaign window starts once the archive is burned; the aging
    # clocks then cover exactly ``years`` over CAMPAIGN_SECONDS.
    t0 = engine.now
    horizon = t0 + CAMPAIGN_SECONDS

    injector = None
    if plan is not None:
        from repro.faults.injector import FaultInjector

        plan = plan.shifted(t0)
        injector = (
            FaultInjector(engine, plan, seed=seed)
            .bind(cluster.racks[0])
            .install()
        )
        for clock in clocks:
            injector.bind_aging(clock)
        injector.start()
    for clock in clocks:
        clock.tick()  # register every disc's birth at t0

    def ticker():
        while engine.now < horizon:
            yield Delay(min(TICK_PERIOD, horizon - engine.now))
            for clock in clocks:
                clock.tick()

    engine.spawn(ticker(), name="preserve-aging-ticker")

    scrubbers = []
    if scrub:
        for index, rack in enumerate(cluster.racks):
            scrubber = BackgroundScrubber(
                rack,
                rate_bytes=scrub_rate_bytes,
                clock=clocks[index],
                migrate_after_years=(
                    MIGRATE_AFTER_YEARS if migrate else None
                ),
            )
            scrubbers.append(scrubber)
            engine.spawn(
                scrubber.run(horizon), name=f"preserve-scrubber-{index}"
            )

    auditor = None
    if audit:
        auditor = AntiEntropyAuditor(cluster)
        engine.spawn(
            auditor.run(paths, horizon, AUDIT_PERIOD),
            name="preserve-auditor",
        )

    engine.run(until=horizon)
    # Apply the last slice of decay, then freeze the clocks: the
    # post-horizon tail must not age the media further, so every
    # configuration accumulates the exact same dose.
    for clock in clocks:
        clock.tick()
        clock.freeze()
    if injector is not None:
        injector.stop()
    # Let in-flight scrubs/audits finish and the fault tail drain.
    for rack in cluster.racks:
        rack.settle()
    for rack in cluster.racks:
        _repair_rack(rack)

    # The campaign ends as it ran: one last patrol (parity-repairs the
    # final decay slice) and one last anti-entropy round (restores any
    # copy a whole rack lost), when those features are on.  The clocks
    # are frozen, so neither adds damage.
    if scrubbers:
        for index, scrubber in enumerate(scrubbers):
            engine.run_process(
                scrubber.scrub_pass(), f"preserve-final-scrub-{index}"
            )
        for rack in cluster.racks:
            rack.settle()
    final_audit = None
    if auditor is not None:
        final_audit = engine.run_process(
            auditor.audit_round(paths), "preserve-final-audit"
        )
        for rack in cluster.racks:
            rack.settle()

    invariants = [
        check_engine_drained(cluster.racks[0]),
        check_spans(cluster.racks[0]),
    ]
    for rack in cluster.racks:
        invariants.append(check_metadata_consistency(rack))
    if auditor is not None:
        invariants.append(check_audit_convergence(cluster, paths))

    for rack in cluster.racks:
        _evict_everything(rack)
    verdict = _verdict(cluster, acked, years)

    from repro.obs.slo import PRESERVE_SLOS, evaluate

    slo_violations = evaluate(PRESERVE_SLOS, tracer.spans)

    ok = all(inv["ok"] for inv in invariants)
    report = {
        "seed": seed,
        "files": files,
        "years": years,
        "intensity": intensity,
        "config": {
            "scrub": scrub,
            "audit": audit,
            "migrate": migrate,
            "faults": faults,
        },
        "horizon": round(horizon, 6),
        "campaign_start": round(t0, 6),
        "final_time": round(engine.now, 6),
        "plan": [spec.to_dict() for spec in plan] if plan else [],
        "fault_events": injector.log if injector is not None else [],
        "aging": [clock.health() for clock in clocks],
        "scrub": [scrubber.health() for scrubber in scrubbers],
        "audit": auditor.health() if auditor is not None else None,
        "final_audit": final_audit,
        "invariants": invariants,
        "slo_violations": slo_violations,
        "verdict": verdict,
        "ok": ok,
    }
    return report
