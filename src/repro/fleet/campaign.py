"""Fleet campaigns: geo-distributed serving under rack/site loss.

``run_fleet(seed, ...)`` is the fleet-scale experiment in one call:
build a multi-site :class:`~repro.fleet.store.FleetStore` (tens of
racks), pre-populate it with erasure-coded disc images, attach one
10GbE link + one admission tenant per site, and drive 10⁵–10⁶ pooled
open-loop clients (:class:`~repro.serve.loadgen.ClientPool` aggregate
mode) through :class:`~repro.fleet.frontend.FleetBackend` adapters
while the fault injector destroys a rack and then an entire site.
The :class:`~repro.fleet.recovery.RecoveryManager` rebuilds lost
shards onto survivors concurrently with client traffic — woken by the
loss events themselves, or, with ``telemetry=True``, by the
closed-loop :class:`~repro.fleet.monitor.FleetMonitor` once the
telemetry shows the loss (``run_fleet_monitor`` is this runner with a
smaller monitored fleet as its defaults).

The audit asserts invariant I8 ("no durable image unrecoverable while
surviving shards ≥ k"), admission conservation (I5), engine drain
(I2's fleet analogue) and, with telemetry, I9 ("remediation
converges"); the verdict demands **zero bytes lost** — a destroyed site
may cost at most ``m`` shards of any object, so every acked image must
decode back byte-identically.

Everything derives from the one seed; a campaign is a pure function of
its arguments and its JSON report is byte-reproducible — the CLI
(``python -m repro fleet`` / ``fleet-monitor``) runs it twice and fails
on any diff.
"""

from __future__ import annotations

from typing import Generator

from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    _result,
    check_fleet_recoverable,
    check_no_admitted_request_lost,
    check_remediation_converges,
)
from repro.faults.plan import FaultPlan, RACK_LOSS, SITE_LOSS
from repro.fleet.frontend import FleetFrontend
from repro.fleet.monitor import GRACE_S, FleetMonitor
from repro.fleet.recovery import RecoveryManager
from repro.fleet.store import FleetStore
from repro.fleet.topology import FleetTopology, Layout
from repro.obs.recorder import FlightRecorder
from repro.serve.loadgen import ClientPool, FleetSpec
from repro.serve.network import NetworkLink
from repro.serve.session import LATENCY_BOUNDS, STATUSES
from repro.serve.tenancy import AdmissionController, TenantSpec
from repro.sim.engine import AllOf, Engine, Spawn
from repro.sim.rng import DeterministicRNG
from repro.sim.tracing import MetricsRegistry
from repro.workloads.generator import SIZE_PROFILES

#: in-simulation payload cap for pre-populated objects (wire sizes use
#: the declared logical size — same convention as the serve layer)
PAYLOAD_CAP = 64 * 1024

#: object size distribution (a ``SIZE_PROFILES`` key) and its cap, for
#: pre-populated images and client writes alike
PROFILE = "iot"
MAX_FILE_BYTES = 256 * 1024
#: share of client operations that are reads
READ_FRACTION = 0.8
#: admission controller inflight cap, shared by every site tenant
MAX_INFLIGHT = 32
#: loss-event recovery: how long after a loss the rebuild starts
DETECTION_DELAY_S = 0.5


def _prepopulate(
    engine: Engine,
    store: FleetStore,
    rng: DeterministicRNG,
    objects: int,
) -> list[tuple[str, int]]:
    """Seed the fleet with ``objects`` erasure-coded images; returns the
    shared read catalog ``[(path, declared_size)]`` the pools draw from."""
    mean, sigma = SIZE_PROFILES[PROFILE]
    catalog: list[tuple[str, int]] = []

    def populate() -> Generator:
        for index in range(objects):
            size = max(1, int(min(rng.lognormal(mean, sigma),
                                  MAX_FILE_BYTES)))
            payload = rng.bytes(min(size, PAYLOAD_CAP))
            path = f"/fleet/prepop/f{index:05d}.img"
            yield from store.put(path, payload, size)
            catalog.append((path, size))

    engine.run_process(populate(), "fleet-prepopulate")
    return catalog


def _tenant_summary(
    metrics: MetricsRegistry, admission: AdmissionController
) -> dict:
    """Per-site serving outcome summary (deterministic, rounded)."""
    tenants = {}
    for name in sorted(admission.tenants):
        stats = admission.stats[name]
        histogram = metrics.histogram(
            f"serve.latency_s.{name}", LATENCY_BOUNDS
        )
        counts = {
            status: int(metrics.counter(f"serve.ops.{name}.{status}").value)
            for status in STATUSES
        }
        tenants[name] = {
            "ops": sum(counts.values()),
            "outcomes": counts,
            "admitted": int(stats["admitted"]),
            "ok_bytes": round(
                metrics.counter(f"serve.bytes.{name}").value, 3
            ),
            "p50_s": round(histogram.quantile(0.50), 6),
            "p95_s": round(histogram.quantile(0.95), 6),
            "p99_s": round(histogram.quantile(0.99), 6),
        }
    return tenants


def run_fleet(
    seed: int,
    sites: int = 3,
    racks_per_site: int = 8,
    k: int = 4,
    m: int = 2,
    clients: int = 105_000,
    duration_s: float = 12.0,
    objects: int = 18,
    arrival_rate: float = 60.0,
    rack_loss: bool = True,
    site_loss: bool = True,
    telemetry: bool = False,
    flight_out: str | None = None,
) -> dict:
    """One fleet campaign; returns the (JSON-safe) report dict.

    ``clients`` is the whole fleet (split evenly across sites, remainder
    to site 0); ``arrival_rate`` is *per site* in ops/second.  With the
    defaults this serves 105 000 pooled clients over 24 racks in 3
    sites, loses one rack early and one whole site mid-run, and must
    end with every acked object decodable (I8) and zero bytes lost.

    ``telemetry=True`` replaces the loss-event recovery loop with a
    :class:`~repro.fleet.monitor.FleetMonitor` (agents + supervisor)
    that must detect the losses itself, and adds invariant I9.
    ``flight_out`` dumps the flight recorder (JSONL) to that path.
    """
    engine = Engine()
    recorder = FlightRecorder(engine).install()
    topology = FleetTopology(sites=sites, racks_per_site=racks_per_site)
    layout = Layout(k=k, m=m)
    store = FleetStore(engine, topology, layout)
    frontend = FleetFrontend(store)
    rng = DeterministicRNG(seed).child("fleet-monitor")

    catalog = _prepopulate(engine, store, rng.child("populate"), objects)

    # -- serving plumbing: one link + one tenant per site ---------------
    site_names = topology.site_names()
    links = {site: NetworkLink(engine) for site in site_names}
    admission = AdmissionController(
        engine,
        [TenantSpec(site, weight=1.0) for site in site_names],
        max_inflight=MAX_INFLIGHT,
    )
    metrics = MetricsRegistry()

    per_site = clients // sites
    fleets = []
    for index, site in enumerate(site_names):
        fleet_clients = per_site + (clients - per_site * sites
                                    if index == 0 else 0)
        fleets.append(
            FleetSpec(
                tenant=TenantSpec(site, weight=1.0),
                clients=max(1, fleet_clients),
                mode="open",
                arrival_rate=arrival_rate,
                read_fraction=READ_FRACTION,
                profile=PROFILE,
                max_file_bytes=MAX_FILE_BYTES,
                pooling="aggregate",
            )
        )

    # -- fault schedule: a rack early, a whole site mid-run -------------
    serve_start = engine.now
    t_end = serve_start + duration_s
    frng = rng.child("faults")
    plan = FaultPlan()
    if rack_loss:
        plan.add(
            RACK_LOSS, at=serve_start + duration_s * frng.uniform(0.15, 0.3)
        )
    if site_loss:
        plan.add(
            SITE_LOSS, at=serve_start + duration_s * frng.uniform(0.5, 0.65)
        )
    injector = (
        FaultInjector(engine, plan, seed=seed).bind_fleet(store).install()
    )
    injector.start()

    # -- repair: the closed loop, or the loss-event recovery loop --------
    manager = RecoveryManager(store, detection_delay_s=DETECTION_DELAY_S)
    monitor = None
    if telemetry:
        monitor = FleetMonitor(
            engine, store, links, metrics, manager,
            horizon_s=duration_s + GRACE_S,
        )
    else:
        engine.spawn(manager.run(), name="fleet-recovery")

    # -- the client fleets ----------------------------------------------
    serve_rng = rng.child("serve")

    def main() -> Generator:
        pools = []
        for index, fleet in enumerate(fleets):
            site = site_names[index]
            pool = ClientPool(
                engine, fleet, serve_rng, links[site], admission,
                frontend.backend(site), metrics, catalog, t_end,
            )
            pools.append((yield Spawn(pool.run(), f"pool-{site}")))
        yield AllOf(pools)

    # perfbench's PhaseClock splits set-up from run at the last top-level
    # run_process call, so serving must stay that call.
    engine.run_process(main(), "fleet-main")
    injector.stop()
    admission.close()
    engine.run()  # recovery campaigns; with telemetry, out to the horizon
    if monitor is not None:
        monitor.stop()
    manager.stop()
    engine.run()  # drain replicators, the parked manager, final rebuilds

    # -- audit -----------------------------------------------------------
    invariants = []
    if monitor is not None:
        invariants.append(
            check_remediation_converges(store, monitor.supervisor)
        )
    recoverable = check_fleet_recoverable(store)
    invariants += [
        recoverable,
        _result(
            "engine_drained",
            engine.is_idle,
            {"final_time": round(engine.now, 6)},
        ),
        check_no_admitted_request_lost(admission),
    ]
    lost_bytes = recoverable["detail"]["lost_bytes"]
    ok = all(inv["ok"] for inv in invariants) and lost_bytes == 0

    tenants = _tenant_summary(metrics, admission)
    sections = (
        monitor.sections() if monitor is not None
        else {"telemetry": {"enabled": False}, "supervisor": None,
              "remediations": 0}
    )
    report = {
        "seed": seed,
        "duration_s": round(duration_s, 6),
        "topology": topology.to_dict(),
        "layout": layout.to_dict(),
        "clients": clients,
        "pooling": "aggregate",
        "prepopulated": len(catalog),
        "serve_start": round(serve_start, 6),
        "final_time": round(engine.now, 6),
        "events_issued": engine.events_issued,
        "plan": [spec.to_dict() for spec in plan],
        "fault_events": injector.log,
        "tenants": tenants,
        "links": {
            site: {
                "requests": link.requests,
                "responses": link.responses,
                "drops": link.drops,
            }
            for site, link in sorted(links.items())
        },
        "store": store.health(),
        "recovery": manager.health(),
        **sections,
        "rollup": _site_rollup(store, monitor),
        "slo_burn": _slo_burn(tenants),
        "flight_recorder": {
            "events": len(recorder),
            "recorded": recorder.recorded,
            "dropped": recorder.dropped,
        },
        "invariants": invariants,
        "bytes_lost": lost_bytes,
        "ok": ok,
    }
    if flight_out:
        recorder.dump(flight_out)
        report["flight_dump"] = flight_out
    return report


def _site_rollup(store: FleetStore, monitor: FleetMonitor | None) -> dict:
    """Per-site health rollup as the *central store* sees the fleet —
    ground truth (`store`) and telemetry can disagree, and the gap
    (racks down vs racks merely silent) is the interesting part."""
    rollup: dict[str, dict] = {}
    for rack_id, rack in sorted(store.racks.items()):
        entry = rollup.setdefault(
            rack.site,
            {"racks": 0, "up": 0, "drained": 0, "reporting": 0,
             "reported_up": 0},
        )
        entry["racks"] += 1
        entry["up"] += 1 if rack.up else 0
        entry["drained"] += 1 if rack.drained else 0
        reported = (
            None if monitor is None
            else monitor.reported_up(rack_id, rack.site)
        )
        if reported is not None:
            entry["reporting"] += 1
            entry["reported_up"] += 1 if reported else 0
    return rollup


def _slo_burn(tenants: dict) -> list[dict]:
    """Per-site SLO burn rate, worst first: bad ops over total ops."""
    burns = []
    for name, entry in tenants.items():
        total = entry["ops"]
        bad = total - entry["outcomes"]["ok"]
        burns.append(
            {
                "site": name,
                "ops": total,
                "bad": bad,
                "burn": round(bad / total, 6) if total else 0.0,
            }
        )
    burns.sort(key=lambda entry: (-entry["burn"], entry["site"]))
    return burns


def render_text(report: dict) -> str:
    """Human-readable campaign summary."""
    topo = report["topology"]
    layout = report["layout"]
    telemetry = report["telemetry"]
    title = "fleet-monitor" if telemetry["enabled"] else "fleet"
    lines = [
        f"{title} report  seed={report['seed']}  "
        f"{topo['sites']}x{topo['racks_per_site']} racks  "
        f"layout {layout['k']}+{layout['m']}  "
        f"clients={report['clients']}",
        "",
        f"{'site':<10} {'ops':>7} {'ok':>7} {'failed':>7} "
        f"{'p50 s':>9} {'p99 s':>9} {'racks':>5} {'up':>3} "
        f"{'drained':>7} {'reporting':>9} {'burn':>8}",
    ]
    lines.append("-" * len(lines[-1]))
    burn_by_site = {entry["site"]: entry for entry in report["slo_burn"]}
    for name, entry in report["tenants"].items():
        rollup = report["rollup"][name]
        lines.append(
            f"{name:<10} {entry['ops']:>7} "
            f"{entry['outcomes']['ok']:>7} "
            f"{entry['outcomes']['failed']:>7} "
            f"{entry['p50_s']:>9.4f} {entry['p99_s']:>9.4f} "
            f"{rollup['racks']:>5} {rollup['up']:>3} "
            f"{rollup['drained']:>7} {rollup['reporting']:>9} "
            f"{burn_by_site[name]['burn']:>8.4f}"
        )
    if telemetry["enabled"]:
        central = telemetry["central"]
        tsdb = telemetry["store"]
        lines.append("")
        lines.append(
            f"telemetry: {central['points_ingested']} points in "
            f"{central['batches_ingested']} batches from "
            f"{central['agents_seen']} agents; store holds "
            f"{tsdb['live_points']} points / {tsdb['series']} series "
            f"({tsdb['shards_evicted']} shards evicted)"
        )
    supervisor = report["supervisor"]
    if supervisor is not None:
        lines.append("")
        lines.append(
            f"remediation: {len(supervisor['log'])} actions "
            f"({supervisor['fired']} fired, {supervisor['refired']} "
            f"refired, {supervisor['cleared']} cleared)"
        )
        for entry in supervisor["log"][:8]:
            lines.append(
                f"  t={entry['t']:<9} {entry['rule']:<16} "
                f"{entry['action']:<16} -> {entry['target']}"
            )
        if len(supervisor["log"]) > 8:
            lines.append(f"  ... {len(supervisor['log']) - 8} more")
    store = report["store"]
    recovery = report["recovery"]
    lines.append("")
    lines.append(
        f"store: {store['racks_up']}/{store['racks']} racks up, "
        f"{store['objects']} objects, "
        f"{store['lost_shards']} shards still lost"
    )
    lines.append(
        f"recovery: {recovery['campaigns']} campaigns, "
        f"{recovery['shards_rebuilt']} shards rebuilt, "
        f"{recovery['objects_unrecoverable']} objects unrecoverable"
    )
    for inv in report["invariants"]:
        status = "PASS" if inv["ok"] else "FAIL"
        lines.append(f"invariant {inv['invariant']}: {status}")
    lines.append(
        f"bytes lost: {report['bytes_lost']}  "
        f"verdict: {'OK' if report['ok'] else 'VIOLATION'}"
    )
    return "\n".join(lines)
