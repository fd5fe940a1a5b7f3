"""Chaos campaigns: randomized workloads under randomized fault plans.

``run_campaign(seed, ops)`` builds a small rack with a seeded
:class:`~repro.faults.plan.FaultPlan`, drives a randomized
write/read/flush workload against it while the injector fires drive,
disc, PLC, cache and crash faults, then repairs what an administrator
would repair (recalibrate, reset mechanics, re-flush, scrub) and checks
the four :mod:`repro.faults.invariants`.

Everything is derived from the one seed — the workload stream, the fault
plan, the injector's hazard draws and the tracer — so a campaign is a
pure function of ``(seed, ops, intensity)`` and its JSON report is
byte-reproducible.  The CLI (``python -m repro chaos``) runs the same
campaign twice and fails if the two reports differ.
"""

from __future__ import annotations

from repro import units
from repro.errors import ROSError
from repro.faults.invariants import check_all
from repro.faults.plan import FaultPlan
from repro.olfs.mechanical import ArrayState
from repro.sim.rng import DeterministicRNG

#: Mean think time between workload operations (simulated seconds).
THINK_MEAN_SECONDS = 2.0


def build_ros(seed: int, plan: FaultPlan, monitor: bool = False):
    """The campaign rack: the scaled-for-tests rig with tracing + faults."""
    from repro import OLFSConfig, ROS

    config = OLFSConfig(
        data_discs_per_array=3,
        parity_discs_per_array=1,
        open_buckets=2,
        read_cache_images=2,
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    return ROS(
        config=config,
        roller_count=1,
        buffer_volume_capacity=200 * units.MB,
        tracing=True,
        trace_seed=seed,
        fault_plan=plan,
        fault_seed=seed,
        monitoring=monitor,
    )


def _run_workload(ros, rng, ops: int, acked: dict) -> tuple[dict, list]:
    """Drive ``ops`` randomized operations; return (counters, violations).

    A write only enters ``acked`` once the POSIX layer returned — exactly
    the set of writes invariant I1 may hold the system to.  Reads verify
    against ``acked`` as they go; mismatches are violations immediately
    (an error return is merely an availability event, not data loss).
    """
    counters = {
        "writes": 0,
        "write_errors": 0,
        "reads": 0,
        "read_errors": 0,
        "read_mismatches": 0,
        "flushes": 0,
        "flush_errors": 0,
    }
    violations = []
    for op_index in range(ops):
        ros.engine.run(until=ros.now + rng.exponential(THINK_MEAN_SECONDS))
        roll = rng.uniform()
        if roll < 0.55 or not acked:
            path = f"/chaos/f{op_index:04d}.bin"
            size = 4000 + rng.integers(0, 28000)
            pattern = rng.bytes(16)
            data = (pattern * (size // len(pattern) + 1))[:size]
            counters["writes"] += 1
            try:
                ros.write(path, data)
                acked[path] = data
            except ROSError:
                counters["write_errors"] += 1
        elif roll < 0.90:
            path = rng.choice(sorted(acked))
            counters["reads"] += 1
            try:
                result = ros.read(path)
                if result.data != acked[path]:
                    counters["read_mismatches"] += 1
                    violations.append(
                        {"path": path, "problem": "mid-campaign mismatch"}
                    )
            except ROSError:
                counters["read_errors"] += 1
        else:
            counters["flushes"] += 1
            try:
                ros.flush(wait=False)
            except ROSError:
                counters["flush_errors"] += 1
    return counters, violations


def _start_serving(ros, rng, ops: int):
    """Attach a serving workload to the campaign rack (``--serve``).

    Two tenants' closed-loop sessions issue a *fixed* number of ops each
    (so they terminate regardless of the horizon) through the 10GbE link
    and the admission controller, while the baseline workload and the
    fault storm run underneath.  Returns everything the finish/audit
    phase needs.
    """
    from repro.serve.network import NetworkLink
    from repro.serve.session import ClientSession, OLFSBackend, ServeOp
    from repro.serve.tenancy import AdmissionController, TenantSpec
    from repro.sim.engine import Delay
    from repro.sim.tracing import MetricsRegistry

    engine = ros.engine
    link = NetworkLink(engine)
    admission = AdmissionController(
        engine,
        [
            TenantSpec(
                "interactive",
                rate_ops=20.0,
                rate_bytes=8 * units.MB,
                weight=4.0,
                deadline_s=10.0,
            ),
            TenantSpec("batch", weight=1.0, max_queue=32),
        ],
        max_inflight=4,
    )
    metrics = MetricsRegistry()
    backend = OLFSBackend(ros)
    ops_per_session = max(5, ops // 4)
    sessions = []
    processes = []

    def session_loop(session, session_rng):
        from repro.errors import SessionDisconnectedError

        written = []
        for op_index in range(ops_per_session):
            yield Delay(session_rng.exponential(THINK_MEAN_SECONDS))
            if written and session_rng.uniform() < 0.5:
                path, size = written[
                    session_rng.integers(0, len(written))
                ]
                op = ServeOp("read", path, float(size))
            else:
                size = 2000 + session_rng.integers(0, 14000)
                data = session_rng.bytes(16)
                data = (data * (size // len(data) + 1))[:size]
                path = (
                    f"/srv/{session.session_id}/f{op_index:04d}.bin"
                )
                op = ServeOp(
                    "write", path, float(size), data=data,
                    logical_size=size,
                )
            try:
                outcome = yield from session.perform(op)
            except SessionDisconnectedError:
                return
            if op.kind == "write" and outcome.status == "ok":
                written.append((op.path, size))

    for tenant, client in (
        ("interactive", 0), ("interactive", 1), ("batch", 0), ("batch", 1)
    ):
        session_id = f"{tenant}-{client}"
        session = ClientSession(
            engine, session_id, tenant, link, admission, backend, metrics
        )
        sessions.append(session)
        processes.append(
            engine.spawn(
                session_loop(session, rng.child(f"session-{session_id}")),
                name=f"serve-{session_id}",
            )
        )
    return {
        "link": link,
        "admission": admission,
        "sessions": sessions,
        "processes": processes,
    }


def _finish_serving(ros, serving: dict) -> dict:
    """Join the serving sessions and close admission; returns the summary."""
    from repro.sim.engine import AllOf

    pending = [
        process for process in serving["processes"] if not process.done
    ]
    if pending:
        def _join():
            yield AllOf(pending)

        ros.run(_join(), "serve-join")
    serving["admission"].close()
    outcomes: dict[str, int] = {}
    for session in serving["sessions"]:
        for status, count in session.outcomes.items():
            outcomes[status] = outcomes.get(status, 0) + count
    return {
        "ops": sum(outcomes.values()),
        "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
        "link": {
            "requests": serving["link"].requests,
            "responses": serving["link"].responses,
            "drops": serving["link"].drops,
        },
        "admission": {
            name: {
                key: round(value, 3) if isinstance(value, float) else value
                for key, value in sorted(stats.items())
            }
            for name, stats in sorted(
                serving["admission"].stats.items()
            )
        },
    }


def _repair(ros) -> None:
    """What the administrator does after the storm (§4.7 maintenance).

    Recalibrate every sensor suite, un-wedge the mechanics, re-burn
    whatever failed tasks left on the buffer, and scrub any array whose
    discs took sector damage so parity repair runs before the audit.
    """
    from repro.plc import Calibrate

    for index in range(len(ros.mech.plc.suites)):
        ros.run(ros.mech.channel.send(Calibrate(index)), "chaos-calibrate")
    ros.run(ros.mech.reset_after_fault(), "chaos-mech-reset")
    # Failed burn tasks keep their tray claims; release and retry them.
    ros.btm._claimed.clear()
    try:
        ros.flush(wait=False)
    except ROSError:
        pass
    ros.settle()
    for key in sorted(ros.mc.da_index):
        if ros.mc.da_index[key] is not ArrayState.USED:
            continue
        roller, address = key
        tray = ros.mech.rollers[roller].tray_at(address)
        if any(disc.bad_sectors for disc in tray.discs()):
            try:
                ros.run(ros.mi.scrub_array(roller, address), "chaos-scrub")
            except ROSError:
                pass
    ros.settle()


def _start_fleet(ros, rng):
    """Attach a small fleet rig to the campaign (``fleet=True``).

    A 3-site × 2-rack :class:`~repro.fleet.store.FleetStore` (2+2
    layout, so a whole-site loss costs at most the 2 parity shards)
    shares the campaign engine; the injector's ``rack.loss`` /
    ``site.loss`` specs reach it via ``bind_fleet`` and the
    :class:`~repro.fleet.recovery.RecoveryManager` rebuilds what they
    destroy while the baseline storm runs.  Returns what the audit
    phase needs.
    """
    from repro.fleet.recovery import RecoveryManager
    from repro.fleet.store import FleetStore
    from repro.fleet.topology import FleetTopology, Layout

    store = FleetStore(
        ros.engine,
        FleetTopology(sites=3, racks_per_site=2),
        Layout(k=2, m=2),
    )
    ros.fault_injector.bind_fleet(store)

    def populate():
        for index in range(6):
            size = 3000 + rng.integers(0, 20000)
            payload = rng.bytes(min(size, 4096))
            yield from store.put(f"/fleet/c{index:03d}.img", payload, size)

    ros.engine.run_process(populate(), "chaos-fleet-populate")
    manager = RecoveryManager(store)
    ros.engine.spawn(manager.run(), name="chaos-fleet-recovery")
    return {"store": store, "manager": manager}


def run_campaign(
    seed: int,
    ops: int,
    intensity: float = 1.0,
    monitor: bool = False,
    flight_out: str | None = None,
    serve: bool = False,
    fleet: bool = False,
) -> dict:
    """One full chaos campaign; returns the (JSON-safe) report dict.

    ``monitor=True`` attaches the :mod:`repro.obs` run monitoring — a
    flight recorder plus the periodic health sampler — and extends the
    report with ``monitor`` / ``flight_recorder`` sections.  When an
    invariant fails under monitoring, the flight recorder dumps its ring
    to ``flight_out`` (default ``chaos-flight-<seed>.jsonl``) so the
    events leading up to the failure survive the process.  The default
    (``monitor=False``) leaves both the run and the report byte-identical
    to an unmonitored build.

    ``serve=True`` runs the campaign *under a serving workload*: the
    plan gains the serving fault kinds (link flap, client disconnect),
    four client sessions push ops through the 10GbE link and the
    admission controller while the storm rages, and the audit adds the
    fifth invariant ("no admitted request lost").  The default
    (``serve=False``) run and report stay byte-identical to a build
    without the serving layer — the serve plan specs are drawn after
    every baseline draw and the serve report section is simply absent.

    ``fleet=True`` additionally co-hosts a small multi-site fleet store
    on the campaign engine: the plan gains ``rack.loss`` and
    ``site.loss`` (drawn after *every* other spec, so ``fleet=False``
    plans keep their exact byte sequence), the recovery manager rebuilds
    destroyed shards mid-storm, and the audit adds invariant I8
    ("fleet_recoverable").
    """
    horizon = max(600.0, ops * 5.0)
    rng = DeterministicRNG(seed).child("chaos")
    plan = FaultPlan.randomized(
        rng.child("plan"), horizon, intensity=intensity, serve=serve,
        fleet=fleet,
    )
    ros = build_ros(seed, plan, monitor=monitor)
    injector = ros.fault_injector

    fleet_rig = _start_fleet(ros, rng.child("fleet")) if fleet else None
    serving = _start_serving(ros, rng.child("serve"), ops) if serve else None

    acked: dict = {}
    counters, violations = _run_workload(
        ros, rng.child("workload"), ops, acked
    )
    # Let the tail of the fault schedule play out, then silence it so the
    # repair phase and the audit run on a quiet rack.
    if horizon > ros.now:
        ros.engine.run(until=horizon)
    injector.stop()
    serve_summary = (
        _finish_serving(ros, serving) if serving is not None else None
    )
    if fleet_rig is not None:
        # Let in-flight rebuild campaigns finish, then park the manager
        # so the I2 drain audit sees a quiet engine.
        ros.settle()
        fleet_rig["manager"].stop()
        ros.settle()
    _repair(ros)

    # Finish the monitor *before* the invariant audit: I2 demands a fully
    # drained engine, which the (perpetual) health sampler would deny.
    monitor_summary = ros.monitor.finish() if ros.monitor is not None else None

    invariants = check_all(ros, acked)
    if serving is not None:
        from repro.faults.invariants import check_no_admitted_request_lost

        invariants.append(
            check_no_admitted_request_lost(serving["admission"])
        )
    if fleet_rig is not None:
        from repro.faults.invariants import check_fleet_recoverable

        invariants.append(check_fleet_recoverable(fleet_rig["store"]))
    ok = not violations and all(inv["ok"] for inv in invariants)
    report = {
        "seed": seed,
        "ops": ops,
        "intensity": intensity,
        "horizon": horizon,
        "final_time": round(ros.now, 6),
        "plan": [spec.to_dict() for spec in plan],
        "fault_events": injector.log,
        "acked_files": len(acked),
        "workload": counters,
        "workload_violations": violations,
        "invariants": invariants,
        "ok": ok,
    }
    if serve_summary is not None:
        report["serve"] = serve_summary
    if fleet_rig is not None:
        report["fleet"] = {
            "store": fleet_rig["store"].health(),
            "recovery": fleet_rig["manager"].health(),
        }
    if monitor_summary is not None:
        report["monitor"] = monitor_summary
        report["flight_recorder"] = {
            "events": len(ros.recorder),
            "recorded": ros.recorder.recorded,
            "dropped": ros.recorder.dropped,
        }
        if not ok:
            dump_path = flight_out or f"chaos-flight-{seed}.jsonl"
            ros.recorder.dump(dump_path)
            report["flight_dump"] = dump_path
    return report
