"""Operator console: ``python -m repro <command>``.

Inspection tooling over the models — no persistent state, every command
builds what it needs and prints a report:

    demo         end-to-end write -> burn -> robotic fetch walkthrough
    mechanics    Table-3 load/unload times for any layer
    burncurve    Figure-8/10 speed curves for 25/100 GB media
    stacks       Figure-6 throughput of every frontend configuration
    tco          the §2.1 cost comparison, with adjustable scenario
    reliability  §4.7 array error rates and §4.2 MV sizing
    power        §5.1 power corner points
    trace        run a traced scenario, print the span tree, export JSON
    monitor      run a scenario under full monitoring, emit the run report
    chaos        seeded fault-injection campaign with invariant checks
    serve        multi-tenant serving load run with QoS percentile report
    preserve     decades-scale preservation campaign, loss-rate verdict
    fleet        multi-site fleet campaign: site loss, recovery, I8 audit
    fleet-monitor  telemetry agents + closed-loop supervisor, I9 audit
    bench        engine events/s + scenario wall-clock, perf-gate check
    profile      cProfile a scenario or microbench, top-N hotspots
"""

from __future__ import annotations

import argparse
import sys

from repro import units


def _print_rows(rows: list[dict]) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    widths = {
        key: max(len(str(key)), *(len(str(row.get(key, ""))) for row in rows))
        for key in keys
    }
    print("  ".join(str(key).ljust(widths[key]) for key in keys))
    for row in rows:
        print("  ".join(str(row.get(key, "")).ljust(widths[key]) for key in keys))


def cmd_demo(_args) -> int:
    from repro import ROS, OLFSConfig

    config = OLFSConfig(
        data_discs_per_array=3, parity_discs_per_array=1
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    ros = ROS(config=config, roller_count=1,
              buffer_volume_capacity=200 * units.MB)
    print("writing 9 files ...")
    for index in range(9):
        ros.write(f"/demo/file-{index}.bin", bytes([index]) * 9000)
    print("burning ...")
    ros.flush()
    status = ros.status()
    print(f"arrays used: {status['arrays']['Used']}, "
          f"sim clock {ros.now / 60:.1f} min")
    path = "/demo/file-0.bin"
    ros.cache.evict(ros.stat(path)["locations"][0])
    result = ros.read(path)
    print(f"cold read via {result.source}: {result.total_seconds:.1f} s "
          f"(first byte {result.first_byte_seconds * 1e3:.1f} ms)")
    return 0


def cmd_mechanics(args) -> int:
    from repro.mechanics.timing import DEFAULT_TIMINGS

    rows = []
    for layer in args.layers:
        fraction = layer / 84.0
        rows.append(
            {
                "layer": layer,
                "load_s": round(DEFAULT_TIMINGS.load_total(fraction), 2),
                "unload_s": round(DEFAULT_TIMINGS.unload_total(fraction), 2),
                "load_parallel_s": round(
                    DEFAULT_TIMINGS.load_total(fraction, parallel=True), 2
                ),
            }
        )
    _print_rows(rows)
    return 0


def cmd_burncurve(args) -> int:
    from repro.drives.speed import FailSafeCurve, ZonedCAVCurve
    from repro.media.disc import BD25, BD100

    if args.disc == 25:
        curve, capacity = ZonedCAVCurve(), BD25.capacity
    else:
        curve, capacity = FailSafeCurve(seed=5), BD100.capacity
    rows = [
        {
            "progress": f"{p:.0%}",
            "speed_x": round(curve.speed_multiple(p / 1.0), 2),
            "mb_s": round(
                curve.speed_multiple(p) * units.BLU_RAY_1X / units.MB, 1
            ),
        }
        for p in [i / 10 for i in range(11)]
    ]
    _print_rows(rows)
    print(f"total burn: {curve.burn_seconds(capacity):.0f} s, "
          f"average {curve.average_multiple(capacity):.2f}X")
    return 0


def cmd_stacks(_args) -> int:
    from repro.frontend import CONFIGURATIONS, make_stack

    base = make_stack("ext4")
    rows = []
    for name in CONFIGURATIONS:
        stack = make_stack(name)
        read, write = stack.normalized(base)
        rows.append(
            {
                "config": name,
                "read_mb_s": round(stack.read_throughput() / units.MB, 1),
                "write_mb_s": round(stack.write_throughput() / units.MB, 1),
                "norm_read": round(read, 3),
                "norm_write": round(write, 3),
            }
        )
    _print_rows(rows)
    return 0


def cmd_tco(args) -> int:
    from repro.reliability.tco import TCOInputs, compare_all

    inputs = TCOInputs(
        capacity_pb=args.capacity_pb, horizon_years=args.years
    )
    rows = []
    for name, data in compare_all(inputs).items():
        rows.append(
            {
                "media": name,
                "total_k$": round(data["total"] / 1000, 1),
                "vs_optical": round(data["vs_optical"], 2),
            }
        )
    print(f"scenario: {args.capacity_pb} PB for {args.years} years")
    _print_rows(rows)
    return 0


def cmd_reliability(_args) -> int:
    from repro.reliability import (
        mv_capacity_bytes,
        raid5_array_error_rate,
        raid6_array_error_rate,
    )

    print(f"11+1 array error rate: {raid5_array_error_rate():.2e}")
    print(f"10+2 array error rate: {raid6_array_error_rate():.2e}")
    print(f"MV for 1B files + 1B dirs: "
          f"{mv_capacity_bytes() / units.TB:.2f} TB")
    return 0


def cmd_power(_args) -> int:
    from repro.power import PowerModel

    print(f"idle power: {PowerModel.idle_power_w():.0f} W")
    print(f"peak power: {PowerModel.peak_power_w():.0f} W")
    return 0


#: Scenarios ``python -m repro trace`` / ``python -m repro monitor`` can run.
TRACE_SCENARIOS = ("cold-read", "write-burn", "ops")


def _small_traced_ros(seed: int, monitoring: bool = False,
                      monitor_period: float = 5.0):
    from repro import ROS, OLFSConfig

    config = OLFSConfig(
        data_discs_per_array=3, parity_discs_per_array=1
    ).scaled_for_tests(bucket_capacity=64 * 1024)
    return ROS(
        config=config,
        roller_count=1,
        buffer_volume_capacity=200 * units.MB,
        tracing=True,
        trace_seed=seed,
        monitoring=monitoring,
        monitor_period=monitor_period,
    )


def _run_scenario(ros, scenario: str) -> str:
    """Drive one canonical scenario; returns its headline summary line."""
    tracer = ros.tracer
    if scenario == "cold-read":
        for index in range(3):
            ros.write(f"/trace/file-{index}.bin", bytes([index]) * 9000)
        ros.flush()
        path = "/trace/file-0.bin"
        ros.cache.evict(ros.stat(path)["locations"][0])
        tracer.clear()
        result = ros.read(path)
        ros.drain_background()
        return (
            f"cold read served from {result.source} in "
            f"{result.total_seconds:.3f} s\n"
        )
    if scenario == "write-burn":
        tracer.clear()
        for index in range(3):
            ros.write(f"/trace/file-{index}.bin", bytes([index]) * 9000)
        ros.flush()
        ros.drain_background()
        return f"3 files written and burned in {ros.now:.1f} s (simulated)\n"
    # ops: the Figure-7 sequence, everything warm
    ros.mkdir("/trace")
    ros.write("/trace/warm.bin", b"w" * 4096)
    tracer.clear()
    ros.stat("/trace/warm.bin")
    ros.read("/trace/warm.bin")
    ros.readdir("/trace")
    return "stat/read/readdir on a warm file\n"


def cmd_trace(args) -> int:
    """Run one traced scenario end to end and report its span trees."""
    from repro.sim.tracing import to_chrome_trace, to_flat_json

    ros = _small_traced_ros(args.seed)
    tracer = ros.tracer
    print(_run_scenario(ros, args.scenario))

    for root in tracer.roots():
        print(tracer.render_tree(root))
        print()
    print(f"{len(tracer.spans)} spans recorded")
    snapshot = ros.metrics.snapshot()
    histograms = sum(
        1 for value in snapshot.values() if isinstance(value, dict)
    )
    print(f"metrics: {len(snapshot)} registered "
          f"({len(snapshot) - histograms} counters/gauges, "
          f"{histograms} histograms)")

    if args.out:
        if args.format == "prom":
            from repro.obs import to_prometheus

            exported = to_prometheus(ros.metrics)
        else:
            exporter = (
                to_chrome_trace if args.format == "chrome" else to_flat_json
            )
            exported = exporter(tracer)
        with open(args.out, "w") as handle:
            handle.write(exported)
        print(f"wrote {args.format} trace to {args.out}")
    return 0


def cmd_monitor(args) -> int:
    """Run a scenario under full monitoring; emit the run report."""
    from repro.obs import build_report, render_report, report_json

    ros = _small_traced_ros(
        args.seed, monitoring=True, monitor_period=args.period
    )
    print(_run_scenario(ros, args.scenario))

    report = build_report(ros, monitor=ros.monitor, recorder=ros.recorder)
    print(render_report(report))

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report_json(report) + "\n")
        print(f"wrote run report to {args.out}")
    if args.flight_out:
        count = ros.recorder.dump(args.flight_out)
        print(f"wrote {count} flight-recorder events to {args.flight_out}")

    slo = report.get("monitor", {}).get("slo")
    violations = slo["violation_count"] if slo else 0
    if violations:
        print(f"SLO VIOLATIONS: {violations}")
        return 1
    return 0


def replay(run, runs: int, flight_out: str | None) -> tuple[str, bool]:
    """Run a seeded campaign ``runs`` times (at least once); byte-compare.

    ``run(flight_out)`` returns one report dict.  Only run 0 gets
    ``flight_out``: one dump of a deterministic run is all anyone needs,
    and the dump path is popped from every report so it never enters
    the compared bytes.  Returns run 0's canonical JSON and whether
    every run matched it.
    """
    from repro.obs import report_json

    outputs = []
    for index in range(max(1, runs)):
        report = run(flight_out if index == 0 else None)
        dump = report.pop("flight_dump", None)
        if index == 0 and dump:
            print(f"wrote flight-recorder dump to {dump}")
        outputs.append(report_json(report))
    return outputs[0], all(out == outputs[0] for out in outputs[1:])


def _write_out(path: str | None, text: str, indent: str = "") -> None:
    if path:
        with open(path, "w") as handle:
            handle.write(text)
        print(f"{indent}wrote report to {path}")


def _determinism_violation() -> int:
    print("DETERMINISM VIOLATION: reports differ across identical runs")
    return 1


def _failed_invariants(report: dict) -> int:
    for inv in report["invariants"]:
        if not inv["ok"]:
            print(f"FAILED {inv['invariant']}: {inv['detail']}")
    return 1


def cmd_chaos(args) -> int:
    """Run a seeded chaos campaign (twice, by default) and audit it.

    The same seed must produce a byte-identical report every time; any
    divergence or invariant violation is a non-zero exit.
    """
    import json

    from repro.faults.campaign import run_campaign

    text, identical = replay(
        lambda flight_out: run_campaign(
            args.seed,
            args.ops,
            intensity=args.intensity,
            monitor=args.monitor,
            flight_out=flight_out,
            serve=args.serve,
            fleet=args.fleet,
        ),
        args.campaigns,
        args.flight_out,
    )
    report = json.loads(text)
    runs = max(1, args.campaigns)

    print(f"chaos campaign: seed={args.seed} ops={args.ops} "
          f"intensity={args.intensity} (x{runs} runs)")
    print(f"  plan: {len(report['plan'])} fault specs, "
          f"{len(report['fault_events'])} injector events, "
          f"sim clock {report['final_time'] / 60:.1f} min")
    workload = report["workload"]
    print(f"  workload: {workload['writes']} writes "
          f"({workload['write_errors']} failed), {workload['reads']} reads "
          f"({workload['read_errors']} failed), {workload['flushes']} flushes"
          f" -> {report['acked_files']} files acknowledged")
    for inv in report["invariants"]:
        mark = "ok" if inv["ok"] else "VIOLATED"
        print(f"  invariant {inv['invariant']}: {mark} "
              f"(checked {inv['detail'].get('checked', '-')})")
    serve_section = report.get("serve")
    if serve_section is not None:
        outcomes = serve_section["outcomes"]
        print(f"  serving: {serve_section['ops']} session ops "
              f"({outcomes.get('ok', 0)} ok, "
              f"{outcomes.get('rejected', 0)} rejected, "
              f"{outcomes.get('timeout', 0)} timed out, "
              f"{outcomes.get('link_down', 0)} link-down, "
              f"{outcomes.get('disconnected', 0)} disconnected), "
              f"{serve_section['link']['drops']} link drops")
    monitor_section = report.get("monitor")
    if monitor_section is not None:
        slo = monitor_section.get("slo") or {}
        recorder = report.get("flight_recorder", {})
        print(f"  monitor: {monitor_section['samples']} health samples, "
              f"{slo.get('violation_count', 0)} SLO violation(s), "
              f"{recorder.get('recorded', 0)} flight events")
    _write_out(args.out, text, indent="  ")
    if not identical:
        return _determinism_violation()
    if report["workload_violations"]:
        print(f"MID-CAMPAIGN VIOLATIONS: {report['workload_violations']}")
        return 1
    if not report["ok"]:
        return _failed_invariants(report)
    print(f"  all {len(report['invariants'])} invariants hold; "
          f"{runs} runs byte-identical")
    return 0


def cmd_serve(args) -> int:
    """Run the multi-tenant serving harness and print the QoS report.

    Runs the identical experiment ``--runs`` times and byte-compares the
    canonical reports — the determinism contract ``python -m repro
    chaos`` enforces, extended to serving.
    """
    import json

    from repro.serve import render_text, run_serve

    if args.xl:
        return _cmd_serve_xl(args)
    text, identical = replay(
        lambda flight_out: run_serve(
            args.seed,
            duration_s=args.duration,
            prepopulate=args.prepopulate,
            backend=args.backend,
            faults=args.faults,
            max_inflight=args.max_inflight,
            flight_out=flight_out,
        ),
        args.runs,
        args.flight_out,
    )
    report = json.loads(text)

    print(render_text(report))
    _write_out(args.out, text)
    if not identical:
        return _determinism_violation()
    if not report["totals"]["ops"]:
        print("EMPTY RUN: no operations were issued")
        return 1
    if not report["admission_audit"]["ok"]:
        print(f"ADMISSION AUDIT FAILED: "
              f"{report['admission_audit']['detail']}")
        return 1
    missed = [
        name for name, entry in report["tenants"].items()
        if entry.get("slo_met") is False
    ]
    if missed:
        print(f"SLO MISSED by: {', '.join(missed)}")
        return 1
    return 0


def _cmd_serve_xl(args) -> int:
    """Run the sharded XL campaign; byte-compare runs *and* layouts.

    With ``--shards N > 1`` the same campaign is re-run single-shard and
    the canonical reports must match byte for byte — the sharded event
    loop's determinism contract, checked from the operator console.
    """
    import json

    from repro.serve.xl import run_serve_xl

    def one(shards: int, runs: int) -> tuple[str, bool]:
        return replay(
            lambda _flight_out: run_serve_xl(
                args.seed, racks=args.racks, shards=shards,
                duration_s=args.duration,
            ),
            runs,
            None,
        )

    text, identical = one(args.shards, args.runs)
    layout_ok = args.shards <= 1 or one(1, 1)[0] == text
    report = json.loads(text)
    totals = report["totals"]
    print(f"serve-xl: seed={args.seed} racks={args.racks} "
          f"shards={args.shards} duration={args.duration:.0f}s")
    print(f"  ops={totals['ops']} ok={totals['ok']} "
          f"failed={totals['failed']} remote={totals['remote']} "
          f"events={report['events_issued']}")
    outages = [name for name, entry in report["racks"].items()
               if entry["outage"]]
    print(f"  outages: {', '.join(outages) if outages else 'none'}")
    _write_out(args.out, text)
    if not identical:
        return _determinism_violation()
    if not layout_ok:
        print(f"SHARD-LAYOUT VIOLATION: shards={args.shards} report "
              f"differs from the single-shard report")
        return 1
    if not totals["ops"]:
        print("EMPTY RUN: no operations were issued")
        return 1
    return 0


def cmd_preserve(args) -> int:
    """Run a preservation campaign (twice, by default) and audit it.

    The same seed must produce a byte-identical report every time.  With
    ``--compare`` the same campaign also runs with scrub/audit/migration
    disabled, and the run fails unless the preservation machinery made
    the loss-rate metric strictly better (or kept a lossless archive
    lossless).
    """
    import json

    from repro.preserve import run_preserve

    text, identical = replay(
        lambda _flight_out: run_preserve(
            args.seed,
            files=args.files,
            years=args.years,
            intensity=args.intensity,
            scrub=not args.no_scrub,
            audit=not args.no_audit,
            migrate=not args.no_migrate,
            faults=not args.no_faults,
        ),
        args.runs,
        None,
    )
    report = json.loads(text)
    runs = max(1, args.runs)

    verdict = report["verdict"]
    print(f"preserve campaign: seed={args.seed} files={args.files} "
          f"years={args.years} intensity={args.intensity} "
          f"(x{runs} runs)")
    print(f"  config: scrub={report['config']['scrub']} "
          f"audit={report['config']['audit']} "
          f"migrate={report['config']['migrate']} "
          f"faults={report['config']['faults']}")
    print(f"  plan: {len(report['plan'])} fault specs, "
          f"{len(report['fault_events'])} injector events, "
          f"sim clock {report['final_time'] / 60:.1f} min")
    for index, aging in enumerate(report["aging"]):
        print(f"  rack {index} aging: {aging['discs_tracked']} discs to "
              f"{aging['max_age_years']:.1f} years "
              f"({aging['shocks']} shock(s), "
              f"{aging['newly_bad_total']} sectors decayed)")
    for index, scrub in enumerate(report["scrub"]):
        print(f"  rack {index} scrub: {scrub['passes']} passes, "
              f"{scrub['arrays_scrubbed']} arrays, "
              f"{scrub['errors_found']} errors found, "
              f"{scrub['images_repaired']} repaired, "
              f"{scrub['images_migrated']} migrated")
    audit = report.get("audit")
    if audit is not None:
        print(f"  audit: {audit['rounds']} rounds, "
              f"{audit['repairs']} cross-rack repairs, "
              f"{audit['unreadable']} unreadable copies seen")
    for inv in report["invariants"]:
        mark = "ok" if inv["ok"] else "VIOLATED"
        print(f"  invariant {inv['invariant']}: {mark}")
    print(f"  verdict: {verdict['bytes_lost']} / "
          f"{verdict['stored_bytes']} bytes lost "
          f"({len(verdict['files_lost'])} files) -> "
          f"{verdict['bytes_lost_per_exabyte_decade']:.3g} "
          f"bytes lost per exabyte-decade")

    _write_out(args.out, text, indent="  ")
    if not identical:
        return _determinism_violation()
    if not report["ok"]:
        return _failed_invariants(report)
    if args.compare:
        baseline = run_preserve(
            args.seed,
            files=args.files,
            years=args.years,
            intensity=args.intensity,
            scrub=False,
            audit=False,
            migrate=False,
            faults=not args.no_faults,
        )
        base_metric = baseline["verdict"]["bytes_lost_per_exabyte_decade"]
        metric = verdict["bytes_lost_per_exabyte_decade"]
        print(f"  unattended baseline: "
              f"{baseline['verdict']['bytes_lost']} bytes lost -> "
              f"{base_metric:.3g} per exabyte-decade")
        improved = metric < base_metric or (metric == 0 and base_metric == 0)
        if not improved:
            print("NO PRESERVATION BENEFIT: metric not strictly below "
                  "the unattended baseline")
            return 1
    print(f"  all {len(report['invariants'])} invariants hold; "
          f"{runs} runs byte-identical")
    return 0


def cmd_fleet(args) -> int:
    """Run a fleet campaign (twice, by default) and audit it.

    ``fleet`` and ``fleet-monitor`` differ only in their defaults; the
    latter turns on the telemetry agents and the closed-loop supervisor
    and adds I9 ("remediation converges").  Non-zero exit on any
    divergence between runs, invariant violation, lost byte, or — with
    telemetry and the rack-loss fault on — an empty remediation log (a
    campaign where the closed loop never closed proves nothing).
    """
    import json

    from repro.fleet import render_text, run_fleet

    text, identical = replay(
        lambda flight_out: run_fleet(
            args.seed,
            sites=args.sites,
            racks_per_site=args.racks_per_site,
            clients=args.clients,
            duration_s=args.duration,
            objects=args.objects,
            arrival_rate=args.arrival_rate,
            rack_loss=not args.no_rack_loss,
            site_loss=args.site_loss,
            telemetry=args.telemetry,
            flight_out=flight_out,
        ),
        args.runs,
        args.flight_out,
    )
    report = json.loads(text)

    print(render_text(report))
    _write_out(args.out, text)
    if not identical:
        return _determinism_violation()
    if not report["ok"]:
        _failed_invariants(report)
        if report["bytes_lost"]:
            print(f"BYTES LOST: {report['bytes_lost']}")
        return 1
    if args.telemetry and not args.no_rack_loss and not report["remediations"]:
        print("NO REMEDIATION: rack loss was injected but the supervisor "
              "never fired an action")
        return 1
    print(f"all {len(report['invariants'])} invariants hold, "
          f"{report['remediations']} remediation action(s), 0 bytes lost; "
          f"{max(1, args.runs)} runs byte-identical")
    return 0


def cmd_bench(args) -> int:
    """Engine microbenches (events/s) + scenario wall-clock, with a gate."""
    from repro.perf.harness import (
        append_trajectory,
        gate_check,
        load_baseline,
        run_benchmarks,
    )

    entry = run_benchmarks(
        scale=args.scale,
        repeats=args.repeats,
        scenarios=not args.no_scenarios,
        monitor=args.monitor,
    )
    if args.label:
        entry["label"] = args.label

    rows = [
        {"microbench": name, "events_per_sec": value}
        for name, value in entry["events_per_sec"].items()
    ]
    _print_rows(rows)
    for name, stats in entry.get("scenarios", {}).items():
        # Keep the (large) attached run report out of the trajectory file.
        report = stats.pop("run_report", None)
        print(f"scenario {name}: {stats['wall_seconds']:.3f} s wall "
              f"(sim {stats.get('sim_seconds', '-')} s)")
        if report is not None:
            monitor_section = report.get("monitor") or {}
            slo = monitor_section.get("slo") or {}
            print(f"  run report: {monitor_section.get('samples', 0)} health "
                  f"sample(s), {slo.get('violation_count', 0)} SLO "
                  f"violation(s)")

    if args.out:
        append_trajectory(entry, args.out)
        print(f"appended to {args.out}")

    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"perf gate SKIPPED: no baseline at {args.baseline}")
            return 0
        failures = gate_check(
            entry["events_per_sec"], baseline, tolerance=args.tolerance
        )
        if failures:
            for failure in failures:
                print(f"PERF GATE FAILED: {failure}")
            return 1
        print(f"perf gate ok (tolerance {args.tolerance:.0%} "
              f"below {args.baseline})")
    return 0


def cmd_profile(args) -> int:
    """cProfile one scenario or microbench and print the top-N hotspots."""
    from repro.perf.harness import profile_target

    try:
        report, stats = profile_target(args.target, top=args.top,
                                       scale=args.scale)
    except KeyError as error:
        print(error.args[0])
        return 2
    if stats:
        print(f"scenario stats: {stats}")
    print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ROS reproduction operator console",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="end-to-end walkthrough").set_defaults(
        handler=cmd_demo
    )

    mech = sub.add_parser("mechanics", help="Table-3 timings by layer")
    mech.add_argument(
        "--layers", type=int, nargs="+", default=[0, 42, 84]
    )
    mech.set_defaults(handler=cmd_mechanics)

    burn = sub.add_parser("burncurve", help="Figure-8/10 burn curves")
    burn.add_argument("--disc", type=int, choices=(25, 100), default=25)
    burn.set_defaults(handler=cmd_burncurve)

    sub.add_parser("stacks", help="Figure-6 stack throughput").set_defaults(
        handler=cmd_stacks
    )

    tco = sub.add_parser("tco", help="§2.1 cost comparison")
    tco.add_argument("--years", type=float, default=100.0)
    tco.add_argument("--capacity-pb", type=float, default=1.0)
    tco.set_defaults(handler=cmd_tco)

    sub.add_parser(
        "reliability", help="§4.7 error rates + §4.2 MV sizing"
    ).set_defaults(handler=cmd_reliability)

    sub.add_parser("power", help="§5.1 power corner points").set_defaults(
        handler=cmd_power
    )

    trace = sub.add_parser(
        "trace", help="trace a scenario and export spans as JSON"
    )
    trace.add_argument(
        "scenario",
        choices=TRACE_SCENARIOS,
        help="what to run under the tracer",
    )
    trace.add_argument("--out", help="write the exported trace here")
    trace.add_argument(
        "--format",
        choices=("chrome", "flat", "prom"),
        default="chrome",
        help="export format (chrome://tracing JSON, a flat span list, "
             "or Prometheus metrics exposition)",
    )
    trace.add_argument("--seed", type=int, default=0x7ACE)
    trace.set_defaults(handler=cmd_trace)

    monitor = sub.add_parser(
        "monitor", help="run a scenario under monitoring, emit the report"
    )
    monitor.add_argument(
        "--scenario",
        choices=TRACE_SCENARIOS,
        default="cold-read",
        help="what to run under the monitor (default cold-read)",
    )
    monitor.add_argument("--seed", type=int, default=0x7ACE)
    monitor.add_argument("--period", type=float, default=5.0,
                         help="health sampling period, simulated seconds")
    monitor.add_argument("--out", help="write the JSON run report here")
    monitor.add_argument("--flight-out",
                         help="dump the flight recorder (JSONL) here")
    monitor.set_defaults(handler=cmd_monitor)

    chaos = sub.add_parser(
        "chaos", help="seeded fault campaign + invariant audit"
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--ops", type=int, default=200,
                       help="workload operations per campaign")
    chaos.add_argument("--campaigns", type=int, default=2,
                       help="identical runs to byte-compare (default 2)")
    chaos.add_argument("--intensity", type=float, default=1.0,
                       help="fault-plan hazard multiplier")
    chaos.add_argument("--out", help="write the JSON report here")
    chaos.add_argument("--monitor", action="store_true",
                       help="attach run monitoring (health sampler, SLO "
                            "watchdog, flight recorder) to each campaign")
    chaos.add_argument("--flight-out",
                       help="flight-recorder dump path on invariant failure "
                            "(default chaos-flight-<seed>.jsonl)")
    chaos.add_argument("--serve", action="store_true",
                       help="run the campaign under a serving workload and "
                            "audit the fifth invariant (no admitted "
                            "request lost)")
    chaos.add_argument("--fleet", action="store_true",
                       help="co-host a multi-site fleet store, add "
                            "rack/site-loss faults and audit invariant I8 "
                            "(fleet recoverability)")
    chaos.set_defaults(handler=cmd_chaos)

    serve = sub.add_parser(
        "serve", help="multi-tenant serving load run + QoS report"
    )
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--duration", type=float, default=60.0,
                       help="serving horizon, simulated seconds")
    serve.add_argument("--runs", type=int, default=2,
                       help="identical runs to byte-compare (default 2)")
    serve.add_argument("--prepopulate", type=int, default=18,
                       help="files written before serving starts")
    serve.add_argument("--backend", choices=("olfs", "cluster"),
                       default="olfs",
                       help="single rack or a 2-rack replicated cluster")
    serve.add_argument("--faults", action="store_true",
                       help="run under a randomized fault plan (incl. "
                            "link flaps and client disconnects)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="admission controller inflight cap")
    serve.add_argument("--xl", action="store_true",
                       help="run the sharded XL campaign (repro.serve.xl) "
                            "instead of the single-rack QoS harness")
    serve.add_argument("--shards", type=int, default=1,
                       help="event-loop shards for --xl; >1 also "
                            "byte-compares against the single-shard report")
    serve.add_argument("--racks", type=int, default=8,
                       help="rack count for --xl (default 8)")
    serve.add_argument("--out", help="write the JSON report here")
    serve.add_argument("--flight-out",
                       help="dump the run's flight recorder (JSONL) here")
    serve.set_defaults(handler=cmd_serve)

    preserve = sub.add_parser(
        "preserve", help="decades-scale preservation campaign + verdict"
    )
    preserve.add_argument("--seed", type=int, default=7)
    preserve.add_argument("--files", type=int, default=12,
                          help="archive files written before the campaign")
    preserve.add_argument("--years", type=float, default=30.0,
                          help="simulated media-years the campaign covers")
    preserve.add_argument("--intensity", type=float, default=1.0,
                          help="fault-plan hazard multiplier")
    preserve.add_argument("--runs", type=int, default=2,
                          help="identical runs to byte-compare (default 2)")
    preserve.add_argument("--compare", action="store_true",
                          help="also run with scrub/audit/migration off and "
                               "require a strictly better loss metric")
    preserve.add_argument("--no-scrub", action="store_true",
                          help="disable the background scrubber")
    preserve.add_argument("--no-audit", action="store_true",
                          help="disable the cross-rack anti-entropy audit")
    preserve.add_argument("--no-migrate", action="store_true",
                          help="disable age-triggered media migration")
    preserve.add_argument("--no-faults", action="store_true",
                          help="aging only: no chaos fault storm")
    preserve.add_argument("--out", help="write the JSON report here")
    preserve.set_defaults(handler=cmd_preserve)

    for name, helps, defaults in (
        ("fleet", "multi-site fleet campaign + recovery + I8 audit",
         dict(racks_per_site=8, clients=105_000, duration=12.0,
              objects=18, arrival_rate=60.0, site_loss=True,
              telemetry=False)),
        ("fleet-monitor",
         "fleet telemetry pipeline + closed-loop supervisor, I9 audit",
         dict(racks_per_site=4, clients=24_000, duration=10.0,
              objects=12, arrival_rate=40.0, site_loss=False,
              telemetry=True)),
    ):
        fleet = sub.add_parser(name, help=helps)
        fleet.add_argument("--seed", type=int, default=7)
        fleet.add_argument("--sites", type=int, default=3,
                           help="failure-domain sites (default 3)")
        fleet.add_argument("--racks-per-site", type=int,
                           help=f"optical racks per site (default "
                                f"{defaults['racks_per_site']})")
        fleet.add_argument("--clients", type=int,
                           help="pooled open-loop clients across the fleet")
        fleet.add_argument("--duration", type=float,
                           help="serving horizon, simulated seconds")
        fleet.add_argument("--objects", type=int,
                           help="erasure-coded images pre-populated")
        fleet.add_argument("--arrival-rate", type=float,
                           help="per-site arrival rate, ops/second")
        fleet.add_argument("--runs", type=int, default=2,
                           help="identical runs to byte-compare (default 2)")
        fleet.add_argument("--no-rack-loss", action="store_true",
                           help="skip the early rack-destruction fault")
        if defaults["site_loss"]:
            fleet.add_argument("--no-site-loss", dest="site_loss",
                               action="store_false",
                               help="skip the mid-run whole-site destruction")
        else:
            fleet.add_argument("--site-loss", action="store_true",
                               help="also destroy a whole site mid-run")
        if defaults["telemetry"]:
            fleet.add_argument("--no-telemetry", dest="telemetry",
                               action="store_false",
                               help="baseline: same fleet, loss-event "
                                    "recovery, no agents and no supervisor")
        fleet.add_argument("--out", help="write the JSON report here")
        fleet.add_argument("--flight-out",
                           help="dump the run's flight recorder (JSONL) here")
        fleet.set_defaults(handler=cmd_fleet, **defaults)

    bench = sub.add_parser(
        "bench", help="engine events/s + scenario wall-clock, perf gate"
    )
    bench.add_argument("--repeats", "--repeat", type=int, default=3,
                       help="runs per microbench; best is kept (default 3) "
                            "— best-of-N is the noise defence, see "
                            "docs/performance.md")
    bench.add_argument("--scale", type=float, default=1.0,
                       help="multiplier on microbench event counts")
    bench.add_argument("--label", default="",
                       help="tag for this trajectory entry")
    bench.add_argument("--out", default="BENCH_engine.json",
                       help="trajectory file to append to "
                            "(default BENCH_engine.json; '' to skip)")
    bench.add_argument("--no-scenarios", action="store_true",
                       help="microbenches only, skip wall-clock scenarios")
    bench.add_argument("--monitor", action="store_true",
                       help="attach run monitoring to the scenarios and "
                            "print their run-report summaries")
    bench.add_argument("--check", action="store_true",
                       help="fail if events/s drops below the baseline gate")
    bench.add_argument("--baseline", default="benchmarks/perf/baseline.json",
                       help="committed baseline for --check")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional drop below baseline")
    bench.set_defaults(handler=cmd_bench)

    profile = sub.add_parser(
        "profile", help="cProfile a scenario or microbench, top-N hotspots"
    )
    profile.add_argument(
        "target",
        help="scenario (cold_read, longevity_slice, chaos_campaign, "
             "serve, fleet, fleet_monitor, serve_xl) or microbench "
             "(delay_chain, ping_pong, spawn_join, bandwidth_flows)",
    )
    profile.add_argument("--top", type=int, default=15,
                         help="number of hotspot rows (default 15)")
    profile.add_argument("--scale", type=float, default=1.0,
                         help="multiplier on microbench event counts")
    profile.set_defaults(handler=cmd_profile)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
