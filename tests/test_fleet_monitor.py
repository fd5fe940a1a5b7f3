"""Telemetry pipeline + closed-loop supervisor tests.

Three layers, matching the subsystem's delivery contract:

* **agents** — replication over a flaky simulated link: no acked batch
  is ever lost or double-applied (seq dedup turns an ack lost to a link
  flap into a retry, not a duplicate), bounded outboxes drop the oldest
  *unacked* batch under backpressure, and a dead source rack silences
  its agent instead of wedging it;
* **supervisor** — trigger-rule validation, breach latching, cooldown
  suppression, re-fires, and hysteresis clears, driven by hand against
  a real store on a real engine clock;
* **campaigns** — ``run_fleet_monitor`` on a small geometry: corpus
  byte-determinism, invariant I9 (remediation converges under rack
  loss), the telemetry-off baseline (byte-identical to the bare
  ``run_fleet`` at the same geometry), and the <10% engine-event
  overhead guard the perf ``fleet_monitor`` scenario tracks.
"""

import json

import pytest

from repro import units
from repro.errors import LinkDownError
from repro.fleet import render_text, run_fleet
from repro.fleet.monitor import run_fleet_monitor
from repro.fleet.supervisor import (
    KIND_ACTION,
    KIND_CLEAR,
    FleetSupervisor,
    TriggerRule,
)
from repro.fleet.telemetry import (
    CentralTelemetry,
    TelemetryAgent,
)
from repro.obs import report_json
from repro.preserve import BackgroundScrubber
from repro.serve.network import NetworkLink
from repro.sim.engine import Delay, Engine
from repro.tsdb import TimeSeriesStore
from tests.conftest import make_ros

CORPUS_SEEDS = [7, 11, 23, 42, 1337]

#: Small-but-real monitored geometry (mirrors tests/test_fleet.py).
SMALL = dict(
    sites=3,
    racks_per_site=2,
    k=2,
    m=2,
    clients=240,
    duration_s=4.0,
    objects=6,
    arrival_rate=18.0,
)


def advance(engine, dt):
    def proc():
        yield Delay(dt)

    engine.run_process(proc(), "advance")


class WindowFaults:
    """engine.faults stand-in: the site link is down over one window."""

    enabled = True

    def __init__(self, engine, start, stop):
        self.engine = engine
        self.start = start
        self.stop = stop

    def check(self, site, target=""):
        if site == "net.link" and self.start <= self.engine.now < self.stop:
            return {"site": site}
        return None


class ScriptedFaults:
    """engine.faults stand-in: fail the Nth link check(s), 1-indexed."""

    enabled = True

    def __init__(self, fail_calls):
        self.calls = 0
        self.fail_calls = set(fail_calls)

    def check(self, site, target=""):
        if site != "net.link":
            return None
        self.calls += 1
        if self.calls in self.fail_calls:
            return {"site": site}
        return None


def make_agent(engine, central=None, link=None, **overrides):
    central = central or CentralTelemetry()
    link = link or NetworkLink(engine)
    kwargs = dict(
        probes={"m.a": lambda: 1.0, "m.b": lambda: 2.0},
        labels={"rack": "s0.r00"},
        sample_period_s=0.5,
        flush_every=2,
        horizon_s=5.0,
    )
    kwargs.update(overrides)
    agent = TelemetryAgent(engine, "s0.r00", central, link, **kwargs)
    return agent, central, link


# ----------------------------------------------------------------------
# Agents: delivery semantics over the simulated link
# ----------------------------------------------------------------------
class TestTelemetryAgent:
    def test_healthy_link_delivers_every_sample(self):
        engine = Engine()
        agent, central, _link = make_agent(engine)
        agent.start()
        engine.run()
        agent.stop()
        engine.run()
        assert agent.stats["samples"] > 0
        assert central.stats["points_ingested"] == agent.stats["samples"]
        assert agent.stats["batches_acked"] == agent.stats["batches_sealed"]
        assert agent.outbox_depth == 0
        assert central.stats["duplicate_batches"] == 0
        # points land under the agent's labels at probe-sorted names
        assert central.store.latest("m.a", {"rack": "s0.r00"}) is not None

    def test_link_flap_costs_retries_never_acked_batches(self):
        engine = Engine()
        engine.faults = WindowFaults(engine, 1.0, 3.0)
        agent, central, link = make_agent(engine)
        agent.start()
        engine.run()
        agent.stop()
        engine.run()
        assert agent.stats["retries"] > 0
        assert link.drops > 0
        # outage healed inside the run: everything sealed got through,
        # exactly once, with nothing dropped from the outbox
        assert agent.stats["batches_acked"] == agent.stats["batches_sealed"]
        assert agent.stats["batches_dropped"] == 0
        assert central.stats["points_ingested"] == agent.stats["samples"]
        assert central.stats["duplicate_batches"] == 0

    def test_lost_ack_is_a_retry_not_a_duplicate(self):
        engine = Engine()
        # link checks: 1=request(ok) 2=respond(FAIL) 3=request 4=respond
        engine.faults = ScriptedFaults(fail_calls={2})
        agent, central, _link = make_agent(engine, horizon_s=1.2)
        agent.start()
        engine.run()
        agent.stop()
        engine.run()
        assert agent.stats["retries"] == 1
        # the replayed batch is recognised, not double-applied
        assert central.stats["duplicate_batches"] == 1
        assert central.stats["points_ingested"] == agent.stats["samples"]
        assert agent.stats["batches_acked"] == agent.stats["batches_sealed"]

    def test_outbox_overflow_drops_oldest_unacked(self):
        engine = Engine()
        engine.faults = WindowFaults(engine, 0.0, float("inf"))
        agent, central, _link = make_agent(
            engine,
            flush_every=1,
            max_outbox_batches=2,
            drain_retry_limit=2,
        )
        agent.start()
        # the replicator backs off forever against a dead link, so bound
        # the first drain instead of waiting for idle
        engine.run(until=6.0)
        agent.stop()
        engine.run()
        assert agent.stats["batches_dropped"] > 0
        assert agent.stats["points_dropped"] > 0
        # stopped + dead link: the unacked tail is abandoned, counted
        assert agent.stats["batches_abandoned"] > 0
        assert agent.outbox_depth == 0
        assert agent.stats["batches_acked"] == 0
        assert central.stats["points_ingested"] == 0

    def test_dead_source_skips_ticks_and_goes_silent(self):
        engine = Engine()
        up = {"value": True}
        agent, central, _link = make_agent(
            engine, source_up=lambda: up["value"], flush_every=1
        )
        agent.start()
        advance(engine, 1.1)
        up["value"] = False
        engine.run()
        agent.stop()
        engine.run()
        assert agent.stats["ticks_skipped"] > 0
        sampled_while_up = agent.stats["samples"]
        assert sampled_while_up > 0
        # nothing new was sampled after death; what was acked stays
        assert central.stats["points_ingested"] <= sampled_while_up
        newest = central.store.latest("m.a", {"rack": "s0.r00"})
        assert newest is not None and newest[0] <= 1.1

    def test_central_dedup_is_per_agent(self):
        central = CentralTelemetry()
        point = [("m", {"rack": "a"}, 0.0, 1.0)]
        assert central.ingest("a", 0, point)
        assert not central.ingest("a", 0, point)  # replay
        assert central.ingest("b", 0, [("m", {"rack": "b"}, 0.0, 1.0)])
        assert central.stats["duplicate_batches"] == 1
        assert central.stats["points_ingested"] == 2
        assert central.health()["agents_seen"] == 2

    def test_agent_parameter_validation(self):
        engine = Engine()
        with pytest.raises(ValueError):
            make_agent(engine, flush_every=0)
        with pytest.raises(ValueError):
            make_agent(engine, max_outbox_batches=0)


# ----------------------------------------------------------------------
# Trigger rules
# ----------------------------------------------------------------------
class TestTriggerRule:
    def test_mode_and_direction_validation(self):
        with pytest.raises(ValueError):
            TriggerRule("r", "s", "a", 1.0, mode="median")
        with pytest.raises(ValueError):
            TriggerRule("r", "s", "a", 1.0, direction="sideways")
        # hysteresis must sit inside the threshold
        with pytest.raises(ValueError):
            TriggerRule("r", "s", "a", 1.0, clear=2.0)
        with pytest.raises(ValueError):
            TriggerRule("r", "s", "a", 1.0, direction="below", clear=0.5)

    def test_breach_and_clear_levels(self):
        rule = TriggerRule("r", "s", "a", 1.0, clear=0.25)
        assert rule.breached(1.5) and not rule.breached(1.0)
        assert rule.cleared(0.25) and not rule.cleared(0.5)
        below = TriggerRule("r", "s", "a", 1.0, direction="below", clear=2.0)
        assert below.breached(0.5) and not below.breached(1.0)
        assert below.cleared(2.0) and not below.cleared(1.5)
        assert TriggerRule("r", "s", "a", 1.0).clear_level == 1.0


# ----------------------------------------------------------------------
# Supervisor: latch, cooldown, re-fire, hysteresis
# ----------------------------------------------------------------------
def make_supervisor(rules, engine=None, store=None):
    engine = engine or Engine()
    store = store if store is not None else TimeSeriesStore()
    fired = []

    def act(name):
        return lambda target: fired.append((name, target)) or {"ok": True}

    actions = {"drain": act("drain"), "undrain": act("undrain")}
    sup = FleetSupervisor(engine, store, rules, actions)
    return sup, engine, store, fired


LATEST_RULE = TriggerRule(
    "hot", "m.err", "drain", 5.0,
    clear=1.0, clear_action="undrain", cooldown_s=2.0,
)


class TestFleetSupervisor:
    def test_unknown_actions_rejected_up_front(self):
        with pytest.raises(ValueError):
            make_supervisor([TriggerRule("r", "s", "nope", 1.0)])
        bad_clear = TriggerRule(
            "r", "s", "drain", 1.0, clear_action="nope"
        )
        with pytest.raises(ValueError):
            make_supervisor([bad_clear])

    def test_breach_latches_and_cooldown_suppresses(self):
        sup, engine, store, fired = make_supervisor([LATEST_RULE])
        store.append("m.err", {"rack": "r0"}, 0.0, 9.0)
        assert sup.evaluate() == 1
        assert fired == [("drain", "r0")]
        # still breached, inside the 2s cooldown: latched, no re-fire
        advance(engine, 0.5)
        store.append("m.err", {"rack": "r0"}, engine.now, 9.0)
        assert sup.evaluate() == 0
        assert sup.stats["suppressed_cooldown"] == 1
        # past the cooldown, still breached: one re-fire
        advance(engine, 2.0)
        store.append("m.err", {"rack": "r0"}, engine.now, 9.0)
        assert sup.evaluate() == 1
        assert sup.stats == {
            "evaluations": 3, "fired": 1, "refired": 1,
            "cleared": 0, "suppressed_cooldown": 1,
        }

    def test_hysteresis_clear_fires_clear_action(self):
        sup, engine, store, fired = make_supervisor([LATEST_RULE])
        store.append("m.err", {"rack": "r0"}, 0.0, 9.0)
        sup.evaluate()
        # dropping to 3.0 is below threshold but above clear=1.0:
        # the latch holds and nothing fires either way
        advance(engine, 1.0)
        store.append("m.err", {"rack": "r0"}, engine.now, 3.0)
        assert sup.evaluate() == 0
        assert sup.stats["cleared"] == 0
        assert "hot:r0" in sup.health()["latched"]
        # crossing the clear level unlatches and fires the clear action
        advance(engine, 1.0)
        store.append("m.err", {"rack": "r0"}, engine.now, 0.5)
        sup.evaluate()
        assert sup.stats["cleared"] == 1
        assert fired == [("drain", "r0"), ("undrain", "r0")]
        assert sup.health()["latched"] == []
        # a fresh breach after the clear counts as a new fire
        advance(engine, 1.0)
        store.append("m.err", {"rack": "r0"}, engine.now, 9.0)
        assert sup.evaluate() == 1
        assert sup.stats["fired"] == 2

    def test_rate_rule_needs_two_points(self):
        rule = TriggerRule(
            "burn", "m.ctr", "drain", 1.0, mode="rate", window_s=10.0
        )
        sup, engine, store, fired = make_supervisor([rule])
        store.append("m.ctr", {"rack": "r0"}, 0.0, 0.0)
        assert sup.evaluate() == 0  # one point: no rate, never fires
        advance(engine, 4.0)
        store.append("m.ctr", {"rack": "r0"}, engine.now, 8.0)
        assert sup.evaluate() == 1  # 8 in 4s = 2/s > 1/s
        assert fired == [("drain", "r0")]

    def test_stale_rule_notices_silent_series(self):
        rule = TriggerRule(
            "stale", "m.up", "drain", 3.0, mode="stale", cooldown_s=60.0
        )
        sup, engine, store, fired = make_supervisor([rule])
        store.append("m.up", {"rack": "r0"}, 0.0, 1.0)
        assert sup.evaluate() == 0  # fresh
        advance(engine, 5.0)
        assert sup.evaluate() == 1  # 5s old > 3s
        assert fired == [("drain", "r0")]

    def test_actions_are_journaled_to_log_and_recorder(self):
        from repro.obs.recorder import FlightRecorder

        sup, engine, store, _fired = make_supervisor([LATEST_RULE])
        recorder = FlightRecorder(engine).install()
        store.append("m.err", {"rack": "r0"}, 0.0, 9.0)
        sup.evaluate()
        advance(engine, 1.0)
        store.append("m.err", {"rack": "r0"}, engine.now, 0.5)
        sup.evaluate()
        assert [e["action"] for e in sup.log] == ["drain", "undrain"]
        assert all(set(e) == {"t", "rule", "action", "target", "value",
                              "detail"} for e in sup.log)
        assert len(recorder.events(KIND_ACTION)) == 1
        assert len(recorder.events(KIND_CLEAR)) == 1


# ----------------------------------------------------------------------
# Remediation actions beyond the fleet: scrub budget
# ----------------------------------------------------------------------
def test_scrub_budget_rule_raises_patrol_rate():
    ros = make_ros()
    scrubber = BackgroundScrubber(ros, rate_bytes=4 * units.MB)
    store = TimeSeriesStore()
    rule = TriggerRule(
        "scrub-errors", "preserve.scrub.errors", "raise_scrub_budget",
        threshold=10.0, cooldown_s=60.0,
    )
    actions = {
        "raise_scrub_budget": lambda target: {
            "raised": scrubber.set_rate(16 * units.MB)
        }
    }
    sup = FleetSupervisor(ros.engine, store, [rule], actions)
    store.append(
        "preserve.scrub.errors", {"rack": "r0"}, ros.engine.now, 25.0
    )
    assert sup.evaluate() == 1
    assert scrubber.bucket.rate == 16 * units.MB
    assert scrubber.stats["rate_changes"] == 1
    assert sup.log[0]["detail"] == {"raised": True}


def test_set_rate_is_a_noop_under_admission_control():
    from repro.serve.tenancy import AdmissionController, TenantSpec

    ros = make_ros()
    admission = AdmissionController(
        ros.engine, [TenantSpec("scrub", weight=1.0)]
    )
    scrubber = BackgroundScrubber(ros, admission=admission)
    assert scrubber.set_rate(16 * units.MB) is False
    assert scrubber.stats["rate_changes"] == 0
    with pytest.raises(ValueError):
        BackgroundScrubber(ros).set_rate(0)


# ----------------------------------------------------------------------
# Monitored campaigns
# ----------------------------------------------------------------------
class TestMonitorCampaign:
    @pytest.mark.parametrize("seed", [7, 42])
    def test_campaign_replay_is_byte_identical(self, seed):
        first = report_json(run_fleet_monitor(seed, **SMALL))
        second = report_json(run_fleet_monitor(seed, **SMALL))
        assert first == second

    def test_rack_loss_is_remediated_and_converges(self):
        report = run_fleet_monitor(7, **SMALL)
        assert report["ok"]
        assert report["bytes_lost"] == 0
        assert report["remediations"] >= 1
        names = [inv["invariant"] for inv in report["invariants"]]
        assert "remediation_converges" in names
        i9 = next(
            inv for inv in report["invariants"]
            if inv["invariant"] == "remediation_converges"
        )
        assert i9["ok"]
        assert i9["detail"]["lost_shards"] == 0
        # the supervisor journal names real targets and actions
        for entry in report["supervisor"]["log"]:
            assert entry["action"] in {
                "remediate_rack", "drain_rack", "undrain_rack",
                "start_rebuild",
            }

    def test_telemetry_off_is_a_plain_fleet_run(self):
        report = run_fleet_monitor(7, **SMALL, telemetry=False)
        assert report["ok"]
        assert report["telemetry"] == {"enabled": False}
        assert report["supervisor"] is None
        assert report["remediations"] == 0
        names = [inv["invariant"] for inv in report["invariants"]]
        assert "remediation_converges" not in names

    @pytest.mark.parametrize("seed", [7, 42])
    def test_telemetry_off_is_byte_identical_to_the_bare_fleet_run(
        self, seed
    ):
        # one runner: the monitored campaign with telemetry off *is* the
        # bare fleet campaign at the same geometry and fault schedule
        monitored = run_fleet_monitor(
            seed, telemetry=False, site_loss=False, **SMALL
        )
        bare = run_fleet(seed, site_loss=False, **SMALL)
        assert report_json(monitored) == report_json(bare)

    def test_report_renders_and_serializes(self):
        report = run_fleet_monitor(11, **SMALL)
        parsed = json.loads(report_json(report))
        assert parsed["seed"] == 11
        text = render_text(report)
        assert "fleet-monitor" in text
        assert "remediation" in text

    def test_telemetry_event_overhead_stays_under_ten_percent(self):
        # the satellite perf guard: agents + supervisor on the default
        # geometry must cost <10% extra engine events over the bare
        # fleet run (wall-time is too noisy to gate; events are exact).
        monitored = run_fleet_monitor(42)
        baseline = run_fleet_monitor(42, telemetry=False)
        ratio = monitored["events_issued"] / baseline["events_issued"]
        assert ratio < 1.10


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_fleet_monitor_command(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "monitor.json"
    flight = tmp_path / "flight.jsonl"
    code = main([
        "fleet-monitor", "--seed", "7",
        "--sites", "3", "--racks-per-site", "4",
        "--clients", "240", "--duration", "6.0",
        "--objects", "6", "--arrival-rate", "18.0",
        "--runs", "2", "--out", str(out),
        "--flight-out", str(flight),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "byte-identical" in captured.out
    report = json.loads(out.read_text())
    assert report["ok"]
    assert report["remediations"] >= 1
    assert "flight_dump" not in report  # kept out of the compared bytes
    kinds = [json.loads(line)["kind"] for line in
             flight.read_text().splitlines()]
    assert KIND_ACTION in kinds
