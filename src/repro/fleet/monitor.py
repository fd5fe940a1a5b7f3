"""Monitored fleet campaigns: telemetry pipeline + closed-loop repair.

``run_fleet_monitor(seed, ...)`` is the observability experiment in one
call: :func:`~repro.fleet.campaign.run_fleet` with ``telemetry=True``
and a smaller default fleet.  Every rack hosts a
:class:`~repro.fleet.telemetry.TelemetryAgent` replicating health
samples over the site's 10GbE link — real bytes competing with tenant
traffic — into one central :class:`~repro.tsdb.TimeSeriesStore`.  A
:class:`~repro.fleet.supervisor.FleetSupervisor` closes the loop:
declarative trigger rules over the central store detect the injected
``rack.loss`` (the dead rack's series go stale), drain the rack out of
placement and kick :meth:`~repro.fleet.recovery.RecoveryManager.
rebuild_all` migrations until the fleet is whole again.

:class:`FleetMonitor` is that wiring; ``run_fleet`` builds it in place
of the loss-event driven ``RecoveryManager.run`` loop.  The audit adds
invariant I9 ("remediation converges": zero acked bytes lost *and*
zero shards still missing once the supervisor has run its course) on
top of the fleet campaign's I8/I5/drain checks.

Everything derives from the one seed; the report is byte-reproducible
and the CLI (``python -m repro fleet-monitor``) runs the campaign twice
and fails on any diff.
"""

from __future__ import annotations

from typing import Generator

from repro.fleet.recovery import RecoveryManager
from repro.fleet.store import FleetStore
from repro.fleet.supervisor import FleetSupervisor, TriggerRule
from repro.fleet.telemetry import (
    CentralTelemetry,
    TelemetryAgent,
    rack_probes,
    site_probes,
)
from repro.serve.network import NetworkLink
from repro.serve.session import STATUSES
from repro.sim.engine import Engine
from repro.sim.tracing import MetricsRegistry

__all__ = ["FleetMonitor", "run_fleet_monitor"]

#: how long past the serving window the agents and supervisor keep
#: running — the remediation tail (stale detection + rebuild) needs it
GRACE_S = 8.0

#: staleness (seconds) after which a rack's telemetry is presumed dead;
#: > 2 flush intervals so a congested link never reads as a dead rack
STALE_AFTER_S = 3.0

#: agent sampling period (simulated seconds) and samples per sealed batch
SAMPLE_PERIOD_S = 0.5
FLUSH_EVERY = 3


def _default_rules() -> list[TriggerRule]:
    """The standard monitored-fleet rule set (see docs/fleet-telemetry.md)."""
    return [
        # A rack that stops reporting is presumed lost: drain it out of
        # placement and kick a rebuild of whatever it held.
        TriggerRule(
            name="rack-stale",
            series="fleet.rack.up",
            mode="stale",
            threshold=STALE_AFTER_S,
            clear=STALE_AFTER_S / 2,
            action="remediate_rack",
            clear_action="undrain_rack",
            cooldown_s=3.0,
            target_label="rack",
        ),
        # A rack that *is* reporting but throwing fetch errors gets
        # drained (reads deprioritize it, placements avoid it) until
        # the error rate subsides.
        TriggerRule(
            name="rack-error-rate",
            series="fleet.rack.fetch_errors",
            mode="rate",
            threshold=1.0,
            clear=0.25,
            window_s=5.0,
            action="drain_rack",
            clear_action="undrain_rack",
            cooldown_s=3.0,
            target_label="rack",
        ),
        # A site burning its SLO budget (failed tenant ops per second)
        # gets a rebuild kicked — failures at the frontend usually mean
        # shards are missing underneath.
        TriggerRule(
            name="site-slo-burn",
            series="fleet.site.ops_failed",
            mode="rate",
            threshold=0.5,
            clear=0.1,
            window_s=5.0,
            action="start_rebuild",
            cooldown_s=4.0,
            target_label="site",
        ),
    ]


class FleetMonitor:
    """Telemetry agents on every rack and site frontend, the central
    store they replicate into, and the supervisor acting on it.

    Agents and supervisor run until ``horizon_s``; :meth:`stop` seals
    the agents' tail batches and parks the supervisor.
    """

    def __init__(
        self,
        engine: Engine,
        store: FleetStore,
        links: dict[str, NetworkLink],
        metrics: MetricsRegistry,
        manager: RecoveryManager,
        horizon_s: float,
    ):
        self.engine = engine
        self.store = store
        self.manager = manager
        self.central = CentralTelemetry()
        self._rebuilding = False
        self.agents: list[TelemetryAgent] = []
        for rack_id, rack in sorted(store.racks.items()):
            self.agents.append(
                TelemetryAgent(
                    engine,
                    agent_id=rack_id,
                    central=self.central,
                    link=links[rack.site],
                    probes=rack_probes(rack),
                    labels={"rack": rack_id, "site": rack.site},
                    sample_period_s=SAMPLE_PERIOD_S,
                    flush_every=FLUSH_EVERY,
                    horizon_s=horizon_s,
                    source_up=lambda r=rack: r.up,
                ).start()
            )
        for site, link in links.items():
            self.agents.append(
                TelemetryAgent(
                    engine,
                    agent_id=f"frontend.{site}",
                    central=self.central,
                    link=link,
                    probes=site_probes(site, link, metrics, STATUSES),
                    labels={"site": site},
                    sample_period_s=SAMPLE_PERIOD_S,
                    flush_every=FLUSH_EVERY,
                    horizon_s=horizon_s,
                ).start()
            )
        self.supervisor = FleetSupervisor(
            engine,
            self.central.store,
            rules=_default_rules(),
            actions={
                "drain_rack": self.drain_rack,
                "undrain_rack": self.undrain_rack,
                "remediate_rack": self.remediate_rack,
                "start_rebuild": self.start_rebuild,
            },
            eval_period_s=0.75,
            horizon_s=horizon_s,
        ).start()

    def stop(self) -> None:
        for agent in self.agents:
            agent.stop()  # seal tail batches; replicators drain or abandon
        self.supervisor.stop()

    # -- supervisor actions ----------------------------------------------
    def _kick_rebuild(self) -> bool:
        if self._rebuilding or not self.store.lost_shards():
            return False
        self._rebuilding = True

        def one_shot() -> Generator:
            try:
                yield from self.manager.rebuild_all()
            finally:
                self._rebuilding = False

        self.engine.spawn(one_shot(), name="supervised-rebuild")
        return True

    def _set_drained(self, target: str, drained: bool) -> bool:
        if target not in self.store.racks:
            return False
        return self.store.set_drained(target, drained)

    def drain_rack(self, target: str) -> dict:
        return {"drained": self._set_drained(target, True)}

    def undrain_rack(self, target: str) -> dict:
        return {"undrained": self._set_drained(target, False)}

    def remediate_rack(self, target: str) -> dict:
        detail = self.drain_rack(target)
        detail["rebuild_kicked"] = self._kick_rebuild()
        return detail

    def start_rebuild(self, target: str) -> dict:
        return {"rebuild_kicked": self._kick_rebuild()}

    # -- report ------------------------------------------------------------
    def sections(self) -> dict:
        """The report's ``telemetry``/``supervisor``/``remediations``;
        finalizes the central store's open rollup buckets first."""
        self.central.store.flush()
        return {
            "telemetry": {
                "enabled": True,
                "central": self.central.health(),
                "store": self.central.store.snapshot_stats(),
                "agents": {
                    agent.agent_id: agent.health() for agent in self.agents
                },
            },
            "supervisor": {
                "log": self.supervisor.log, **self.supervisor.health()
            },
            "remediations": len(self.supervisor.log),
        }

    def reported_up(self, rack_id: str, site: str) -> bool | None:
        """The rack's newest ``fleet.rack.up`` sample as the central store
        holds it (``None``: it never reported)."""
        newest = self.central.store.latest(
            "fleet.rack.up", {"rack": rack_id, "site": site}
        )
        return None if newest is None else newest[1] >= 1.0


def run_fleet_monitor(
    seed: int,
    racks_per_site: int = 4,
    clients: int = 24_000,
    duration_s: float = 10.0,
    objects: int = 12,
    arrival_rate: float = 40.0,
    site_loss: bool = False,
    telemetry: bool = True,
    **kwargs,
) -> dict:
    """:func:`~repro.fleet.campaign.run_fleet` with the monitored defaults.

    24 000 pooled clients over 12 racks in 3 sites, one rack destroyed
    early, per-rack telemetry agents and the closed-loop supervisor
    detecting and repairing the loss while serving continues.
    ``telemetry=False`` runs the identical fleet with the classic
    loss-event recovery loop instead — the baseline the perf guard
    measures agent overhead against.
    """
    from repro.fleet.campaign import run_fleet

    return run_fleet(
        seed,
        racks_per_site=racks_per_site,
        clients=clients,
        duration_s=duration_s,
        objects=objects,
        arrival_rate=arrival_rate,
        site_loss=site_loss,
        telemetry=telemetry,
        **kwargs,
    )
