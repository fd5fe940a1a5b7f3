"""Fleet layer: geo-distributed placement, recovery, and serving.

Scales the single-rack ROS design out to tens of racks across multiple
sites: rendezvous placement of erasure-coded disc images
(:mod:`repro.fleet.placement` / :mod:`repro.fleet.store`), rack- and
site-loss recovery campaigns (:mod:`repro.fleet.recovery`), a
locality-aware serving frontend (:mod:`repro.fleet.frontend`) and the
seed-deterministic fleet campaign (:mod:`repro.fleet.campaign`).

The telemetry pipeline rides on top: per-rack agents
(:mod:`repro.fleet.telemetry`) replicate health samples into a central
:class:`~repro.tsdb.TimeSeriesStore`, the closed-loop supervisor
(:mod:`repro.fleet.supervisor`) remediates what the samples reveal, and
:mod:`repro.fleet.monitor` wires them into the fleet campaign
(``run_fleet(telemetry=True)``, ``python -m repro fleet-monitor``).
"""

from repro.fleet.campaign import render_text, run_fleet
from repro.fleet.frontend import FleetBackend, FleetFrontend
from repro.fleet.monitor import run_fleet_monitor
from repro.fleet.supervisor import FleetSupervisor, TriggerRule
from repro.fleet.telemetry import (
    CentralTelemetry,
    TelemetryAgent,
    rack_probes,
    site_probes,
)
from repro.fleet.placement import balance, place, rank_racks
from repro.fleet.rack import ShardRack
from repro.fleet.recovery import RecoveryManager
from repro.fleet.store import (
    FleetStore,
    ObjectRecord,
    decode_object,
    encode_object,
)
from repro.fleet.topology import FleetTopology, Layout

__all__ = [
    "CentralTelemetry",
    "FleetBackend",
    "FleetFrontend",
    "FleetStore",
    "FleetSupervisor",
    "FleetTopology",
    "Layout",
    "ObjectRecord",
    "RecoveryManager",
    "ShardRack",
    "TelemetryAgent",
    "TriggerRule",
    "balance",
    "decode_object",
    "encode_object",
    "place",
    "rack_probes",
    "rank_racks",
    "render_text",
    "run_fleet",
    "run_fleet_monitor",
    "site_probes",
]
