"""XL serving campaign: many racks on the sharded event loop.

``run_serve_xl(seed, ...)`` scales the serving story past what one
engine heap comfortably holds: a row of :class:`~repro.fleet.rack.
ShardRack` racks, each with its own client population, driven at 10-100x
the request volume of ``repro serve`` on a
:class:`~repro.sim.shard.ShardedEngine`.  Each rack is one *group* —
its rack, its vectorized load driver, its outage process and its
:class:`~repro.sim.tracing.MetricsRegistry` all live on that group's
engine and share mutable state with nothing else.  Cross-rack reads and
writes (an object *homes* on the rack that rendezvous-ranks first for
its path — :func:`~repro.fleet.store.home_rack`) travel as
:meth:`~repro.sim.shard.ShardedEngine.call` round trips, paying the
``lookahead`` WAN floor each way.

Determinism contract: the report is a pure function of the arguments
and is byte-identical **for every shard count** — groups are the unit
of isolation, so co-locating them on one shard (``shards=1``) or
spreading them over four changes wall-clock only.  The chaos-replay
acceptance gate byte-compares exactly this.

Per-group registries, not one shared one: histogram totals are float
sums and float addition is order-sensitive, so groups must not
interleave writes into shared instruments.  Each group owns a registry
and the report merges them in fixed group order.

Load is vectorized end to end: arrival gaps, op-mix rolls, locality
rolls and catalog picks are batch-drawn per epoch from dedicated child
streams (the same scalar↔batch stream equivalence the serve-layer
:class:`~repro.serve.loadgen.ClientPool` leans on), so a campaign of
tens of thousands of arrivals pays O(epochs) of RNG dispatch.
"""

from __future__ import annotations

from typing import Generator

from repro import units
from repro.errors import ROSError
from repro.fleet.rack import ShardRack
from repro.fleet.store import home_rack, shard_layout
from repro.serve.session import LATENCY_BOUNDS
from repro.sim.engine import Delay, Spawn
from repro.sim.rng import DeterministicRNG
from repro.sim.shard import ShardedEngine
from repro.sim.tracing import MetricsRegistry

#: minimum cross-rack delivery latency — the WAN RTT floor and the
#: sharded engine's lookahead window
LOOKAHEAD_S = 0.02

#: in-simulation shard payload (wire sizes are the logical truth)
PAYLOAD = b"\xA5" * 4096

#: vectorized draw batch per load driver
EPOCH = 1024


class _RackNode:
    """Everything one group owns: rack, metrics, per-status counters."""

    def __init__(self, sharded: ShardedEngine, group: str):
        self.group = group
        self.engine = sharded.engine_for(group)
        self.rack = ShardRack(
            self.engine, group, site=group,
            lane_bytes_s=400 * units.MB,
        )
        self.metrics = MetricsRegistry()
        self.ok = self.metrics.counter(f"xl.ops.{group}.ok")
        self.failed = self.metrics.counter(f"xl.ops.{group}.failed")
        self.remote = self.metrics.counter(f"xl.ops.{group}.remote")
        self.latency = self.metrics.histogram(
            f"xl.latency_s.{group}", LATENCY_BOUNDS
        )
        self.bytes = self.metrics.counter(f"xl.bytes.{group}")
        self.outage = False


def run_serve_xl(
    seed: int = 42,
    racks: int = 8,
    shards: int = 1,
    duration_s: float = 100.0,
    arrival_rate: float = 40.0,
    objects_per_rack: int = 64,
    write_fraction: float = 0.2,
    locality: float = 0.85,
    fault_rate: float = 0.25,
    lookahead_s: float = LOOKAHEAD_S,
) -> dict:
    """One XL serving campaign; returns the deterministic report dict.

    ``arrival_rate`` is per rack (ops/s), so the default scenario offers
    ``racks * arrival_rate * duration_s = 32,000`` ops — roughly 13x the
    ``repro serve`` scenario's volume.  ``shards`` picks the event-loop
    layout and **must not** change the report (pinned by tests and the
    chaos-replay gate); ``locality`` is the probability a client touches
    an object homed on its own rack rather than a uniformly random one.
    """
    groups = [f"rack{i:02d}" for i in range(int(racks))]
    sharded = ShardedEngine(groups, shards=shards, lookahead=lookahead_s)
    layout = shard_layout(groups, shards)
    nodes = {group: _RackNode(sharded, group) for group in groups}
    root = DeterministicRNG(seed).child("serve-xl")

    # -- catalog: every object homes on its rendezvous-rank-1 rack -----
    size_rng = root.child("catalog")
    catalog: list[tuple[str, str, float]] = []  # (path, home, wire)
    local_paths: dict[str, list[tuple[str, str, float]]] = {
        group: [] for group in groups
    }
    for index in range(int(racks) * int(objects_per_rack)):
        path = f"xl/obj-{index:05d}"
        home = home_rack(path, groups)
        wire = min(64 * units.MB, size_rng.lognormal(14.0, 1.2))
        entry = (path, home, wire)
        catalog.append(entry)
        local_paths[home].append(entry)
        nodes[home].rack.preload(path, 0, PAYLOAD, wire)

    # -- one seeded outage window per unlucky rack ---------------------
    fault_rng = root.child("faults")
    outages: dict[str, tuple[float, float]] = {}
    for group in groups:
        roll = fault_rng.uniform()
        start = fault_rng.uniform(0.3, 0.6) * duration_s
        width = fault_rng.uniform(0.05, 0.15) * duration_s
        if roll < fault_rate:
            outages[group] = (start, width)
            nodes[group].outage = True

    def outage_proc(node: _RackNode, start: float, width: float) -> Generator:
        yield Delay(start)
        node.rack.fail()
        yield Delay(width)
        node.rack.restore()

    # -- one vectorized load driver per rack ---------------------------
    def one_op(
        node: _RackNode, path: str, home: str, wire: float, write: bool
    ) -> Generator:
        engine = node.engine
        start = engine.now
        remote = home != node.group
        try:
            if remote:
                node.remote.inc()
                target = nodes[home].rack
                if write:
                    yield from sharded.call(
                        node.group, home,
                        lambda: target.store(path, 0, PAYLOAD, wire),
                    )
                else:
                    yield from sharded.call(
                        node.group, home,
                        lambda: target.fetch(path, 0),
                    )
            elif write:
                yield from node.rack.store(path, 0, PAYLOAD, wire)
            else:
                yield from node.rack.fetch(path, 0)
        except ROSError:
            node.failed.inc()
        else:
            node.ok.inc()
            node.latency.observe(engine.now - start)
            node.bytes.inc(wire)

    def driver(node: _RackNode) -> Generator:
        engine = node.engine
        mean_gap = 1.0 / arrival_rate
        gap_rng = root.child(f"gaps-{node.group}")
        roll_rng = root.child(f"rolls-{node.group}")
        loc_rng = root.child(f"locality-{node.group}")
        pick_rng = root.child(f"picks-{node.group}")
        mine = local_paths[node.group]
        count = 0
        done = False
        while not done:
            gaps = gap_rng.exponential_array(mean_gap, EPOCH)
            rolls = roll_rng.uniform_array(EPOCH)
            locs = loc_rng.uniform_array(EPOCH)
            picks = pick_rng.uniform_array(EPOCH)
            for index in range(EPOCH):
                gap = float(gaps[index])
                if engine.now + gap >= duration_s:
                    done = True
                    break
                yield Delay(gap)
                pool = mine if (mine and float(locs[index]) < locality) \
                    else catalog
                path, home, wire = pool[int(float(picks[index]) * len(pool))]
                write = float(rolls[index]) < write_fraction
                count += 1
                yield Spawn(
                    one_op(node, path, home, wire, write),
                    f"xl-op-{node.group}-{count}",
                )

    for group in groups:
        sharded.spawn(group, driver(nodes[group]), name=f"xl-load-{group}")
        if group in outages:
            start, width = outages[group]
            sharded.spawn(
                group, outage_proc(nodes[group], start, width),
                name=f"xl-fault-{group}",
            )
    sharded.run()

    # -- merge per-group registries in fixed group order ---------------
    rack_entries = {}
    for group in groups:
        node = nodes[group]
        ok = int(node.ok.value)
        failed = int(node.failed.value)
        histogram = node.latency
        rack_entries[group] = {
            "ops": ok + failed,
            "ok": ok,
            "failed": failed,
            "remote": int(node.remote.value),
            "ok_bytes": round(node.bytes.value, 3),
            "p50_s": round(histogram.quantile(0.50), 6),
            "p95_s": round(histogram.quantile(0.95), 6),
            "p99_s": round(histogram.quantile(0.99), 6),
            "objects": len(local_paths[group]),
            "outage": node.outage,
            "rack": node.rack.health(),
        }
    report = {
        "seed": seed,
        "racks": rack_entries,
        "totals": {
            "ops": sum(e["ops"] for e in rack_entries.values()),
            "ok": sum(e["ok"] for e in rack_entries.values()),
            "failed": sum(e["failed"] for e in rack_entries.values()),
            "remote": sum(e["remote"] for e in rack_entries.values()),
            "ok_bytes": round(
                sum(e["ok_bytes"] for e in rack_entries.values()), 3
            ),
        },
        "duration_s": round(duration_s, 6),
        "final_time": round(sharded.now, 9),
        "lookahead_s": lookahead_s,
        "objects": len(catalog),
        # layout-invariant: every seq draw is action-driven, and actions
        # are identical for any group->shard pinning
        "events_issued": sharded.events_issued,
    }
    # NOT in the report: the shard count.  The whole point is that the
    # report bytes do not depend on it.
    assert layout == {
        g: sharded.shard_of(g) for g in groups
    }, "routing table disagrees with engine pinning"
    return report
