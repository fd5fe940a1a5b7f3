"""Chaos campaigns: seeded determinism and the four invariants.

The campaign harness (:mod:`repro.faults.campaign`) must be a pure
function of its seed — the property test replays randomized fault plans
byte-for-byte, and the regression corpus pins a handful of seeds whose
campaigns must keep satisfying all four invariants as the code evolves.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ALL_KINDS, BASE_KINDS, FaultPlan
from repro.faults.campaign import run_campaign
from repro.obs import report_json
from repro.sim.rng import DeterministicRNG

#: Fixed seeds the chaos campaign must keep passing on (CI runs these).
CORPUS_SEEDS = [7, 11, 23, 42, 1337]


# ----------------------------------------------------------------------
# Seeded replay (hypothesis)
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.floats(min_value=100.0, max_value=1e6),
    intensity=st.floats(min_value=0.1, max_value=8.0),
)
@settings(max_examples=50, deadline=None)
def test_randomized_plan_replays_byte_identically(seed, horizon, intensity):
    plans = [
        FaultPlan.randomized(
            DeterministicRNG(seed).child("plan"), horizon, intensity=intensity
        )
        for _ in range(2)
    ]
    assert plans[0].to_json() == plans[1].to_json()
    assert len(plans[0]) == len(BASE_KINDS)
    for spec in plans[0]:
        assert spec.kind in ALL_KINDS


def test_campaign_replay_is_byte_identical():
    reports = [report_json(run_campaign(7, ops=30)) for _ in range(2)]
    assert reports[0] == reports[1]
    # The canonical form parses back and carries the full audit.
    report = json.loads(reports[0])
    assert len(report["invariants"]) == 4


# ----------------------------------------------------------------------
# Regression corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_campaign_invariants_hold(seed):
    report = run_campaign(seed, ops=30)
    assert len(report["plan"]) == len(BASE_KINDS)
    assert not report["workload_violations"]
    failed = [inv for inv in report["invariants"] if not inv["ok"]]
    assert not failed, failed
    assert report["ok"]


# ----------------------------------------------------------------------
# Preservation campaigns join the corpus (seeded replay + invariant 7)
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.floats(min_value=100.0, max_value=1e6),
)
@settings(max_examples=25, deadline=None)
def test_preserve_plan_adds_aging_after_base_draws(seed, horizon):
    """``preserve=True`` appends the aging shock *after* every baseline
    draw, so plans without it replay byte-identically forever."""
    from repro.faults.plan import MEDIA_AGING

    rng = lambda: DeterministicRNG(seed).child("plan")  # noqa: E731
    base = FaultPlan.randomized(rng(), horizon)
    preserve = FaultPlan.randomized(rng(), horizon, preserve=True)
    assert [s.to_dict() for s in preserve][: len(base)] == [
        s.to_dict() for s in base
    ]
    assert preserve.specs[-1].kind == MEDIA_AGING


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_preserve_campaign_replay_and_convergence(seed):
    """The preservation campaign is corpus material like the chaos
    campaign: byte-identical replay, and invariant 7 (audit converges)
    must hold on every pinned seed."""
    from repro.preserve import run_preserve

    reports = [run_preserve(seed, files=8) for _ in range(2)]
    assert report_json(reports[0]) == report_json(reports[1])
    audit = next(
        inv
        for inv in reports[0]["invariants"]
        if inv["invariant"] == "audit_converges"
    )
    assert audit["ok"], audit
    assert reports[0]["ok"]


# ----------------------------------------------------------------------
# Fleet campaigns join the corpus (rack/site loss + invariant 8)
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.floats(min_value=100.0, max_value=1e6),
)
@settings(max_examples=25, deadline=None)
def test_fleet_plan_adds_losses_after_every_other_draw(seed, horizon):
    """``fleet=True`` appends rack loss then site loss after *every*
    other draw (base, serve, preserve), so the whole pre-fleet chaos
    corpus replays byte-identically forever."""
    from repro.faults.plan import RACK_LOSS, SITE_LOSS

    rng = lambda: DeterministicRNG(seed).child("plan")  # noqa: E731
    base = FaultPlan.randomized(rng(), horizon, serve=True, preserve=True)
    fleet = FaultPlan.randomized(
        rng(), horizon, serve=True, preserve=True, fleet=True
    )
    assert [s.to_dict() for s in fleet][: len(base)] == [
        s.to_dict() for s in base
    ]
    assert [s.kind for s in fleet.specs[-2:]] == [RACK_LOSS, SITE_LOSS]


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_fleet_campaign_replay_and_recoverability(seed):
    """Fleet chaos is corpus material: the co-hosted multi-site store
    rides the same seeded campaign, replays byte-identically, and every
    invariant — I1..I7 plus I8 (fleet recoverability) — holds."""
    reports = [run_campaign(seed, ops=30, fleet=True) for _ in range(2)]
    assert report_json(reports[0]) == report_json(reports[1])
    report = reports[0]
    names = [inv["invariant"] for inv in report["invariants"]]
    assert "fleet_recoverable" in names
    failed = [inv for inv in report["invariants"] if not inv["ok"]]
    assert not failed, failed
    assert report["ok"]
    kinds = [spec["kind"] for spec in report["plan"]]
    assert kinds[-2:] == ["rack.loss", "site.loss"]
    fleet = report["fleet"]
    assert fleet["store"]["objects_unrecoverable"] == 0
    assert fleet["recovery"]["bytes_lost"] == 0.0
