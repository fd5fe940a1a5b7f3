"""Vectorized load generation: scalar↔batch stream equivalence.

The vectorized aggregate pool is only correct because a numpy
``Generator`` produces the *same underlying stream* for one size-n
array draw as for n sequential scalar draws.  These properties pin that
foundation directly on :class:`~repro.sim.rng.DeterministicRNG`, and
then pin the consumer: ``run_serve`` with ``REPRO_SCALAR_LOADGEN=1``
(the scalar reference loop) must produce a byte-identical report to the
default vectorized path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.obs import report_json
from repro.serve.loadgen import FleetSpec, run_serve
from repro.serve.tenancy import TenantSpec
from repro.sim.rng import DeterministicRNG


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=300),
    mean=st.floats(min_value=1e-3, max_value=1e3,
                   allow_nan=False, allow_infinity=False),
)
@settings(max_examples=120, deadline=None)
def test_exponential_batch_equals_sequential_draws(seed, n, mean):
    batch = DeterministicRNG(seed).exponential_array(mean, n)
    scalar_rng = DeterministicRNG(seed)
    scalars = [scalar_rng.exponential(mean) for _ in range(n)]
    assert batch.tolist() == scalars  # bit-exact, not approx


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=300),
    split=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=120, deadline=None)
def test_uniform_batch_splits_anywhere(seed, n, split):
    """One size-n draw == a size-k draw then a size-(n-k) draw."""
    whole = DeterministicRNG(seed).uniform_array(n)
    k = min(n - 1, max(1, int(split * n)))
    split_rng = DeterministicRNG(seed)
    parts = np.concatenate(
        [split_rng.uniform_array(k), split_rng.uniform_array(n - k)]
    )
    assert whole.tolist() == parts.tolist()


def _aggregate_fleet() -> list[FleetSpec]:
    # One open-loop fleet big enough to resolve to "aggregate" pooling —
    # the only path with a vectorized/scalar split.
    return [
        FleetSpec(
            tenant=TenantSpec("pooled", weight=1.0, max_queue=64),
            clients=100,
            mode="open",
            arrival_rate=30.0,
            read_fraction=0.6,
            profile="mixed",
            max_file_bytes=1 * units.MB,
            pooling="aggregate",
        ),
    ]


def test_vectorized_report_byte_identical_to_scalar(monkeypatch):
    monkeypatch.delenv("REPRO_SCALAR_LOADGEN", raising=False)
    vector = run_serve(
        11, fleets=_aggregate_fleet(), duration_s=8.0, prepopulate=6
    )
    monkeypatch.setenv("REPRO_SCALAR_LOADGEN", "1")
    scalar = run_serve(
        11, fleets=_aggregate_fleet(), duration_s=8.0, prepopulate=6
    )
    assert report_json(vector) == report_json(scalar)
    assert vector["totals"]["ops"] > 0


def test_scalar_hatch_rejects_only_empty_and_zero(monkeypatch):
    from repro.serve.loadgen import _scalar_loadgen

    monkeypatch.delenv("REPRO_SCALAR_LOADGEN", raising=False)
    assert _scalar_loadgen() is False
    monkeypatch.setenv("REPRO_SCALAR_LOADGEN", "0")
    assert _scalar_loadgen() is False
    monkeypatch.setenv("REPRO_SCALAR_LOADGEN", "1")
    assert _scalar_loadgen() is True
