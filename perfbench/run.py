"""Repository benchmark: one workload per process, seed as an argument.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

The workload's batch is repeated (same seed, fresh system each time)
while another batch fits in ``--seconds``, and at least ``MIN_REPEATS``
times; every repeat must simulate exactly the same thing.  Host times
are scaled by the host factor the probe in ``hostspeed.py`` measured
during each batch, and reported as medians over the repeats.  With
``--trace 1`` one more batch runs with every layer entry point wrapped
(``tracer.py``) and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of output is one JSON object; the exit
code is 1 when a correctness check failed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed  # noqa: E402
from tracer import ENGINE_SPANS, ENTRY_POINTS, LAYERS, Tracer  # noqa: E402
from workloads import COUNT_UNITS, WORKLOADS, Batch  # noqa: E402

MIN_REPEATS = 3
#: Fresh interpreters whose import time of the workload's module is
#: timed; set-up counts the fastest.
IMPORT_SAMPLES = 5
OUT_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def digest(simulated: dict) -> str:
    blob = json.dumps(simulated, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Timing:
    """One batch's host times, probe time left out, and its host factor."""

    setup_s: float
    run_s: float
    factor: float


def run_batch(workload, seed: int, speed: HostSpeed) -> tuple[Batch, Timing, float]:
    """One batch with the probe running; also returns its wall time."""
    gc.collect()  # each batch starts from the same heap state
    began = perf_counter()
    speed.start_batch()
    at_mark = []
    with speed:
        batch = workload.run(seed, on_mark=lambda: at_mark.append(speed.skipped_ns))
    setup_skipped = at_mark[-1] / 1e9
    run_skipped = speed.skipped_ns / 1e9 - setup_skipped
    timing = Timing(
        setup_s=batch.setup_s - setup_skipped,
        run_s=batch.run_s - run_skipped,
        factor=speed.factor(),
    )
    return batch, timing, perf_counter() - began


def import_s(module: str, source: Path) -> float:
    """Fastest host time to import ``module`` in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "start = time.perf_counter()\n"
        f"import {module}\n"
        "print(time.perf_counter() - start)\n"
    )
    return min(
        float(subprocess.run(
            [sys.executable, "-c", code, str(source)],
            check=True, capture_output=True, text=True,
        ).stdout)
        for _ in range(IMPORT_SAMPLES)
    )


def end_to_end(first: Batch, timings: list[Timing], imports_s: float,
               peak_rss_mb: float) -> dict:
    run_s = statistics.median(t.run_s / t.factor for t in timings)
    setup_s = statistics.median(t.setup_s / t.factor for t in timings)
    # The imports run right after the batches, in other processes: they
    # are scaled by the batches' median host factor.
    imports_s /= statistics.median(t.factor for t in timings)
    return {
        "setup_s": (imports_s + setup_s, "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (first.ops / run_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_p50_s": (first.p50_s, "s"),
        "sim_p99_s": (first.tail_s, "s"),
        "sim_goodput_mbps": (first.ok_bytes / first.sim_seconds / 1e6, "MB/s"),
    }


def per_layer(traced: Batch, tracer: Tracer, median_run_s: float) -> dict:
    metrics = {}
    entries = tracer.entry_totals()
    for name, *_, kind in ENTRY_POINTS:
        metrics[f"{name}.calls"] = (entries[name]["calls"], "count")
        if kind == "gen":
            metrics[f"{name}.resumes"] = (entries[name]["resumes"], "count")
        metrics[f"{name}.self_s"] = (entries[name]["self_s"], "s")
    metrics["sim.engine.self_s"] = (
        sum(entries[name]["self_s"] for name in ENGINE_SPANS), "s"
    )
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.share"] = (layer_self[layer] / traced.run_s, "fraction")
    metrics["other.share"] = (
        1.0 - sum(layer_self.values()) / traced.run_s, "fraction"
    )
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (traced.counts[name], unit)
    metrics["trace.run_s"] = (traced.run_s, "s")
    metrics["trace.overhead"] = (traced.run_s / median_run_s, "ratio")
    return metrics


def check_against_spec(metrics: dict, section: str) -> list[str]:
    """The printed metrics must be exactly the ones BENCHMARK.json names."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    expected = {entry["name"]: entry["unit"] for entry in spec[section]}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if expected == printed:
        return []
    return [
        f"metrics differ from BENCHMARK.json {section}: "
        f"missing {sorted(set(expected) - set(printed))}, "
        f"extra {sorted(set(printed) - set(expected))}, "
        f"units {sorted(n for n in expected if n in printed and expected[n] != printed[n])}"
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the root of a "
              "repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    workload = WORKLOADS[args.workload]

    importlib.import_module(workload.module)
    speed = HostSpeed()

    batches: list[Batch] = []
    timings: list[Timing] = []
    began = perf_counter()
    wall = 0.0
    while (len(batches) < MIN_REPEATS
           or perf_counter() - began + wall <= args.seconds):
        batch, timing, wall = run_batch(workload, args.seed, speed)
        batches.append(batch)
        timings.append(timing)
        if len(batches) == 1:
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                - speed.resident_bytes
            ) / 2**20
    first = batches[0]
    problems = list(first.problems)
    sim_digest = digest(first.simulated())
    if any(digest(b.simulated()) != sim_digest for b in batches[1:]):
        problems.append("repeats at one seed simulated different results")

    median_run_s = statistics.median(t.run_s for t in timings)
    if args.trace:
        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            traced = workload.run(args.seed, on_mark=tracer.clear)
        finally:
            tracer.uninstall()
        if traced.simulated() != first.simulated():
            problems.append("the traced run simulated different results")
        metrics = per_layer(traced, tracer, median_run_s)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.save(spans_path)
        print(f"spans: {len(tracer.starts)} written to {spans_path}")
        section = "per_layer"
    else:
        metrics = end_to_end(
            first, timings, import_s(workload.module, source),
            peak_rss_mb,
        )
        section = "end_to_end"
    problems += check_against_spec(metrics, section)

    print(f"workload {args.workload}  seed {args.seed}  repeats {len(batches)}  "
          f"pid {os.getpid()}")
    print("host run_s per repeat:   "
          + " ".join(f"{t.run_s:.4f}" for t in timings))
    print("host factor per repeat:  "
          + " ".join(f"{t.factor:.4f}" for t in timings))
    print("scaled run_s per repeat: "
          + " ".join(f"{t.run_s / t.factor:.4f}" for t in timings))
    print(f"simulated: ops {first.ops}  failed {first.failed}  "
          f"error_rate {first.failed / first.ops:.6f}  "
          f"failures {first.failures or '{}'}")
    print(f"latency: p50 and {first.tail_label} over {first.samples} samples "
          f"(sim_p99_s holds {first.tail_label})")
    print(f"simulation digest {sim_digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    for problem in problems:
        print(f"CORRECTNESS: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": first.ops,
        "failed": first.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
