"""The repository's end-to-end benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload edge-zipf --seed 1 --seconds 20 --trace 0

* ``edge-zipf`` — open-loop single-user ``POST /v1/recommend`` against a
  ``Gateway`` over one exact ``RecommenderService`` (paper-shaped
  catalog); edge work and coalescing dominate.
* ``catalog-ivf`` — open-loop 32-user batches against a ``Gateway`` over
  an item-partitioned IVF ``ShardRouter`` on a ~100k-item catalog; the
  index scan, fan-out and merge dominate.

Each run walks the whole life cycle of its deployment: data, training
and bundle (set up three times), the gateway's cold start, an open-loop
phase at a fixed nominal rate, a search for the highest rate that meets
the latency limit, and streaming replays that hot-swap into the live
backend.  Every workload reports every end-to-end metric (``--trace
0``) or every per-layer metric (``--trace 1``, a separate run with
spans and timing wrappers on).  Human-readable lines come first; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Output checks run in every run; a mismatch makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Hard ceiling on one run: it must exit well inside three minutes.
WATCHDOG_S = 160

#: End-to-end metrics and their units (reported with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "recall_at_10": "share",
    "peak_rss_mb": "MiB",
}

#: End-to-end numbers printed with the others (and recorded by
#: ``trajectory.py``) but kept out of the final metrics.  On the 2-vCPU
#: reference box the machine's own speed drifts by up to ~1.5x from one
#: minute to the next, and these follow it: in two sets of ten seeds
#: their spread (quartile distance over median) reached 0.13-0.18 (cold
#: start, freshness, ingest, training, max rate), 0.32 (p50) and 1.05
#: (p99) on at least one workload, above the third of the largest bound
#: (0.25) that a gated metric's spread must stay under.
UNGATED = {
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "max_rate_rps": "1/s",
    "train_examples_per_s": "1/s",
    "ingest_events_per_s": "1/s",
    "freshness_p99_s": "s",
    "cold_start_s": "s",
}

#: Per-layer metrics and their units (reported with ``--trace 1``).
PER_LAYER = {
    "gateway.batching.coalesce_wait_ms.p50": "ms",
    "gateway.batching.batch_rows.mean": "count",
    "gateway.server.self_ms.p50": "ms",
    "gateway.server.self_ms.p99": "ms",
    "gateway.admission.shed_share": "share",
    "serving.service.batch_ms.p50": "ms",
    "serving.service.batch_ms.p99": "ms",
    "serving.service.cache_hit_ratio": "share",
    "serving.service.swap_ms.p50": "ms",
    "serving.service.swap_ms.max": "ms",
    "serving.sharding.queue_wait_ms.p50": "ms",
    "serving.sharding.queue_wait_ms.p99": "ms",
    "serving.sharding.merge_ms.p50": "ms",
    "serving.sharding.fanout_ms.p50": "ms",
    "serving.index.scan_ms.p50": "ms",
    "serving.index.scan_ms.p99": "ms",
    "serving.index.scored_fraction": "share",
    "serving.index.short_pages": "count",
    "serving.bundle.save_s": "s",
    "serving.bundle.load_s": "s",
    "repro.import_s": "s",
    "core.sampling.negatives_s": "s",
    "core.sgd.update_s": "s",
    "train.epoch_s.mean": "s",
    "streaming.updater.apply_ms.p50": "ms",
    "streaming.updater.apply_ms.p99": "ms",
    "streaming.updater.snapshot_ms.p50": "ms",
    "streaming.swap.publish_ms.p50": "ms",
    "streaming.swap.publish_ms.p99": "ms",
    "streaming.swap.checkpoint_ms.p50": "ms",
    "loadgen.lateness_ms.p99": "ms",
    "obs.tracing.overhead_share": "share",
    "obs.unattributed_share": "share",
}


class Watchdog(Exception):
    """Raised when a run exceeds :data:`WATCHDOG_S`."""


def _on_alarm(_signum, _frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("edge-zipf", "catalog-ivf"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    from probes import BLAS_ENV

    os.environ.update(BLAS_ENV)  # before numpy loads: pin BLAS threads
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    import selftest

    problems = selftest.run_all()
    if problems:
        for problem in problems:
            print("selftest FAIL", problem, file=sys.stderr)
        return 1

    from probes import fingerprint
    from workloads import WORKLOADS

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WATCHDOG_S)
    started = time.perf_counter()
    try:
        workload = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), run_dir
        )
        result = workload.run()
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    values = result.per_layer if args.trace else result.end_to_end
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    correct = all(result.checks.values())
    # The ladder overloads the system on purpose: requests its probes
    # leave unanswered are printed with that phase but are not failures
    # of the workload.
    counted = [p for name, p in result.phases.items() if name != "ladder"]
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    env = fingerprint(ROOT)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={time.perf_counter() - started:.1f}s")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name in wanted:
        print(f"{name:42s} {values[name]:14.6g} {wanted[name]}")
    ungated = {} if args.trace else {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in UNGATED.items()
    }
    for name, metric in ungated.items():
        print(f"{name:42s} {metric['value']:14.6g} {metric['unit']} (not gated)")
    for phase, counts in result.phases.items():
        print(f"phase {phase:20s} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for check, ok in result.checks.items():
        print(f"check {check:40s} {'ok' if ok else 'FAILED'}")
    print("# report " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": env, "phases": result.phases, "checks": result.checks,
        "ungated": ungated, "notes": result.notes,
    }, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
