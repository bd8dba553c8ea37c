"""Repeat the benchmark over seeds; report spreads and record a trajectory point.

Run from the repository root::

    python3 perfbench/trajectory.py --workloads edge-zipf,catalog-ivf \\
        --seeds 1-10 [--trace] [--record perfbench/results/trajectory.json]

For each workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median`` next to the bound ``BENCHMARK.json`` fixes.
``--record`` appends one point (median and quartiles of every metric,
with the environment fingerprint) to the trajectory file.  ``--trace``
also runs each seed once traced and records the per-layer medians.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from probes import fingerprint
from stats import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} seed {seed} exited {out.returncode}:\n"
            f"{out.stdout[-3000:]}\n{out.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    for line in lines:
        if line.startswith("# report "):
            result["ungated"] = json.loads(line[len("# report "):]).get("ungated", {})
    return result


def summarize(runs, names):
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="edge-zipf,catalog-ivf")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    point = {"label": args.label, "fingerprint": fingerprint(ROOT),
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f}s "
                  f"correct={runs[-1]['correct']}", flush=True)
        entry = {
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": summarize(runs, bounds),
        }
        if runs[0].get("ungated"):
            entry["ungated"] = summarize(
                [{"metrics": r["ungated"]} for r in runs], runs[0]["ungated"]
            )
        for name, s in {**entry["end_to_end"], **entry.get("ungated", {})}.items():
            limit = bounds.get(name)
            if limit is None:
                flag = "  (not gated)"
            else:
                flag = "" if s["spread"] <= limit / 3 else "  <-- spread"
                ok &= s["spread"] <= limit
            print(f"  {name:24s} median {s['median']:12.5g} {s['unit']:6s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} "
                  f"spread {s['spread']:.4f} (bound {limit}){flag}", flush=True)
            print("      values " + " ".join(f"{v:.5g}" for v in s["values"]), flush=True)
        if args.trace:
            traced = [run_once(workload, seed, seconds, 1)
                      for seed in seeds_of(args.seeds)[:3]]
            entry["per_layer"] = {
                name: {k: v for k, v in s.items() if k != "values"}
                for name, s in summarize(traced, traced[0]["metrics"]).items()
            }
        point["workloads"][workload] = entry
    if args.record:
        try:
            history = json.loads(args.record.read_text())
        except (OSError, ValueError):
            history = {"points": []}
        history["points"].append(point)
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(history, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
