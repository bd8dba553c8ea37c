"""Training front-door benchmark: the unified API must not cost throughput.

The ``repro.train`` consolidation wraps the threaded SGD engine (paper
Sec. 6.1) behind the shared :class:`~repro.train.base.Trainer` loop.  This
script gates the wrapper's overhead on the synthetic dataset:

* **threaded parity** — epoch throughput (examples/sec) of
  :class:`~repro.train.ThreadedTrainer` must be at least ``MIN_PARITY``
  x that of the bare :class:`~repro.parallel.trainer.ThreadedSGDEngine`
  it wraps.  Both run the identical per-sample engine, so anything below
  parity (minus measurement noise) means the wrapper loop added
  per-epoch cost;
* **serial context** — the vectorized ``SerialTrainer`` throughput is
  reported alongside (it should dwarf both per-sample paths);
* **equivalence spot-check** — one epoch at 1 worker must produce
  bit-identical user factors through the trainer and the bare engine.

Like ``bench_streaming.py`` this is a plain script so CI can archive the
JSON payload::

    PYTHONPATH=src python benchmarks/bench_train.py --smoke --out BENCH_train.json

Tables land in ``benchmarks/results/train.*`` either way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _harness import format_table, report  # noqa: E402

from repro import (  # noqa: E402
    SerialTrainer,
    SyntheticConfig,
    TaxonomyFactorModel,
    ThreadedTrainer,
    TrainConfig,
    generate_dataset,
    train_test_split,
)
from repro.core.factors import FactorSet  # noqa: E402
from repro.parallel.trainer import ThreadedSGDEngine  # noqa: E402

#: ThreadedTrainer throughput must reach this fraction of the bare
#: ThreadedSGDEngine's.  They execute the same engine, so the floor only
#: absorbs timer noise; a real wrapper regression lands far below it.
MIN_PARITY = 0.85

DATA_SEED = 1234
SPLIT_SEED = 99
TRAIN_SEED = 77


def _sizes(smoke: bool) -> Dict[str, int]:
    if smoke:
        return {"n_users": 800, "epochs": 2, "factors": 8, "workers": 2}
    return {"n_users": 4000, "epochs": 4, "factors": 16, "workers": 4}


def _config(sizes: Dict[str, int]) -> TrainConfig:
    # The threaded regime of the paper's scaling experiment: TF(4,0),
    # no sibling mixing.
    return TrainConfig(
        factors=sizes["factors"],
        epochs=sizes["epochs"],
        sibling_ratio=0.0,
        seed=TRAIN_SEED,
    )


def _throughput(epoch_fn, epochs: int) -> float:
    """Best examples/sec over *epochs* runs of ``epoch_fn() -> (n, s)``."""
    best = 0.0
    for _ in range(epochs):
        examples, seconds = epoch_fn()
        if seconds > 0:
            best = max(best, examples / seconds)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI")
    parser.add_argument("--out", default=None,
                        help="also write the JSON payload here")
    args = parser.parse_args(argv)
    sizes = _sizes(args.smoke)

    data = generate_dataset(
        SyntheticConfig(n_users=sizes["n_users"], seed=DATA_SEED)
    )
    split = train_test_split(data.log, mu=0.5, seed=SPLIT_SEED)
    train = split.train
    config = _config(sizes)
    workers = sizes["workers"]

    # -- baseline ("old" in the payload): the bare ThreadedSGDEngine -----
    old_fs = FactorSet(
        train.n_users, data.taxonomy, config.factors,
        config.taxonomy_levels, seed=config.seed,
    )
    old_trainer = ThreadedSGDEngine(old_fs, train, config, n_threads=workers)
    old_trainer.train_epoch()  # warm-up (allocations, caches)

    def old_epoch():
        stats = old_trainer.train_epoch()
        return stats.n_examples, stats.seconds

    old_tput = _throughput(old_epoch, sizes["epochs"])

    # -- the front door ("new"): ThreadedTrainer ------------------------
    new_model = TaxonomyFactorModel(data.taxonomy, config)
    new_trainer = ThreadedTrainer(new_model, n_workers=workers)
    new_trainer.train(train, epochs=1)  # warm-up, also runs _setup
    # Driving _run_epoch directly (to time bare epochs, like the
    # engine's train_epoch) bypasses the loop's history append, so the
    # epoch index — and with it the per-epoch seed — advances manually.
    epoch_counter = [1]

    def new_epoch():
        stats = new_trainer._run_epoch(epoch_counter[0])
        epoch_counter[0] += 1
        return stats.n_examples, stats.seconds

    new_tput = _throughput(new_epoch, sizes["epochs"])

    # -- serial context -------------------------------------------------
    serial_model = TaxonomyFactorModel(data.taxonomy, config)
    serial_trainer = SerialTrainer(serial_model)
    started = time.perf_counter()
    serial_result = serial_trainer.train(train, epochs=sizes["epochs"])
    serial_seconds = time.perf_counter() - started
    serial_examples = sum(e.n_examples for e in serial_result.history)
    serial_tput = serial_examples / serial_seconds if serial_seconds else 0.0

    parity = new_tput / old_tput if old_tput else float("inf")

    # -- equivalence spot-check (1 worker, 1 epoch) ---------------------
    eq_fs = FactorSet(
        train.n_users, data.taxonomy, config.factors,
        config.taxonomy_levels, seed=config.seed,
    )
    ThreadedSGDEngine(eq_fs, train, config, n_threads=1).train_epoch()
    eq_model = TaxonomyFactorModel(data.taxonomy, config)
    ThreadedTrainer(eq_model, n_workers=1).train(train, epochs=1)
    identical = bool(np.array_equal(eq_fs.user, eq_model.factor_set.user))

    rows: List[List] = [
        ["ThreadedSGDEngine (bare)", workers, old_tput],
        ["ThreadedTrainer", workers, new_tput],
        ["SerialTrainer (batch)", 1, serial_tput],
    ]
    table = format_table(
        "train front-door throughput (examples/sec, best epoch)",
        ["trainer", "workers", "examples/sec"],
        rows,
        note=(
            f"parity trainer/engine = {parity:.2f} (floor {MIN_PARITY}); "
            f"1-worker factors identical: {identical}"
        ),
    )
    print(table)

    payload = {
        "smoke": args.smoke,
        "sizes": sizes,
        "old_examples_per_sec": old_tput,
        "new_examples_per_sec": new_tput,
        "serial_examples_per_sec": serial_tput,
        "parity": parity,
        "min_parity": MIN_PARITY,
        "one_worker_identical": identical,
    }
    report("train", table, payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")

    failures = []
    if parity < MIN_PARITY:
        failures.append(
            f"ThreadedTrainer throughput {new_tput:.0f}/sec fell below "
            f"{MIN_PARITY}x the bare ThreadedSGDEngine ({old_tput:.0f}/sec)"
        )
    if not identical:
        failures.append(
            "1-worker ThreadedTrainer diverged from ThreadedSGDEngine"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
