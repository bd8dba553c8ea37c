"""Retrieval benchmark: exact at 100k items, approximate past 1M.

Three acceptance claims of ``repro.serving.index`` are measured on a
synthetic catalog whose factors have the hierarchical coherence the TF
model learns (ancestor offsets carry most of the signal, Eq. 1) — a
100k-item catalog in ``--smoke`` mode (CI) and a **1M-item** catalog in
full mode:

* **exactness** — :class:`SubtreeIndex` top-k must be **bit-identical**
  to the brute-force ``top_k_rows`` ranking, on the raw factor matrices
  *and* through a :class:`RecommenderService` pair
  (``retrieval="exact"`` vs ``"pruned"``), including forced score ties
  (whole subtrees of identical factors, duplicates across subtrees),
  fully-banned rows (all ``-inf``), rows with fewer than ``k`` finite
  candidates, and ``k`` larger than the catalog.  This gate binds in
  **every** mode — smoke (CI) included;
* **approximate quality** — the sub-linear tiers
  (``retrieval="budget"`` / ``"ivf"``) must return rankings
  bit-identical to exact at their knob extremes (``budget=None`` /
  ``nprobe=None`` — binds in every mode), and at the shipped gate knobs
  (:data:`GATE_FRACTION` of the catalog / of the cells) must reach
  **>= 95% recall@10** (binds in every mode) at **>= 5x** the
  brute-force serving throughput (binds at full scale; CI boxes make no
  performance promises).  The whole budget/nprobe sweep is archived as a
  recall-vs-throughput curve in the JSON payload (and separately via
  ``--curve-out``);
* **throughput** — the *exact* pruned service must serve
  ``recommend_batch`` at **>= 2x** the brute-force service on the same
  request stream (full scale only).

Like the other subsystem benches this is a plain script so CI can run it
directly and archive its JSON payload::

    PYTHONPATH=src python benchmarks/bench_index.py --smoke --out BENCH_index.json

``--digest FILE`` additionally writes a SHA-256 over the ranking arrays
— exact, budget, and ivf, raw-index and served — with no timings and no
environment.  The CI determinism job runs the bench twice and fails on
any byte-level difference between the two digests, which is what makes
"approximate but deterministic" an enforced contract rather than a
docstring claim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _harness import format_table, report  # noqa: E402

from repro.core.factors import FactorSet  # noqa: E402
from repro.core.tf_model import TaxonomyFactorModel  # noqa: E402
from repro.core.topk import top_k_rows  # noqa: E402
from repro.eval.recall import RecallCurve, sweep_recall  # noqa: E402
from repro.serving.index import RetrievalPlan, SubtreeIndex  # noqa: E402
from repro.serving.service import RecommenderService  # noqa: E402
from repro.taxonomy.tree import Taxonomy  # noqa: E402
from repro.utils.config import TrainConfig  # noqa: E402

#: Acceptance floor for pruned/brute-force throughput (full scale).
MIN_SPEEDUP = 2.0
#: Acceptance floor for budget|ivf/brute-force throughput (full scale).
MIN_APPROX_SPEEDUP = 5.0
#: Acceptance floor for recall@k at the gate knobs (every mode).
MIN_RECALL = 0.95
#: Gate operating point: scan this fraction of the catalog (budget) /
#: of the cells (nprobe).  Also the first entry of the sweep grids.
GATE_FRACTION = 0.01
#: Budget sweep grid, as fractions of the catalog.
BUDGET_FRACTIONS = (0.01, 0.02, 0.05)
#: nprobe sweep grid, as fractions of the cell count.
NPROBE_FRACTIONS = (0.01, 0.02, 0.05)
#: Cell depth for the approximate index: level 2 = subcategory cells
#: (2k cells of 50 items at smoke scale, 10k cells of 100 at 1M).  The
#: finer cells make the Cauchy–Schwarz cell bounds sharp enough that a
#: 1% scan already recovers the exact top-10 on coherent factors.
APPROX_LEVEL = 2
#: Smoke catalog: 50 top categories x 40 subcategories x 50 leaves.
SMOKE_BRANCHING = (50, 40, 50)
#: Full catalog: 100 x 100 x 100 = the paper's 1M-item regime.
FULL_BRANCHING = (100, 100, 100)
FACTORS = 32
N_USERS = 2048

SEED = 4242


def _sizes(smoke: bool) -> Dict[str, int]:
    if smoke:
        return {
            "exact_rows": 256, "throughput_batch": 256, "rounds": 3,
            "k": 10, "recall_rows": 128, "identity_rows": 32,
            "approx_rounds": 3,
        }
    # Full mode serves a 1M-item catalog where the brute-force reference
    # ranks ~8 rows/sec on one core — row counts are sized so the brute
    # drains stay in the tens of seconds, not tens of minutes.
    return {
        "exact_rows": 256, "throughput_batch": 128, "rounds": 2,
        "k": 10, "recall_rows": 128, "identity_rows": 32,
        "approx_rounds": 2,
    }


def _catalog(branching: Tuple[int, int, int]) -> Taxonomy:
    """A balanced 3-level taxonomy with ``a*b*c`` leaves."""
    a, b, c = branching
    parent: List[int] = [-1]
    parent += [0] * a
    parent += np.repeat(np.arange(1, 1 + a), b).tolist()
    parent += np.repeat(np.arange(1 + a, 1 + a + a * b), c).tolist()
    taxonomy = Taxonomy(parent)
    assert taxonomy.n_items == a * b * c
    return taxonomy


def _factor_set(
    taxonomy: Taxonomy,
    branching: Tuple[int, int, int],
    rng: np.random.Generator,
) -> FactorSet:
    """Hierarchically coherent factors: ancestors dominate, leaves refine.

    This is the structure Eq. 1 training produces — items under one
    subtree share their ancestor offsets — and exactly what makes the
    per-subtree Cauchy–Schwarz bounds sharp.  Two distortions are baked
    in to stress the exactness gate: one whole subtree of *identical*
    leaf offsets (every item in it ties on every query) and one leaf
    chain duplicated into a different top-level category (cross-subtree
    score ties).
    """
    scale = np.where(taxonomy.level >= taxonomy.max_depth, 0.05, 0.3)
    scale = np.append(scale, 0.0)  # pad row
    w = rng.normal(0.0, 1.0, size=(taxonomy.n_nodes + 1, FACTORS))
    w *= scale[:, None]
    bias = rng.normal(0.0, 1.0, size=taxonomy.n_nodes + 1) * scale * 0.3

    # Within-subtree exact ties: every leaf under the first subcategory
    # shares one offset vector and bias, so all its items tie on every
    # query and the tie-break order alone decides the ranking there.
    a, b, _c = branching
    first_sub = taxonomy.nodes_of_items(taxonomy.subtree_items(1 + a))
    w[first_sub] = w[first_sub[0]]
    bias[first_sub] = bias[first_sub[0]]

    # Cross-subtree exact ties: mirror top category 1's entire offset
    # block onto top category 2, node for node.  The balanced layout
    # makes corresponding nodes a constant id apart, and elementwise
    # equal chains sum to bitwise-equal effective factors — thousands of
    # items tied across *different* subtrees (so merged from different
    # scan blocks).
    sub_a = np.arange(1 + a, 1 + a + b)
    leaf_a = taxonomy.nodes_of_items(taxonomy.subtree_items(1))
    w[2] = w[1]
    bias[2] = bias[1]
    w[sub_a + b] = w[sub_a]
    bias[sub_a + b] = bias[sub_a]
    w[leaf_a + leaf_a.size] = w[leaf_a]
    bias[leaf_a + leaf_a.size] = bias[leaf_a]

    user = rng.normal(0.0, 0.3, size=(N_USERS, FACTORS))
    return FactorSet.from_arrays(
        taxonomy, user=user, w=w, bias=bias,
        levels=taxonomy.max_depth + 1, init_scale=0.1,
    )


def _banned_rows(
    n_rows: int, n_items: int, rng: np.random.Generator
) -> List[np.ndarray]:
    """Per-row exclusions stressing the pad paths.

    Row 0 bans the whole catalog (an all--inf row), row 1 leaves only 3
    finite candidates (fewer than ``k``), the rest ban a random
    purchase-history-sized handful.
    """
    banned: List[np.ndarray] = [np.arange(n_items, dtype=np.int64)]
    if n_rows > 1:
        keep = np.array([7, n_items // 2 + 7, n_items - 1])
        banned.append(np.setdiff1d(np.arange(n_items, dtype=np.int64), keep))
    for _ in range(max(0, n_rows - 2)):
        banned.append(
            rng.choice(n_items, size=int(rng.integers(0, 120)), replace=False)
        )
    return banned[:n_rows]


def _model(taxonomy: Taxonomy, factor_set: FactorSet) -> TaxonomyFactorModel:
    model = TaxonomyFactorModel(taxonomy, TrainConfig(factors=FACTORS))
    model._factors = factor_set
    return model


# ----------------------------------------------------------------------
# (a) Bit-identical rankings, raw index and service pair
# ----------------------------------------------------------------------
def bench_exactness(
    sizes: Dict[str, int],
    taxonomy: Taxonomy,
    factor_set: FactorSet,
    rng: np.random.Generator,
) -> Dict[str, object]:
    n_items = taxonomy.n_items
    effective = factor_set.effective_items()
    bias = factor_set.bias_of_items()
    index = SubtreeIndex(effective, bias, taxonomy)
    k = sizes["k"]
    n_rows = sizes["exact_rows"]
    queries = rng.normal(0.0, 0.3, size=(n_rows, FACTORS))
    banned = _banned_rows(n_rows, n_items, rng)

    dense = queries @ effective.T + bias[None, :]
    for row, row_banned in enumerate(banned):
        if row_banned.size:
            dense[row, row_banned] = -np.inf
    brute = top_k_rows(dense, k)
    page = index.top_k(queries, k, banned=banned)

    # k far beyond the catalog width (padded everywhere) on a small slab.
    wide_brute = top_k_rows(dense[:8], n_items + 5)
    wide_page = index.top_k(queries[:8], n_items + 5, banned=banned[:8])
    del dense

    # The same contract through the serving front door.
    model = _model(taxonomy, factor_set)
    exact = RecommenderService(model, cache_size=0)
    pruned = RecommenderService(model, cache_size=0, retrieval="pruned")
    users = np.arange(min(N_USERS, n_rows), dtype=np.int64)
    served_exact = exact.recommend_batch(users, k=k)
    served_pruned = pruned.recommend_batch(users, k=k)

    return {
        "rows_checked": n_rows,
        "k": k,
        "index_level": index.level,
        "n_groups": index.n_groups,
        "raw_mismatches": int((page.items != brute).any(axis=1).sum()),
        "wide_k_mismatches": int((wide_page.items != wide_brute).any(axis=1).sum()),
        "service_mismatches": int(
            (served_pruned != served_exact).any(axis=1).sum()
        ),
        "all_banned_row_is_padded": bool((page.items[0] == -1).all()),
        "short_row_finite_slots": int((page.items[1] >= 0).sum()),
        "fraction_scored": page.nodes_scored / float(n_rows * n_items),
        "_arrays": (page.items, brute, wide_page.items, served_pruned),
    }


# ----------------------------------------------------------------------
# (b) Pruned vs brute-force serving throughput
# ----------------------------------------------------------------------
def _request_stream(sizes: Dict[str, int]) -> List[np.ndarray]:
    batch, rounds = sizes["throughput_batch"], sizes["rounds"]
    return [
        np.arange(start, start + batch, dtype=np.int64) % N_USERS
        for start in range(0, batch * rounds, batch)
    ]


def _drain(
    service: RecommenderService, batches: List[np.ndarray], k: int
) -> float:
    started = time.perf_counter()
    for users in batches:
        service.recommend_batch(users, k=k)
    return time.perf_counter() - started


def bench_throughput(
    sizes: Dict[str, int], taxonomy: Taxonomy, factor_set: FactorSet
) -> Dict[str, float]:
    model = _model(taxonomy, factor_set)
    k = sizes["k"]
    batches = _request_stream(sizes)
    served = sum(b.size for b in batches)

    exact = RecommenderService(model, cache_size=0)
    brute_seconds = _drain(exact, batches, k)
    pruned_service = RecommenderService(model, cache_size=0, retrieval="pruned")
    pruned_seconds = _drain(pruned_service, batches, k)
    return {
        "requests": served,
        "k": k,
        "brute_seconds": brute_seconds,
        "brute_users_per_sec": served / brute_seconds,
        "pruned_seconds": pruned_seconds,
        "pruned_users_per_sec": served / pruned_seconds,
        "speedup": brute_seconds / pruned_seconds,
        "pruned_fraction_scored": (
            pruned_service.stats.nodes_scored
            / float(exact.stats.nodes_scored)
        ),
    }


# ----------------------------------------------------------------------
# (c) Approximate tiers: knob-extreme identity, recall curve, speedup
# ----------------------------------------------------------------------
def bench_approx(
    sizes: Dict[str, int],
    taxonomy: Taxonomy,
    factor_set: FactorSet,
    rng: np.random.Generator,
    brute_users_per_sec: float,
) -> Dict[str, object]:
    """Measure the budget/ivf tiers against the exact reference.

    Returns identity-mismatch counts (binding gates), the full
    recall-vs-throughput sweep as a :class:`RecallCurve`, and the served
    throughput of both modes at the gate knobs relative to the
    brute-force service measured by :func:`bench_throughput`.
    """
    n_items = taxonomy.n_items
    effective = factor_set.effective_items()
    bias = factor_set.bias_of_items()
    index = SubtreeIndex(
        effective, bias, taxonomy, level=APPROX_LEVEL, approx=True
    )
    k = sizes["k"]
    gate_budget = max(1, round(GATE_FRACTION * n_items))
    gate_nprobe = max(1, round(GATE_FRACTION * index.n_cells))

    # Knob-extreme identity: budget=None / nprobe=None must reproduce the
    # exact ranking bit for bit.  Rankings (items), not raw scores: the
    # exhaustive approximate scan visits items through per-cell gather
    # GEMMs whose BLAS tail kernels can differ from the exact path's
    # fixed-width blocks by 1 ULP — the same tolerance the exact-vs-brute
    # gates above already encode by comparing rankings.
    n_identity = sizes["identity_rows"]
    id_queries = rng.normal(0.0, 0.3, size=(n_identity, FACTORS))
    id_banned = _banned_rows(n_identity, n_items, rng)
    exact_page = index.top_k(id_queries, k, banned=id_banned)
    full_budget = index.search(id_queries, k, id_banned, RetrievalPlan("budget"))
    full_probe = index.search(id_queries, k, id_banned, RetrievalPlan("ivf"))

    def _mismatches(page) -> int:
        return int((page.items != exact_page.items).any(axis=1).sum())

    # Recall-vs-throughput sweep; the gate knobs are the grids' first
    # entries, so their recalls come straight off the curve.
    n_rows = sizes["recall_rows"]
    queries = rng.normal(0.0, 0.3, size=(n_rows, FACTORS))
    banned = _banned_rows(n_rows, n_items, rng)
    budgets = [max(1, round(f * n_items)) for f in BUDGET_FRACTIONS]
    nprobes = [max(1, round(f * index.n_cells)) for f in NPROBE_FRACTIONS]
    assert budgets[0] == gate_budget and nprobes[0] == gate_nprobe
    curve = sweep_recall(
        index, queries, k=k, budgets=budgets, nprobes=nprobes, banned=banned
    )
    recall_of = {(p.mode, p.knob): p.recall for p in curve.points}
    budget_recall = recall_of[("budget", gate_budget)]
    ivf_recall = recall_of[("ivf", gate_nprobe)]

    # Gate-knob ranking pages for the determinism digest.
    budget_page = index.search(
        queries, k, banned, RetrievalPlan("budget", budget=gate_budget)
    )
    ivf_page = index.search(
        queries, k, banned, RetrievalPlan("ivf", nprobe=gate_nprobe)
    )

    # Served throughput at the gate knobs, against the brute-force
    # users/sec measured on the same machine moments earlier.
    model = _model(taxonomy, factor_set)
    batches = _request_stream(
        {**sizes, "rounds": sizes["approx_rounds"]}
    )
    served = sum(b.size for b in batches)
    budget_service = RecommenderService(
        model, cache_size=0, retrieval="budget", budget=gate_budget,
        index_level=APPROX_LEVEL,
    )
    budget_seconds = _drain(budget_service, batches, k)
    ivf_service = RecommenderService(
        model, cache_size=0, retrieval="ivf", nprobe=gate_nprobe,
        index_level=APPROX_LEVEL,
    )
    ivf_seconds = _drain(ivf_service, batches, k)
    served_budget = budget_service.recommend_batch(batches[0], k=k)
    served_ivf = ivf_service.recommend_batch(batches[0], k=k)

    return {
        "k": k,
        "n_cells": index.n_cells,
        "level": index.level,
        "gate_budget": gate_budget,
        "gate_nprobe": gate_nprobe,
        "identity_rows": n_identity,
        "budget_identity_mismatches": _mismatches(full_budget),
        "ivf_identity_mismatches": _mismatches(full_probe),
        "budget_recall": budget_recall,
        "ivf_recall": ivf_recall,
        "requests": served,
        "budget_users_per_sec": served / budget_seconds,
        "ivf_users_per_sec": served / ivf_seconds,
        "budget_speedup": (served / budget_seconds) / brute_users_per_sec,
        "ivf_speedup": (served / ivf_seconds) / brute_users_per_sec,
        "_curve": curve,
        "_arrays": (
            budget_page.items, budget_page.scores,
            ivf_page.items, ivf_page.scores,
            served_budget, served_ivf,
        ),
    }


# ----------------------------------------------------------------------
# Reporting / gates
# ----------------------------------------------------------------------
def _digest(arrays) -> str:
    """SHA-256 over the ranking arrays only — stable across runs."""
    payload = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        payload.update(str(array.shape).encode())
        payload.update(str(array.dtype).encode())
        payload.update(array.tobytes())
    return payload.hexdigest()


def run(smoke: bool) -> Dict[str, object]:
    sizes = _sizes(smoke)
    branching = SMOKE_BRANCHING if smoke else FULL_BRANCHING
    rng = np.random.default_rng(SEED)
    taxonomy = _catalog(branching)
    n_items = taxonomy.n_items
    factor_set = _factor_set(taxonomy, branching, rng)
    exactness = bench_exactness(sizes, taxonomy, factor_set, rng)
    throughput = bench_throughput(sizes, taxonomy, factor_set)
    approx = bench_approx(
        sizes, taxonomy, factor_set, rng, throughput["brute_users_per_sec"]
    )
    curve: RecallCurve = approx.pop("_curve")
    digest = _digest(tuple(exactness.pop("_arrays")) + tuple(approx.pop("_arrays")))

    speedup_gate = f">= {MIN_SPEEDUP}" if not smoke else "(smoke: recorded)"
    approx_gate = f">= {MIN_APPROX_SPEEDUP}" if not smoke else "(smoke: recorded)"
    table = format_table(
        f"index: exact + approximate retrieval over {n_items} items",
        ["measure", "value", "gate"],
        [
            ["index groups (level)",
             f"{exactness['n_groups']} ({exactness['index_level']})", ""],
            ["raw top-k mismatches", exactness["raw_mismatches"], "== 0"],
            ["k > catalog mismatches", exactness["wide_k_mismatches"], "== 0"],
            ["service top-k mismatches", exactness["service_mismatches"], "== 0"],
            ["budget=None identity mismatches",
             approx["budget_identity_mismatches"], "== 0"],
            ["nprobe=None identity mismatches",
             approx["ivf_identity_mismatches"], "== 0"],
            ["fraction of catalog scored", exactness["fraction_scored"], ""],
            [f"budget recall@{sizes['k']} (budget={approx['gate_budget']})",
             approx["budget_recall"], f">= {MIN_RECALL}"],
            [f"ivf recall@{sizes['k']} (nprobe={approx['gate_nprobe']})",
             approx["ivf_recall"], f">= {MIN_RECALL}"],
            ["brute-force users/sec", throughput["brute_users_per_sec"], ""],
            ["pruned users/sec", throughput["pruned_users_per_sec"], ""],
            ["pruned speedup", throughput["speedup"], speedup_gate],
            ["budget users/sec", approx["budget_users_per_sec"], ""],
            ["budget speedup", approx["budget_speedup"], approx_gate],
            ["ivf users/sec", approx["ivf_users_per_sec"], ""],
            ["ivf speedup", approx["ivf_speedup"], approx_gate],
        ],
        note="exactness + identity + recall gates bind in every mode; "
             "the speedup gates at full scale",
    )
    payload: Dict[str, object] = {
        "mode": "smoke" if smoke else "full",
        "sizes": sizes,
        "catalog": {
            "n_items": n_items, "branching": list(branching),
            "factors": FACTORS, "seed": SEED,
        },
        "exactness": exactness,
        "throughput": throughput,
        "approx": approx,
        "recall_curve": curve.as_dict(),
        "digest": digest,
        "gates": {
            "min_speedup": MIN_SPEEDUP,
            "min_approx_speedup": MIN_APPROX_SPEEDUP,
            "min_recall": MIN_RECALL,
            "gate_fraction": GATE_FRACTION,
        },
    }
    report("index", table, payload)
    print(table)

    failures = []
    if exactness["raw_mismatches"]:
        failures.append(
            f"{exactness['raw_mismatches']} pruned rows diverge from the "
            f"brute-force ranking"
        )
    if exactness["wide_k_mismatches"]:
        failures.append("k > catalog rows diverge from brute force")
    if exactness["service_mismatches"]:
        failures.append(
            f"{exactness['service_mismatches']} pruned service rows diverge "
            f"from the exact service"
        )
    if not exactness["all_banned_row_is_padded"]:
        failures.append("fully-banned row leaked non-pad items")
    if exactness["short_row_finite_slots"] != 3:
        failures.append(
            f"row with 3 finite candidates returned "
            f"{exactness['short_row_finite_slots']} items"
        )
    if approx["budget_identity_mismatches"]:
        failures.append(
            f"{approx['budget_identity_mismatches']} budget=None rows "
            f"diverge from the exact ranking"
        )
    if approx["ivf_identity_mismatches"]:
        failures.append(
            f"{approx['ivf_identity_mismatches']} nprobe=None rows "
            f"diverge from the exact ranking"
        )
    for mode, recall in (
        ("budget", approx["budget_recall"]), ("ivf", approx["ivf_recall"])
    ):
        if recall < MIN_RECALL:
            failures.append(
                f"{mode} recall@{sizes['k']} {recall:.4f} below the "
                f"{MIN_RECALL} floor at the gate knob"
            )
    if not smoke:
        if throughput["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"pruned speedup {throughput['speedup']:.2f}x below the "
                f"{MIN_SPEEDUP}x floor"
            )
        for mode, speedup in (
            ("budget", approx["budget_speedup"]), ("ivf", approx["ivf_speedup"])
        ):
            if speedup < MIN_APPROX_SPEEDUP:
                failures.append(
                    f"{mode} speedup {speedup:.2f}x below the "
                    f"{MIN_APPROX_SPEEDUP}x floor"
                )
    payload["failures"] = failures
    return payload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI sizes (100k catalog); the throughput gates are only recorded",
    )
    parser.add_argument(
        "--out", default="BENCH_index.json",
        help="where to write the JSON payload (default: ./BENCH_index.json)",
    )
    parser.add_argument(
        "--curve-out", default=None, metavar="FILE",
        help="also write the recall-vs-throughput curve alone here "
             "(the CI artifact consumed by capacity planning)",
    )
    parser.add_argument(
        "--digest", default=None, metavar="FILE",
        help="also write the SHA-256 ranking digest here (for the CI "
             "determinism job: two runs must produce identical bytes "
             "across exact, budget, and ivf rankings)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, default=float) + "\n")
    print(f"wrote {out}")
    if args.curve_out:
        Path(args.curve_out).write_text(
            json.dumps(payload["recall_curve"], indent=2, default=float) + "\n"
        )
        print(f"wrote {args.curve_out}")
    if args.digest:
        Path(args.digest).write_text(str(payload["digest"]) + "\n")
        print(f"wrote {args.digest}")
    if payload["failures"]:
        for failure in payload["failures"]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
