"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the end-to-end workflow on files:

* ``generate`` — write a synthetic taxonomy + purchase log,
* ``train`` — fit a TF/MF model and save it as a model bundle (flags, or
  an :class:`~repro.utils.config.ExperimentSpec` via ``--config`` with
  flags acting as overrides),
* ``run`` — execute a declarative experiment spec end to end (train every
  variant, print the comparison table, optionally save bundles),
* ``sweep`` — grid-sweep any spec fields (``--grid train.factors=10,20``),
* ``evaluate`` — score a trained model with the paper's protocol,
* ``recommend`` — print top-k items for one user,
* ``serve-batch`` — serve top-k for many users through the batched
  :class:`~repro.serving.service.RecommenderService`,
* ``serve-sharded`` — serve the same workload through a multi-process
  :class:`~repro.serving.sharding.ShardRouter` fleet (factor matrices in
  shared memory, one worker per shard),
* ``stream`` — replay held-out transactions as a live event stream
  through the online updater, hot-swapping the served model as it goes,
* ``learn-taxonomy`` — build a taxonomy for a log that has none, by
  clustering bootstrap MF factors (deterministic; prints the tree digest),
* ``stats`` — dataset characteristics (the Fig. 5 quantities).

All model fitting goes through the unified ``repro.train`` front door —
``--backend serial|threaded|online`` selects the execution regime without
changing the objective.

Models persist as :class:`~repro.serving.bundle.ModelBundle` directories
(factors + taxonomy + config + manifest).  The pre-1.1 ``model.npz`` +
``model.npz.meta.json`` sidecar convention was removed in 2.0; re-run
``train`` to produce a bundle.

Example session::

    python -m repro generate --users 2000 --out-dir /tmp/shop
    python -m repro train    --data-dir /tmp/shop --model /tmp/shop/tf
    python -m repro run      --config examples/specs/tf_vs_mf.json
    python -m repro sweep    --config examples/specs/tf_vs_mf.json \\
        --grid train.factors=10,20,50
    python -m repro evaluate --data-dir /tmp/shop --model /tmp/shop/tf
    python -m repro recommend --data-dir /tmp/shop --model /tmp/shop/tf --user 0
    python -m repro serve-batch --data-dir /tmp/shop --model /tmp/shop/tf \\
        --users 0:100 -k 5 --out /tmp/shop/recs.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__
from repro.core.tf_model import TaxonomyFactorModel
from repro.obs import (
    TraceBuffer,
    Tracer,
    read_snapshot,
    read_trace_jsonl,
    stitch,
    to_json_lines,
    to_prometheus_text,
    to_table,
    write_snapshot,
    write_trace_jsonl,
)
from repro.data.split import TrainTestSplit, train_test_split
from repro.data.stats import summarize
from repro.data.synthetic import generate_dataset
from repro.data.transactions import TransactionLog
from repro.eval.protocol import evaluate_cold_start, evaluate_model, evaluate_topk
from repro.serving.bundle import MANIFEST_NAME, BundleError, ModelBundle
from repro.serving.index import RETRIEVAL_MODES, RetrievalPlan
from repro.serving.service import RecommenderService
from repro.serving.sharding import ShardRouter, ShardingError
from repro.streaming.events import events_from_transactions
from repro.streaming.pipeline import StreamingPipeline
from repro.streaming.swap import CheckpointStore
from repro.streaming.updater import OnlineUpdater
from repro.taxonomy.io import load_taxonomy, save_taxonomy
from repro.train.runner import ExperimentRunner, sweep, sweep_table
from repro.utils.config import (
    CascadeConfig,
    DataSpec,
    EvalSpec,
    ExperimentSpec,
    SyntheticConfig,
    TrainConfig,
    _coerce_override,
    apply_overrides,
    load_spec,
)
from repro.utils.logging import enable_console_logging

TAXONOMY_FILE = "taxonomy.json"
LOG_FILE = "transactions.jsonl"


def _data_paths(data_dir: str) -> tuple:
    directory = Path(data_dir)
    return directory / TAXONOMY_FILE, directory / LOG_FILE


def cmd_generate(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        n_users=args.users,
        mean_transactions=args.transactions,
        seed=args.seed,
    )
    data = generate_dataset(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    taxonomy_path, log_path = _data_paths(args.out_dir)
    save_taxonomy(data.taxonomy, taxonomy_path)
    data.log.save(log_path)
    print(f"wrote {taxonomy_path} ({data.taxonomy})")
    print(f"wrote {log_path} ({data.log})")
    return 0


def _load_data(data_dir: str):
    taxonomy_path, log_path = _data_paths(data_dir)
    if not taxonomy_path.exists() or not log_path.exists():
        raise SystemExit(
            f"missing {TAXONOMY_FILE} / {LOG_FILE} in {data_dir} "
            f"(run `python -m repro generate` first)"
        )
    return load_taxonomy(taxonomy_path), TransactionLog.load(log_path)


def _parse_sets(pairs: Sequence[str]) -> Dict[str, str]:
    """``--set key.path=value`` pairs into an overrides dict."""
    overrides: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"invalid --set {pair!r} (expected KEY.PATH=VALUE)"
            )
        overrides[key] = value
    return overrides


#: The ``train`` command's historical flag defaults, expressed as a spec.
def _default_train_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="cli-train",
        model="tf",
        train=TrainConfig(
            factors=20,
            epochs=10,
            learning_rate=0.05,
            reg=0.01,
            taxonomy_levels=4,
            markov_order=0,
            sibling_ratio=0.5,
            seed=0,
        ),
    )


def _train_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Resolve ``train``'s spec: ``--config`` base, flags as overrides."""
    try:
        spec = load_spec(args.config) if args.config else _default_train_spec()
        overrides: Dict[str, object] = {}
        for flag, path in (
            ("factors", "train.factors"),
            ("epochs", "train.epochs"),
            ("learning_rate", "train.learning_rate"),
            ("reg", "train.reg"),
            ("levels", "train.taxonomy_levels"),
            ("markov", "train.markov_order"),
            ("sibling", "train.sibling_ratio"),
            ("mu", "data.mu"),
            ("backend", "trainer.backend"),
            ("workers", "trainer.n_workers"),
        ):
            value = getattr(args, flag)
            if value is not None:
                overrides[path] = value
        if args.seed is not None:
            overrides["train.seed"] = args.seed
            overrides["data.split_seed"] = args.seed
        if overrides:
            spec = apply_overrides(spec, overrides)
        spec = apply_overrides(spec, _parse_sets(args.set))
    except (ValueError, FileNotFoundError) as exc:
        raise SystemExit(str(exc))
    if args.data_dir:
        spec.data = DataSpec(
            source="files",
            data_dir=args.data_dir,
            mu=spec.data.mu,
            sigma=spec.data.sigma,
            split_seed=spec.data.split_seed,
        )
    elif not args.config or (
        spec.data.source == "files" and not spec.data.data_dir
    ):
        raise SystemExit(
            "train needs --data-dir (or a --config whose data section "
            "names a source)"
        )
    # Historical convention: --levels 1 trains the MF baseline.
    if spec.train.taxonomy_levels == 1 and spec.model == "tf":
        spec.model = "mf"
    spec.output = args.model
    return spec


def cmd_train(args: argparse.Namespace) -> int:
    model_path = Path(args.model)
    if model_path.exists() and not model_path.is_dir():
        # Fail before the (expensive) training run, not after.
        raise SystemExit(
            f"--model {args.model} is an existing file; models are saved "
            f"as bundle directories now (pick a directory path)"
        )
    spec = _train_spec(args)
    spec.compare = []  # train fits exactly one model
    try:
        # No evaluation: `train` only fits and persists the bundle
        # (score it with `evaluate` or `run`), matching the old command.
        ExperimentRunner(spec).run(verbose=True, evaluate=False)
    except FileNotFoundError as exc:
        raise SystemExit(
            f"{exc} (run `python -m repro generate` first)"
        )
    except (ValueError, BundleError) as exc:
        raise SystemExit(str(exc))
    print(f"wrote bundle {args.model}")
    return 0


def _report_out(report, out: Optional[str]) -> None:
    print(report.table())
    for result in report.results:
        if result.bundle_path:
            print(f"wrote bundle {result.bundle_path}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
        print(f"wrote {out}")


def _spec_from_run_args(args: argparse.Namespace) -> ExperimentSpec:
    try:
        spec = load_spec(args.config)
        spec = apply_overrides(spec, _parse_sets(args.set))
    except (ValueError, FileNotFoundError) as exc:
        raise SystemExit(str(exc))
    if args.data_dir:
        spec.data.source = "files"
        spec.data.data_dir = args.data_dir
    if getattr(args, "bundle_out", None):
        spec.output = args.bundle_out
    return spec


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_from_run_args(args)
    try:
        report = ExperimentRunner(spec).run(verbose=not args.quiet)
    except (ValueError, FileNotFoundError, BundleError) as exc:
        raise SystemExit(str(exc))
    _report_out(report, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_run_args(args)
    grid: Dict[str, List[object]] = {}
    for item in args.grid:
        key, sep, values = item.partition("=")
        if not sep or not key or not values:
            raise SystemExit(
                f"invalid --grid {item!r} (expected KEY.PATH=V1,V2,...)"
            )
        grid[key] = [_coerce_override(v) for v in values.split(",")]
    if not grid:
        raise SystemExit("sweep needs at least one --grid KEY.PATH=V1,V2")
    try:
        cells = sweep(spec, grid, verbose=not args.quiet)
    except (ValueError, FileNotFoundError, BundleError) as exc:
        raise SystemExit(str(exc))
    print(sweep_table(cells))
    if args.out:
        payload = [
            {"overrides": cell.overrides, **cell.report.as_dict()}
            for cell in cells
        ]
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")
    return 0


def _load_bundle(args) -> Tuple[ModelBundle, TransactionLog]:
    """Resolve ``--model`` (a bundle directory) into a bundle."""
    _, log = _load_data(args.data_dir)
    path = Path(args.model)
    if path.is_file():
        raise SystemExit(
            f"{path} is a file, not a bundle directory; the bare .npz "
            "factor-file format was removed in 2.0 — re-run `train` to "
            "save a bundle directory (see docs/migration.md)"
        )
    if not (path / MANIFEST_NAME).exists():
        raise SystemExit(
            f"no model bundle at {path} (expected a directory with "
            f"{MANIFEST_NAME})"
        )
    try:
        bundle = ModelBundle.load(path)
    except BundleError as exc:
        raise SystemExit(str(exc))
    return bundle, log


def _load_model(args) -> Tuple[TaxonomyFactorModel, TrainTestSplit, Dict]:
    bundle, log = _load_bundle(args)
    if not isinstance(bundle.model, TaxonomyFactorModel):
        raise SystemExit(
            f"{args.model} contains a {type(bundle.model).__name__}; this "
            f"command serves TaxonomyFactorModel/MFModel bundles only"
        )
    extra = bundle.extra
    split = train_test_split(
        log,
        mu=extra.get("mu", 0.5),
        seed=extra.get("split_seed", extra.get("seed", 0)),
    )
    model = bundle.model.attach_log(split.train)
    return model, split, extra


def _serving_plan(args, extra: Dict) -> RetrievalPlan:
    """Resolve the retrieval plan: each flag beats the bundle's hint.

    A bundle saved with ``extra={"retrieval": "budget", "budget": 50000}``
    serves that mode at its measured operating point by default.
    ``--retrieval`` overrides the hinted mode, and a ``budget``/``nprobe``
    hint applies only while the resolved mode is the hinted one, so
    ``--retrieval exact`` serves that bundle exactly instead of refusing
    the orphaned budget.  Knob flags always apply (and are refused with
    the wrong mode).
    """
    hint = extra.get("retrieval", "exact")
    mode = args.retrieval or hint
    hinted = ["retrieval"] if args.retrieval is None and "retrieval" in extra else []
    knobs = {name: getattr(args, name) for name in ("budget", "nprobe")}
    for name, value in knobs.items():
        if value is None and mode == hint and extra.get(name) is not None:
            knobs[name] = extra[name]
            hinted.append(name)
    try:
        return RetrievalPlan(mode, **knobs)
    except ValueError as exc:
        source = f" (bundle manifest hint: {', '.join(hinted)})" if hinted else ""
        raise SystemExit(f"{exc}{source}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    eval_spec = EvalSpec()
    if args.config:
        try:
            eval_spec = load_spec(args.config).eval
        except (ValueError, FileNotFoundError) as exc:
            raise SystemExit(str(exc))
    k = args.k if args.k is not None else eval_spec.k
    model, split, _extra = _load_model(args)
    result = evaluate_model(
        model,
        split,
        first_t=eval_spec.first_t,
        sample_users=eval_spec.sample_users,
    )
    print(
        f"AUC={result.auc:.4f} meanRank={result.mean_rank:.1f} "
        f"({result.n_users} users)"
    )
    topk = evaluate_topk(model, split, k=k)
    print(
        f"precision@{topk.k}={topk.precision:.4f} "
        f"recall@{topk.k}={topk.recall:.4f} "
        f"hitRate@{topk.k}={topk.hit_rate:.4f}"
    )
    cold = evaluate_cold_start(model, split)
    if cold.n_events:
        print(
            f"cold-start score={cold.score:.4f} over {cold.n_events} "
            f"purchases of {cold.n_new_items} unseen items"
        )
    return 0


def cmd_recommend(args: argparse.Namespace) -> int:
    model, _split, _extra = _load_model(args)
    if not 0 <= args.user < model.n_users:
        raise SystemExit(f"user {args.user} out of range (0..{model.n_users - 1})")
    taxonomy = model.taxonomy
    for item in model.recommend(args.user, k=args.k):
        node = taxonomy.node_of_item(int(item))
        category = taxonomy.name_of(int(taxonomy.parent[node]))
        print(f"item {int(item):6d}  category={category}")
    return 0


def _parse_users(spec: str, n_users: int) -> np.ndarray:
    """``all``, ``start:stop``, or a comma list of user indices."""
    try:
        if spec == "all":
            return np.arange(n_users, dtype=np.int64)
        if ":" in spec:
            start, _, stop = spec.partition(":")
            requested = int(stop or n_users)
            if requested > n_users:
                print(
                    f"note: --users {spec} clamped to the model's "
                    f"{n_users} users",
                    file=sys.stderr,
                )
            return np.arange(
                int(start or 0), min(requested, n_users), dtype=np.int64
            )
        return np.asarray([int(u) for u in spec.split(",")], dtype=np.int64)
    except ValueError:
        raise SystemExit(
            f"invalid --users spec {spec!r} (expected 'all', 'start:stop', "
            f"or a comma list of indices)"
        )


def _serving_users(args, model) -> np.ndarray:
    """Resolve and range-check the ``--users`` spec of a serve command."""
    users = _parse_users(args.users, model.n_users)
    if users.size and (users.min() < 0 or users.max() >= model.n_users):
        raise SystemExit(
            f"user index out of range (0..{model.n_users - 1}) in {args.users!r}"
        )
    return users


def _serving_cascade(args) -> Optional[CascadeConfig]:
    """The ``--cascade`` flag as a config (uniform keep fraction)."""
    if args.cascade is None:
        return None
    return CascadeConfig(keep_fractions=(args.cascade,) * 3)


def _emit_recommendations(
    users: np.ndarray, recommendations: np.ndarray, out: Optional[str]
) -> None:
    """Write one ``{"user", "items"}`` JSONL row per user (stdout or file)."""
    sink = open(out, "w", encoding="utf-8") if out else sys.stdout
    try:
        for row, user in enumerate(users):
            items = recommendations[row]
            payload = {
                "user": int(user),
                "items": [int(i) for i in items[items >= 0]],
            }
            sink.write(json.dumps(payload) + "\n")
    finally:
        if out:
            sink.close()


def _telemetry_tracer(args) -> Optional[Tracer]:
    """A tracer writing to a buffer, when ``--trace-out`` asks for one."""
    if not getattr(args, "trace_out", None):
        return None
    return Tracer(buffer=TraceBuffer())


def _flush_telemetry(args, registry, tracer: Optional[Tracer]) -> None:
    """Write ``--metrics-out`` / ``--trace-out`` artifacts if requested."""
    if getattr(args, "metrics_out", None):
        write_snapshot(args.metrics_out, registry.snapshot())
        print(f"wrote metrics snapshot {args.metrics_out}", file=sys.stderr)
    if getattr(args, "trace_out", None) and tracer is not None:
        written = write_trace_jsonl(args.trace_out, tracer.buffer.drain())
        print(
            f"wrote {written} span(s) to {args.trace_out}", file=sys.stderr
        )


def cmd_serve_batch(args: argparse.Namespace) -> int:
    model, split, extra = _load_model(args)
    users = _serving_users(args, model)
    plan = _serving_plan(args, extra)
    tracer = _telemetry_tracer(args)
    try:
        service = RecommenderService(
            model, history_log=split.train, cascade=_serving_cascade(args),
            cache_size=args.cache_size, tracer=tracer, **plan.keywords(),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    recommendations = service.recommend_batch(users, k=args.k)
    _emit_recommendations(users, recommendations, args.out)
    _flush_telemetry(args, service.registry, tracer)
    stats = service.stats
    print(
        f"served {stats.requests} users at "
        f"{stats.requests_per_second:.0f} users/sec "
        f"(nodes scored: {stats.nodes_scored}, "
        f"cache hits: {stats.cache_hits})",
        file=sys.stderr if not args.out else sys.stdout,
    )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_serve_sharded(args: argparse.Namespace) -> int:
    model, split, extra = _load_model(args)
    users = _serving_users(args, model)
    cascade = _serving_cascade(args)
    plan = _serving_plan(args, extra)
    tracer = _telemetry_tracer(args)
    try:
        router = ShardRouter(
            model,
            n_shards=args.shards,
            history_log=split.train,
            cascade=cascade,
            cache_size=args.cache_size,
            partition=args.partition,
            tracer=tracer,
            **plan.keywords(),
        )
    except (ValueError, ShardingError) as exc:
        raise SystemExit(str(exc))
    with router:
        batches = [
            users[start : start + args.batch_size]
            for start in range(0, users.size, args.batch_size)
        ]
        recommendations = np.concatenate(
            [router.recommend_batch(batch, k=args.k) for batch in batches]
        ) if batches else np.empty((0, args.k), dtype=np.int64)

        if args.verify:
            service = RecommenderService(
                model, history_log=split.train, cascade=cascade,
                cache_size=args.cache_size, **plan.keywords(),
            )
            reference = service.recommend_batch(users, k=args.k)
            if np.array_equal(recommendations, reference):
                print(
                    f"verify: fleet output identical to the single-process "
                    f"service over {users.size} users", file=sys.stderr,
                )
            else:
                diverging = int(
                    (recommendations != reference).any(axis=1).sum()
                )
                raise SystemExit(
                    f"verify FAILED: {diverging}/{users.size} rows diverge "
                    f"from the single-process service"
                )

        _emit_recommendations(users, recommendations, args.out)
        _flush_telemetry(args, router.registry, tracer)
        stats = router.stats()
        print(
            f"served {int(stats['requests'])} users over {args.shards} "
            f"shard processes ({router.partition}-partitioned) at "
            f"{stats['requests_per_second']:.0f} users/sec per busiest "
            f"shard (nodes scored: {int(stats['nodes_scored'])}, "
            f"cache hits: {int(stats['cache_hits'])})",
            file=sys.stderr if not args.out else sys.stdout,
        )
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway import Gateway, GatewayConfig

    model, split, extra = _load_model(args)
    plan = _serving_plan(args, extra)
    tracer = _telemetry_tracer(args)
    try:
        service = RecommenderService(
            model, history_log=split.train, tracer=tracer, **plan.keywords()
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1000.0,
        max_inflight=args.max_inflight,
    )
    gateway = Gateway(service, config, tracer=tracer)

    async def run() -> None:
        async with gateway:
            print(
                f"gateway listening on http://{args.host}:{gateway.port} "
                f"(generation {service.generation})",
                file=sys.stderr,
            )
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await gateway.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    _flush_telemetry(args, service.registry, tracer)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.gateway import LoadGenerator
    from repro.gateway.wire import encode_request, read_response

    async def run():
        n_users = args.users
        if n_users is None:
            # Size the zipfian draw to the served catalog via /healthz.
            reader, writer = await asyncio.open_connection(
                args.host, args.port
            )
            try:
                writer.write(encode_request("GET", "/healthz"))
                await writer.drain()
                health = (await read_response(reader)).json()
            finally:
                writer.close()
            n_users = int(health.get("users", 0)) or 1000
        generator = LoadGenerator(
            args.host, args.port,
            n_users=n_users,
            duration_s=args.duration,
            concurrency=args.concurrency,
            k=args.k,
            shape=args.shape,
            exponent=args.exponent,
            seed=args.seed,
        )
        return await generator.run()

    try:
        report = asyncio.run(run())
    except (OSError, ConnectionError) as exc:
        raise SystemExit(
            f"cannot reach gateway at {args.host}:{args.port}: {exc}"
        )
    payload = json.dumps(report.as_dict(), sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {args.out}")
    else:
        print(payload)
    print(
        f"{report.ok}/{report.requests} ok at {report.qps:.0f} qps "
        f"(p50={report.p50_ms:.1f}ms p99={report.p99_ms:.1f}ms, "
        f"shed={report.shed}, errors={report.errors}, "
        f"shape={report.shape})",
        file=sys.stderr,
    )
    return 0 if report.errors == 0 else 1


def cmd_stream(args: argparse.Namespace) -> int:
    model, split, _extra = _load_model(args)
    service = RecommenderService(model, history_log=split.train)
    store = CheckpointStore(args.checkpoints) if args.checkpoints else None
    updater = OnlineUpdater(
        model, steps=args.steps, fold_in_steps=args.fold_in_steps,
        seed=args.seed, registry=service.registry,
    )
    pipeline = StreamingPipeline(
        service,
        updater=updater,
        batch_size=args.batch_size,
        swap_every=args.swap_every,
        store=store,
    )
    stats = pipeline.run(
        events_from_transactions(split.test),
        rate=args.rate or None,
        max_events=args.events,
    )
    print(
        f"streamed {stats.events} events ({stats.purchases} purchases) in "
        f"{stats.seconds:.2f}s update time — "
        f"{stats.events_per_second:.0f} events/sec over {stats.batches} "
        f"micro-batches"
    )
    print(
        f"applied {stats.pair_steps} pair steps, folded in "
        f"{stats.new_users} new users, onboarded {stats.new_items} items"
    )
    where = args.checkpoints if store else "checkpoints disabled"
    print(f"published {pipeline.swaps} model versions ({where})")
    _flush_telemetry(args, service.registry, None)
    top = service.recommend_batch(list(range(min(3, model.n_users))), k=args.k)
    for row in range(top.shape[0]):
        items = top[row][top[row] >= 0]
        print(f"post-stream user {row}: {[int(i) for i in items]}")
    return 0


def _emit_snapshot(snapshot: Dict, fmt: str) -> None:
    """Print a repro.obs/v1 snapshot in the requested format."""
    if fmt == "prom":
        sys.stdout.write(to_prometheus_text(snapshot))
    elif fmt == "json":
        sys.stdout.write(to_json_lines(snapshot))
    else:
        sys.stdout.write(to_table(snapshot))


def _print_span(node: Dict, depth: int) -> None:
    record = node["span"]
    duration = float(record.get("duration_s") or 0.0)
    tags = record.get("tags") or {}
    tag_text = " ".join(f"{k}={v}" for k, v in sorted(tags.items()))
    print(
        f"{'  ' * depth}{record['name']} [{record['span_id']}] "
        f"{duration * 1e3:.3f}ms" + (f"  {tag_text}" if tag_text else "")
    )
    for child in node["children"]:
        _print_span(child, depth + 1)


def cmd_learn_taxonomy(args: argparse.Namespace) -> int:
    """Learn a taxonomy for a transaction log that ships without one.

    Trains the flat MF baseline on the log, agglomeratively clusters the
    resulting item factors into a tree
    (:func:`repro.taxonomy.learn.bootstrap_taxonomy`), and writes it in
    the native taxonomy format — after which ``train`` / ``serve-batch``
    / ``serve-sharded`` work exactly as on a curated catalog.  The run
    is deterministic: same log, same flags → byte-identical tree and
    digest.
    """
    from repro.taxonomy.learn import bootstrap_taxonomy

    log_path = Path(args.data_dir) / LOG_FILE
    if not log_path.exists():
        raise SystemExit(
            f"missing {LOG_FILE} in {args.data_dir} "
            f"(run `python -m repro generate` first)"
        )
    log = TransactionLog.load(log_path)
    out = (
        Path(args.out) if args.out else Path(args.data_dir) / TAXONOMY_FILE
    )
    if out.exists() and not args.force:
        raise SystemExit(
            f"{out} already exists; pass --force to replace it with the "
            f"learned tree"
        )
    taxonomy = bootstrap_taxonomy(
        log,
        factors=args.factors,
        epochs=args.epochs,
        branching=args.branching,
        max_depth=args.depth,
        seed=args.seed,
        sample=args.sample,
    )
    save_taxonomy(taxonomy, out)
    print(f"wrote {out} ({taxonomy})")
    print(f"taxonomy version: {taxonomy.version}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Dataset characteristics, or post-hoc telemetry rendering.

    Three modes: ``--data-dir`` summarizes a dataset (Fig. 5 quantities),
    ``--snapshot`` re-renders a saved metrics snapshot (``--format
    table|prom|json``), ``--traces`` prints stitched span trees from a
    trace JSONL file.
    """
    ran = False
    if args.snapshot:
        _emit_snapshot(read_snapshot(args.snapshot), args.format)
        ran = True
    if args.traces:
        traces = stitch(read_trace_jsonl(args.traces))
        for tree in traces:
            print(f"trace {tree['trace_id']}")
            _print_span(tree["root"], 1)
        print(f"{len(traces)} trace(s)")
        ran = True
    if args.data_dir:
        _taxonomy, log = _load_data(args.data_dir)
        for key, value in summarize(log).as_dict().items():
            if isinstance(value, float):
                print(f"{key:25s} {value:.3f}")
            else:
                print(f"{key:25s} {value}")
        ran = True
    if not ran:
        raise SystemExit(
            "stats needs at least one of --data-dir, --snapshot, --traces"
        )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the invariant linter (``repro.analysis``) over the tree.

    All arguments after ``lint`` are handed to the analysis CLI verbatim,
    so ``repro lint --format json src`` and
    ``python -m repro.analysis --format json src`` are the same command.
    """
    from repro.analysis.__main__ import main as lint_main

    return lint_main(args.rest)


def _add_retrieval_flags(parser: argparse.ArgumentParser) -> None:
    """``--retrieval`` / ``--budget`` / ``--nprobe`` of every serve command."""
    parser.add_argument("--retrieval", default=None, choices=RETRIEVAL_MODES,
                        help="dense scoring, taxonomy-pruned exact retrieval "
                             "(identical rankings, large-catalog fast path), "
                             "or the approximate sub-linear tiers budget/ivf "
                             "(rankings invariant to the shard count); "
                             "default: bundle hint / exact")
    parser.add_argument("--budget", type=int, default=None,
                        help="per-row node budget for --retrieval budget "
                             "(default: bundle hint / scan everything)")
    parser.add_argument("--nprobe", type=int, default=None,
                        help="taxonomy cells probed per row for --retrieval "
                             "ivf (default: bundle hint / probe everything)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Taxonomy-aware recommender (VLDB 2012 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--users", type=int, default=2000)
    gen.add_argument("--transactions", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    train = sub.add_parser(
        "train", help="fit a model and save it as a bundle directory"
    )
    train.add_argument("--data-dir", default=None,
                       help="dataset directory (optional with --config)")
    train.add_argument("--model", required=True,
                       help="output bundle directory")
    train.add_argument("--config", default=None,
                       help="ExperimentSpec file (JSON or TOML); other "
                            "flags become overrides on top of it")
    train.add_argument("--set", action="append", default=[],
                       metavar="KEY.PATH=VALUE",
                       help="override any spec field, e.g. "
                            "--set train.use_bias=false (repeatable)")
    train.add_argument("--backend", default=None,
                       choices=("serial", "threaded", "online"),
                       help="training backend (default: spec / serial)")
    train.add_argument("--workers", type=int, default=None,
                       help="worker threads for --backend threaded")
    train.add_argument("--factors", type=int, default=None)
    train.add_argument("--epochs", type=int, default=None)
    train.add_argument("--learning-rate", type=float, default=None)
    train.add_argument("--reg", type=float, default=None)
    train.add_argument("--levels", type=int, default=None,
                       help="taxonomyUpdateLevels; 1 = MF baseline")
    train.add_argument("--markov", type=int, default=None,
                       help="maxPrevtransactions (Markov order)")
    train.add_argument("--sibling", type=float, default=None)
    train.add_argument("--mu", type=float, default=None)
    train.add_argument("--seed", type=int, default=None)
    train.set_defaults(func=cmd_train)

    run = sub.add_parser(
        "run",
        help="run a declarative ExperimentSpec (all variants, one table)",
    )
    run.add_argument("--config", required=True,
                     help="ExperimentSpec file (JSON or TOML)")
    run.add_argument("--set", action="append", default=[],
                     metavar="KEY.PATH=VALUE",
                     help="override any spec field (repeatable)")
    run.add_argument("--data-dir", default=None,
                     help="use on-disk data instead of the spec's source")
    run.add_argument("--bundle-out", default=None,
                     help="override the spec's output bundle directory")
    run.add_argument("--out", default=None,
                     help="write the full report as JSON here")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-epoch progress")
    run.set_defaults(func=cmd_run)

    sweep_cmd = sub.add_parser(
        "sweep", help="grid-sweep spec fields over repeated runs"
    )
    sweep_cmd.add_argument("--config", required=True)
    sweep_cmd.add_argument("--grid", action="append", default=[],
                           metavar="KEY.PATH=V1,V2,...",
                           help="one grid axis, e.g. "
                                "--grid train.factors=10,20 (repeatable)")
    sweep_cmd.add_argument("--set", action="append", default=[],
                           metavar="KEY.PATH=VALUE")
    sweep_cmd.add_argument("--data-dir", default=None)
    sweep_cmd.add_argument("--out", default=None,
                           help="write all cell reports as JSON here")
    sweep_cmd.add_argument("--quiet", action="store_true")
    sweep_cmd.set_defaults(func=cmd_sweep)

    ev = sub.add_parser("evaluate", help="paper-protocol evaluation")
    ev.add_argument("--data-dir", required=True)
    ev.add_argument("--model", required=True)
    ev.add_argument("--config", default=None,
                    help="ExperimentSpec whose [eval] section sets the "
                         "protocol (k, first_t, sample_users)")
    ev.add_argument("-k", type=int, default=None,
                    help="depth for the top-k serving metrics "
                         "(default: spec / 10)")
    ev.set_defaults(func=cmd_evaluate)

    rec = sub.add_parser("recommend", help="top-k items for one user")
    rec.add_argument("--data-dir", required=True)
    rec.add_argument("--model", required=True)
    rec.add_argument("--user", type=int, required=True)
    rec.add_argument("-k", type=int, default=10)
    rec.set_defaults(func=cmd_recommend)

    serve = sub.add_parser(
        "serve-batch",
        help="serve top-k for many users via the batched RecommenderService",
    )
    serve.add_argument("--data-dir", required=True)
    serve.add_argument("--model", required=True)
    serve.add_argument("--users", default="all",
                       help="'all', 'start:stop', or comma list (default: all)")
    serve.add_argument("-k", type=int, default=10)
    serve.add_argument("--cascade", type=float, default=None,
                       help="serve through a cascade keeping this fraction "
                            "per level (Sec. 5.1)")
    _add_retrieval_flags(serve)
    serve.add_argument("--cache-size", type=int, default=4096)
    serve.add_argument("--out", default=None,
                       help="write JSONL here instead of stdout")
    serve.add_argument("--metrics-out", default=None,
                       help="write a repro.obs/v1 metrics snapshot here "
                            "(re-render with `repro stats --snapshot`)")
    serve.add_argument("--trace-out", default=None,
                       help="trace every request and append span records "
                            "here as JSONL (`repro stats --traces`)")
    serve.set_defaults(func=cmd_serve_batch)

    sharded = sub.add_parser(
        "serve-sharded",
        help="serve top-k through a multi-process ShardRouter fleet",
    )
    sharded.add_argument("--data-dir", required=True)
    sharded.add_argument("--model", required=True)
    sharded.add_argument("--users", default="all",
                         help="'all', 'start:stop', or comma list (default: all)")
    sharded.add_argument("-k", type=int, default=10)
    sharded.add_argument("--shards", type=int, default=4,
                         help="number of shard worker processes")
    sharded.add_argument("--partition", default="users",
                         choices=("users", "items"),
                         help="hash users across shards, or slice the item "
                              "catalog and merge per-shard top-k pages")
    sharded.add_argument("--batch-size", type=int, default=1024,
                         help="users per scatter/gather round")
    sharded.add_argument("--cascade", type=float, default=None,
                         help="serve through a cascade keeping this fraction "
                              "per level (users partition only)")
    _add_retrieval_flags(sharded)
    sharded.add_argument("--cache-size", type=int, default=4096)
    sharded.add_argument("--verify", action="store_true",
                         help="also run the single-process service and fail "
                              "unless the fleet output is identical")
    sharded.add_argument("--out", default=None,
                         help="write JSONL here instead of stdout")
    sharded.add_argument("--metrics-out", default=None,
                         help="write the router's repro.obs/v1 snapshot "
                              "(per-shard span timings) here")
    sharded.add_argument("--trace-out", default=None,
                         help="trace every scatter/gather round and append "
                              "the stitched span records here as JSONL")
    sharded.set_defaults(func=cmd_serve_sharded)

    gateway = sub.add_parser(
        "gateway",
        help="serve HTTP traffic through the asyncio gateway edge",
    )
    gateway.add_argument("--data-dir", required=True)
    gateway.add_argument("--model", required=True)
    gateway.add_argument("--host", default="127.0.0.1")
    gateway.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral)")
    gateway.add_argument("--max-batch", type=int, default=32,
                         help="coalescer flush size")
    gateway.add_argument("--max-delay-ms", type=float, default=2.0,
                         help="max extra latency a request may spend "
                              "buffered in the coalescer")
    gateway.add_argument("--max-inflight", type=int, default=128,
                         help="admitted requests beyond which the edge "
                              "sheds with 429")
    _add_retrieval_flags(gateway)
    gateway.add_argument("--duration", type=float, default=None,
                         help="serve for this many seconds then exit "
                              "(default: run until interrupted)")
    gateway.add_argument("--metrics-out", default=None,
                         help="write the shared repro.obs/v1 snapshot on "
                              "shutdown")
    gateway.add_argument("--trace-out", default=None,
                         help="trace requests socket-to-scan and append "
                              "span records here as JSONL")
    gateway.set_defaults(func=cmd_gateway)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running gateway with seeded closed-loop HTTP load",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--duration", type=float, default=5.0,
                         help="seconds to keep the client fleet running")
    loadgen.add_argument("--concurrency", type=int, default=16,
                         help="client coroutines at full load")
    loadgen.add_argument("--users", type=int, default=None,
                         help="user-id range for the zipfian draw "
                              "(default: probe /healthz)")
    loadgen.add_argument("-k", type=int, default=10)
    loadgen.add_argument("--shape", default="constant",
                         choices=("constant", "diurnal", "flash"),
                         help="traffic shape over the run")
    loadgen.add_argument("--exponent", type=float, default=1.0,
                         help="zipfian skew (0 = uniform)")
    loadgen.add_argument("--seed", type=int, default=1234)
    loadgen.add_argument("--out", default=None,
                         help="write the JSON report here instead of stdout")
    loadgen.set_defaults(func=cmd_loadgen)

    stream = sub.add_parser(
        "stream",
        help="replay held-out transactions as live events with hot-swaps",
    )
    stream.add_argument("--data-dir", required=True)
    stream.add_argument("--model", required=True)
    stream.add_argument("--rate", type=float, default=0.0,
                        help="target events/sec (0 = replay unpaced)")
    stream.add_argument("--events", type=int, default=None,
                        help="stop after this many events (default: all)")
    stream.add_argument("--batch-size", type=int, default=256,
                        help="events per micro-batch")
    stream.add_argument("--swap-every", type=int, default=4,
                        help="hot-swap the served model every N micro-batches")
    stream.add_argument("--steps", type=int, default=4,
                        help="SGD passes per micro-batch")
    stream.add_argument("--fold-in-steps", type=int, default=100,
                        help="fold-in budget for brand-new users")
    stream.add_argument("--checkpoints", default=None,
                        help="directory for versioned model checkpoints")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("-k", type=int, default=5,
                        help="depth of the post-stream sample recommendations")
    stream.add_argument("--metrics-out", default=None,
                        help="write the combined serving+streaming "
                             "repro.obs/v1 snapshot here")
    stream.set_defaults(func=cmd_stream)

    learn = sub.add_parser(
        "learn-taxonomy",
        help="learn a taxonomy from a taxonomy-free transaction log",
    )
    learn.add_argument("--data-dir", required=True,
                       help="dataset directory holding transactions.jsonl")
    learn.add_argument("--out", default=None,
                       help="where to write the learned taxonomy "
                            "(default: <data-dir>/taxonomy.json)")
    learn.add_argument("--force", action="store_true",
                       help="replace an existing taxonomy file")
    learn.add_argument("--branching", type=int, default=8,
                       help="target fan-out per tree level")
    learn.add_argument("--depth", type=int, default=3,
                       help="maximum tree depth, items inclusive")
    learn.add_argument("--factors", type=int, default=16,
                       help="latent dimensionality of the MF bootstrap")
    learn.add_argument("--epochs", type=int, default=5,
                       help="MF bootstrap training epochs")
    learn.add_argument("--sample", type=int, default=None,
                       help="cluster at most this many anchor items "
                            "(default: all; the agglomeration is O(n^2))")
    learn.add_argument("--seed", type=int, default=0)
    learn.set_defaults(func=cmd_learn_taxonomy)

    stats = sub.add_parser(
        "stats",
        help="dataset characteristics (Fig. 5) and telemetry rendering",
    )
    stats.add_argument("--data-dir", default=None,
                       help="dataset directory to summarize")
    stats.add_argument("--snapshot", default=None,
                       help="re-render a saved repro.obs/v1 metrics "
                            "snapshot (see --metrics-out on the serve "
                            "and stream commands)")
    stats.add_argument("--traces", default=None,
                       help="print stitched span trees from a trace JSONL "
                            "file (see --trace-out)")
    stats.add_argument("--format", default="table",
                       choices=("table", "prom", "json"),
                       help="snapshot output format (default: table)")
    stats.set_defaults(func=cmd_stats)

    lint = sub.add_parser(
        "lint",
        help="check the tree against the repo's reproducibility invariants",
        add_help=False,
    )
    lint.add_argument("rest", nargs=argparse.REMAINDER,
                      help="arguments for repro.analysis "
                           "(see `repro lint --help`)")
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Library loggers are silent by default; the CLI is an application,
    # so progress lines (ProgressCallback, grid search, ...) go to stderr.
    enable_console_logging()
    # argparse.REMAINDER cannot capture leading optionals ("lint --format
    # json"), so the lint subcommand is dispatched before parsing.
    if argv[:1] == ["lint"]:
        from repro.analysis.__main__ import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
