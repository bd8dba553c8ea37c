"""Tests for the command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import _serving_plan, main
from repro.serving.index import RetrievalPlan


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a trained model bundle on disk."""
    directory = tmp_path_factory.mktemp("cli")
    assert (
        main(
            [
                "generate",
                "--out-dir",
                str(directory),
                "--users",
                "300",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    model_path = directory / "tf-bundle"
    assert (
        main(
            [
                "train",
                "--data-dir",
                str(directory),
                "--model",
                str(model_path),
                "--factors",
                "8",
                "--epochs",
                "3",
            ]
        )
        == 0
    )
    return directory, model_path


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestGenerate:
    def test_writes_both_files(self, workspace):
        directory, _ = workspace
        assert (directory / "taxonomy.json").exists()
        assert (directory / "transactions.jsonl").exists()


class TestTrain:
    def test_writes_bundle_directory(self, workspace):
        _, model_path = workspace
        assert (model_path / "manifest.json").exists()
        assert (model_path / "factors.npz").exists()
        assert (model_path / "taxonomy.json").exists()
        manifest = json.loads((model_path / "manifest.json").read_text())
        assert manifest["format"] == "repro-model-bundle"
        assert manifest["config"]["taxonomy_levels"] == 4
        assert manifest["extra"]["mu"] == 0.5

    def test_mf_baseline_via_levels_one(self, workspace, capsys):
        directory, _ = workspace
        mf_path = directory / "mf-bundle"
        assert (
            main(
                [
                    "train",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(mf_path),
                    "--levels",
                    "1",
                    "--epochs",
                    "2",
                    "--factors",
                    "8",
                ]
            )
            == 0
        )
        manifest = json.loads((mf_path / "manifest.json").read_text())
        assert manifest["model_class"] == "MFModel"


class TestEvaluate:
    def test_prints_metrics(self, workspace, capsys):
        directory, model_path = workspace
        assert (
            main(
                ["evaluate", "--data-dir", str(directory), "--model", str(model_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "AUC=" in out and "meanRank=" in out
        assert "precision@10=" in out and "hitRate@10=" in out


class TestRecommend:
    def test_prints_k_items(self, workspace, capsys):
        directory, model_path = workspace
        assert (
            main(
                [
                    "recommend",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--user",
                    "0",
                    "-k",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert all("category=" in line for line in out)

    def test_rejects_unknown_user(self, workspace):
        directory, model_path = workspace
        with pytest.raises(SystemExit):
            main(
                [
                    "recommend",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--user",
                    "99999",
                ]
            )


class TestServeBatch:
    def test_writes_jsonl(self, workspace, capsys, tmp_path):
        directory, model_path = workspace
        out_path = tmp_path / "recs.jsonl"
        assert (
            main(
                [
                    "serve-batch",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--users",
                    "0:20",
                    "-k",
                    "5",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 20
        first = json.loads(lines[0])
        assert first["user"] == 0
        assert len(first["items"]) == 5
        out = capsys.readouterr().out
        assert "served 20 users" in out

    def test_user_list_to_stdout(self, workspace, capsys):
        directory, model_path = workspace
        assert (
            main(
                [
                    "serve-batch",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--users",
                    "3,1,4",
                    "-k",
                    "3",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert [json.loads(line)["user"] for line in lines] == [3, 1, 4]

    def test_cascade_mode(self, workspace, capsys):
        directory, model_path = workspace
        assert (
            main(
                [
                    "serve-batch",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--users",
                    "0:5",
                    "--cascade",
                    "0.5",
                ]
            )
            == 0
        )
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_rejects_out_of_range_users(self, workspace):
        directory, model_path = workspace
        with pytest.raises(SystemExit, match="out of range"):
            main(
                [
                    "serve-batch",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--users",
                    "99999",
                ]
            )

    def _serve(self, directory, model_path, out_path, *flags):
        assert (
            main(
                [
                    "serve-batch",
                    "--data-dir", str(directory),
                    "--model", str(model_path),
                    "--users", "0:30",
                    "-k", "5",
                    "--out", str(out_path),
                    *flags,
                ]
            )
            == 0
        )
        return out_path.read_text()

    def test_pruned_retrieval_identical_output(
        self, workspace, capsys, tmp_path
    ):
        directory, model_path = workspace
        exact = self._serve(directory, model_path, tmp_path / "e.jsonl")
        pruned = self._serve(
            directory, model_path, tmp_path / "p.jsonl",
            "--retrieval", "pruned",
        )
        capsys.readouterr()
        assert pruned == exact

    def test_bundle_retrieval_hint_is_default(
        self, workspace, capsys, tmp_path
    ):
        """A bundle saved with extra={"retrieval": "pruned"} serves pruned
        unless the flag overrides it."""
        from repro.serving.bundle import ModelBundle

        directory, model_path = workspace
        bundle = ModelBundle.load(model_path)
        bundle.extra["retrieval"] = "pruned"
        hinted_path = tmp_path / "hinted"
        bundle.save(hinted_path)
        hinted = self._serve(directory, hinted_path, tmp_path / "h.jsonl")
        exact = self._serve(directory, model_path, tmp_path / "e.jsonl")
        capsys.readouterr()
        assert hinted == exact  # identical rankings, different engine

    @pytest.mark.parametrize(
        "flags,extra,expected",
        [
            # The mode: flag > hint > default.
            ({}, {}, RetrievalPlan()),
            ({}, {"retrieval": "pruned"}, RetrievalPlan("pruned")),
            ({"retrieval": "exact"}, {"retrieval": "pruned"}, RetrievalPlan()),
            # budget: flag > hint > default.
            ({}, {"retrieval": "budget"}, RetrievalPlan("budget")),
            (
                {},
                {"retrieval": "budget", "budget": 7},
                RetrievalPlan("budget", budget=7),
            ),
            (
                {"budget": 9},
                {"retrieval": "budget", "budget": 7},
                RetrievalPlan("budget", budget=9),
            ),
            (
                {"retrieval": "budget", "budget": 9},
                {},
                RetrievalPlan("budget", budget=9),
            ),
            # nprobe: flag > hint > default.
            ({}, {"retrieval": "ivf"}, RetrievalPlan("ivf")),
            (
                {},
                {"retrieval": "ivf", "nprobe": 3},
                RetrievalPlan("ivf", nprobe=3),
            ),
            (
                {"nprobe": 5},
                {"retrieval": "ivf", "nprobe": 3},
                RetrievalPlan("ivf", nprobe=5),
            ),
            (
                {"retrieval": "ivf", "nprobe": 5},
                {},
                RetrievalPlan("ivf", nprobe=5),
            ),
            # A mode flag drops the knob hint of the hinted mode.
            (
                {"retrieval": "exact"},
                {"retrieval": "budget", "budget": 7},
                RetrievalPlan(),
            ),
            (
                {"retrieval": "ivf"},
                {"retrieval": "budget", "budget": 7},
                RetrievalPlan("ivf"),
            ),
            (
                {"retrieval": "budget"},
                {"retrieval": "ivf", "nprobe": 3},
                RetrievalPlan("budget"),
            ),
            (
                {"retrieval": "budget", "budget": 4},
                {"retrieval": "budget", "budget": 7},
                RetrievalPlan("budget", budget=4),
            ),
        ],
    )
    def test_serving_plan_precedence(self, flags, extra, expected):
        """Flag beats hint beats default, for the mode and each knob —
        checked directly, because the end-to-end outputs are often
        bit-identical either way and cannot tell the engines apart."""
        args = argparse.Namespace(
            **{"retrieval": None, "budget": None, "nprobe": None, **flags}
        )
        assert _serving_plan(args, extra) == expected

    @pytest.mark.parametrize(
        "flags,extra,match",
        [
            ({"retrieval": "ivf", "budget": 100}, {}, "budget"),
            ({"budget": 100}, {"retrieval": "ivf"}, "budget"),
            ({}, {"retrieval": "budget", "budget": 7.9}, "budget"),
            ({}, {"retrieval": "budget", "budget": True}, "budget"),
            ({}, {"retrieval": "budget", "budget": "7"}, "budget"),
            ({}, {"retrieval": "ivf", "nprobe": 2.5}, "nprobe"),
            ({}, {"retrieval": "ivf", "nprobe": 0}, "nprobe"),
            ({}, {"retrieval": "warp-speed"}, "retrieval"),
        ],
    )
    def test_serving_plan_refusals(self, flags, extra, match):
        """Bad or conflicting values exit naming the knob; a fractional,
        boolean or string hint is refused, never truncated."""
        args = argparse.Namespace(
            **{"retrieval": None, "budget": None, "nprobe": None, **flags}
        )
        with pytest.raises(SystemExit, match=match):
            _serving_plan(args, extra)

    @pytest.mark.parametrize("mode", ["exact", "ivf"])
    def test_mode_flag_overrides_knob_hint(
        self, workspace, capsys, tmp_path, mode
    ):
        """A bundle hinting budget=7 serves --retrieval exact/ivf exactly
        like the plain bundle does, instead of refusing the budget."""
        from repro.serving.bundle import ModelBundle

        directory, model_path = workspace
        bundle = ModelBundle.load(model_path)
        bundle.extra.update({"retrieval": "budget", "budget": 7})
        hinted_path = tmp_path / "hinted"
        bundle.save(hinted_path)
        hinted = self._serve(
            directory, hinted_path, tmp_path / "h.jsonl", "--retrieval", mode
        )
        plain = self._serve(
            directory, model_path, tmp_path / "p.jsonl", "--retrieval", mode
        )
        capsys.readouterr()
        assert hinted == plain

    def test_fractional_manifest_knob_refused(self, workspace, capsys, tmp_path):
        from repro.serving.bundle import ModelBundle

        directory, model_path = workspace
        bundle = ModelBundle.load(model_path)
        bundle.extra.update({"retrieval": "budget", "budget": 7.9})
        bad_path = tmp_path / "fractional"
        bundle.save(bad_path)
        with pytest.raises(SystemExit, match="budget must be an integer"):
            self._serve(directory, bad_path, tmp_path / "f.jsonl")
        capsys.readouterr()

    def test_bad_bundle_retrieval_hint_rejected(
        self, workspace, capsys, tmp_path
    ):
        from repro.serving.bundle import ModelBundle

        directory, model_path = workspace
        bundle = ModelBundle.load(model_path)
        bundle.extra["retrieval"] = "warp-speed"
        bad_path = tmp_path / "bad"
        bundle.save(bad_path)
        with pytest.raises(SystemExit, match="retrieval"):
            self._serve(directory, bad_path, tmp_path / "b.jsonl")
        capsys.readouterr()

    def test_pruned_rejects_cascade(self, workspace, tmp_path):
        directory, model_path = workspace
        with pytest.raises(SystemExit, match="cascade"):
            self._serve(
                directory, model_path, tmp_path / "x.jsonl",
                "--retrieval", "pruned", "--cascade", "0.5",
            )

    @pytest.mark.parametrize(
        "flags",
        [
            ("--retrieval", "budget"),
            ("--retrieval", "budget", "--budget", "1000000"),
            ("--retrieval", "ivf"),
            ("--retrieval", "ivf", "--nprobe", "1000000"),
        ],
    )
    def test_exhaustive_approximate_modes_match_exact(
        self, workspace, capsys, tmp_path, flags
    ):
        """No knob (or a knob covering the catalog) means the approximate
        engines return the exact ranking — through the CLI too."""
        directory, model_path = workspace
        exact = self._serve(directory, model_path, tmp_path / "e.jsonl")
        approx = self._serve(
            directory, model_path, tmp_path / "a.jsonl", *flags
        )
        capsys.readouterr()
        assert approx == exact

    def test_budget_served_and_deterministic(
        self, workspace, capsys, tmp_path
    ):
        directory, model_path = workspace
        flags = ("--retrieval", "budget", "--budget", "7")
        first = self._serve(directory, model_path, tmp_path / "b1.jsonl", *flags)
        second = self._serve(directory, model_path, tmp_path / "b2.jsonl", *flags)
        capsys.readouterr()
        assert first == second
        assert len(first.strip().splitlines()) == 30

    def test_bundle_knob_hints_are_defaults(self, workspace, capsys, tmp_path):
        """extra={"retrieval": "budget", "budget": N} serves budgeted
        retrieval with the saved operating point, no flags needed."""
        from repro.serving.bundle import ModelBundle

        directory, model_path = workspace
        bundle = ModelBundle.load(model_path)
        bundle.extra.update({"retrieval": "budget", "budget": 7})
        hinted_path = tmp_path / "hinted"
        bundle.save(hinted_path)
        hinted = self._serve(directory, hinted_path, tmp_path / "h.jsonl")
        flagged = self._serve(
            directory, model_path, tmp_path / "f.jsonl",
            "--retrieval", "budget", "--budget", "7",
        )
        capsys.readouterr()
        assert hinted == flagged

    def test_bad_bundle_knob_hint_rejected(self, workspace, capsys, tmp_path):
        from repro.serving.bundle import ModelBundle

        directory, model_path = workspace
        bundle = ModelBundle.load(model_path)
        bundle.extra.update({"retrieval": "ivf", "nprobe": "many"})
        bad_path = tmp_path / "bad"
        bundle.save(bad_path)
        with pytest.raises(SystemExit, match="nprobe"):
            self._serve(directory, bad_path, tmp_path / "b.jsonl")
        capsys.readouterr()

    def test_knob_with_wrong_mode_rejected(self, workspace, tmp_path):
        directory, model_path = workspace
        with pytest.raises(SystemExit, match="budget"):
            self._serve(
                directory, model_path, tmp_path / "x.jsonl",
                "--retrieval", "ivf", "--budget", "100",
            )


class TestLegacyModelShim:
    def test_bare_npz_rejected_with_removal_note(self, workspace):
        directory, model_path = workspace
        from repro.serving.bundle import ModelBundle

        legacy_path = directory / "legacy.npz"
        ModelBundle.load(model_path).model.factor_set.save(legacy_path)
        with pytest.raises(SystemExit, match="removed in 2.0"):
            main(
                [
                    "evaluate",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(legacy_path),
                ]
            )

    def test_baseline_bundle_rejected_cleanly(self, workspace, tmp_path):
        directory, _ = workspace
        from repro import PopularityModel, TransactionLog
        from repro.serving.bundle import ModelBundle

        log = TransactionLog.load(directory / "transactions.jsonl")
        ModelBundle(PopularityModel().fit(log)).save(tmp_path / "pop")
        with pytest.raises(SystemExit, match="PopularityModel"):
            main(
                [
                    "recommend",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(tmp_path / "pop"),
                    "--user",
                    "0",
                ]
            )

    def test_missing_model_path(self, workspace):
        directory, _ = workspace
        with pytest.raises(SystemExit, match="no model bundle"):
            main(
                [
                    "evaluate",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(directory / "nope"),
                ]
            )


class TestStream:
    def test_streams_and_checkpoints(self, workspace, capsys, tmp_path):
        directory, model_path = workspace
        ckpts = tmp_path / "ckpts"
        assert (
            main(
                [
                    "stream",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--events",
                    "200",
                    "--batch-size",
                    "64",
                    "--swap-every",
                    "2",
                    "--checkpoints",
                    str(ckpts),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "published" in out
        assert "post-stream user 0" in out
        assert (ckpts / "LATEST").exists()
        assert (ckpts / "v0001" / "manifest.json").exists()

    def test_streams_without_checkpoints(self, workspace, capsys):
        directory, model_path = workspace
        assert (
            main(
                [
                    "stream",
                    "--data-dir",
                    str(directory),
                    "--model",
                    str(model_path),
                    "--events",
                    "50",
                ]
            )
            == 0
        )
        assert "checkpoints disabled" in capsys.readouterr().out


class TestStats:
    def test_prints_summary(self, workspace, capsys):
        directory, _ = workspace
        assert main(["stats", "--data-dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "purchases_per_user" in out
        assert "gini_popularity" in out


class TestGatewayCommands:
    def test_gateway_serves_for_duration_and_writes_metrics(
        self, workspace, capsys, tmp_path
    ):
        directory, model_path = workspace
        metrics = tmp_path / "gateway-metrics.json"
        assert (
            main(
                [
                    "gateway",
                    "--data-dir", str(directory),
                    "--model", str(model_path),
                    "--port", "0",
                    "--duration", "0.2",
                    "--metrics-out", str(metrics),
                ]
            )
            == 0
        )
        assert "gateway listening on" in capsys.readouterr().err
        assert metrics.exists()

    def test_loadgen_reports_against_a_live_gateway(self, capsys, tmp_path):
        import asyncio
        import threading

        import numpy as np

        from repro.gateway import Gateway, GatewayConfig

        class Backend:
            generation = 0
            n_users = 30

            def recommend_batch(self, users, k=10, histories=None):
                return np.asarray(
                    [[int(u)] * k for u in users], dtype=np.int64
                )

        ready = threading.Event()
        done = threading.Event()
        port_box = {}

        def serve():
            async def run():
                async with Gateway(Backend(), GatewayConfig()) as gateway:
                    port_box["port"] = gateway.port
                    ready.set()
                    while not done.is_set():
                        await asyncio.sleep(0.01)

            asyncio.run(run())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=5.0)
        out_path = tmp_path / "loadgen.json"
        try:
            status = main(
                [
                    "loadgen",
                    "--port", str(port_box["port"]),
                    "--duration", "0.3",
                    "--concurrency", "2",
                    "--out", str(out_path),
                ]
            )
        finally:
            done.set()
            thread.join(timeout=5.0)
        assert status == 0
        report = json.loads(out_path.read_text())
        assert report["ok"] > 0 and report["errors"] == 0
        assert report["generations"] == [0]
        assert "qps" in capsys.readouterr().err

    def test_loadgen_unreachable_gateway_fails_cleanly(self, capsys):
        # Without --users the healthz probe runs first and fails loudly.
        with pytest.raises(SystemExit, match="cannot reach gateway"):
            main(["loadgen", "--port", "1", "--duration", "0.1"])
        # With --users the fleet runs, every exchange errors, exit is 1.
        assert (
            main(
                ["loadgen", "--port", "1", "--duration", "0.1", "--users", "5"]
            )
            == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] == 0 and report["errors"] > 0


class TestErrors:
    def test_missing_data_dir(self, tmp_path):
        with pytest.raises(SystemExit, match="missing"):
            main(["stats", "--data-dir", str(tmp_path)])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
