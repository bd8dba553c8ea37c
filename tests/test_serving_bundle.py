"""Bundle save/load round-trips, manifest validation, and the legacy shim."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.mf_model import MFModel
from repro.core.popularity import PopularityModel, RandomModel
from repro.core.tf_model import TaxonomyFactorModel
from repro.serving.bundle import (
    BUNDLE_VERSION,
    MANIFEST_NAME,
    BundleError,
    ModelBundle,
)


def _factor_sets_equal(a, b):
    assert np.array_equal(a.user, b.user)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.bias, b.bias)
    if a.w_next is None:
        assert b.w_next is None
    else:
        assert np.array_equal(a.w_next, b.w_next)


class TestFactorModelRoundTrip:
    @pytest.mark.parametrize("fixture", ["tf_model", "tf_markov_model", "mf_model"])
    def test_round_trip(self, fixture, request, tmp_path, split):
        model = request.getfixturevalue(fixture)
        ModelBundle(model, extra={"mu": 0.5}).save(tmp_path / "b")
        bundle = ModelBundle.load(tmp_path / "b")

        assert type(bundle.model) is type(model)
        assert bundle.model.config == model.config
        assert bundle.extra == {"mu": 0.5}
        _factor_sets_equal(bundle.model.factor_set, model.factor_set)
        np.testing.assert_array_equal(
            bundle.model.taxonomy.parent, model.taxonomy.parent
        )

        restored = bundle.model.attach_log(split.train)
        users = np.arange(20)
        assert np.array_equal(
            restored.recommend_batch(users, k=5),
            model.recommend_batch(users, k=5),
        )

    def test_load_model_convenience(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        model = ModelBundle.load_model(tmp_path / "b")
        assert isinstance(model, TaxonomyFactorModel)

    def test_unfitted_model_rejected(self, dataset, tmp_path):
        model = TaxonomyFactorModel(dataset.taxonomy)
        with pytest.raises(BundleError, match="unfitted"):
            ModelBundle(model).save(tmp_path / "b")
        assert not (tmp_path / "b").exists()  # nothing half-written

    def test_existing_file_path_rejected(self, tf_model, tmp_path):
        clash = tmp_path / "tf.npz"
        clash.write_text("old artifact")
        with pytest.raises(BundleError, match="not a directory"):
            ModelBundle(tf_model).save(clash)
        assert clash.read_text() == "old artifact"  # untouched

    def test_unfitted_popularity_rejected(self, tmp_path):
        with pytest.raises(BundleError, match="unfitted PopularityModel"):
            ModelBundle(PopularityModel()).save(tmp_path / "b")


class TestCrashSafeSave:
    """A mid-save crash can never leave a torn manifest behind."""

    def test_no_staging_residue_after_save(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "b"]
        assert leftovers == []

    def test_overwrite_existing_bundle(self, tf_model, mf_model, tmp_path):
        ModelBundle(tf_model, extra={"gen": 1}).save(tmp_path / "b")
        ModelBundle(mf_model, extra={"gen": 2}).save(tmp_path / "b")
        bundle = ModelBundle.load(tmp_path / "b")
        assert type(bundle.model).__name__ == "MFModel"
        assert bundle.extra == {"gen": 2}
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "b"]
        assert leftovers == []

    def test_overwrite_removes_stale_artifacts(self, tf_model, split, tmp_path):
        """Overwriting with a different model class must not leave the old
        class's artifact files behind — the directory IS the artifact."""
        ModelBundle(tf_model).save(tmp_path / "b")
        assert (tmp_path / "b" / "factors.npz").exists()
        ModelBundle(PopularityModel().fit(split.train)).save(tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names == [MANIFEST_NAME, "popularity.npz"]
        assert isinstance(
            ModelBundle.load(tmp_path / "b").model, PopularityModel
        )

    def test_crash_before_manifest_leaves_no_bundle(
        self, tf_model, tmp_path, monkeypatch
    ):
        """Kill the save after the factors are staged but before the
        manifest: load must cleanly report 'not a bundle', never parse a
        half-written manifest."""
        import repro.serving.bundle as bundle_mod

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(bundle_mod, "save_taxonomy", boom)
        with pytest.raises(OSError, match="disk full"):
            ModelBundle(tf_model).save(tmp_path / "b")
        assert not (tmp_path / "b").exists()
        assert list(tmp_path.iterdir()) == []  # staging cleaned up
        with pytest.raises(BundleError, match="not a model bundle"):
            ModelBundle.load(tmp_path / "b")

    def test_crash_during_overwrite_keeps_old_manifest_loadable(
        self, tf_model, tmp_path, monkeypatch
    ):
        """Crashing mid-overwrite must leave a manifest that parses (the
        previous complete one), not a torn file."""
        import repro.serving.bundle as bundle_mod

        ModelBundle(tf_model, extra={"gen": 1}).save(tmp_path / "b")

        real_dump = json.dump

        def torn_dump(obj, handle, **kwargs):
            handle.write('{"format": "repro-model-bu')  # torn write...
            raise OSError("crash mid-manifest")

        monkeypatch.setattr(bundle_mod.json, "dump", torn_dump)
        with pytest.raises(OSError, match="crash mid-manifest"):
            ModelBundle(tf_model, extra={"gen": 2}).save(tmp_path / "b")
        monkeypatch.setattr(bundle_mod.json, "dump", real_dump)

        bundle = ModelBundle.load(tmp_path / "b")  # old manifest intact
        assert bundle.extra == {"gen": 1}
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "b"]
        assert leftovers == []

    def test_fresh_save_is_one_atomic_rename(self, tf_model, tmp_path):
        """A fresh bundle appears with its manifest already in place."""
        target = tmp_path / "b"
        ModelBundle(tf_model).save(target)
        assert (target / MANIFEST_NAME).exists()
        assert ModelBundle.load(target).model is not None

    def test_concurrent_saves_do_not_collide(self, tf_model, tmp_path):
        """Staging names are unique per attempt, so racing saves to
        different targets in one parent never trip over each other."""
        import threading

        errors = []

        def save(name):
            try:
                ModelBundle(tf_model).save(tmp_path / name)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=save, args=(f"b{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for i in range(4):
            assert ModelBundle.load(tmp_path / f"b{i}").model is not None


class TestBaselineRoundTrip:
    def test_popularity(self, split, tmp_path):
        model = PopularityModel().fit(split.train)
        ModelBundle(model).save(tmp_path / "pop")
        restored = ModelBundle.load(tmp_path / "pop").model
        assert isinstance(restored, PopularityModel)
        np.testing.assert_allclose(
            restored.score_items(0), model.score_items(0)
        )
        assert np.array_equal(restored.recommend(0, k=10), model.recommend(0, k=10))

    def test_random(self, split, tmp_path):
        model = RandomModel(seed=5).fit(split.train)
        ModelBundle(model).save(tmp_path / "rnd")
        restored = ModelBundle.load(tmp_path / "rnd").model
        assert isinstance(restored, RandomModel)
        assert restored.seed == 5
        assert restored.score_items(0).shape == (split.train.n_items,)

    def test_random_numpy_seed_survives(self, split, tmp_path):
        model = RandomModel(seed=np.int64(7)).fit(split.train)
        ModelBundle(model).save(tmp_path / "rnd")
        assert ModelBundle.load(tmp_path / "rnd").model.seed == 7


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BundleError, match="no manifest.json"):
            ModelBundle.load(tmp_path)

    def test_corrupt_manifest(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        (tmp_path / "b" / MANIFEST_NAME).write_text("{not json!!")
        with pytest.raises(BundleError, match="corrupt manifest"):
            ModelBundle.load(tmp_path / "b")

    def test_future_version_rejected(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["version"] = BUNDLE_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="unsupported bundle version"):
            ModelBundle.load(tmp_path / "b")

    def test_wrong_format_rejected(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format"] = "something-else"
        path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="not a repro-model-bundle"):
            ModelBundle.load(tmp_path / "b")

    def test_unknown_model_class(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["model_class"] = "MysteryModel"
        path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="unknown model class"):
            ModelBundle.load(tmp_path / "b")

    def test_unsupported_model_type(self, tmp_path):
        with pytest.raises(BundleError, match="don't know how to bundle"):
            ModelBundle(object()).save(tmp_path / "b")

    def test_manifest_records_version_metadata(self, tf_model, tmp_path):
        from repro import __version__

        ModelBundle(tf_model).save(tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / MANIFEST_NAME).read_text())
        assert manifest["version"] == BUNDLE_VERSION
        assert manifest["repro_version"] == __version__


class TestTaxonomyVersionPinning:
    """The manifest pins the exact tree generation the factors expect."""

    def test_manifest_records_taxonomy_version(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        manifest = json.loads((tmp_path / "b" / MANIFEST_NAME).read_text())
        record = manifest["taxonomy_version"]
        assert record["digest"] == tf_model.taxonomy.digest
        assert record["n_items"] == tf_model.taxonomy.n_items
        assert record["revision"] == tf_model.taxonomy.revision

    def test_swapped_taxonomy_file_rejected(self, tf_model, tmp_path):
        """A taxonomy.json regenerated from another run is internally
        consistent (its own digest matches), so ``load_taxonomy`` alone
        cannot catch the swap — the manifest pin must."""
        from repro.core.mf_model import flat_taxonomy
        from repro.taxonomy import save_taxonomy

        ModelBundle(tf_model).save(tmp_path / "b")
        impostor = flat_taxonomy(tf_model.taxonomy.n_items)
        assert impostor.digest != tf_model.taxonomy.digest
        save_taxonomy(impostor, tmp_path / "b" / "taxonomy.json")
        with pytest.raises(BundleError, match="different model generations"):
            ModelBundle.load(tmp_path / "b")

    def test_item_count_mismatch_rejected(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["taxonomy_version"]["n_items"] += 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="item"):
            ModelBundle.load(tmp_path / "b")

    def test_corrupt_version_record_rejected(self, tf_model, tmp_path):
        ModelBundle(tf_model).save(tmp_path / "b")
        path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["taxonomy_version"] = {"bogus": True}
        path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="corrupt taxonomy_version"):
            ModelBundle.load(tmp_path / "b")

    def test_pre_versioning_bundle_still_loads(self, tf_model, tmp_path):
        """Bundles written before the pin existed carry no record."""
        ModelBundle(tf_model).save(tmp_path / "b")
        path = tmp_path / "b" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        del manifest["taxonomy_version"]
        path.write_text(json.dumps(manifest))
        bundle = ModelBundle.load(tmp_path / "b")
        _factor_sets_equal(bundle.model.factor_set, tf_model.factor_set)
