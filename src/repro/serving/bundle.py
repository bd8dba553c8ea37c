"""One-directory model artifacts: factors + taxonomy + config + manifest.

Deploying a taxonomy-aware model needs three coupled pieces — the learned
factor matrices, the exact tree they index into, and the training
configuration that decides how they are combined at inference time
(``taxonomy_levels``, ``markov_order``, ``alpha``).  Historically these were
scattered over a ``.npz`` file, a separate taxonomy JSON, and an ad-hoc
``.meta.json`` sidecar written by the CLI.  A :class:`ModelBundle` packages
them into a single directory with a versioned ``manifest.json``::

    bundle/
      manifest.json     format, version, model class, config, extras
      factors.npz       FactorSet arrays          (TF / MF models)
      taxonomy.json     the item taxonomy         (TF / MF models)
      popularity.npz    per-item purchase scores  (popularity baseline)

``ModelBundle(model).save(path)`` / ``ModelBundle.load(path)`` round-trip
every model class the serving layer accepts.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.factors import FactorSet
from repro.core.mf_model import MFModel
from repro.core.popularity import PopularityModel, RandomModel
from repro.core.tf_model import TaxonomyFactorModel
from repro.taxonomy.io import load_taxonomy, save_taxonomy
from repro.taxonomy.tree import Taxonomy
from repro.taxonomy.version import TaxonomyVersion
from repro.utils.config import TrainConfig

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
BUNDLE_FORMAT = "repro-model-bundle"
BUNDLE_VERSION = 1

_FACTOR_MODELS = {"TaxonomyFactorModel": TaxonomyFactorModel, "MFModel": MFModel}


class BundleError(RuntimeError):
    """A bundle directory is missing, corrupt, or from the future."""


class ModelBundle:
    """A loadable serving artifact: one model plus everything it needs.

    Parameters
    ----------
    model:
        A fitted model — :class:`TaxonomyFactorModel`, :class:`MFModel`,
        :class:`PopularityModel`, or :class:`RandomModel`.
    extra:
        Free-form JSON-serializable metadata carried in the manifest
        (the CLI stores its split parameters here).  Three keys are
        serving-significant: ``"retrieval"`` (one of
        :data:`~repro.serving.index.RETRIEVAL_MODES`) records how the
        bundle should be served, and ``"budget"`` / ``"nprobe"`` carry
        the measured operating point of the approximate modes, so a
        large-catalog bundle ships with its retrieval tier and knobs
        chosen at save time.  The ``serve-batch`` / ``serve-sharded`` /
        ``gateway`` commands use them as defaults when the matching flag
        is not given; a knob hint applies only while the served mode is
        the hinted ``"retrieval"`` (``--retrieval exact`` on a
        ``"budget"`` bundle serves exactly), and knobs must be integers
        >= 1.

    Examples
    --------
    >>> import tempfile
    >>> from repro import SyntheticConfig, TaxonomyFactorModel, generate_dataset
    >>> from repro.train import train_model
    >>> data = generate_dataset(SyntheticConfig(n_users=40, seed=0))
    >>> model = train_model(
    ...     TaxonomyFactorModel(data.taxonomy, factors=4, epochs=1, seed=0),
    ...     data.log,
    ... )
    >>> tmp = tempfile.TemporaryDirectory()
    >>> _ = ModelBundle(model, extra={"mu": 0.5}).save(tmp.name + "/tf")
    >>> restored = ModelBundle.load(tmp.name + "/tf")
    >>> restored.extra["mu"]
    0.5
    >>> type(restored.model).__name__
    'TaxonomyFactorModel'
    >>> tmp.cleanup()
    """

    def __init__(self, model: Any, extra: Optional[Dict[str, Any]] = None):
        self.model = model
        self.extra: Dict[str, Any] = dict(extra or {})

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, directory: PathLike) -> Path:
        """Write the bundle into *directory* (created if needed).

        The write is **crash-safe**: every artifact is staged into a
        temporary sibling directory and moved into place with
        ``os.replace``, the manifest last.  A crash mid-save therefore
        leaves either the previous complete bundle or no manifest at all —
        never a half-written ``manifest.json`` that :meth:`load` rejects.
        """
        directory = Path(directory)
        name = type(self.model).__name__
        self._check_saveable(name)
        if directory.exists() and not directory.is_dir():
            raise BundleError(
                f"{directory} exists and is not a directory; bundles are "
                f"directories (remove the file or pick another path)"
            )
        directory.parent.mkdir(parents=True, exist_ok=True)
        staging = self._make_staging_dir(directory)
        try:
            self._write_artifacts(staging, name)
            if not directory.exists():
                # Fresh target: one atomic rename publishes the whole bundle.
                os.replace(staging, directory)
            else:
                # Overwrite in place: move artifacts first, manifest last,
                # so a crash leaves the old manifest (still loadable against
                # old artifacts is not guaranteed, but load never sees a
                # torn manifest) or the complete new bundle.
                staged_names = {path.name for path in staging.iterdir()}
                for artifact in sorted(staged_names - {MANIFEST_NAME}):
                    os.replace(staging / artifact, directory / artifact)
                os.replace(staging / MANIFEST_NAME, directory / MANIFEST_NAME)
                # Drop files the new bundle no longer contains (e.g. a
                # factors.npz left behind when overwriting with a
                # popularity bundle) — the directory IS the artifact.
                for path in directory.iterdir():
                    if path.is_file() and path.name not in staged_names:
                        path.unlink()
        finally:
            if staging.exists():
                shutil.rmtree(staging, ignore_errors=True)
        return directory

    @staticmethod
    def _make_staging_dir(directory: Path) -> Path:
        """A fresh hidden sibling of *directory* (same filesystem, so the
        final ``os.replace`` is an atomic rename)."""
        for attempt in itertools.count():
            staging = directory.parent / (
                f".{directory.name}.staging-{os.getpid()}-{attempt}"
            )
            try:
                staging.mkdir()
                return staging
            except FileExistsError:
                continue
        raise AssertionError("unreachable")  # pragma: no cover

    def _write_artifacts(self, directory: Path, name: str) -> None:
        """Write every bundle file into *directory*, the manifest last."""
        from repro import __version__  # deferred: repro imports this module

        manifest: Dict[str, Any] = {
            "format": BUNDLE_FORMAT,
            "version": BUNDLE_VERSION,
            "repro_version": __version__,
            "model_class": name,
            "extra": self.extra,
        }
        if name in _FACTOR_MODELS:
            self.model.factor_set.save(directory / "factors.npz")
            save_taxonomy(self.model.taxonomy, directory / "taxonomy.json")
            manifest["config"] = dataclasses.asdict(self.model.config)
            # The taxonomy is a versioned artifact: the manifest pins the
            # exact tree generation the factors were trained against, so
            # load() can reject a bundle whose pieces drifted apart.
            manifest["taxonomy_version"] = self.model.taxonomy.version.as_dict()
            manifest["artifacts"] = {
                "factors": "factors.npz",
                "taxonomy": "taxonomy.json",
            }
        elif isinstance(self.model, PopularityModel):
            scores = self.model.score_items(0)
            np.savez_compressed(directory / "popularity.npz", scores=scores)
            manifest["artifacts"] = {"scores": "popularity.npz"}
        elif isinstance(self.model, RandomModel):
            manifest["n_items"] = int(self.model._n_items)
            manifest["seed"] = self.model.seed
            manifest["artifacts"] = {}
        with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)

    def _check_saveable(self, name: str) -> None:
        """Reject unsupported or unfitted models before touching disk."""
        if name in _FACTOR_MODELS:
            if self.model._factors is None:
                raise BundleError(f"cannot bundle an unfitted {name}")
        elif isinstance(self.model, PopularityModel):
            if self.model._scores is None:
                raise BundleError("cannot bundle an unfitted PopularityModel")
        elif isinstance(self.model, RandomModel):
            if self.model._n_items is None:
                raise BundleError("cannot bundle an unfitted RandomModel")
        else:
            raise BundleError(
                f"don't know how to bundle a {name}; supported: "
                f"{sorted(_FACTOR_MODELS)} + ['PopularityModel', 'RandomModel']"
            )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, directory: PathLike) -> "ModelBundle":
        """Restore a bundle saved with :meth:`save`."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise BundleError(
                f"{directory} is not a model bundle (no {MANIFEST_NAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BundleError(f"corrupt manifest in {directory}: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT:
            raise BundleError(f"{manifest_path} is not a {BUNDLE_FORMAT} manifest")
        version = manifest.get("version")
        if version != BUNDLE_VERSION:
            raise BundleError(
                f"unsupported bundle version {version!r} "
                f"(this build reads version {BUNDLE_VERSION})"
            )

        name = manifest.get("model_class")
        if name in _FACTOR_MODELS:
            model = cls._load_factor_model(directory, manifest, name)
        elif name == "PopularityModel":
            with np.load(directory / "popularity.npz") as data:
                scores = data["scores"]
            model = PopularityModel()
            model._scores = scores
        elif name == "RandomModel":
            model = RandomModel(seed=manifest.get("seed"))
            model._n_items = int(manifest["n_items"])
        else:
            raise BundleError(f"unknown model class {name!r} in manifest")
        return cls(model, extra=manifest.get("extra", {}))

    @staticmethod
    def _load_factor_model(
        directory: Path, manifest: Dict[str, Any], name: str
    ) -> TaxonomyFactorModel:
        taxonomy = load_taxonomy(directory / "taxonomy.json")
        ModelBundle._check_taxonomy_version(directory, manifest, taxonomy)
        config = TrainConfig(**manifest.get("config", {}))
        model = _FACTOR_MODELS[name](taxonomy, config)
        model._factors = FactorSet.load(directory / "factors.npz", taxonomy)
        return model

    @staticmethod
    def _check_taxonomy_version(
        directory: Path, manifest: Dict[str, Any], taxonomy: Taxonomy
    ) -> None:
        """Verify the loaded tree is the generation the manifest pins.

        The factors were trained against one exact tree; a
        ``taxonomy.json`` swapped in from another run (or truncated and
        regenerated) would silently mis-index every ancestor chain.  The
        manifest's recorded :class:`~repro.taxonomy.version.
        TaxonomyVersion` must match the loaded tree's digest and item
        count.  Bundles written before the taxonomy was versioned carry
        no record and load as before.
        """
        recorded = manifest.get("taxonomy_version")
        if recorded is None:
            return
        try:
            pinned = TaxonomyVersion.from_dict(recorded)
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleError(
                f"corrupt taxonomy_version record in {directory}: {exc}"
            ) from exc
        actual = taxonomy.version
        if pinned.digest != actual.digest:
            raise BundleError(
                f"taxonomy mismatch in {directory}: manifest pins tree "
                f"{pinned.short}... but taxonomy.json holds "
                f"{actual.short}... — the bundle's artifacts are from "
                f"different model generations"
            )
        if pinned.n_items != actual.n_items:
            raise BundleError(
                f"taxonomy mismatch in {directory}: manifest records "
                f"{pinned.n_items} items but taxonomy.json holds "
                f"{actual.n_items}"
            )

    @classmethod
    def load_model(cls, directory: PathLike) -> Any:
        """Convenience: load a bundle and return just its model."""
        return cls.load(directory).model

    def __repr__(self) -> str:
        return f"ModelBundle(model={self.model!r}, extra={self.extra})"
