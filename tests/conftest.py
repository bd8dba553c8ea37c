"""Shared fixtures: one small synthetic dataset and pre-trained models.

Session-scoped so the expensive pieces (generation, training) happen once
per test run; tests must treat them as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    MFModel,
    SyntheticConfig,
    TaxonomyFactorModel,
    TrainConfig,
    generate_dataset,
    train_test_split,
)
from repro.taxonomy.generator import complete_taxonomy
from repro.train import train_model


@pytest.fixture(scope="session")
def small_config() -> SyntheticConfig:
    return SyntheticConfig(
        branching=(5, 3, 3),
        items_per_leaf=4,
        n_users=400,
        mean_transactions=3.0,
        seed=42,
    )


@pytest.fixture(scope="session")
def dataset(small_config):
    return generate_dataset(small_config)


@pytest.fixture(scope="session")
def split(dataset):
    return train_test_split(dataset.log, mu=0.5, seed=7)


@pytest.fixture(scope="session")
def train_config() -> TrainConfig:
    return TrainConfig(factors=8, epochs=5, learning_rate=0.05, reg=0.01, seed=11)


@pytest.fixture(scope="session")
def tf_model(dataset, split, train_config):
    model = TaxonomyFactorModel(
        dataset.taxonomy, train_config, taxonomy_levels=4, sibling_ratio=0.5
    )
    return train_model(model, split.train)


@pytest.fixture(scope="session")
def tf_markov_model(dataset, split, train_config):
    model = TaxonomyFactorModel(
        dataset.taxonomy, train_config, taxonomy_levels=4, markov_order=1
    )
    return train_model(model, split.train)


@pytest.fixture(scope="session")
def mf_model(dataset, split, train_config):
    return train_model(MFModel(dataset.taxonomy, train_config), split.train)


@pytest.fixture()
def tiny_taxonomy():
    """Complete 2/2/2 taxonomy with 2 items per leaf (15 nodes, 8 items)."""
    return complete_taxonomy((2, 2), items_per_leaf=2)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
