"""Tests for taxonomy growth and factor-set expansion (cold-start onboarding)."""

import numpy as np
import pytest

from repro.core.factors import FactorSet
from repro.core.tf_model import TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.extend import add_items
from repro.taxonomy.generator import complete_taxonomy
from repro.taxonomy.tree import TaxonomyError
from repro.train import train_model
from repro.utils.config import TrainConfig


@pytest.fixture()
def taxonomy():
    return complete_taxonomy((2, 2), items_per_leaf=2)  # nodes 0..14, 8 items


class TestAddItems:
    def test_preserves_existing_ids(self, taxonomy):
        leaf_category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [leaf_category])
        assert grown.n_nodes == taxonomy.n_nodes + 1
        assert np.array_equal(
            grown.parent[: taxonomy.n_nodes], taxonomy.parent
        )
        assert np.array_equal(grown.items[: taxonomy.n_items], taxonomy.items)

    def test_new_items_get_next_indices(self, taxonomy):
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [category, category])
        assert new_items.tolist() == [taxonomy.n_items, taxonomy.n_items + 1]
        assert grown.n_items == taxonomy.n_items + 2

    def test_new_item_chain_goes_through_parent(self, taxonomy):
        category = int(taxonomy.parent[taxonomy.items[5]])
        grown, new_items = add_items(taxonomy, [category])
        node = grown.node_of_item(int(new_items[0]))
        assert grown.parent[node] == category

    def test_names_applied(self, taxonomy):
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [category], names=["fresh"])
        assert grown.name_of(grown.node_of_item(int(new_items[0]))) == "fresh"

    def test_rejects_leaf_parent(self, taxonomy):
        with pytest.raises(TaxonomyError, match="leaf"):
            add_items(taxonomy, [int(taxonomy.items[0])])

    def test_rejects_unknown_parent(self, taxonomy):
        with pytest.raises(TaxonomyError):
            add_items(taxonomy, [999])

    def test_rejects_empty(self, taxonomy):
        with pytest.raises(TaxonomyError):
            add_items(taxonomy, [])

    def test_rejects_wrong_name_count(self, taxonomy):
        category = int(taxonomy.parent[taxonomy.items[0]])
        with pytest.raises(TaxonomyError, match="names"):
            add_items(taxonomy, [category], names=["a", "b"])

    def test_rejects_attaching_under_freshly_added_item(self, taxonomy):
        """A just-added item is a leaf like any other: attaching under it
        would turn it into a category and shift every later item index."""
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [category])
        new_node = grown.node_of_item(int(new_items[0]))
        assert grown.is_leaf(new_node)
        with pytest.raises(TaxonomyError, match="leaf"):
            add_items(grown, [new_node])

    def test_duplicate_parents_get_distinct_items(self, taxonomy):
        """The same parent repeated yields distinct sequential item ids,
        never a duplicate index."""
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [category] * 3)
        assert new_items.tolist() == [
            taxonomy.n_items,
            taxonomy.n_items + 1,
            taxonomy.n_items + 2,
        ]
        assert len(set(new_items.tolist())) == 3
        nodes = [grown.node_of_item(int(i)) for i in new_items]
        assert len(set(nodes)) == 3
        assert all(int(grown.parent[n]) == category for n in nodes)

    def test_chained_growth_preserves_all_earlier_indices(self, taxonomy):
        """add_items composes: a second round must preserve both the
        original items and the first round's additions."""
        cat_a = int(taxonomy.parent[taxonomy.items[0]])
        cat_b = int(taxonomy.parent[taxonomy.items[-1]])
        once, first = add_items(taxonomy, [cat_a])
        twice, second = add_items(once, [cat_b, cat_a])
        assert np.array_equal(twice.items[: once.n_items], once.items)
        assert np.array_equal(twice.items[: taxonomy.n_items], taxonomy.items)
        assert second.tolist() == [once.n_items, once.n_items + 1]

    def test_interior_node_with_single_leaf_child_accepts_items(self, taxonomy):
        """A category that currently has exactly one item stays a valid
        parent (leaf-ness is about the node itself, not its fan-out)."""
        category = int(taxonomy.parent[taxonomy.items[0]])
        assert not taxonomy.is_leaf(category)
        grown, new_items = add_items(taxonomy, [category])
        assert grown.subtree_items(category).size == (
            taxonomy.subtree_items(category).size + 1
        )

    def test_default_names_only_when_named_taxonomy(self, taxonomy):
        """Named taxonomies get generated names for unnamed additions;
        unnamed taxonomies stay unnamed."""
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [category])
        node = grown.node_of_item(int(new_items[0]))
        assert grown.name_of(node) == "new-item-0"

        from repro.taxonomy.tree import Taxonomy

        bare = Taxonomy(taxonomy.parent.copy())
        grown_bare, new_bare = add_items(bare, [category])
        node = grown_bare.node_of_item(int(new_bare[0]))
        assert grown_bare.name_of(node) == f"node:{node}"


class TestFactorSetExpand:
    def test_old_factors_preserved(self, taxonomy):
        fs = FactorSet(3, taxonomy, 4, levels=3, seed=0)
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, _ = add_items(taxonomy, [category])
        expanded = fs.expand(grown)
        np.testing.assert_array_equal(
            expanded.w[: taxonomy.n_nodes], fs.w[: taxonomy.n_nodes]
        )
        np.testing.assert_array_equal(expanded.user, fs.user)
        np.testing.assert_array_equal(
            expanded.bias[: taxonomy.n_nodes], fs.bias[: taxonomy.n_nodes]
        )

    def test_new_item_effective_factor_equals_category(self, taxonomy):
        """Zero offset for a new item → Eq. 1 gives exactly the ancestor sum.

        Exact equality with the category's own effective factor requires
        chains that reach the root (``levels`` >= the item's depth + 1);
        with truncated chains the two differ by the excluded top levels.
        """
        fs = FactorSet(3, taxonomy, 4, levels=4, seed=0)
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [category])
        expanded = fs.expand(grown)
        new_eff = expanded.effective_items(new_items)[0]
        category_eff = expanded.effective_nodes(np.array([category]))[0]
        np.testing.assert_allclose(new_eff, category_eff)

    def test_jittered_expansion(self, taxonomy):
        fs = FactorSet(3, taxonomy, 4, levels=3, with_next=False, seed=0)
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, new_items = add_items(taxonomy, [category])
        expanded = fs.expand(grown, new_offset_scale=0.1, seed=1)
        node = grown.node_of_item(int(new_items[0]))
        assert np.any(expanded.w[node] != 0)

    def test_rejects_unrelated_taxonomy(self, taxonomy):
        fs = FactorSet(3, taxonomy, 4, levels=3, seed=0)
        other = complete_taxonomy((3, 2), items_per_leaf=2)
        with pytest.raises(ValueError, match="renumbering"):
            fs.expand(other)

    def test_next_factors_carried(self, taxonomy):
        fs = FactorSet(3, taxonomy, 4, levels=3, with_next=True, seed=0)
        category = int(taxonomy.parent[taxonomy.items[0]])
        grown, _ = add_items(taxonomy, [category])
        expanded = fs.expand(grown)
        np.testing.assert_array_equal(
            expanded.w_next[: taxonomy.n_nodes], fs.w_next[: taxonomy.n_nodes]
        )


class TestModelOnboarding:
    @pytest.fixture()
    def fitted(self, taxonomy):
        log = TransactionLog(
            [[[0, 1], [4]], [[2], [6]], [[5], [7]]], n_items=8
        )
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=4, epochs=4, taxonomy_levels=4, seed=0)
        )
        return train_model(model, log)

    def test_onboard_returns_new_indices(self, fitted, taxonomy):
        category = int(taxonomy.parent[taxonomy.items[0]])
        new_items = fitted.onboard_items([category])
        assert new_items.tolist() == [8]
        assert fitted.n_items == 9

    def test_new_item_scored_like_its_category(self, fitted, taxonomy):
        category = int(taxonomy.parent[taxonomy.items[0]])
        new_items = fitted.onboard_items([category])
        scores = fitted.score_items(0)
        category_score = fitted.score_nodes(0, np.array([category]))[0]
        assert scores[new_items[0]] == pytest.approx(category_score)

    def test_new_item_is_recommendable(self, fitted, taxonomy):
        # A user whose purchases all sit under the target category should
        # see the onboarded item rank well.
        category = int(taxonomy.parent[taxonomy.items[0]])
        new_items = fitted.onboard_items([category])
        rank = (
            1
            + int(
                (fitted.score_items(0) > fitted.score_items(0)[new_items[0]]).sum()
            )
        )
        assert rank <= fitted.n_items  # sanity: finite, scored

    def test_scores_for_old_items_unchanged(self, fitted, taxonomy):
        before = fitted.score_items(1)
        category = int(taxonomy.parent[taxonomy.items[0]])
        fitted.onboard_items([category])
        after = fitted.score_items(1)[: before.size]
        np.testing.assert_allclose(after, before)
