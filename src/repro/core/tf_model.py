"""The public TF model class — the paper's primary contribution.

:class:`TaxonomyFactorModel` is the ``TF(U, B)`` of Sec. 7.2:

* ``U`` (``config.taxonomy_levels``) — taxonomy levels used by the additive
  factor model of Eq. 1 (``U = 1`` → plain latent factor model);
* ``B`` (``config.markov_order``) — previous transactions feeding the
  short-term Markov term of Eq. 3 (``B = 0`` → long-term interests only).

The configuration space subsumes the baselines of Sec. 7.2:
``TF(1, 0)`` ≡ BPR-MF, ``TF(1, 1)`` ≡ FPMC (see
:mod:`repro.core.mf_model` for named wrappers).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.affinity import context_items_weights, user_query_vector
from repro.core.factors import KIND_LONG, KIND_NEXT, FactorSet
from repro.core.topk import top_k, top_k_rows
from repro.core.sgd import EpochStats, SGDTrainer
from repro.data.transactions import TransactionLog
from repro.taxonomy.tree import Taxonomy
from repro.utils.config import TrainConfig

History = Sequence[np.ndarray]


class NotFittedError(RuntimeError):
    """Raised when inference is requested before the model is trained."""


class TaxonomyFactorModel:
    """Taxonomy-aware latent factor model ``TF(U, B)``.

    Parameters
    ----------
    taxonomy:
        The item taxonomy; its leaves define the item universe.
    config:
        Training hyper-parameters.  ``config.taxonomy_levels`` and
        ``config.markov_order`` select the model variant.
    **overrides:
        Convenience keyword overrides applied on top of *config*
        (e.g. ``TaxonomyFactorModel(tax, factors=32, markov_order=1)``).

    Examples
    --------
    >>> from repro import generate_dataset, train_test_split
    >>> from repro.train import SerialTrainer
    >>> data = generate_dataset()
    >>> split = train_test_split(data.log)
    >>> model = TaxonomyFactorModel(data.taxonomy, factors=16, epochs=5)
    >>> _ = SerialTrainer(model).train(split.train)
    >>> model.recommend(user=0, k=3).shape
    (3,)
    """

    def __init__(
        self,
        taxonomy: Taxonomy,
        config: Optional[TrainConfig] = None,
        **overrides,
    ):
        if config is None:
            config = TrainConfig()
        if overrides:
            config = dataclasses.replace(config, **overrides)
        self.taxonomy = taxonomy
        self.config = config
        self._factors: Optional[FactorSet] = None
        self._train_log: Optional[TransactionLog] = None
        self.history_: List[EpochStats] = []

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    @property
    def factor_set(self) -> FactorSet:
        """The trained parameters (raises if not fitted)."""
        if self._factors is None:
            raise NotFittedError(
                "train the model (repro.train.SerialTrainer) before using it"
            )
        return self._factors

    @property
    def n_users(self) -> int:
        """Number of users the model was configured for."""
        return self.factor_set.n_users

    @property
    def n_items(self) -> int:
        """Number of items (taxonomy leaves) the model scores."""
        return self.taxonomy.n_items

    def _history_for(self, user: int, history: Optional[History]) -> History:
        if history is not None:
            return history
        if self._train_log is not None and user < self._train_log.n_users:
            return self._train_log.user_transactions(user)
        return []

    def query_vector(
        self, user: int, history: Optional[History] = None
    ) -> np.ndarray:
        """``v^U_u + ctx`` — the vector all candidates are scored against.

        ``history`` is the user's past baskets (defaults to their training
        transactions); only the last ``markov_order`` matter.
        """
        return user_query_vector(
            self.factor_set,
            user,
            history=self._history_for(user, history),
            order=self.config.markov_order,
            alpha=self.config.alpha,
        )

    def query_matrix(
        self,
        users: np.ndarray,
        histories: Optional[Sequence[History]] = None,
    ) -> np.ndarray:
        """Query vectors for a batch of users, shape ``(len(users), K)``.

        ``histories[k]``, when given, overrides user ``users[k]``'s history.
        """
        fs = self.factor_set
        users = np.asarray(users, dtype=np.int64)
        queries = fs.user[users].copy()
        if self.config.markov_order == 0:
            return queries
        for row, user in enumerate(users):
            history = None if histories is None else histories[row]
            history = self._history_for(int(user), history)
            items, weights = context_items_weights(
                history, self.config.markov_order, self.config.alpha
            )
            if items.size:
                eff = fs.effective_items(items, kind=KIND_NEXT)
                queries[row] += weights @ eff
        return queries

    def score_items(
        self,
        user: int,
        history: Optional[History] = None,
        items: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Affinity scores (Eq. 3) for *items* (default: every item)."""
        query = self.query_vector(user, history)
        fs = self.factor_set
        return fs.effective_items(items) @ query + fs.bias_of_items(items)

    def score_matrix(
        self,
        users: np.ndarray,
        histories: Optional[Sequence[History]] = None,
    ) -> np.ndarray:
        """Dense score matrix ``(len(users), n_items)`` — the naive inference
        path that cascaded inference (Sec. 5.1) accelerates."""
        queries = self.query_matrix(users, histories)
        fs = self.factor_set
        return queries @ fs.effective_items().T + fs.bias_of_items()[None, :]

    def score_nodes(
        self,
        user: int,
        nodes: np.ndarray,
        history: Optional[History] = None,
    ) -> np.ndarray:
        """Affinity of *user* to arbitrary taxonomy nodes.

        Interior nodes use their own effective factors (sum of offsets up
        the tree), enabling recommendation at any level (Sec. 5.1).
        """
        query = self.query_vector(user, history)
        fs = self.factor_set
        return fs.effective_nodes(nodes) @ query + fs.bias_of_nodes(nodes)

    def category_scores(
        self, user: int, level: int, history: Optional[History] = None
    ) -> np.ndarray:
        """Scores over all taxonomy nodes at depth *level* (structured
        ranking: Fig. 6c/d evaluate at the category level)."""
        nodes = self.taxonomy.nodes_at_level(level)
        return self.score_nodes(user, nodes, history)

    def recommend(
        self,
        user: int,
        k: int = 10,
        history: Optional[History] = None,
        exclude: Optional[np.ndarray] = None,
        exclude_purchased: bool = True,
    ) -> np.ndarray:
        """Top-*k* items for *user* by exact (non-cascaded) inference.

        Parameters
        ----------
        exclude:
            Explicit item indices to keep out of the ranking.
        exclude_purchased:
            Also exclude the user's training purchases (recommenders
            suggest *new* items, Sec. 7.1).
        """
        scores = self.score_items(user, history)
        banned: List[np.ndarray] = []
        if exclude is not None:
            banned.append(np.asarray(exclude, dtype=np.int64))
        if exclude_purchased and self._train_log is not None:
            if user < self._train_log.n_users:
                banned.append(self._train_log.user_items(user))
        if banned:
            scores = scores.copy()
            scores[np.concatenate(banned)] = -np.inf
        return top_k(scores, min(k, scores.size))

    def recommend_batch(
        self,
        users: np.ndarray,
        k: int = 10,
        histories: Optional[Sequence[History]] = None,
        exclude: Optional[Sequence[Optional[np.ndarray]]] = None,
        exclude_purchased: bool = True,
    ) -> np.ndarray:
        """Vectorized top-*k* for a batch of users — the serving fast path.

        Computes one dense score matrix (a single BLAS product) and one
        row-wise partition instead of ``len(users)`` per-user passes; rows
        match :meth:`recommend` for the same user.

        Parameters
        ----------
        users:
            Dense user indices, shape ``(n,)``.
        histories:
            Optional per-row history overrides (``histories[i]`` replaces
            user ``users[i]``'s training history).
        exclude:
            Optional per-row arrays of item indices to keep out of the
            ranking (``None`` entries skip a row).
        exclude_purchased:
            Also exclude each user's training purchases (Sec. 7.1).

        Returns
        -------
        ``(n, min(k, n_items))`` int64 array, best items first; rows with
        fewer than ``k`` rankable items are padded with ``-1``.
        """
        users = np.asarray(users, dtype=np.int64)
        scores = self.score_matrix(users, histories)
        if exclude_purchased and self._train_log is not None:
            for row, user in enumerate(users):
                if user < self._train_log.n_users:
                    bought = self._train_log.user_items(int(user))
                    if bought.size:
                        scores[row, bought] = -np.inf
        if exclude is not None:
            for row, banned in enumerate(exclude):
                if banned is not None and len(banned):
                    scores[row, np.asarray(banned, dtype=np.int64)] = -np.inf
        return top_k_rows(scores, k)

    def attach_log(self, log: TransactionLog) -> "TaxonomyFactorModel":
        """Attach *log* as the serving-time history source.

        A model restored from a :class:`~repro.serving.bundle.ModelBundle`
        carries no transaction log; attaching one restores Markov contexts
        and purchased-item exclusion for known users, exactly as after
        training.
        """
        if log.n_items != self.taxonomy.n_items:
            raise ValueError(
                f"log item universe ({log.n_items}) does not match the "
                f"taxonomy ({self.taxonomy.n_items})"
            )
        self._train_log = log
        return self

    def partial_fit(
        self,
        log: Optional[TransactionLog] = None,
        epochs: int = 1,
        callback: Optional[Callable[[EpochStats, SGDTrainer], None]] = None,
    ) -> "TaxonomyFactorModel":
        """Continue training the current factors for more epochs.

        Parameters
        ----------
        log:
            New transactions (same item universe).  Defaults to the log the
            model was fitted on.  Logs covering *more* users grow the user
            factor matrix; existing users keep their learned factors.
        epochs:
            Additional epochs to run.

        This supports the production pattern the paper motivates: retrain
        incrementally as fresh purchase data streams in, without starting
        from scratch.
        """
        factor_set = self.factor_set  # raises NotFittedError when unfitted
        if log is None:
            log = self._train_log
        if log.n_items != self.taxonomy.n_items:
            raise ValueError(
                f"log item universe ({log.n_items}) does not match the "
                f"taxonomy ({self.taxonomy.n_items})"
            )
        factor_set.ensure_users(log.n_users, seed=self.config.seed)
        config = dataclasses.replace(self.config, epochs=epochs)
        trainer = SGDTrainer(factor_set, log, config)
        self.history_.extend(trainer.train(callback=callback))
        self._train_log = log
        return self

    def onboard_items(
        self,
        parents: Sequence[int],
        names: Optional[Sequence[str]] = None,
    ) -> np.ndarray:
        """Add newly released items under existing categories (Sec. 1).

        One new item is attached under each node of *parents*.  The new
        items inherit their categories' effective factors (their own
        offsets start at zero), so they are immediately recommendable —
        the paper's cold-start prescription.  Returns the new items' dense
        indices.

        Retraining afterwards requires a log whose item universe matches
        the grown taxonomy.
        """
        from repro.taxonomy.extend import add_items

        grown, new_items = add_items(self.taxonomy, parents, names)
        self._factors = self.factor_set.expand(grown)
        self.taxonomy = grown
        return new_items

    def replant_items(self, moves) -> None:
        """Re-seat items under better categories, scores unchanged.

        *moves* maps dense item indices to new parent nodes (see
        :meth:`repro.taxonomy.tree.Taxonomy.replant`).  Every effective
        factor is preserved by rewriting the moved leaves' own offsets
        (:func:`repro.taxonomy.learn.replant_items`), so recommendations
        are unaffected until further training exploits the new chains.
        The model's taxonomy advances one revision.
        """
        from repro.taxonomy.learn import replant_items

        replanted, shifted = replant_items(self.taxonomy, self.factor_set, moves)
        self.taxonomy = replanted
        self._factors = shifted

    def effective_item_factors(self) -> np.ndarray:
        """Effective item factors ``v^I`` (Eq. 1), shape ``(n_items, K)``."""
        return self.factor_set.effective_items()

    def effective_node_factors(self, nodes: np.ndarray) -> np.ndarray:
        """Effective factors for arbitrary node ids (Fig. 7e visualizes
        these for the upper taxonomy levels)."""
        return self.factor_set.effective_nodes(nodes)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        fitted = self._factors is not None
        return (
            f"TaxonomyFactorModel(U={self.config.taxonomy_levels}, "
            f"B={self.config.markov_order}, K={self.config.factors}, "
            f"fitted={fitted})"
        )
