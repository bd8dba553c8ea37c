"""The rank and sign-test code that replaced ``scipy.stats``, pinned to scipy.

``tests/fixtures/scipy_reference.json`` holds outputs recorded from
``scipy.stats.rankdata(method="average")`` and ``scipy.stats.binomtest``
(through ``sign_test``) while the library still called them; its
``source`` field names the scipy version.  The replacements must
reproduce the ranks byte for byte, the ``auc`` / ``mean_rank`` values
exactly, and the p-values to a relative 1e-12.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.eval.metrics import auc, average_ranks, mean_rank, ranks_from_scores
from repro.eval.protocol import EvalResult
from repro.eval.significance import sign_test

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "scipy_reference.json").read_text()
)
SRC = Path(__file__).resolve().parents[1] / "src"


def _floats(values):
    return np.asarray(values, dtype=np.float64)


@pytest.mark.parametrize(
    "case", FIXTURE["ranks"], ids=lambda c: f"n{len(c['scores'])}"
)
def test_average_ranks_byte_identical_to_scipy(case):
    scores = _floats(case["scores"])
    expected = _floats(case["ranks"])
    assert average_ranks(scores).tobytes() == expected.tobytes()
    descending = scores.size + 1.0 - expected
    assert ranks_from_scores(scores).tobytes() == descending.tobytes()


def test_average_ranks_match_the_midrank_definition():
    """Rank = #smaller + (#equal + 1) / 2, on random heavily tied inputs."""
    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(0, 60))
        values = rng.integers(0, max(1, n // 3) + 1, size=n).astype(np.float64)
        values[rng.random(n) < 0.2] = -np.inf
        smaller = (values[None, :] < values[:, None]).sum(axis=1)
        equal = (values[None, :] == values[:, None]).sum(axis=1)
        assert np.array_equal(average_ranks(values), smaller + (equal + 1) / 2.0)


@pytest.mark.parametrize(
    "case", FIXTURE["metrics"], ids=lambda c: f"n{len(c['scores'])}"
)
def test_auc_and_mean_rank_equal_scipy_era_values(case):
    scores = _floats(case["scores"])
    assert auc(scores, case["positives"]) == case["auc"]
    assert mean_rank(scores, case["positives"]) == case["mean_rank"]


def test_nan_scores_rank_all_nan():
    scores = np.array([0.3, np.nan, 0.1, 0.3])
    assert np.isnan(average_ranks(scores)).all()
    assert math.isnan(auc(scores, [0]))
    assert math.isnan(mean_rank(scores, [0]))


def _paired(wins: int, losses: int, ties: int):
    a = np.r_[np.ones(wins), np.zeros(losses), np.full(ties, 0.5)]
    b = np.r_[np.zeros(wins), np.ones(losses), np.full(ties, 0.5)]
    return [
        EvalResult(
            auc=0.0, mean_rank=0.0, n_users=v.size,
            per_user_auc=v, per_user_rank=v,
        )
        for v in (a, b)
    ]


@pytest.mark.parametrize(
    "wins, losses, expected",
    FIXTURE["sign_test"],
    ids=lambda v: str(v) if isinstance(v, int) else "p",
)
def test_sign_test_p_value_matches_scipy(wins, losses, expected):
    """Covers 0 decided pairs, wins == losses, both tails, n = 20,000."""
    result = sign_test(*_paired(wins, losses, ties=3))
    assert (result.wins, result.losses, result.ties) == (wins, losses, 3)
    # abs_tol=0: p-values down to 1e-300 are compared relatively; those
    # that underflow to 0.0 in scipy must underflow here too.
    assert math.isclose(result.p_value, expected, rel_tol=1e-12, abs_tol=0.0)


def test_import_repro_loads_no_scipy():
    code = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
