"""Statistical significance of model comparisons.

The paper reports point estimates; a production evaluation should also say
whether "TF beats MF" survives sampling noise.  Both tests operate on the
**per-user** metric arrays an :class:`~repro.eval.protocol.EvalResult`
already carries, treating users as the resampling unit:

* :func:`paired_bootstrap` — bootstrap distribution of the mean
  difference, reporting a confidence interval and the probability that the
  sign flips;
* :func:`sign_test` — distribution-free binomial test on per-user wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.eval.protocol import EvalResult
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_fraction, check_positive


@dataclass
class BootstrapResult:
    """Outcome of a paired bootstrap comparison (model A minus model B)."""

    mean_difference: float
    ci_low: float
    ci_high: float
    p_sign_flip: float  # share of resamples where the difference's sign flips
    n_users: int

    @property
    def significant(self) -> bool:
        """True when the confidence interval excludes zero."""
        return self.ci_low > 0.0 or self.ci_high < 0.0


@dataclass
class SignTestResult:
    """Outcome of a per-user sign test (model A vs model B)."""

    wins: int
    losses: int
    ties: int
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < 0.05


def _paired_values(
    a: EvalResult, b: EvalResult, metric: str
) -> Tuple[np.ndarray, np.ndarray]:
    attribute = {"auc": "per_user_auc", "mean_rank": "per_user_rank"}[metric]
    va = getattr(a, attribute)
    vb = getattr(b, attribute)
    if va is None or vb is None:
        raise ValueError(
            "EvalResults must carry per-user arrays (evaluate_model does)"
        )
    if va.shape != vb.shape:
        raise ValueError(
            "results cover different user sets; evaluate both models on "
            "the same split and user ordering"
        )
    keep = ~(np.isnan(va) | np.isnan(vb))
    return va[keep], vb[keep]


def paired_bootstrap(
    a: EvalResult,
    b: EvalResult,
    metric: str = "auc",
    n_resamples: int = 2000,
    confidence: float = 0.95,
    seed: RngLike = 0,
) -> BootstrapResult:
    """Bootstrap the per-user mean difference ``metric(A) − metric(B)``."""
    check_positive("n_resamples", n_resamples)
    check_fraction("confidence", confidence, inclusive=False)
    va, vb = _paired_values(a, b, metric)
    if va.size == 0:
        raise ValueError("no users with both results")
    rng = ensure_rng(seed)
    differences = va - vb
    observed = float(differences.mean())
    indices = rng.integers(0, differences.size, size=(n_resamples, differences.size))
    resampled = differences[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(resampled, [alpha, 1.0 - alpha])
    if observed >= 0:
        flips = float(np.mean(resampled < 0))
    else:
        flips = float(np.mean(resampled > 0))
    return BootstrapResult(
        mean_difference=observed,
        ci_low=float(low),
        ci_high=float(high),
        p_sign_flip=flips,
        n_users=int(differences.size),
    )


def sign_test(
    a: EvalResult,
    b: EvalResult,
    metric: str = "auc",
) -> SignTestResult:
    """Two-sided binomial sign test on per-user wins of A over B.

    For ``mean_rank`` a *lower* value is a win.
    """
    va, vb = _paired_values(a, b, metric)
    if metric == "mean_rank":
        wins = int(np.sum(va < vb))
        losses = int(np.sum(va > vb))
    else:
        wins = int(np.sum(va > vb))
        losses = int(np.sum(va < vb))
    ties = int(va.size - wins - losses)
    p_value = _two_sided_fair_binomial_p(wins, wins + losses)
    return SignTestResult(wins=wins, losses=losses, ties=ties, p_value=p_value)


def _two_sided_fair_binomial_p(k: int, n: int) -> float:
    """Two-sided p of *k* successes in *n* fair coin flips.

    The fair binomial is symmetric, so the p-value is
    ``2 * P(X <= min(k, n - k))``, capped at 1.  ``P(X = m)`` is built as
    ``C(n, m) / 2**n`` with the binary exponent carried separately, so
    nothing overflows or underflows before the final ``ldexp`` even at
    n in the tens of thousands; the lower tail is then summed relative
    to that term.  This stays within about 1e-14 of the exact value —
    each step is a ratio of integers, where a log-gamma formulation
    loses ~1e-11 to cancellation between terms near ``lgamma(n + 1)``.
    """
    m = min(k, n - k)
    if 2 * m == n:  # also covers n == 0: no decided pairs
        return 1.0
    mantissa, exponent = 1.0, 0  # C(n, m) == mantissa * 2**exponent
    for i in range(1, m + 1):
        mantissa, shift = math.frexp(mantissa * (n - i + 1) / i)
        exponent += shift
    # P(X <= m) / P(X = m): walk down from m, P(i-1)/P(i) = i/(n-i+1).
    ratio = tail = 1.0
    for i in range(m, 0, -1):
        ratio *= i / (n - i + 1)
        tail += ratio
    return min(1.0, 2.0 * math.ldexp(mantissa * tail, exponent - n))


def compare_models(
    a: EvalResult,
    b: EvalResult,
    metric: str = "auc",
    seed: RngLike = 0,
) -> str:
    """One-line verdict combining both tests (for reports and logs)."""
    boot = paired_bootstrap(a, b, metric=metric, seed=seed)
    sign = sign_test(a, b, metric=metric)
    verdict = "significant" if (boot.significant and sign.significant) else "not significant"
    return (
        f"Δ{metric}={boot.mean_difference:+.4f} "
        f"[{boot.ci_low:+.4f}, {boot.ci_high:+.4f}] "
        f"wins {sign.wins}/{sign.wins + sign.losses} "
        f"(sign-test p={sign.p_value:.2e}) -> {verdict}"
    )
