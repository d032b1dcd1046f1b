"""Distribution-quality metrics comparing empirical multisets to the model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import check_dense
from .lsn import LsnParams, estimate_tau, model_distribution
from .multiset import EmptyMultisetError, MeasurementMultiset


class DivergenceError(ValueError):
    """KL is infinite: the first distribution puts mass where the second has none."""


def _check_distribution(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if np.any(p < -1e-12):
        raise ValueError("negative probability")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return p


def _check_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p, q = _check_distribution(p), _check_distribution(q)
    if p.shape != q.shape:
        raise ValueError("distributions live on different outcome spaces")
    return p, q


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of p(y) log2(p(y)/q(y)) with 0 log 0 = 0."""
    p, q = _check_pair(p, q)
    support = p > 0
    if np.any(q[support] == 0):
        raise DivergenceError("first distribution has mass where the second is zero")
    return float(np.sum(p[support] * np.log2(p[support] / q[support])))


def kolmogorov_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Largest single-outcome deviation."""
    p, q = _check_pair(p, q)
    return float(np.max(np.abs(p - q)))


def empirical_distribution(m: MeasurementMultiset) -> np.ndarray:
    if m.total == 0:
        raise EmptyMultisetError("empty multiset has no distribution")
    check_dense(m.n)
    out = np.zeros(1 << m.n)
    for o, c in m.counts.items():
        out[o] = c
    return out / m.total


@dataclass(frozen=True)
class QualityReport:
    kl: float
    kolmogorov: float
    tau: float


def quality_report(m: MeasurementMultiset, params: LsnParams) -> QualityReport:
    """The three-column quality row: KL and K against the model at the
    estimated error rate, plus that estimate itself.

    The model reference is built at tau estimated from this very multiset
    (params.tau is ignored), mirroring how the model overlays are drawn; that
    estimate may be 1/2 or above, where no `LsnParams` exists.
    KL(model || empirical) is infinite when the model supports an outcome the
    multiset never saw, so a multiset too sparse for its model raises
    `DivergenceError`, saying how many such outcomes there are. Both are
    dense 2^n arrays: n above MAX_DENSE_BITS raises `CapacityError`.
    """
    tau_hat = estimate_tau(m, params.s)
    model = model_distribution(params, tau_hat)
    emp = empirical_distribution(m)
    unseen = int(np.count_nonzero((model > 0) & (emp == 0)))
    if unseen:
        raise DivergenceError(
            f"KL is infinite: {unseen} of the {np.count_nonzero(model > 0)} outcomes the model "
            f"supports never occur in the {m.total} shots; sample more shots (--shots)"
        )
    return QualityReport(
        kl=kl_divergence(model, emp),
        kolmogorov=kolmogorov_distance(model, emp),
        tau=tau_hat,
    )


def chi_square_gof(counts: np.ndarray, expected_probs: np.ndarray) -> tuple[float, float]:
    """Pearson goodness-of-fit statistic and p-value (df = cells - 1).

    scipy is imported here, not at module level: this is the package's only
    use of it, and `import noisysimon` would otherwise take about a second
    longer for every command. `chdtrc` is the tail `scipy.stats.chi2.sf`
    evaluates, at half the import cost of `scipy.stats`.
    """
    from scipy.special import chdtrc

    counts = np.asarray(counts, dtype=float)
    expected = _check_distribution(expected_probs) * counts.sum()
    if np.any(expected == 0):
        raise ValueError("expected count of zero; merge cells first")
    stat = float(np.sum((counts - expected) ** 2 / expected))
    df = counts.size - 1
    return stat, float(chdtrc(df, stat))
