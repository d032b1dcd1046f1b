"""Sample transformers between the subspace-sample problem and noisy parities.

Both directions are one XOR per sample: with a uniform vector z satisfying
<z, s> = 1, a subspace-style sample y becomes a parity sample (y + b z, b)
for a fresh uniform bit b, and a parity sample (a, b) becomes the
subspace-style sample a + b z. Conditioned on <z, s> = 1 the transformed
distributions are exactly the target oracles, so the wrappers lose at most a
factor two in success probability per attempt and simply retry with fresh z.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .gf2 import BitVec, DimensionError, check_dense, parity
from .lsn import LsnParams, integers_below, model_distribution, sample_many
from .multiset import read_table, write_table
from .stats import chi_square_gof


class SolveFailure(RuntimeError):
    """All retries exhausted without a verified candidate."""


class LpnSample(NamedTuple):
    a: BitVec
    b: int


def lpn_samples_to_csv(samples: Sequence[LpnSample], path) -> None:
    """Write the table of `a,b` rows, a as an MSB-first bitstring."""
    write_table(path, {}, ("a", "b"), samples)


def lpn_samples_from_csv(path) -> List[LpnSample]:
    """The `a,b` rows of `path`; every a has the same length and b is 0 or 1."""
    n, rows = read_table(path, ("a", "b"))
    out = []
    for a, b in rows:
        if b not in ("0", "1"):
            raise ValueError(f"label {b!r} is not 0 or 1 in {path}")
        out.append(LpnSample(BitVec(n, a), int(b)))
    return out


def lsn_sample_to_lpn(y: BitVec, z: BitVec, rng: np.random.Generator) -> LpnSample:
    """(y + b z, b) for a fresh uniform bit b, drawn by `integers_below`, so
    `rng.integers(0, 2)` value for value and leaving rng in the same state."""
    if y.n != z.n:
        raise DimensionError(f"length mismatch: {y.n} vs {z.n}")
    b = integers_below(rng, 2, 1)[0]
    return LpnSample(BitVec(y.n, y.value ^ z.value) if b else y, b)


def lsn_samples_to_lpn(
    ys: np.ndarray, z: BitVec, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Arrays (a, b) with a = y + b z, for all samples `ys` at once.

    Draws the same bits, and leaves `rng` in the same state, as one
    `lsn_sample_to_lpn` call per sample in order.
    """
    b = rng.integers(0, 2, size=len(ys))
    return np.asarray(ys, dtype=np.int64) ^ (b * z.value), b


def lpn_sample_to_lsn(sample: LpnSample, z: BitVec) -> BitVec:
    """a + b z."""
    if sample.a.n != z.n:
        raise DimensionError(f"length mismatch: {sample.a.n} vs {z.n}")
    return sample.a ^ z if sample.b else sample.a


# ---------------------------------------------------------------------------
# Exact distributions (dense arrays; used by tests and the checker)


def lpn_model_distribution(params: LsnParams) -> np.ndarray:
    """Exact oracle distribution over (a, b), indexed a | b << n: uniform a,
    Bernoulli-tau label error."""
    check_dense(params.n)
    label = parity(np.arange(1 << params.n) & params.s.value)
    p = np.array([1.0 - params.tau, params.tau]) / (1 << params.n)  # label right, label wrong
    return np.concatenate([p[label], p[label ^ 1]])


def transformed_lpn_distribution(params: LsnParams, z: BitVec) -> np.ndarray:
    """Distribution of (y + b z, b), indexed a | b << n, when y follows the
    two-level model."""
    half = model_distribution(params) * 0.5
    return np.concatenate([half, half[np.arange(1 << params.n) ^ z.value]])


def transformed_lsn_distribution(params: LsnParams, z: BitVec) -> np.ndarray:
    """Distribution of a + b z when (a, b) comes from the parity oracle."""
    b0, b1 = lpn_model_distribution(params).reshape(2, -1)
    return b0 + b1[np.arange(b1.size) ^ z.value]


# ---------------------------------------------------------------------------
# Solver wrappers (Las Vegas: verify, retry with fresh z)


def _retry(n: int, m: int, retries: int, verify, rng: np.random.Generator,
           transform: Callable[[BitVec], object], solve: Callable[[list], Optional[BitVec]]):
    """The wrappers' Las Vegas loop. Per attempt: fresh uniform z, m samples
    `transform(z)` and one `solve` call; the first nonzero verified candidate wins."""
    for _ in range(retries):
        z = BitVec(n, int(rng.integers(0, 1 << n)))
        candidate = solve([transform(z) for _ in range(m)])
        if candidate is not None and candidate.value != 0 and verify(candidate):
            return candidate
    raise SolveFailure(f"no verified candidate after {retries} attempts")


def solve_lsn_via_lpn(
    lsn_oracle: Callable[[], BitVec],
    lpn_solver: Callable[[int, float, Sequence[LpnSample], np.random.Generator], Optional[BitVec]],
    n: int,
    tau: float,
    m: int,
    retries: int,
    verify: Callable[[BitVec], bool],
    rng: np.random.Generator,
) -> BitVec:
    """Recover the period through a parity solver (`_retry`)."""
    return _retry(n, m, retries, verify, rng, lambda z: lsn_sample_to_lpn(lsn_oracle(), z, rng),
                  lambda samples: lpn_solver(n, tau, samples, rng))


def solve_lpn_via_lsn(
    lpn_oracle: Callable[[], LpnSample],
    lsn_solver: Callable[[int, float, Sequence[BitVec], np.random.Generator], Optional[BitVec]],
    n: int,
    tau: float,
    m: int,
    retries: int,
    verify: Callable[[BitVec], bool],
    rng: np.random.Generator,
) -> BitVec:
    """Mirror wrapper: recover a parity secret through a subspace-sample solver."""
    return _retry(n, m, retries, verify, rng, lambda z: lpn_sample_to_lsn(lpn_oracle(), z),
                  lambda pool: lsn_solver(n, tau, pool, rng))


# ---------------------------------------------------------------------------
# Statistical verification (chi-square cells at large n)


def _cells(err: np.ndarray, x: np.ndarray, k: int, skip: int) -> np.ndarray:
    """Counts of the cells (error bit, the k lowest coordinates of x other than
    coordinate `skip`), indexed err << k | those coordinates in order."""
    low = x & ((1 << skip) - 1) | (x >> (skip + 1)) << skip
    return np.bincount(err.astype(np.int64) << k | low & ((1 << k) - 1), minlength=2 << k)


def chi_square_check(
    params: LsnParams, z: BitVec, samples: int, rng: np.random.Generator
) -> Tuple[float, float]:
    """Chi-square p-values (to parity, to subspace) of both transforms with z.

    To parity: `samples` model samples become (y + b z, b). To subspace: as
    many parity-oracle samples (uniform a, label <a, s> flipped with
    probability tau) become a + b z. Each side is bucketed by its error bit
    and k = min(8, n - 1) coordinates, uniform and independent of that bit
    under the model: the k lowest of a, and the k lowest of a + b z other
    than the top set coordinate of s, so that s is not in their span.
    ValueError is raised when the smallest cell would expect fewer than 5
    samples, the usual rule below which a chi-square test has no power.
    """
    n, k, sv = params.n, min(8, params.n - 1), params.s.value
    if params.tau == 0:
        raise ValueError("the chi-square check needs tau > 0: half its cells expect no samples")
    need = math.ceil(5 * (1 << k) / params.tau)  # tau / 2^k is the smallest cell
    if samples < need:
        raise ValueError(
            f"{samples} samples are too few for the chi-square check at n={n}, "
            f"tau={params.tau}: it needs at least {need}"
        )
    probs = np.repeat([1.0 - params.tau, params.tau], 1 << k) / (1 << k)
    a, b = lsn_samples_to_lpn(sample_many(params, samples, rng), z, rng)
    _, p_parity = chi_square_gof(_cells(parity(a & sv) ^ b, a, k, k), probs)
    a = rng.integers(0, 1 << n, size=samples)
    b = parity(a & sv).astype(np.int64) ^ (rng.random(samples) < params.tau)
    y = a ^ (b * z.value)
    _, p_subspace = chi_square_gof(_cells(parity(y & sv), y, k, sv.bit_length() - 1), probs)
    return p_parity, p_subspace
