"""The idealized two-level error model: exact distribution and sampler.

With probability 1-tau a sample is uniform on the subspace orthogonal to the
period, otherwise uniform on its complement; each outcome therefore carries
probability (1-tau)/2^(n-1) or tau/2^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BitVec, CapacityError, DimensionError, check_dense, orthogonal_basis, parity
from .multiset import EmptyMultisetError, MeasurementMultiset

MAX_PACKED_BITS = 63  # samples are packed into int64


def check_tau(tau: float) -> None:
    """Refuse an error rate tau unless 0 <= tau < 1/2, where samples carry the period."""
    if not 0.0 <= tau < 0.5:
        raise ValueError(f"tau={tau} outside [0, 1/2)")


@dataclass(frozen=True)
class LsnParams:
    n: int
    tau: float
    s: BitVec

    def __post_init__(self) -> None:
        if self.n > MAX_PACKED_BITS:
            raise CapacityError(f"n={self.n} exceeds the {MAX_PACKED_BITS}-bit int64 sample packing")
        check_tau(self.tau)
        if self.s.n != self.n:
            raise ValueError(f"period length {self.s.n} != n={self.n}")
        if self.s.value == 0:
            raise ValueError("period must be nonzero")


def model_distribution(params: LsnParams, tau: float | None = None) -> np.ndarray:
    """Exact two-level outcome distribution at params.tau, or at `tau` in
    [0, 1] when it is given (a measured rate may reach 1/2 and beyond)."""
    tau = params.tau if tau is None else tau
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau={tau} outside [0, 1]")
    check_dense(params.n)
    odd = parity(np.arange(1 << params.n, dtype=np.int64) & params.s.value)
    scale = 1.0 / (1 << (params.n - 1))
    return np.where(odd == 0, (1.0 - tau) * scale, tau * scale)


def sample_many(params: LsnParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` samples exactly from the model (no rejection).

    A sample is a uniform combination of an orthogonal-subspace basis, plus a
    fixed non-orthogonal shift when the error coin comes up.
    """
    basis = orthogonal_basis(params.s)
    out = np.zeros(count, dtype=np.int64)
    picks = rng.integers(0, 2, size=(count, len(basis)))
    for j, b in enumerate(basis):
        out ^= picks[:, j] * b
    shift = 1 << ((params.s.value & -params.s.value).bit_length() - 1)
    errors = rng.random(count) < params.tau
    out[errors] ^= shift
    return out


def integers_below(rng: np.random.Generator, size: int, k: int) -> list:
    """`rng.integers(0, size, size=k).tolist()`, value for value, leaving rng
    in the same state, without numpy's per-call set-up. For 1 < size <= 2^32
    numpy takes each value as the top 32 bits of a 32-bit word times size
    (Lemire's method), redrawing while the low 32 bits fall below 2^32 mod
    size; this reads those words from the bit generator's `next_uint32`. It
    holds the generator's lock as numpy does, since each ctypes call
    releases the interpreter lock."""
    if not 1 < size <= 1 << 32:
        return rng.integers(0, size, size=k).tolist()
    bits = rng.bit_generator
    word, state = bits.ctypes.next_uint32, bits.ctypes.state
    floor, out, lock = (1 << 32) % size, [], bits.lock
    lock.acquire()
    try:
        while len(out) < k:
            if (m := word(state) * size) & 0xFFFFFFFF >= floor:
                out.append(m >> 32)
    finally:
        lock.release()
    return out


def estimate_tau(m: MeasurementMultiset, s: BitVec) -> float:
    """Fraction of counted outcomes not orthogonal to s."""
    if s.n != m.n:
        raise DimensionError(f"period length {s.n} != outcome length {m.n}")
    if m.total == 0:
        raise EmptyMultisetError("cannot estimate the error rate of an empty multiset")
    bad = sum(c for o, c in m.counts.items() if (o & s.value).bit_count() & 1)
    return bad / m.total

