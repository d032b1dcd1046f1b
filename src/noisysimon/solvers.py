"""Period-recovery solvers and their cost models.

Cost is counted in repeat-loop iterations only, the exponential part of each
algorithm; per-iteration work is polynomial with the right bookkeeping.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .gf2 import (MAX_DENSE_BITS, BitVec, CapacityError, DimensionError, kernel_vector,
                  rank_ints, solve_unique)
from .lsn import check_tau, integers_below
from .multiset import MeasurementMultiset
from .reductions import LpnSample, SolveFailure
from .simon import SimonFunction


@dataclass(frozen=True)
class CostReport:
    loop_count: int
    queries: int


@dataclass(frozen=True)
class QueryLedger:
    """Snapshot of the optimal-query bookkeeping: queried points and the
    distances excluded so far."""

    points: Tuple[int, ...]
    distances: Tuple[int, ...]


@dataclass(frozen=True)
class SamplePool:
    """Samples in F_2^n, held as packed ints."""

    n: int
    values: Tuple[int, ...]

    @classmethod
    def from_ints(cls, n: int, values) -> "SamplePool":
        """A pool of the ints `values` (a sequence or an array), each in [0, 2^n)."""
        arr = np.asarray(values)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"pool samples of dtype {arr.dtype}, not integers")
        if arr.size == 0 or arr.min() < 0 or arr.max() >= 1 << n:
            raise ValueError(f"empty pool or a sample out of range for n={n}")
        return cls(n, tuple(arr.tolist()))

    @classmethod
    def from_vectors(cls, vectors: Sequence[BitVec]) -> "SamplePool":
        vectors = tuple(vectors)
        if not vectors:
            raise ValueError("empty pool")
        n = vectors[0].n
        if any(v.n != n for v in vectors):
            raise DimensionError(f"pool vectors differ in length from n={n}")
        return cls(n, tuple(v.value for v in vectors))

    @classmethod
    def from_multiset(cls, m: MeasurementMultiset) -> "SamplePool":
        return cls.from_ints(m.n, m.outcomes_array())

    def __len__(self) -> int:
        return len(self.values)

    @functools.cached_property
    def capped_rank(self) -> int:
        """min(rank, n - 1) of the samples, computed on first use."""
        return rank_ints(self.values, stop=self.n - 1)


# ---------------------------------------------------------------------------
# Optimal classical period finding


class _QuerySchedule:
    """`classical_period`'s points in one dimension, computed a round at a
    time: round j queries order[j], after which D is distances[:n_d[j]].
    c[x] counts d in D with x+d in P, so the next point is argmin c outside
    P; queried points score 2^62, above any count, so they are never chosen again."""

    def __init__(self, n: int) -> None:
        self.c = np.zeros(1 << n, dtype=np.int64)
        self.in_d = np.zeros(1 << n, dtype=bool)
        self.distances = np.zeros(1 << n, dtype=np.int64)
        self.c[0], self.in_d[0] = 1 << 62, True
        self.order, self.n_d, self.lock = [0], [1], threading.Lock()

    def reach(self, j: int) -> bool:
        """Compute the rounds up to j; False if D holds all but one distance first."""
        with self.lock:
            while len(self.order) <= j:
                n_d, size = self.n_d[-1], self.c.size
                if n_d >= size - 1:
                    return False
                x = int(self.c.argmin())
                p = np.array(self.order + [x], dtype=np.int64)
                arr = p ^ x
                new = arr[~self.in_d[arr]]  # the distances x newly rules out, in point order
                self.in_d[new] = True
                self.c[self.distances[:n_d] ^ x] += 1
                self.distances[n_d:n_d + new.size] = new
                self.c += np.bincount((p[:, None] ^ new).ravel(), minlength=size)
                self.c[x] = 1 << 62
                self.n_d.append(n_d + new.size)
                self.order.append(x)  # last: a round is read once its point is listed
        return True


_schedule = functools.lru_cache(maxsize=8)(_QuerySchedule)  # the schedule of dimension n


def classical_period(
    f: SimonFunction,
    ledger_hook: Optional[Callable[[QueryLedger], None]] = None,
) -> Tuple[BitVec, CostReport]:
    """Query f at points chosen to rule out as many distances as possible.

    Keeps the queried set P and the excluded-distance set D; each round
    queries the x maximizing how many d in D would be newly ruled out, i.e.
    |{d in D : x+d not in P}|, ties broken toward the smallest x. Stops on a
    collision or, once |D| = 2^n - 1, names the one remaining distance.

    Each point depends on P and D alone, and until the first collision P
    grows by each point and D by its distances to P, whatever f is. So the
    points are the same for every f of one dimension: `_schedule(n)` holds
    them, computed as far as some call has needed, and a call reads f only
    to test each point for a collision. `ledger_hook` gets P and D after
    each round, at a collision those of the round before.
    """
    n = f.n
    if n > MAX_DENSE_BITS:
        raise CapacityError(f"n={n} exceeds the {MAX_DENSE_BITS}-bit classical period limit")
    sched = _schedule(n)
    seen = {f.eval_int(0): 0}
    j = 1
    while j < len(sched.order) or sched.reach(j):
        x = sched.order[j]
        fx = f.eval_int(x)
        if ledger_hook is not None:
            k = j - (fx in seen)
            ledger_hook(QueryLedger(tuple(sched.order[:k + 1]),
                                    tuple(sched.distances[:sched.n_d[k]].tolist())))
        if fx in seen:
            return BitVec(n, x ^ seen[fx]), CostReport(j, j + 1)
        seen[fx] = x
        j += 1
    return BitVec(n, int(sched.in_d.argmin())), CostReport(j - 1, j)


# ---------------------------------------------------------------------------
# Pooled solvers


# A draw takes size^k / perm(size, k) tries on average; above this many,
# `_draws` refuses the pool. Draws without replacement will make it unneeded.
MAX_DRAW_TRIES = 1 << 16


def _draws(rng: np.random.Generator, size: int, k: int, rank: int, max_loops: int,
           what: str) -> Iterator[Tuple[int, Sequence[int]]]:
    """The pooled solvers' draws: (loop, k distinct indices below size) up to
    max_loops times, then SolveFailure naming `what`. A pool of rank below k
    fails before any draw; one with a single such set (size = k or k = 0)
    gives it once, without the generator; one whose draw takes more than
    MAX_DRAW_TRIES tries on average fails before any draw; one of fewer than
    max_loops sets fails once each has been drawn, so a draw's outcome must
    be a function of its set. Each try is one `integers_below(rng, size, k)`
    call, redrawn while it holds a repeat: no blocks and nothing held between
    tries, so there is nothing to rewind however the solve stops."""
    if rank < k:
        raise SolveFailure(f"the pool has rank {rank} < {k}: no draw of {k} has full rank")
    total = math.comb(size, k)
    if total == 1 and max_loops > 0:
        yield 1, range(k)
        raise SolveFailure(f"a pool of {size} allows one draw of {k}: no verified {what}")
    if (tries := size ** k / math.perm(size, k)) > MAX_DRAW_TRIES:
        raise SolveFailure(f"a draw of {k} distinct samples from a pool of {size} takes {tries:.3g} "
                           f"tries on average, above {MAX_DRAW_TRIES}: no verified {what}")
    drawn = set() if total < max_loops else None
    for loop in range(1, max_loops + 1):
        while len(set(idx := integers_below(rng, size, k))) < k:
            pass
        yield loop, idx
        if drawn is not None:
            drawn.add(frozenset(idx))
            if len(drawn) == total:
                raise SolveFailure(f"a pool of {size} allows {total} draws of {k}, "
                                   f"all drawn within {loop} loops: no verified {what}")
    raise SolveFailure(f"no verified {what} within {max_loops} loops")


def pooled_lsn(
    f: SimonFunction,
    pool: SamplePool,
    rng: np.random.Generator,
    max_loops: int = 1_000_000,
) -> Tuple[BitVec, CostReport]:
    """Repeatedly draw n-1 distinct pool samples (`_draws`); on a linearly independent,
    error-free draw the one nonzero kernel vector is the period, which the
    function oracle confirms. Every completed draw counts as one loop.
    `gf2.kernel_vector` is both the rank test and the solve: it ends at the
    first drawn row that depends on those before it."""
    vals = pool.values
    n = f.n
    if pool.n != n:
        raise DimensionError(f"pool of n={pool.n} for a function of n={n}")
    if len(vals) < n - 1:
        raise ValueError(f"pool of {len(vals)} cannot contain {n - 1} independent samples")
    queries = 0
    for loops, idx in _draws(rng, len(vals), n - 1, pool.capped_rank, max_loops, "period"):
        x = kernel_vector([vals[i] for i in idx], n)
        if x is not None:
            queries += 1
            if f.verify_period(period := BitVec(n, x)):
                return period, CostReport(loops, queries)


def pooled_gauss_lpn(
    pool: Sequence[LpnSample],
    verifier: Callable[[BitVec], bool],
    rng: np.random.Generator,
    max_loops: int = 1_000_000,
) -> Tuple[BitVec, CostReport]:
    """Repeatedly draw n distinct parity samples (`_draws`, on the a-parts'
    rank), solve the system if it has full rank, and return the first nonzero
    candidate the verifier, a function of the candidate, accepts. A drawn a
    that is not n bits is a DimensionError, a label not 0 or 1 a ValueError;
    however it stops, rng is left as one `integers` call per try would leave it."""
    if not pool:
        raise ValueError("empty pool")
    n = pool[0].a.n
    if len(pool) < n:
        raise ValueError(f"pool of {len(pool)} cannot determine {n} unknowns")
    rank = rank_ints((smp.a.value for smp in pool), stop=n)
    for loops, idx in _draws(rng, len(pool), n, rank, max_loops, "secret"):
        rows = []
        for i in idx:
            a, b = pool[i]
            if a.n != n:
                raise DimensionError(f"pool sample {i} has length {a.n}, not n={n}")
            if b not in (0, 1):
                raise ValueError(f"pool sample {i} has label {b!r}, not 0 or 1")
            rows.append(a.value | b << n)
        s = solve_unique(rows, n)
        if s and verifier(secret := BitVec(n, s)):
            return secret, CostReport(loops, loops)


def heldout_size(n: int, tau: float) -> int:
    """Held-out samples for `majority_verifier` at n bits and error rate
    tau: max(128, 4n, ceil(18 / (1/2 - tau)^2)). The last term puts the
    threshold (tau + 1/2)/2 at least sqrt(18), about 4.2, standard deviations
    from the mismatch rates of the secret (tau) and of any other candidate
    (1/2); Hoeffding bounds either verdict's error by e^-9."""
    check_tau(tau)
    return max(128, 4 * n, math.ceil(18 / (0.5 - tau) ** 2))


def majority_verifier(
    heldout: Sequence[LpnSample], tau: float
) -> Callable[[BitVec], bool]:
    """Accept a candidate whose held-out mismatch rate is closer to tau than
    to one half. The held-out set is held bitsliced in Python ints: bit i of
    column 1 << j is bit j of sample i's a, and bit i of the labels its b. A
    candidate's parities are the XOR of its columns, its mismatches one popcount."""
    check_tau(tau)
    if not heldout:
        raise ValueError("empty held-out set: no candidate could be verified")
    n = heldout[0].a.n
    if any(smp.a.n != n for smp in heldout):
        raise DimensionError(f"held-out samples differ in length from n={n}")
    if any(smp.b not in (0, 1) for smp in heldout):
        raise ValueError("a held-out label is not 0 or 1")
    cols = {1 << j: int("".join(str(smp.a.value >> j & 1) for smp in reversed(heldout)), 2)
            for j in range(n)}
    labels = int("".join(str(int(smp.b)) for smp in reversed(heldout)), 2)
    size, threshold = len(heldout), (tau + 0.5) / 2.0

    def verify(cand: BitVec) -> bool:
        if cand.n != n:
            raise DimensionError(f"candidate length {cand.n} != held-out n={n}")
        mism = labels
        for bit, col in cols.items():
            if cand.value & bit:
                mism ^= col
        return mism.bit_count() / size < threshold

    return verify


# ---------------------------------------------------------------------------
# Cost models


def runtime_exponent_pooled(tau: float) -> float:
    """Per-bit runtime exponent log2(1/(1-tau)) of the plain pooled solver."""
    check_tau(tau)
    return math.log2(1.0 / (1.0 - tau))


def runtime_exponent_wellpooled(tau: float) -> float:
    """Per-bit exponent 1 - 1/(1 + log2(1/(1-tau))) of the well-pooled variant."""
    check_tau(tau)
    return 1.0 - 1.0 / (1.0 + math.log2(1.0 / (1.0 - tau)))


def independence_probability(dim: int, draws: int) -> float:
    """P[`draws` iid uniform vectors in F_2^dim are linearly independent]."""
    p = 1.0
    for k in range(draws):
        p *= 1.0 - 2.0 ** (k - dim)
    return p


def expected_pooled_lsn_loops(n: int, tau: float) -> float:
    """1 / ((1-tau)^(n-1) * q) where q is the independence probability of
    n-1 uniform draws from the orthogonal subspace."""
    check_tau(tau)
    return 1.0 / ((1.0 - tau) ** (n - 1) * independence_probability(n - 1, n - 1))


def expected_pooled_gauss_loops(n: int, tau: float) -> float:
    """1 / ((1-tau)^n * q) with q the invertibility probability of n uniform draws."""
    check_tau(tau)
    return 1.0 / ((1.0 - tau) ** n * independence_probability(n, n))
