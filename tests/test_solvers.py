import math
import tracemalloc

import numpy as np
import pytest

from noisysimon import gf2, solvers
from noisysimon.cli import FIG9_TAUS
from noisysimon.gf2 import BitVec, DimensionError, orthogonal_basis
from noisysimon.lsn import LsnParams, sample_many
from noisysimon.reductions import LpnSample, SolveFailure, lsn_sample_to_lpn
from noisysimon.simon import SimonFunction
from noisysimon.solvers import (
    CostReport,
    SamplePool,
    _schedule,
    classical_period,
    expected_pooled_gauss_loops,
    expected_pooled_lsn_loops,
    heldout_size,
    independence_probability,
    majority_verifier,
    pooled_gauss_lpn,
    pooled_lsn,
    runtime_exponent_pooled,
    runtime_exponent_wellpooled,
)
from noisysimon.transpile import CapacityError
from test_hot_path_oracles import classical_period_reference


def all_simon_functions(n):
    for sv in range(1, 1 << n):
        yield SimonFunction.from_period(BitVec(n, sv))


def test_classical_period_exhaustive_small():
    for n in range(1, 6):
        for f in all_simon_functions(n):
            s, cost = classical_period(f)
            assert s == f.s
            assert cost.loop_count >= 0 and cost.queries >= 1


def test_classical_period_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
        s1, c1 = classical_period(f)
        s2, c2 = classical_period_reference(f)
        assert s1 == s2 == f.s
        assert c1.loop_count == c2.loop_count


def test_classical_period_randomized_larger_n():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(6, 11))
        f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
        s, _ = classical_period(f)
        assert s == f.s


def test_degenerate_dimension_returns_without_looping():
    f = SimonFunction(1, BitVec(1, 1), 0)
    s, cost = classical_period(f)
    assert s.value == 1 and cost.loop_count == 0
    # the pooled-LSN model's general formula is exactly one loop at n=1
    assert all(expected_pooled_lsn_loops(1, tau) == 1.0 for tau in (0.0, 0.1, 0.4999))


def test_classical_period_refuses_a_dimension_it_cannot_hold():
    """n=40 would need 2^40-entry arrays: the error comes before any schedule
    or array is made."""
    f = SimonFunction.from_period(BitVec(40, 3))
    cached = _schedule.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="n=40 exceeds the 24-bit") as info:
            classical_period(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "\n" not in str(info.value)
    assert peak < 1 << 20 and _schedule.cache_info().currsize == cached


def test_distance_set_is_pairwise_closure_of_points():
    """After every round the excluded-distance set equals all pairwise XORs
    of queried points (zero included)."""
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
        ledgers = []
        classical_period(f, ledger_hook=ledgers.append)
        for ledger in ledgers:
            pts = ledger.points
            closure = {a ^ b for a in pts for b in pts}
            assert set(ledger.distances) == closure
            assert 0 in closure


def test_loop_counts_nondecreasing_in_dimension():
    rng = np.random.default_rng(3)
    means = []
    for n in range(2, 8):
        tot = 0
        for _ in range(400):
            f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
            _, cost = classical_period(f)
            tot += cost.loop_count
        means.append(tot / 400)
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_pooled_lsn_perfect_basis_pool_one_loop():
    f = SimonFunction.default(4)
    pool = SamplePool.from_ints(4, orthogonal_basis(f.s))
    s, cost = pooled_lsn(f, pool, np.random.default_rng(4))
    assert s == f.s and cost.loop_count == 1


def test_pooled_lsn_recovers_period_randomized():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
        tau = float(rng.uniform(0.0, 0.3))
        pool = SamplePool.from_vectors(
            [BitVec(n, int(v)) for v in sample_many(LsnParams(n, tau, f.s), 4096, rng)]
        )
        s, _ = pooled_lsn(f, pool, rng)
        assert s == f.s
        assert f.verify_period(s) and s.value != 0


def test_pooled_lsn_failure_signal_on_hopeless_pool():
    f = SimonFunction.default(4)
    pool = SamplePool.from_vectors([BitVec(4, 0b0001)] * 10)  # rank one forever
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(SolveFailure, match="rank 1 < 3"):
        pooled_lsn(f, pool, rng)  # at once, not after max_loops draws
    with pytest.raises(SolveFailure, match="no verified period within 0 loops"):
        pooled_lsn(f, SamplePool.from_ints(4, [1, 2, 4, 8]), rng, max_loops=0)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError):
        pooled_lsn(f, SamplePool.from_vectors([BitVec(4, 1)]), np.random.default_rng(6))


def test_pooled_gauss_failure_signal_on_hopeless_pool():
    pool = [LpnSample(BitVec(4, v), 0) for v in (1, 2, 3) * 3 + (1,)]  # a-rank two forever
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(SolveFailure, match="rank 2 < 4"):
        pooled_gauss_lpn(pool, lambda cand: True, rng, max_loops=1000)  # before any draw
    full = [LpnSample(BitVec(4, v), 0) for v in (1, 2, 4, 8, 3)]
    with pytest.raises(SolveFailure, match="no verified secret within 0 loops"):
        pooled_gauss_lpn(full, lambda cand: True, rng, max_loops=0)
    assert rng.bit_generator.state == state


def test_pool_rank_is_capped_and_computed_once(monkeypatch):
    calls, rank_ints = [], solvers.rank_ints

    def counted(values, stop=None):
        calls.append(stop)
        return rank_ints(values, stop)

    monkeypatch.setattr(solvers, "rank_ints", counted)
    pool = SamplePool.from_ints(4, [1, 2, 4, 8, 3])
    for _ in range(3):
        pooled_lsn(SimonFunction.default(4), pool, np.random.default_rng(1))
    assert calls == [3]
    assert SamplePool.from_ints(4, [1, 2, 4, 8]).capped_rank == 3
    assert SamplePool.from_ints(4, [3, 3, 5, 6]).capped_rank == 2


def test_pooled_solvers_make_one_gf2_call_per_loop_or_call(monkeypatch):
    # The benchmark's gf2.rank and gf2.nullspace spans wrap rank_ints and
    # nullspace_ints in every module: pooled_lsn calls neither, only one
    # kernel_vector per loop, and pooled_gauss_lpn one capped rank per call
    # and no nullspace or kernel.
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (solvers, gf2):
        for name in ("rank_ints", "nullspace_ints", "kernel_vector"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    f = SimonFunction.default(5)
    rng = np.random.default_rng(3)
    params = LsnParams(5, 0.1, f.s)
    pool = SamplePool.from_ints(5, sample_many(params, 64, rng))
    pool.capped_rank  # once per pool, before the counted calls
    calls.clear()
    loops = 0
    for _ in range(5):
        s, cost = pooled_lsn(f, pool, rng)
        assert s == f.s
        loops += cost.loop_count
    assert loops > 5
    assert calls == ["kernel_vector"] * loops
    samples = [lsn_sample_to_lpn(BitVec(5, int(y)), f.s, rng) for y in sample_many(params, 64, rng)]
    verifier = majority_verifier(samples[40:], 0.1)
    calls.clear()
    for _ in range(5):
        pooled_gauss_lpn(samples[:40], verifier, rng)
    assert calls == ["rank_ints"] * 5


def test_exact_size_pools_take_their_one_draw_without_the_generator():
    # A pool of n-1 (pooled_lsn) or n (pooled_gauss_lpn) samples allows one
    # draw; if it fails, redrawing it forever cannot help.
    f = SimonFunction.default(4)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    s, cost = pooled_lsn(f, SamplePool.from_ints(4, orthogonal_basis(f.s)), rng)
    assert s == f.s and cost == CostReport(1, 1)
    # full rank, but the one draw's nullspace is 1000, not the period 0011
    with pytest.raises(SolveFailure, match="allows one draw of 3"):
        pooled_lsn(f, SamplePool.from_ints(4, [1, 2, 4]), rng, max_loops=1000)
    with pytest.raises(SolveFailure, match="rank 2 < 3"):
        pooled_lsn(f, SamplePool.from_ints(4, [1, 1, 2]), rng, max_loops=1000)
    exact = [LpnSample(BitVec(4, 1 << j), (f.s.value >> j) & 1) for j in range(4)]
    s, cost = pooled_gauss_lpn(exact, lambda cand: True, rng)
    assert s == f.s and cost == CostReport(1, 1)
    with pytest.raises(SolveFailure, match="allows one draw of 4"):
        pooled_gauss_lpn(exact, lambda cand: False, rng, max_loops=1000)
    with pytest.raises(SolveFailure, match="rank 3 < 4"):
        pooled_gauss_lpn(exact[:3] + exact[:1], lambda cand: True, rng, max_loops=1000)
    assert rng.bit_generator.state == state


def test_draws_refuse_a_pool_too_small_for_distinct_draws():
    # A draw of 16 distinct indices below 17 takes 17^16 / 17!, about 1.4e5
    # tries, on average: refused before any draw. One of 15 below 16 takes
    # about 5.5e4, within MAX_DRAW_TRIES = 2^16, and is drawn.
    rng = np.random.default_rng(2)
    state = rng.bit_generator.state
    with pytest.raises(SolveFailure, match=r"^a draw of 16 distinct samples from a pool of 17 "
                                           r"takes 1\.37e\+05 tries on average, above 65536"):
        next(solvers._draws(rng, 17, 16, 16, 1000, "period"))
    assert rng.bit_generator.state == state
    loop, idx = next(solvers._draws(rng, 16, 15, 15, 1000, "period"))
    assert loop == 1 and len(set(idx)) == 15 and 0 <= min(idx) and max(idx) < 16


def test_pooled_lsn_rejects_pool_of_other_dimension():
    pool = SamplePool.from_ints(3, range(8))
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    with pytest.raises(DimensionError, match="n=3 .* n=5"):
        pooled_lsn(SimonFunction.default(5), pool, rng)
    assert rng.bit_generator.state == state  # raised before any draw


def test_pooled_lsn_mean_loops_match_closed_form():
    rng = np.random.default_rng(7)
    for n, tau in ((4, 0.1), (6, 0.12), (7, 0.12398)):
        f = SimonFunction.default(n)
        pool = SamplePool.from_vectors(
            [BitVec(n, int(v)) for v in sample_many(LsnParams(n, tau, f.s), 16384, rng)]
        )
        trials = 3000
        tot = sum(pooled_lsn(f, pool, rng)[1].loop_count for _ in range(trials))
        got = tot / trials
        want = expected_pooled_lsn_loops(n, tau)
        assert abs(got - want) / want < 0.10


def test_pooled_gauss_solves_and_matches_closed_form():
    n, tau = 12, 0.1
    f = SimonFunction.default(n)
    params = LsnParams(n, tau, f.s)
    rng = np.random.default_rng(8)
    z = BitVec(n, 0b101)
    assert z.inner(f.s) == 1
    ys = [BitVec(n, int(v)) for v in sample_many(params, 8192, rng)]
    samples = [lsn_sample_to_lpn(y, z, rng) for y in ys]
    held, body = samples[:256], samples[256:]
    verifier = majority_verifier(held, tau)
    trials = 2000
    tot = 0
    for _ in range(trials):
        s, cost = pooled_gauss_lpn(body, verifier, rng)
        assert s == f.s
        tot += cost.loop_count
    got = tot / trials
    want = expected_pooled_gauss_loops(n, tau)
    assert abs(got - want) / want < 0.10


def test_pooled_gauss_noiseless_one_loop_typical():
    n = 8
    f = SimonFunction.default(n)
    rng = np.random.default_rng(9)
    av = [int(rng.integers(0, 1 << n)) for _ in range(512)]
    samples = [
        LpnSample(BitVec(n, a), bin(a & f.s.value).count("1") & 1) for a in av
    ]
    verifier = majority_verifier(samples[:128], 0.0)
    loops = [pooled_gauss_lpn(samples[128:], verifier, rng)[1].loop_count for _ in range(200)]
    assert np.mean(loops) < 1 / independence_probability(n, n) * 1.3
    assert min(loops) == 1


def test_heldout_size_lets_pooled_gauss_verify_the_secret_at_any_tau():
    """At n = 2..10 and tau in [0, 0.45], a held-out set of heldout_size(n, tau)
    samples lets pooled_gauss_lpn return the secret. The rule gives 128 up to
    tau = 0.124, the Fig. 9 rates among them."""
    rng = np.random.default_rng(26)
    for _ in range(40):
        n, tau = int(rng.integers(2, 11)), float(rng.uniform(0.0, 0.45))
        size = heldout_size(n, tau)
        secret = int(rng.integers(1, 1 << n))
        a = rng.integers(0, 1 << n, size=size + 16 * n)
        b = gf2.parity(a & secret) ^ (rng.random(a.size) < tau)
        samples = [LpnSample(BitVec(n, int(x)), int(y)) for x, y in zip(a, b)]
        verifier = majority_verifier(samples[:size], tau)
        assert pooled_gauss_lpn(samples[size:], verifier, rng)[0].value == secret, (n, tau)
    assert all(heldout_size(n, tau) == 128 for n, tau in FIG9_TAUS.items())
    assert heldout_size(7, 0.124) == 128 and heldout_size(40, 0.0) == 160
    assert heldout_size(7, 0.3) == 450


def test_majority_verifier_rejects_empty_heldout_set():
    with pytest.raises(ValueError, match="empty held-out"):
        majority_verifier([], 0.1)


def test_composed_transform_matches_pooled_lsn_cost_model():
    """Feeding parity samples through the reverse transform and solving with
    the pooled subspace solver reproduces that solver's loop model."""
    n, tau = 6, 0.1
    f = SimonFunction.default(n)
    rng = np.random.default_rng(10)
    z = BitVec(n, 0b1)
    assert z.inner(f.s) == 1
    av = rng.integers(0, 1 << n, size=16384)
    eps = rng.random(16384) < tau
    par = av & f.s.value
    for sh in (4, 2, 1):
        par ^= par >> sh
    bv = (par & 1) ^ eps
    pool = SamplePool.from_vectors([BitVec(n, int(a ^ (b * z.value))) for a, b in zip(av, bv)])
    trials = 3000
    tot = sum(pooled_lsn(f, pool, rng)[1].loop_count for _ in range(trials))
    want = expected_pooled_lsn_loops(n, tau)
    assert abs(tot / trials - want) / want < 0.10


def test_runtime_exponent_examples():
    assert runtime_exponent_pooled(0.0) == 0.0
    assert runtime_exponent_wellpooled(0.0) == 0.0
    breakeven = 1.0 - 1.0 / math.sqrt(2.0)
    assert abs(runtime_exponent_pooled(breakeven) - 0.5) < 1e-12
    assert runtime_exponent_pooled(0.292) < 0.5 < runtime_exponent_pooled(0.294)
    assert runtime_exponent_wellpooled(0.4999) < 0.5
    with pytest.raises(ValueError):
        runtime_exponent_pooled(0.5)
    with pytest.raises(ValueError):
        runtime_exponent_wellpooled(-0.01)


def test_runtime_exponents_strictly_increasing():
    taus = np.linspace(0.0, 0.499, 60)
    pooled = [runtime_exponent_pooled(t) for t in taus]
    well = [runtime_exponent_wellpooled(t) for t in taus]
    assert all(a < b for a, b in zip(pooled, pooled[1:]))
    assert all(a < b for a, b in zip(well, well[1:]))
    assert all(w < 0.5 for w in well)


def test_sample_pool_from_multiset():
    from noisysimon.multiset import MeasurementMultiset

    m = MeasurementMultiset(3, {0b011: 2, 0b100: 1})
    pool = SamplePool.from_multiset(m)
    assert len(pool) == 3
    assert sorted(pool.values) == [0b011, 0b011, 0b100]


def test_sample_pool_from_ints():
    values = np.array([3, 0, 7, 3], dtype=np.int64)
    pool = SamplePool.from_ints(3, values)
    assert pool == SamplePool.from_vectors([BitVec(3, int(v)) for v in values])
    assert pool.values == (3, 0, 7, 3) and all(type(v) is int for v in pool.values)
    assert len(pool) == 4
    for bad in ([8], [-1], []):
        with pytest.raises(ValueError):
            SamplePool.from_ints(3, bad)
    with pytest.raises(DimensionError):  # not an n=3 pool holding 31
        SamplePool.from_vectors([BitVec(3, 1), BitVec(5, 31)])
