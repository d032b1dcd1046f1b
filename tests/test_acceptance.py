"""Acceptance suite: every criterion as a dedicated test at its stated
tolerance, printing one PASS line per criterion (visible with pytest -s/-rA).

The published anchors checked here: the minimum circuit-norm table
(21/33/45/57/69/81), the gate counts 56 and 206 for n=3, the twelve
loop-count curve coordinates, the break-even error rate 1 - 1/sqrt(2), and
the [0.09, 0.13] error-rate band.
"""

import math
import time

import numpy as np

from noisysimon.circuits import build_simon_circuit
from noisysimon.gf2 import BitVec, nullspace_ints, orthogonal_basis, rank_ints
from noisysimon.lsn import LsnParams, estimate_tau, model_distribution, sample_many
from noisysimon.noise import sample_noisy
from noisysimon.reductions import (
    chi_square_check,
    lpn_model_distribution,
    transformed_lpn_distribution,
    transformed_lsn_distribution,
)
from noisysimon.simon import SimonFunction
from noisysimon.smoothing import (
    choose_hamming_vector,
    hamming_smooth,
    permutation_configurations,
    permutation_smooth,
)
from noisysimon.solvers import (
    SamplePool,
    classical_period,
    pooled_lsn,
    runtime_exponent_pooled,
    runtime_exponent_wellpooled,
)
from noisysimon.statevector import circuits_equivalent, exact_output_distribution
from noisysimon.stats import quality_report
from noisysimon.transpile import (
    Configuration,
    circuit_norm,
    compile_simon_circuit,
    route,
    search_min_configuration,
)
from statevector_oracle import apply_cnot, apply_h

TABLE_CN = {2: 21, 3: 33, 4: 45, 5: 57, 6: 69, 7: 81}
PERIOD_CURVE = {
    2: 0.7350021934953096,
    3: 1.274708939214712,
    4: 1.8742854904980353,
    5: 2.4584869999743257,
    6: 2.9637515386552695,
    7: 3.4615408330178317,
}
POOLED_CURVE = {2: 1.14158, 3: 1.70256, 4: 2.05105, 5: 2.37014, 6: 2.64965, 7: 2.91846}
MEASURED_TAUS = {2: 0.09347, 3: 0.09479, 4: 0.09546, 5: 0.10954, 6: 0.11602, 7: 0.12398}

SEED = 20260808


def test_c1_min_norm_table_reproduced(graph):
    start = time.time()
    for n, want in TABLE_CN.items():
        _, cn = search_min_configuration(SimonFunction.default(n), graph)
        assert cn.value == want, f"n={n}: CN {cn.value} != {want}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"search took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: min circuit norms 21/33/45/57/69/81 in {elapsed:.2f}s")


def test_c2_noiseless_distribution_uniform_on_orthogonal_subspace():
    for n in range(2, 8):
        f = SimonFunction.default(n)
        dist = exact_output_distribution(build_simon_circuit(f))
        expected = np.zeros(1 << n)
        for y in range(1 << n):
            if bin(y & f.s.value).count("1") % 2 == 0:
                expected[y] = 1.0 / (1 << (n - 1))
        dev = float(np.max(np.abs(dist - expected)))
        assert dev < 1e-10, f"n={n}: deviation {dev}"
    print("PASS criterion 2: exact distributions uniform on the orthogonal subspace (<1e-10)")


def test_c3_transpiler_soundness(graph, compiled):
    q1 = build_simon_circuit(SimonFunction.default(3))
    assert circuit_norm(q1).value == 56
    routed = route(q1, graph, Configuration.naive(3))
    assert circuit_norm(routed).value == 206
    for n in range(2, 8):
        f, cfg, _, circ = compiled[n]
        assert circuits_equivalent(build_simon_circuit(f), circ, 1e-9), f"n={n}"
    assert circuits_equivalent(q1, routed, 1e-9)
    print("PASS criterion 3: route/optimize preserve distributions (1e-9); norms 56 and 206")


def test_c4_reduction_exactness_and_statistics():
    worst = 0.0
    for n in (2, 3, 4):
        s = BitVec(n, 0b11)
        for tau in (0.0, 0.1, 0.25, 0.49):
            params = LsnParams(n, tau, s)
            lpn_target = lpn_model_distribution(params)
            lsn_target = model_distribution(params)
            for zv in range(1 << n):
                z = BitVec(n, zv)
                if z.inner(s) != 1:
                    continue
                fwd = transformed_lpn_distribution(params, z)
                worst = max(worst, float(np.max(np.abs(fwd - lpn_target))))
                bwd = transformed_lsn_distribution(params, z)
                worst = max(worst, float(np.max(np.abs(bwd - lsn_target))))
    assert worst < 1e-12, f"max deviation {worst}"

    params = LsnParams(16, 0.1, BitVec(16, 0b11))
    rng = np.random.default_rng(SEED)
    p1, p2 = chi_square_check(params, BitVec(16, 0b101), 100_000, rng)
    assert p1 > 0.01 and p2 > 0.01, (p1, p2)
    print(f"PASS criterion 4: transforms exact to {worst:.1e} (n<=4); chi-square p={p1:.3f}/{p2:.3f} at n=16")


def test_c5_runtime_exponents():
    breakeven = 1.0 - 1.0 / math.sqrt(2.0)
    assert abs(runtime_exponent_pooled(breakeven) - 0.5) < 1e-12
    assert runtime_exponent_pooled(0.292) < 0.5
    assert runtime_exponent_pooled(0.294) > 0.5
    for tau in np.linspace(0.0, 0.4999, 200):
        assert runtime_exponent_wellpooled(float(tau)) < 0.5
    assert runtime_exponent_wellpooled(0.4999) < 0.5
    print("PASS criterion 5: pooled exponent crosses 1/2 at 1-1/sqrt(2); well-pooled < 1/2 up to 0.4999")


def test_c6_loop_count_curves_and_crossover():
    start = time.time()
    trials = 10_000
    rng = np.random.default_rng(SEED)
    period_log2 = {}
    for n in range(2, 8):
        tot = 0
        for _ in range(trials):
            f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
            _, cost = classical_period(f)
            tot += cost.loop_count
        period_log2[n] = math.log2(tot / trials)
    pooled_log2 = {}
    for n in range(2, 8):
        f = SimonFunction.default(n)
        params = LsnParams(n, MEASURED_TAUS[n], f.s)
        pool = SamplePool.from_vectors(
            [BitVec(n, int(v)) for v in sample_many(params, 16384, rng)]
        )
        tot = 0
        for _ in range(trials):
            s, cost = pooled_lsn(f, pool, rng)
            assert s == f.s
            tot += cost.loop_count
        pooled_log2[n] = math.log2(tot / trials)
    elapsed = time.time() - start
    for n in range(2, 8):
        assert abs(period_log2[n] - PERIOD_CURVE[n]) <= 0.15, (n, period_log2[n])
        assert abs(pooled_log2[n] - POOLED_CURVE[n]) <= 0.2, (n, pooled_log2[n])
    assert period_log2[4] < pooled_log2[4]
    assert pooled_log2[5] < period_log2[5]
    assert elapsed < 600.0, f"{elapsed:.0f}s over budget"
    print(
        "PASS criterion 6: curves within tolerance "
        f"(max dev period {max(abs(period_log2[n] - PERIOD_CURVE[n]) for n in PERIOD_CURVE):.3f}, "
        f"pooled {max(abs(pooled_log2[n] - POOLED_CURVE[n]) for n in POOLED_CURVE):.3f}); "
        f"crossover in (4,5); {elapsed:.0f}s"
    )


def test_c7_smoothing_properties(graph, noise, compiled):
    taus = []
    for n in range(2, 8):
        f, cfg, _, circ = compiled[n]
        raw = sample_noisy(circ, noise, 8192, seed=SEED)
        v = choose_hamming_vector(f.s)
        assert v.inner(f.s) == 0
        ham = hamming_smooth(raw, v)
        cfgs = permutation_configurations(f, graph, 16, np.random.default_rng(SEED + n), base=cfg)
        circs = [compile_simon_circuit(f, graph, c) for c in cfgs]
        ph = hamming_smooth(permutation_smooth(f, graph, circs, 2048, noise, seed=SEED + n), v)
        params = LsnParams(n, 0.1, f.s)
        kl_raw = quality_report(raw, params).kl
        kl_ham = quality_report(ham, params).kl
        kl_ph = quality_report(ph, params).kl
        assert kl_ham < kl_raw, f"n={n}"
        assert kl_ph < kl_raw, f"n={n}"
        assert estimate_tau(ham, f.s) == estimate_tau(raw, f.s), f"n={n}"
        big = sample_noisy(circ, noise, 32768, seed=SEED)
        taus.append(estimate_tau(big, f.s))
    assert all(a <= b for a, b in zip(taus, taus[1:])), taus
    assert all(0.09 <= t <= 0.13 for t in taus), taus
    print(
        "PASS criterion 7: KL drops under both techniques; tau invariant under Hamming; "
        "tau(n) nondecreasing in [0.09, 0.13]: " + " ".join(f"{t:.4f}" for t in taus)
    )


def test_c8_solver_correctness_randomized():
    rng = np.random.default_rng(SEED)
    trials = 1000
    for _ in range(trials):
        n = int(rng.integers(2, 11))
        f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
        s, _ = classical_period(f)
        assert s == f.s
    pools = {}
    for _ in range(trials):
        n = int(rng.integers(2, 11))
        f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
        tau = float(rng.uniform(0.0, 0.3))
        key = (n, f.s.value, round(tau, 2))
        if key not in pools:
            params = LsnParams(n, round(tau, 2), f.s)
            pools[key] = SamplePool.from_ints(n, sample_many(params, 4096, rng))
        s, _ = pooled_lsn(f, pools[key], rng)
        assert s == f.s and f.verify_period(s) and s.value != 0
    print(f"PASS criterion 8: both solvers correct in {trials}/{trials} randomized trials each")


def test_c9_invariant_suites():
    # bit-vector core, exhaustively to n=10
    for n in range(2, 11):
        for sv in range(1, 1 << n):
            s = BitVec(n, sv)
            basis = orthogonal_basis(s)
            assert rank_ints(basis) == n - 1
            assert nullspace_ints(basis, n) == [s.value]
    # gate identities on random states
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        width = int(rng.integers(2, 6))
        v = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
        v /= np.linalg.norm(v)
        q = int(rng.integers(0, width))
        assert np.allclose(apply_h(apply_h(v, q, width), q, width), v, atol=1e-12)
        c = int(rng.integers(0, width))
        t = (c + 1 + int(rng.integers(0, width - 1))) % width
        assert np.allclose(apply_cnot(apply_cnot(v, c, t, width), c, t, width), v, atol=1e-12)
    # optimal-query bookkeeping: distance set is the pairwise closure
    for _ in range(20):
        n = int(rng.integers(2, 8))
        f = SimonFunction.from_period(BitVec(n, int(rng.integers(1, 1 << n))))
        ledgers = []
        classical_period(f, ledger_hook=ledgers.append)
        for ledger in ledgers:
            closure = {a ^ b for a in ledger.points for b in ledger.points}
            assert set(ledger.distances) == closure
    print("PASS criterion 9: invariant suites green (bit vectors n<=10, gate identities, query ledger)")
