import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysimon.gf2 import BitVec, parity
from noisysimon.lsn import LsnParams, model_distribution, sample_many
from noisysimon.reductions import (
    LpnSample,
    SolveFailure,
    _cells,
    chi_square_check,
    lpn_model_distribution,
    lpn_sample_to_lsn,
    lsn_sample_to_lpn,
    lsn_samples_to_lpn,
    solve_lpn_via_lsn,
    solve_lsn_via_lpn,
    transformed_lpn_distribution,
    transformed_lsn_distribution,
)
from noisysimon.simon import SimonFunction
from noisysimon.solvers import pooled_lsn, SamplePool
from noisysimon.stats import chi_square_gof


def test_transform_examples():
    rng = np.random.default_rng(0)
    y, z = BitVec.from_string("01"), BitVec.from_string("10")
    seen = set()
    for _ in range(64):
        a, b = lsn_sample_to_lpn(y, z, rng)
        seen.add((str(a), b))
    assert seen == {("11", 1), ("01", 0)}
    assert str(lpn_sample_to_lsn(LpnSample(BitVec.from_string("101"), 1), BitVec.from_string("010"))) == "111"
    assert str(lpn_sample_to_lsn(LpnSample(BitVec.from_string("101"), 0), BitVec.from_string("010"))) == "101"


def test_exact_distribution_equality_small_n():
    """Both transforms hit their targets exactly, for every z with <z,s>=1."""
    worst = 0.0
    for n in (2, 3, 4):
        for sv in (0b11, (1 << n) - 1):
            s = BitVec(n, sv)
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
    assert worst < 1e-12


def test_degenerate_z_gives_useless_labels():
    """With z orthogonal to s the label carries no information: the induced
    error rate is exactly one half, which is why the wrappers retry."""
    params = LsnParams(3, 0.1, BitVec.from_string("011"))
    z = BitVec.from_string("100")
    dist = transformed_lpn_distribution(params, z)
    err = sum(p for ab, p in enumerate(dist) if (bin(ab & 0b011).count("1") + (ab >> 3)) % 2 == 1)
    assert abs(err - 0.5) < 1e-12


def test_round_trip_restores_samples():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        y = BitVec(n, int(rng.integers(0, 1 << n)))
        z = BitVec(n, int(rng.integers(0, 1 << n)))
        assert lpn_sample_to_lsn(lsn_sample_to_lpn(y, z, rng), z) == y


def test_chi_square_both_directions_at_n16():
    """The shared routine draws and buckets exactly as this inline form."""
    n, tau = 16, 0.1
    s = BitVec(n, 0b11)
    params = LsnParams(n, tau, s)
    rng = np.random.default_rng(42)
    z = BitVec(n, 0b101)
    assert z.inner(s) == 1

    k = 8
    probs = np.concatenate([np.full(1 << k, (1 - tau) / (1 << k)), np.full(1 << k, tau / (1 << k))])
    ys = sample_many(params, 100_000, rng)
    b = rng.integers(0, 2, size=ys.size)
    cells = lpn_cells(ys ^ (b * z.value), b, params, k)
    _, p1 = chi_square_gof(cells, probs)
    assert p1 > 0.01

    av = rng.integers(0, 1 << n, size=100_000)
    eps = rng.random(100_000) < tau
    par = av & s.value
    for sh in (32, 16, 8, 4, 2, 1):
        par ^= par >> sh
    bv = (par & 1) ^ eps
    cells2 = lsn_cells(av ^ (bv * z.value), params, k)
    _, p2 = chi_square_gof(cells2, probs)
    assert p2 > 0.01

    again = np.random.default_rng(42)
    assert chi_square_check(params, z, 100_000, again) == (p1, p2)
    assert again.bit_generator.state == rng.bit_generator.state


def _scalar_parity(v: int) -> int:
    return bin(v).count("1") & 1


def _unit_functionals(n, k, skip):
    """The first k unit vectors of F_2^n other than coordinate `skip`."""
    return [1 << j for j in range(n) if j != skip][:k]


def reference_lsn_projection_counts(outcomes, params, k):
    """The per-sample loop the array form replaced: cells (error bit, k unit
    functionals skipping the top set coordinate of s)."""
    funcs = _unit_functionals(params.n, k, params.s.value.bit_length() - 1)
    cells = np.zeros(2 << k, dtype=np.int64)
    for y in np.asarray(outcomes, dtype=np.int64):
        e = _scalar_parity(int(y) & params.s.value)
        idx = 0
        for i, u in enumerate(funcs):
            idx |= _scalar_parity(int(y) & u) << i
        cells[(e << k) | idx] += 1
    return cells


def reference_lpn_projection_counts(samples, params, k):
    funcs = _unit_functionals(params.n, k, -1)
    cells = np.zeros(2 << k, dtype=np.int64)
    for a, b in samples:
        e = (_scalar_parity(a.value & params.s.value) ^ b) & 1
        idx = 0
        for i, u in enumerate(funcs):
            idx |= _scalar_parity(a.value & u) << i
        cells[(e << k) | idx] += 1
    return cells


def lsn_cells(ys, params, k):
    sv = params.s.value
    return _cells(parity(ys & sv), ys, k, skip=sv.bit_length() - 1)


def lpn_cells(a, b, params, k):
    return _cells(parity(a & params.s.value) ^ b, a, k, skip=k)


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_projection_counts_match_per_sample_loop(n):
    rng = np.random.default_rng(n)
    params = LsnParams(n, 0.2, BitVec(n, int(rng.integers(1, 1 << n))))
    k = min(8, n - 1)
    ys = sample_many(params, 3000, rng)
    cells = lsn_cells(ys, params, k)
    assert np.array_equal(cells, reference_lsn_projection_counts(ys, params, k))
    assert cells.dtype == np.int64
    a, b = rng.integers(0, 1 << n, size=3000), rng.integers(0, 2, size=3000)
    samples = [LpnSample(BitVec(n, int(av)), int(bv)) for av, bv in zip(a, b)]
    cells = lpn_cells(a, b, params, k)
    assert np.array_equal(cells, reference_lpn_projection_counts(samples, params, k))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 20), data=st.data())
def test_cells_match_per_sample_loops(n, data):
    """Both directions, with the top set coordinate of s at 0, inside the
    first k coordinates, or at or above k (above it from n = 10 on)."""
    k = min(8, n - 1)
    top = data.draw(st.one_of(st.just(0), st.integers(0, k - 1), st.integers(k, n - 1)),
                    label="top set coordinate of s")
    s = BitVec(n, 1 << top | data.draw(st.integers(0, (1 << top) - 1), label="low bits of s"))
    params = LsnParams(n, 0.2, s)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ys = sample_many(params, 200, rng)
    assert np.array_equal(lsn_cells(ys, params, k), reference_lsn_projection_counts(ys, params, k))
    a, b = rng.integers(0, 1 << n, size=200), rng.integers(0, 2, size=200)
    samples = [LpnSample(BitVec(n, int(av)), int(bv)) for av, bv in zip(a, b)]
    assert np.array_equal(lpn_cells(a, b, params, k),
                          reference_lpn_projection_counts(samples, params, k))


@pytest.mark.parametrize("count", [1, 3, 63, 1001, 16384])
def test_batched_transform_matches_scalar_loop(count):
    n = 7
    params = LsnParams(n, 0.12, BitVec(n, 0b11))
    z = BitVec(n, 0b101)
    ys = sample_many(params, count, np.random.default_rng(count))
    one, many = np.random.default_rng(5), np.random.default_rng(5)
    one.random()  # start both mid-stream
    many.random()
    scalar = [lsn_sample_to_lpn(BitVec(n, int(y)), z, one) for y in ys]
    a, b = lsn_samples_to_lpn(ys, z, many)
    assert [(x.a.value, x.b) for x in scalar] == list(zip(a.tolist(), b.tolist()))
    assert many.bit_generator.state == one.bit_generator.state
    assert one.integers(0, 1 << 30, size=4).tolist() == many.integers(0, 1 << 30, size=4).tolist()


def _gauss_lpn_solver(n, tau, samples, rng):
    """One-shot solver: first n independent rows, solve, no verification."""
    from noisysimon.gf2 import solve_ints

    rows, labels = [], []
    basis = []
    for a, b in samples:
        v = a.value
        for r in basis:
            v = min(v, v ^ r)
        if v:
            basis.append(v)
            rows.append(a.value)
            labels.append(b)
        if len(rows) == n:
            break
    if len(rows) < n:
        return None
    sv, null = solve_ints([a | (b & 1) << n for a, b in zip(rows, labels)], n)
    return None if sv is None or null else BitVec(n, sv)


def test_noiseless_reduction_solves_period():
    n = 6
    f = SimonFunction.default(n)
    params = LsnParams(n, 0.0, f.s)
    rng = np.random.default_rng(2)
    stream = iter(sample_many(params, 10_000, rng))

    def oracle():
        return BitVec(n, int(next(stream)))

    s = solve_lsn_via_lpn(oracle, _gauss_lpn_solver, n, 0.0, m=4 * n, retries=50,
                          verify=f.verify_period, rng=rng)
    assert s == f.s


def test_unverified_candidates_are_never_returned():
    n = 5
    f = SimonFunction.default(n)

    def bad_solver(n_, tau_, samples_, rng_):
        return BitVec(n_, 0b10101 & ((1 << n_) - 1))  # wrong on purpose

    params = LsnParams(n, 0.1, f.s)
    rng = np.random.default_rng(3)
    stream = iter(sample_many(params, 10_000, rng))
    with pytest.raises(SolveFailure):
        solve_lsn_via_lpn(lambda: BitVec(n, int(next(stream))), bad_solver, n, 0.1,
                          m=8, retries=10, verify=f.verify_period, rng=rng)


def test_wrapper_success_at_least_half_of_solver_success():
    """Per-attempt success of the wrapper is at least half the solver's own
    success rate on genuine parity samples (the price of guessing z)."""
    n, tau, trials = 8, 0.1, 1000
    f = SimonFunction.default(n)
    params = LsnParams(n, tau, f.s)
    rng = np.random.default_rng(4)
    m = 3 * n

    hits_direct = 0
    for _ in range(trials):
        av = rng.integers(0, 1 << n, size=m)
        eps = rng.random(m) < tau
        par = av & f.s.value
        for sh in (4, 2, 1):
            par ^= par >> sh
        bv = (par & 1) ^ eps
        samples = [LpnSample(BitVec(n, int(a)), int(b)) for a, b in zip(av, bv)]
        cand = _gauss_lpn_solver(n, tau, samples, rng)
        hits_direct += int(cand == f.s)
    eps_a = hits_direct / trials

    hits_wrapped = 0
    for _ in range(trials):
        ys = iter(sample_many(params, m, rng))
        try:
            s = solve_lsn_via_lpn(lambda: BitVec(n, int(next(ys))), _gauss_lpn_solver,
                                  n, tau, m=m, retries=1, verify=f.verify_period, rng=rng)
            hits_wrapped += int(s == f.s)
        except SolveFailure:
            pass
    eps_b = hits_wrapped / trials

    sigma = math.sqrt(eps_a / trials) + math.sqrt(max(eps_b, 0.01) / trials)
    assert eps_b >= eps_a / 2 - 3 * sigma


def test_reverse_wrapper_with_pooled_solver():
    n = 6
    f = SimonFunction.default(n)
    rng = np.random.default_rng(5)

    def lpn_oracle():
        av = int(rng.integers(0, 1 << n))
        b = bin(av & f.s.value).count("1") & 1  # tau = 0
        return LpnSample(BitVec(n, av), b)

    def lsn_solver(n_, tau_, pool, rng_):
        try:
            s, _ = pooled_lsn(f, SamplePool.from_vectors(list(pool)), rng_, max_loops=2000)
            return s
        except SolveFailure:
            return None

    s = solve_lpn_via_lsn(lpn_oracle, lsn_solver, n, 0.0, m=6 * n, retries=50,
                          verify=f.verify_period, rng=rng)
    assert s == f.s


def test_zero_period_rejected_by_params():
    with pytest.raises(ValueError):
        LsnParams(4, 0.1, BitVec(4, 0))


def test_lpn_sample_csv_round_trip(tmp_path):
    from noisysimon.reductions import lpn_samples_from_csv, lpn_samples_to_csv

    rng = np.random.default_rng(11)
    samples = [
        LpnSample(BitVec(5, int(rng.integers(0, 32))), int(rng.integers(0, 2)))
        for _ in range(40)
    ]
    path = tmp_path / "samples.csv"
    lpn_samples_to_csv(samples, path)
    assert lpn_samples_from_csv(path) == samples


@pytest.mark.parametrize("text, message", [
    ("a,b\n101,2\n", "label '2' is not 0 or 1"),
    ("a,b\n101,1\n11,1\n", "inconsistent sample length"),
])
def test_lpn_sample_csv_rejects_bad_rows(tmp_path, text, message):
    from noisysimon.reductions import lpn_samples_from_csv

    path = tmp_path / "samples.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        lpn_samples_from_csv(path)
