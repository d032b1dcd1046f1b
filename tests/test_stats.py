import math

import numpy as np
import pytest

from noisysimon.gf2 import BitVec
from noisysimon.lsn import LsnParams, model_distribution, sample_many
from noisysimon.multiset import EmptyMultisetError, MeasurementMultiset
from noisysimon.stats import (
    DivergenceError,
    chi_square_gof,
    empirical_distribution,
    kl_divergence,
    kolmogorov_distance,
    quality_report,
)


def test_kl_examples():
    p = np.array([0.75, 0.25])
    q = np.array([0.5, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert abs(kl_divergence(p, q) - 0.18872) < 5e-6
    with pytest.raises(DivergenceError):
        kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 64))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        assert kl_divergence(p, q) >= 0.0
    # equality iff identical
    p = rng.dirichlet(np.ones(8))
    assert kl_divergence(p, p) == 0.0


def test_kolmogorov_examples_and_metric_properties():
    p = np.array([0.75, 0.25])
    q = np.array([0.5, 0.5])
    assert kolmogorov_distance(p, p) == 0.0
    assert kolmogorov_distance(p, q) == 0.25
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(2, 32))
        a, b, c = (rng.dirichlet(np.ones(k)) for _ in range(3))
        assert kolmogorov_distance(a, b) == kolmogorov_distance(b, a)
        assert kolmogorov_distance(a, c) <= kolmogorov_distance(a, b) + kolmogorov_distance(b, c) + 1e-15


def test_empirical_distribution_examples():
    m = MeasurementMultiset(2, {0b00: 1, 0b11: 1})
    emp = empirical_distribution(m)
    assert np.allclose(emp, [0.5, 0, 0, 0.5])
    point = empirical_distribution(MeasurementMultiset(2, {0b10: 7}))
    assert point[0b10] == 1.0 and point.sum() == 1.0
    with pytest.raises(EmptyMultisetError):
        empirical_distribution(MeasurementMultiset(2, {}))


def test_outcomes_array_examples():
    assert MeasurementMultiset(2, {0b11: 2, 0b01: 1}).outcomes_array().tolist() == [1, 3, 3]
    empty = MeasurementMultiset(3, {}).outcomes_array()
    assert empty.dtype == np.int64 and empty.shape == (0,)


def test_quality_report_on_exact_scaled_model():
    params = LsnParams(2, 0.25, BitVec.from_string("11"))
    counts = {y: int(p * 800) for y, p in enumerate(model_distribution(params))}
    m = MeasurementMultiset(2, counts)
    q = quality_report(m, params)
    assert q.tau == 0.25
    assert q.kl == 0.0 and q.kolmogorov == 0.0


def test_quality_report_near_zero_on_model_samples():
    params = LsnParams(5, 0.12, BitVec.from_string("00011"))
    rng = np.random.default_rng(2)
    m = MeasurementMultiset.from_outcomes(params.n, sample_many(params, 1_000_000, rng))
    q = quality_report(m, params)
    assert q.kl < 0.001
    assert q.kolmogorov < 0.002
    assert q.kl >= 0.0


def test_quality_report_deterministic():
    params = LsnParams(3, 0.1, BitVec.from_string("011"))
    rng = np.random.default_rng(3)
    m = MeasurementMultiset.from_outcomes(params.n, sample_many(params, 5000, rng))
    assert quality_report(m, params) == quality_report(m, params)


def test_quality_report_at_any_measured_tau():
    """A measured rate of 1/2 or more, where no LsnParams exists, still gets
    its row: the reference is the two-level model at that rate."""
    params = LsnParams(2, 0.1, BitVec.from_string("11"))
    q = quality_report(MeasurementMultiset(2, {0b00: 40, 0b11: 5, 0b01: 30, 0b10: 25}), params)
    assert q.tau == 0.55
    assert (f"{q.kl:.6f}", f"{q.kolmogorov:.6f}") == ("0.304759", "0.175000")
    q = quality_report(MeasurementMultiset(2, {0b01: 3, 0b10: 5}), params)
    assert q.tau == 1.0 and q.kolmogorov == 0.125
    assert q.kl == pytest.approx(0.5 * np.log2(0.5 / 0.375) + 0.5 * np.log2(0.5 / 0.625))
    assert quality_report(MeasurementMultiset(2, {0b00: 3, 0b11: 5}), params).tau == 0.0


def test_quality_report_on_sparse_multiset_names_unseen_outcomes():
    params = LsnParams(3, 0.1, BitVec.from_string("011"))
    counts = {y: 10 for y in range(8) if y not in (1, 6)}  # the model supports all 8
    with pytest.raises(DivergenceError, match=r"2 of the 8 outcomes .* 60 shots.*--shots"):
        quality_report(MeasurementMultiset(3, counts), params)


def test_smoothing_order_on_synthetic_biased_data(graph, noise, compiled):
    """Combined permutation+complement beats complement alone, which beats
    nothing, on the same seeded biased run."""
    from noisysimon.smoothing import (
        choose_hamming_vector,
        hamming_smooth,
        permutation_configurations,
        permutation_smooth,
    )
    from noisysimon.noise import sample_noisy
    from noisysimon.transpile import compile_simon_circuit

    f, cfg, _, circ = compiled[5]
    params = LsnParams(5, 0.1, f.s)
    raw = sample_noisy(circ, noise, 8192, seed=20260808)
    v = choose_hamming_vector(f.s)
    ham = hamming_smooth(raw, v)
    cfgs = permutation_configurations(f, graph, 24, np.random.default_rng(7), base=cfg)
    circs = [compile_simon_circuit(f, graph, c) for c in cfgs]
    ph = hamming_smooth(permutation_smooth(f, graph, circs, 2048, noise, seed=5), v)
    kl_raw = quality_report(raw, params).kl
    kl_ham = quality_report(ham, params).kl
    kl_ph = quality_report(ph, params).kl
    assert kl_ph < kl_ham < kl_raw


def test_chi_square_uniform_sanity():
    rng = np.random.default_rng(4)
    counts = np.bincount(rng.integers(0, 64, size=100_000), minlength=64)
    stat, p = chi_square_gof(counts, np.full(64, 1 / 64))
    assert p > 0.01
    skewed = counts.copy()
    skewed[0] += 3000
    _, p_bad = chi_square_gof(skewed, np.full(64, 1 / 64))
    assert p_bad < 1e-6


def test_chi_square_p_value_equals_scipy_stats():
    chi2 = pytest.importorskip("scipy.stats").chi2  # the oracle; the package avoids scipy.stats
    assert chi_square_gof(np.array([5, 5]), np.array([0.5, 0.5])) == (0.0, 1.0)
    rng = np.random.default_rng(9)
    checked = 0
    for cells in (2, 3, 8, 64, 257, 1001, 4096, 65536):
        probs = 0.5 * rng.dirichlet(np.ones(cells)) + 0.5 / cells
        probs /= probs.sum()
        for shots, skew in ((20 * cells, 0), (20 * cells, 1), (5 * cells, 0), (5 * cells, 4)):
            counts = rng.multinomial(shots, probs)
            counts[0] += skew * int(np.sqrt(shots))
            stat, p = chi_square_gof(counts, probs)
            assert p == float(chi2.sf(stat, cells - 1)), (cells, stat)
            checked += p < 1e-6
    assert checked >= 4  # the far tail is on the grid too


def kl_sampling_floor(n_outcomes, shots):
    """Expected KL of a perfect sampler, (K-1)/(2 N ln 2); useful as a bound."""
    return (n_outcomes - 1) / (2.0 * shots * math.log(2.0))


def test_kl_sampling_floor_formula():
    assert abs(kl_sampling_floor(32, 8192) - 31 / (2 * 8192 * math.log(2))) < 1e-15
    # and it is what the KL of exact model draws averages to
    params = LsnParams(5, 0.1, BitVec(5, 0b11))
    model, rng = model_distribution(params), np.random.default_rng(11)
    kls = [kl_divergence(empirical_distribution(
        MeasurementMultiset.from_outcomes(5, sample_many(params, 8192, rng))), model)
        for _ in range(200)]
    assert abs(np.mean(kls) / kl_sampling_floor(32, 8192) - 1) < 0.1
