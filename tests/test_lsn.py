import math

import numpy as np
import pytest

from noisysimon.gf2 import BitVec
from noisysimon.lsn import (
    LsnParams,
    estimate_tau,
    model_distribution,
    sample_many,
)
from noisysimon.multiset import EmptyMultisetError, MeasurementMultiset
from noisysimon.smoothing import hamming_smooth


def test_params_validation():
    s = BitVec.from_string("011")
    with pytest.raises(ValueError):
        LsnParams(3, 0.5, s)
    with pytest.raises(ValueError):
        LsnParams(3, -0.1, s)
    with pytest.raises(ValueError):
        LsnParams(3, 0.1, BitVec(3, 0))


def test_model_distribution_two_levels():
    params = LsnParams(2, 0.25, BitVec.from_string("11"))
    dist = model_distribution(params)
    assert np.allclose(dist, [0.375, 0.125, 0.125, 0.375])

    params3 = LsnParams(3, 0.1, BitVec.from_string("011"))
    dist3 = model_distribution(params3)
    for y in range(8):
        want = 0.225 if bin(y & 0b011).count("1") % 2 == 0 else 0.025
        assert abs(dist3[y] - want) < 1e-15

    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        params = LsnParams(n, float(rng.uniform(0, 0.499)), BitVec(n, int(rng.integers(1, 1 << n))))
        assert abs(model_distribution(params).sum() - 1.0) < 1e-12


def test_noiseless_samples_all_orthogonal():
    params = LsnParams(5, 0.0, BitVec.from_string("00011"))
    rng = np.random.default_rng(1)
    for v in sample_many(params, 2000, rng):
        assert bin(int(v) & 0b11).count("1") % 2 == 0
    dist = model_distribution(params)
    assert dist[dist > 0].size == 16  # uniform on the orthogonal subspace only


def test_error_fraction_within_three_sigma():
    params = LsnParams(6, 0.2, BitVec.from_string("000011"))
    rng = np.random.default_rng(2)
    vals = sample_many(params, 100_000, rng)
    frac = np.mean([bin(int(v) & 0b11).count("1") % 2 for v in vals])
    sigma = math.sqrt(0.2 * 0.8 / 100_000)
    assert abs(frac - 0.2) < 3 * sigma


def test_empirical_matches_model_in_total_variation():
    rng = np.random.default_rng(3)
    for n in (3, 5, 7):
        params = LsnParams(n, 0.12, BitVec(n, 0b11))
        m = MeasurementMultiset.from_outcomes(params.n, sample_many(params, 100_000, rng))
        dist = model_distribution(params)
        emp = np.zeros(1 << n)
        for o, c in m.counts.items():
            emp[o] = c / m.total
        assert 0.5 * np.abs(emp - dist).sum() < 0.02


def test_single_sample_type():
    params = LsnParams(4, 0.3, BitVec.from_string("0011"))
    v = BitVec(params.n, int(sample_many(params, 1, np.random.default_rng(4))[0]))
    assert isinstance(v, BitVec) and v.n == 4


def test_estimate_tau_examples():
    s = BitVec.from_string("011")
    m = MeasurementMultiset(3, {0b000: 10, 0b011: 6})
    assert estimate_tau(m, s) == 0.0
    m2 = MeasurementMultiset(3, {0b000: 8192 - 819, 0b010: 819})
    assert abs(estimate_tau(m2, s) - 0.0999755859375) < 1e-12
    with pytest.raises(EmptyMultisetError):
        estimate_tau(MeasurementMultiset(3, {}), s)


def test_estimate_tau_within_three_sigma_of_model():
    params = LsnParams(5, 0.17, BitVec.from_string("00011"))
    rng = np.random.default_rng(5)
    m = MeasurementMultiset.from_outcomes(params.n, sample_many(params, 100_000, rng))
    sigma = math.sqrt(0.17 * 0.83 / 100_000)
    assert abs(estimate_tau(m, params.s) - 0.17) < 3 * sigma


def test_hamming_shift_preserves_tau_for_even_weight_period():
    params = LsnParams(6, 0.14, BitVec.from_string("000011"))
    rng = np.random.default_rng(6)
    m = MeasurementMultiset.from_outcomes(params.n, sample_many(params, 20_000, rng))
    ones = BitVec(6, (1 << 6) - 1)
    assert ones.inner(params.s) == 0
    smoothed = hamming_smooth(m, ones)
    assert estimate_tau(smoothed, params.s) == estimate_tau(m, params.s)
