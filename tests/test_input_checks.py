"""The input checks of the library's constructors and entry points: each bad
input raises its own one-line error, before any work is done."""

import numpy as np
import pytest

from noisysimon.circuits import Circuit
from noisysimon.gf2 import BitVec, CapacityError, DimensionError
from noisysimon.lsn import LsnParams, estimate_tau, model_distribution
from noisysimon.multiset import EmptyMultisetError, MeasurementMultiset, merge_all
from noisysimon.noise import NoiseParams
from noisysimon.reductions import (LpnSample, chi_square_check, lpn_model_distribution,
                                   lpn_sample_to_lsn, lsn_sample_to_lpn)
from noisysimon.simon import SimonFunction
from noisysimon.smoothing import double_flip_each, hamming_smooth
from noisysimon.solvers import SamplePool, majority_verifier, pooled_gauss_lpn
from noisysimon.statevector import exact_output_distribution
from noisysimon.stats import (chi_square_gof, empirical_distribution, kl_divergence,
                              kolmogorov_distance)

rng = np.random.default_rng(0)
half, quarter = np.full(2, 0.5), np.full(4, 0.25)
lpn = LpnSample(BitVec(3, 1), 0)
wide = LsnParams(25, 0.1, BitVec(25, 3))  # 2^25 entries: refused before any array is made
bare = Circuit(2, (), (0, 1))


@pytest.mark.parametrize("make, error, message", [
    (lambda: BitVec(-1, 0), ValueError, "negative length -1"),
    (lambda: BitVec(2, 4), ValueError, "value 4 out of range for n=2"),
    (lambda: BitVec(3, 3.0), TypeError, r"BitVec takes integers, not n=3, value=3\.0"),
    (lambda: BitVec(3.0, 3), TypeError, r"BitVec takes integers, not n=3\.0, value=3"),
    (lambda: BitVec(3, "5"), TypeError, "BitVec takes integers, not n=3, value='5'"),
    (lambda: BitVec.from_string("012"), ValueError, "not a bitstring: '012'"),
    (lambda: BitVec(2, 1)[2], IndexError, "coordinate 2 out of range for n=2"),
    (lambda: SimonFunction(3, BitVec(2, 1), 0), DimensionError, "period length 2 != n=3"),
    (lambda: SimonFunction(2, BitVec(2, 1), 2), ValueError, "control index 2 out of range"),
    (lambda: SimonFunction.default(1), ValueError, "default instantiation needs n >= 2"),
    (lambda: SimonFunction.from_period(BitVec(3, 0)), ValueError, "period must be nonzero"),
    (lambda: SimonFunction.default(3).verify_period(BitVec(2, 1)), DimensionError,
     "candidate length 2 != n=3"),
    (lambda: LsnParams(3, 0.1, BitVec(2, 1)), ValueError, "period length 2 != n=3"),
    (lambda: NoiseParams(readout=((0.1,),)), ValueError,
     r"malformed readout entry \[0.1\]: not a \(p01, p10\) pair"),
    (lambda: NoiseParams(readout=((0.1, 0.2, 0.3),)), ValueError,
     r"malformed readout entry \[0.1, 0.2, 0.3\]: not a \(p01, p10\) pair"),
    (lambda: kl_divergence(half, quarter), ValueError, "different outcome spaces"),
    (lambda: kolmogorov_distance(half, quarter), ValueError, "different outcome spaces"),
    (lambda: kl_divergence(np.array([1.5, -0.5]), half), ValueError, "negative probability"),
    (lambda: kolmogorov_distance(half, np.array([0.5, 0.25])), ValueError,
     "probabilities sum to 0.75, not 1"),
    (lambda: chi_square_gof(np.array([3, 4]), np.array([1.0, 0.0])), ValueError,
     "expected count of zero"),
    (lambda: chi_square_check(LsnParams(3, 0.0, BitVec(3, 3)), BitVec(3, 1), 10**5, rng),
     ValueError, "the chi-square check needs tau > 0"),
    (lambda: lsn_sample_to_lpn(BitVec(3, 1), BitVec(2, 1), rng), DimensionError,
     "length mismatch: 3 vs 2"),
    (lambda: lpn_sample_to_lsn(lpn, BitVec(2, 1)), DimensionError, "length mismatch: 3 vs 2"),
    (lambda: pooled_gauss_lpn([], lambda s: True, rng), ValueError, "empty pool"),
    (lambda: SamplePool.from_vectors([]), ValueError, "^empty pool$"),
    (lambda: merge_all([]), EmptyMultisetError, "nothing to merge"),
    (lambda: pooled_gauss_lpn([lpn, lpn], lambda s: True, rng), ValueError,
     "pool of 2 cannot determine 3 unknowns"),
    (lambda: pooled_gauss_lpn([LpnSample(BitVec(3, v), 2) for v in (1, 2, 4, 7)],
                              lambda s: True, rng), ValueError,
     r"pool sample \d has label 2, not 0 or 1"),
    (lambda: pooled_gauss_lpn([lpn, LpnSample(BitVec(3, 2), 0), LpnSample(BitVec(4, 0b1100), 0)],
                              lambda s: True, rng), DimensionError,
     "pool sample 2 has length 4, not n=3"),
    (lambda: SamplePool.from_ints(3, [1.5, 2, 3]), ValueError,
     "pool samples of dtype float64, not integers"),
    (lambda: SamplePool.from_ints(3, [True, False]), ValueError,
     "pool samples of dtype bool, not integers"),
    (lambda: majority_verifier([lpn, LpnSample(BitVec(4, 1), 0)], 0.1), DimensionError,
     "held-out samples differ in length from n=3"),
    (lambda: majority_verifier([lpn, LpnSample(BitVec(3, 2), 2)], 0.1), ValueError,
     "a held-out label is not 0 or 1"),
    (lambda: majority_verifier([lpn], 0.1)(BitVec(2, 1)), DimensionError,
     "candidate length 2 != held-out n=3"),
    (lambda: majority_verifier([lpn], 0.5), ValueError, r"tau=0.5 outside \[0, 1/2\)"),
    (lambda: majority_verifier([lpn], 0.9), ValueError, r"tau=0.9 outside \[0, 1/2\)"),
    (lambda: majority_verifier([lpn], -1), ValueError, r"tau=-1 outside \[0, 1/2\)"),
    (lambda: model_distribution(wide), CapacityError,
     "n=25 exceeds the 24-bit dense distribution limit"),
    (lambda: lpn_model_distribution(wide), CapacityError,
     "n=25 exceeds the 24-bit dense distribution limit"),
    (lambda: exact_output_distribution(Circuit(25, (), tuple(range(25)))), CapacityError,
     "n=25 exceeds the 24-bit dense distribution limit"),
    (lambda: empirical_distribution(MeasurementMultiset(25, {3: 1})), CapacityError,
     "n=25 exceeds the 24-bit dense distribution limit"),
    (lambda: hamming_smooth(MeasurementMultiset(3, {1: 1}), BitVec(2, 1)), ValueError,
     "shift length 2 != outcome length 3"),
    (lambda: MeasurementMultiset(3, {1: 2}).shifted(8), ValueError,
     "outcome 9 out of range for n=3"),
    (lambda: estimate_tau(MeasurementMultiset(3, {1: 1}), BitVec(5, 3)), DimensionError,
     "period length 5 != outcome length 3"),
    (lambda: model_distribution(LsnParams(3, 0.1, BitVec(3, 3)), 1.5), ValueError,
     r"tau=1.5 outside \[0, 1\]"),
    (lambda: model_distribution(LsnParams(3, 0.1, BitVec(3, 3)), -0.25), ValueError,
     r"tau=-0.25 outside \[0, 1\]"),
    (lambda: double_flip_each([bare, bare], NoiseParams(), 8, [1]), ValueError,
     "2 circuits but 1 seeds"),
    (lambda: double_flip_each([bare], NoiseParams(), 8, [1, 2]), ValueError,
     "1 circuits but 2 seeds"),
])
def test_bad_input_raises_its_own_error(make, error, message):
    with pytest.raises(error, match=message) as info:
        make()
    assert "\n" not in str(info.value)


def test_bitvec_stores_numpy_integers_as_int():
    v = BitVec(np.int64(3), np.uint8(5))
    assert type(v.n) is int and type(v.value) is int
    assert v == BitVec(3, 5) and hash(v) == hash((3, 5)) and str(v) == "101"
