import numpy as np
import pytest

from noisysimon.gf2 import BitVec
from noisysimon.simon import SimonFunction


def is_simon_function(table):
    """Decide whether a full value table is (2:1)-periodic with a unique s != 0.

    Accepts a sequence indexed by x or a mapping x -> f(x) covering all 2^n
    inputs. Returns (False, None) for anything that is not a Simon table.
    """
    size = len(table)
    n = size.bit_length() - 1
    if size != (1 << n) or n < 1:
        return False, None
    preimages = {}
    for x in range(size):
        preimages.setdefault(table[x], []).append(x)
    s = None
    for xs in preimages.values():
        if len(xs) != 2:
            return False, None
        d = xs[0] ^ xs[1]
        if s is None:
            s = d
        elif s != d:
            return False, None
    if s is None or s == 0:
        return False, None
    return True, BitVec(n, s)


def classical_leak(f):
    """f(1^n) + 1^n, which equals s because the all-ones input has bit i set."""
    ones = (1 << f.n) - 1
    return BitVec(f.n, f.eval_int(ones) ^ ones)


def test_eval_examples():
    f = SimonFunction.default(3)
    assert f.eval_int(0b111) == 0b100
    assert f.eval_int(0b110) == 0b110


def test_periodicity_example():
    f = SimonFunction.default(4)
    for x in range(16):
        assert f.eval_int(x ^ f.s.value) == f.eval_int(x)


def test_verify_period():
    f = SimonFunction.default(4)
    assert f.verify_period(f.s)
    assert f.verify_period(BitVec(4, 0))
    for n in range(2, 11):
        g = SimonFunction.default(n)
        for xv in range(1 << n):
            expected = xv in (0, g.s.value)
            assert g.verify_period(BitVec(n, xv)) == expected


def test_constructor_validation():
    with pytest.raises(ValueError):
        SimonFunction(3, BitVec(3, 0), 0)
    with pytest.raises(ValueError):
        SimonFunction(3, BitVec.from_string("010"), 0)  # s_0 = 0


def test_classical_leak():
    assert str(classical_leak(SimonFunction.default(3))) == "011"
    assert str(classical_leak(SimonFunction.default(2))) == "11"
    rng = np.random.default_rng(7)
    for _ in range(50):
        sv = int(rng.integers(1, 1 << 7)) | 1  # force s_0 = 1
        f = SimonFunction(7, BitVec(7, sv), 0)
        assert classical_leak(f) == f.s


def test_is_simon_function():
    f = SimonFunction.default(5)
    ok, s = is_simon_function([f.eval_int(x) for x in range(1 << f.n)])
    assert ok and s == f.s
    assert is_simon_function(list(range(8))) == (False, None)  # injective
    assert is_simon_function([0] * 8) == (False, None)  # constant


def test_two_to_one_exhaustive():
    for n in range(1, 11):
        xs = np.arange(1 << n, dtype=np.int64)
        for sv in range(1, 1 << n):
            i = (sv & -sv).bit_length() - 1
            f = SimonFunction(n, BitVec(n, sv), i)
            vals = np.where((xs >> i) & 1, xs ^ sv, xs)
            order = np.argsort(vals, kind="stable")
            sv_sorted = vals[order]
            # exactly two preimages per value, differing by s
            assert np.all(sv_sorted[0::2] == sv_sorted[1::2])
            assert np.all((xs[order][0::2] ^ xs[order][1::2]) == sv)
            # and the numpy table is the same function as eval_int
            if n <= 6:
                assert [f.eval_int(x) for x in range(1 << n)] == vals.tolist()
