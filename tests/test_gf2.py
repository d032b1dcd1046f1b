import copy
import dataclasses
import pickle

import numpy as np
import pytest

from noisysimon.gf2 import BitVec, DimensionError, nullspace_ints, orthogonal_basis, rank_ints


def bv(text):
    return BitVec.from_string(text)


def ints(*texts):
    return [int(t, 2) for t in texts]


def test_inner_product_examples():
    assert bv("011").inner(bv("011")) == 0
    assert bv("011").inner(bv("101")) == 1


def test_inner_product_dimension_error():
    with pytest.raises(DimensionError):
        bv("01").inner(bv("011"))


def test_add_examples():
    assert bv("011") ^ bv("011") == BitVec(3, 0)
    assert str(bv("111") ^ bv("011")) == "100"
    assert str(bv("10110") ^ bv("11111")) == "01001"
    with pytest.raises(DimensionError):
        bv("01") ^ bv("011")


def test_bitvec_is_false_exactly_at_zero():
    assert [bool(BitVec(n, v)) for n in range(4) for v in range(1 << n)] == \
        [v != 0 for n in range(4) for v in range(1 << n)]


def test_string_round_trip():
    assert str(bv("01101")) == "01101"
    assert bv("011")[0] == 1 and bv("011")[1] == 1 and bv("011")[2] == 0


def test_nullspace_period_examples():
    assert nullspace_ints(ints("100", "111"), 3) == ints("011")
    assert nullspace_ints(ints("10"), 2) == ints("01")
    assert len(nullspace_ints(ints("100", "100"), 3)) == 2  # rank 1: no unique period


def test_rank_and_span_examples():
    assert rank_ints(ints("100", "111", "011")) == 2
    # y is in the span of the rows iff appending it leaves the rank unchanged
    assert rank_ints(ints("100", "010", "110")) == rank_ints(ints("100", "010"))
    assert rank_ints(ints("000")) == rank_ints([]) == 0
    assert rank_ints(ints("100", "010")) > rank_ints(ints("100"))


def test_rank_with_stop_is_capped_and_reads_only_what_it_needs():
    rows = ints("100", "100", "010", "001")
    assert [rank_ints(rows, stop) for stop in range(5)] == [0, 1, 2, 3, 3]
    assert rank_ints(ints("100", "100"), stop=2) == 1

    def prefix_then_fail():
        yield from ints("100", "110", "001")  # the elimination ends on reading 001
        raise AssertionError("read two rows past the second independent row")

    assert rank_ints(prefix_then_fail(), stop=2) == 2


def test_orthogonal_basis_examples():
    basis = orthogonal_basis(bv("011"))
    span = set()
    for mask in range(1 << len(basis)):
        v = 0
        for k, row in enumerate(basis):
            if (mask >> k) & 1:
                v ^= row
        span.add(v)
    assert span == {0b000, 0b011, 0b100, 0b111}
    assert orthogonal_basis(BitVec(1, 1)) == []
    assert orthogonal_basis(bv("11")) == [0b11]
    with pytest.raises(ValueError):
        orthogonal_basis(BitVec(4, 0))


def test_inner_product_bilinear_random():
    rng = np.random.default_rng(1)

    def rand_vec(n):
        value = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
        return BitVec(n, value)

    for _ in range(300):
        n = int(rng.integers(1, 65))
        x, y, z = (rand_vec(n) for _ in range(3))
        assert (x ^ y).inner(z) == (x.inner(z) + y.inner(z)) % 2


def test_orthogonal_basis_inverts_exhaustively():
    for n in range(2, 11):
        for sv in range(1, 1 << n):
            s = BitVec(n, sv)
            basis = orthogonal_basis(s)
            assert rank_ints(basis) == n - 1
            assert nullspace_ints(basis, n) == [sv]
            for row in basis:
                assert (row & sv).bit_count() % 2 == 0


def test_bitvec_is_slotted_and_frozen():
    v = bv("0110")
    assert not hasattr(v, "__dict__")
    assert type(v).__slots__ == ("n", "value")
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.value = 1
    # A new attribute is refused too; CPython's frozen __setattr__ for a
    # slotted dataclass calls super() on the pre-slots class and raises
    # TypeError there (FrozenInstanceError without slots).
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        v.extra = 1
    with pytest.raises(TypeError):
        v < bv("0111")
    assert v == BitVec(4, 6) and v != BitVec(5, 6) and v != bv("0111")
    assert hash(v) == hash(BitVec(4, 6)) == hash((4, 6))
    assert repr(v) == "BitVec('0110')" and repr(BitVec(0, 0)) == "BitVec('')"
    for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v),
                 dataclasses.replace(v)):
        assert twin == v and type(twin) is BitVec and hash(twin) == hash(v)
    assert [f.name for f in dataclasses.fields(v)] == ["n", "value"]
    assert dataclasses.replace(v, value=9) == BitVec(4, 9)
    with pytest.raises(ValueError, match="value 6 out of range for n=2"):
        dataclasses.replace(v, n=2)
