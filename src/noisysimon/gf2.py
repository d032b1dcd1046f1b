"""Vectors over F_2 packed into ints, and linear algebra on lists of them.

`BitVec` is the checked form used at the edges (text, lengths); rank,
nullspace, linear solves and orthogonal bases take and give rows as plain
packed ints.
Vectors are fixed-length with coordinate 0 stored in the least significant
bit, so the text form ``"011"`` means x_2=0, x_1=1, x_0=1 (most significant
coordinate printed first).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np


MAX_DENSE_BITS = 24  # widest dense 2^n array: 128 MiB of int64 support at 24


class DimensionError(ValueError):
    """Operands have incompatible vector lengths."""


class CapacityError(ValueError):
    """The device cannot host the circuit, no placement can be found in
    reasonable time, or an array would be too large to hold."""


def check_dense(n: int) -> None:
    """Refuse a dense 2^n array wider than MAX_DENSE_BITS, before it is made."""
    if n > MAX_DENSE_BITS:
        raise CapacityError(f"n={n} exceeds the {MAX_DENSE_BITS}-bit dense distribution limit")


def parity(a: np.ndarray) -> np.ndarray:
    """Elementwise parity (popcount mod 2) of a nonnegative int array."""
    return np.bitwise_count(a) & 1


@dataclass(frozen=True, slots=True, init=False)
class BitVec:
    """Element of F_2^n packed into a Python int (a numpy integer is stored as one)."""

    n: int
    value: int

    def __init__(self, n: int, value: int) -> None:
        if type(n) is not int or type(value) is not int:
            try:
                n, value = operator.index(n), operator.index(value)
            except TypeError:
                raise TypeError(f"BitVec takes integers, not n={n!r}, value={value!r}") from None
        if n < 0:
            raise ValueError(f"negative length {n}")
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} out of range for n={n}")
        _set_n(self, n)  # the slots' own setters: frozen __setattr__ refuses
        _set_value(self, value)

    @classmethod
    def from_string(cls, text: str) -> "BitVec":
        """Parse a text form like ``"011"`` (most significant coordinate first)."""
        if not all(c in "01" for c in text):
            raise ValueError(f"not a bitstring: {text!r}")
        return cls(len(text), int(text, 2) if text else 0)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"coordinate {i} out of range for n={self.n}")
        return (self.value >> i) & 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return BitVec(self.n, self.value ^ other.value)

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b") if self.n else ""

    def __repr__(self) -> str:
        return f"BitVec({str(self)!r})"

    def __bool__(self) -> bool:
        return self.value != 0

    def inner(self, other: "BitVec") -> int:
        if self.n != other.n:
            raise DimensionError(f"length mismatch: {self.n} vs {other.n}")
        return (self.value & other.value).bit_count() & 1


_set_n, _set_value = BitVec.n.__set__, BitVec.value.__set__


def _echelon(values: Sequence[int], stop: Optional[int] = None) -> List[int]:
    """Row echelon basis, one row per pivot (its lowest set bit), in the order
    found; with `stop`, that of the first rows of `values` that span `stop`
    dimensions. Each row's pivot is clear in every row found after it, so a
    new row is reduced in one pass and no earlier row changes."""
    rows = []
    for v in values:
        if len(rows) == stop:
            break
        for row in rows:
            if v & row & -row:  # v holds the row's pivot
                v ^= row
        if v:
            rows.append(v)
    return rows


def _independent(values: Sequence[int], reject: int = 0) -> Optional[List[int]]:
    """`_echelon(values)` of rows that must all be independent, or None at the
    first row that reduces to 0 or to `reject`."""
    rows = []
    for v in values:
        for row in rows:
            if v & row & -row:
                v ^= row
        if v == 0 or v == reject:
            return None
        rows.append(v)
    return rows


def rank_ints(values: Sequence[int], stop: Optional[int] = None) -> int:
    """The rank of the rows, or `stop` if it is at least that: the
    elimination ends once `stop` independent rows are found."""
    return len(_echelon(values, stop))


def _back(basis: Sequence[int], x: int) -> int:
    """`x` plus the pivots that make <x, row> = 0 for every row of an
    `_echelon` basis, set last row first: a row's pivot is clear in the rows
    after it, so its parity with x is final once they are done."""
    for row in reversed(basis):
        if (row & x).bit_count() & 1:
            x |= row & -row
    return x


def _free(basis: Sequence[int], n: int) -> List[int]:
    """Nullspace basis of the first n columns of an `_echelon` basis: for each
    free column in ascending order, the vector with that column set and the
    other free columns clear."""
    free = (1 << n) - 1
    for row in basis:
        free &= ~(row & -row)
    out = []
    while free:
        out.append(_back(basis, free & -free))
        free &= free - 1
    return out


def nullspace_ints(values: Sequence[int], n: int) -> List[int]:
    """Basis of {x : <x, row> = 0 for all rows}, one vector per free column."""
    return _free(_echelon(values), n)


def kernel_vector(rows: Sequence[int], n: int) -> Optional[int]:
    """`nullspace_ints(rows, n)[0]`, the one nonzero kernel vector, if the rows
    have rank n - 1, else None; n - 1 rows stop at the first dependent one."""
    basis = _independent(rows) if len(rows) == n - 1 else _echelon(rows)
    return _free(basis, n)[0] if basis is not None and len(basis) == n - 1 else None


def solve_ints(rows: Sequence[int], n: int) -> Tuple[Optional[int], List[int]]:
    """Solve <a_i, x> = b_i over F_2 for rows packed as a_i | b_i << n.

    Returns (x, null): x is the solution with every free coordinate 0, None
    if the system is inconsistent (the basis holds the label-only row 1 << n,
    0 = 1), and null is a basis of the nullspace of the a_i, so the solutions
    are x + span(null). The back pass takes the label as a coordinate set to 1.
    """
    basis, label = _echelon(rows), 1 << n
    return (None if label in basis else _back(basis, label) ^ label), _free(basis, n)


def solve_unique(rows: Sequence[int], n: int) -> Optional[int]:
    """`solve_ints`' x if the a_i have rank n, else None; a singular or
    inconsistent system costs the forward pass only, and n rows stop at the
    first that reduces to 0 or to 1 << n (every earlier pivot is an a-bit)."""
    label = 1 << n
    basis = _independent(rows, label) if len(rows) == n else _echelon(rows)
    if basis is None or len(basis) != n or label in basis:
        return None
    return _back(basis, label) ^ label


def orthogonal_basis(s: BitVec) -> List[int]:
    """n-1 independent packed ints spanning the subspace orthogonal to s."""
    if s.value == 0:
        raise ValueError("s must be nonzero")
    return nullspace_ints([s.value], s.n)
