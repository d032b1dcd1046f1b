"""The concrete periodic function family x -> x + x_i * s."""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitVec, DimensionError


@dataclass(frozen=True)
class SimonFunction:
    """Two-to-one function f(x) = x + x_i * s with hidden period s != 0.

    The control coordinate i must satisfy s_i = 1, which makes f exactly
    (2:1) with collisions {x, x + s}.
    """

    n: int
    s: BitVec
    i: int

    def __post_init__(self) -> None:
        if self.s.n != self.n:
            raise DimensionError(f"period length {self.s.n} != n={self.n}")
        if self.s.value == 0:
            raise ValueError("period must be nonzero")
        if not 0 <= self.i < self.n:
            raise ValueError(f"control index {self.i} out of range")
        if self.s[self.i] != 1:
            raise ValueError(f"s_{self.i} must be 1")

    @classmethod
    def default(cls, n: int) -> "SimonFunction":
        """The instantiation used throughout: s with the two lowest bits set, i=0."""
        if n < 2:
            raise ValueError("default instantiation needs n >= 2")
        return cls(n, BitVec(n, 0b11), 0)

    @classmethod
    def from_period(cls, s: BitVec) -> "SimonFunction":
        """Period s with i chosen as its lowest set coordinate."""
        if s.value == 0:
            raise ValueError("period must be nonzero")
        return cls(s.n, s, (s.value & -s.value).bit_length() - 1)

    def eval_int(self, x: int) -> int:
        if (x >> self.i) & 1:
            return x ^ self.s.value
        return x

    def verify_period(self, candidate: BitVec) -> bool:
        """True iff f(candidate) = f(0), i.e. candidate is 0 or the period."""
        if candidate.n != self.n:
            raise DimensionError(f"candidate length {candidate.n} != n={self.n}")
        return self.eval_int(candidate.value) == self.eval_int(0)
