"""Counted multisets of measurement outcomes and their CSV form."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from .gf2 import BitVec


class EmptyMultisetError(ValueError):
    """Operation needs at least one counted outcome."""


@dataclass(frozen=True)
class MeasurementMultiset:
    """Outcomes in F_2^n with nonnegative integer counts."""

    n: int
    counts: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for o, c in self.counts.items():
            if not 0 <= o < (1 << self.n):
                raise ValueError(f"outcome {o} out of range for n={self.n}")
            if c < 0:
                raise ValueError(f"negative count for outcome {o}")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @classmethod
    def from_outcomes(cls, n: int, outcomes: Iterable[int]) -> "MeasurementMultiset":
        arr = np.asarray(list(outcomes) if not isinstance(outcomes, np.ndarray) else outcomes)
        counts: Dict[int, int] = {}
        if arr.size:
            values, cnt = np.unique(arr, return_counts=True)
            counts = dict(zip(values.tolist(), cnt.tolist()))
        return cls(n, counts)

    @classmethod
    def from_counts(cls, n: int, counts: Mapping[int, int]) -> "MeasurementMultiset":
        return cls(n, {int(o): int(c) for o, c in counts.items() if c})

    def count(self, outcome: int | BitVec) -> int:
        return self.counts.get(int(outcome), 0)

    def merge(self, other: "MeasurementMultiset") -> "MeasurementMultiset":
        if other.n != self.n:
            raise ValueError(f"outcome length mismatch: {self.n} vs {other.n}")
        merged = dict(self.counts)
        for o, c in other.counts.items():
            merged[o] = merged.get(o, 0) + c
        return MeasurementMultiset(self.n, merged)

    def map_outcomes(self, fn) -> "MeasurementMultiset":
        """Apply an outcome -> outcome map, merging counts that collide."""
        mapped: Dict[int, int] = {}
        for o, c in self.counts.items():
            m = fn(o)
            mapped[m] = mapped.get(m, 0) + c
        return MeasurementMultiset(self.n, mapped)

    def outcomes_array(self) -> np.ndarray:
        """Expand to one entry per counted shot, outcomes ascending."""
        if not self.counts:
            return np.zeros(0, dtype=np.int64)
        keys = np.array(sorted(self.counts), dtype=np.int64)
        reps = np.array([self.counts[int(k)] for k in keys], dtype=np.int64)
        return np.repeat(keys, reps)

    def to_csv(self, path: str | Path, header: Mapping[str, str] | None = None) -> None:
        """Write `outcome,count` rows, outcome as an MSB-first bitstring,
        after one `# key=value` comment line per header entry."""
        if not self.counts:  # n is written only through the rows
            raise EmptyMultisetError("cannot write an empty multiset: its CSV would have no rows")
        lines = []
        for key, value in (header or {}).items():
            line = f"# {key}={value}"
            if line.splitlines() != [line]:
                raise ValueError(f"header entry {key!r} has a line break")
            lines.append(line)
        lines.append("outcome,count")
        for o in sorted(self.counts):
            lines.append(f"{format(o, f'0{self.n}b')},{self.counts[o]}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "MeasurementMultiset":
        counts: Dict[int, int] = {}
        n = None
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line == "outcome,count":
                continue
            bits, c = line.split(",")
            if n is None:
                n = len(bits)
            elif len(bits) != n:
                raise ValueError(f"inconsistent outcome length in {path}")
            counts[int(bits, 2)] = counts.get(int(bits, 2), 0) + int(c)
        if n is None:
            raise EmptyMultisetError(f"no outcomes in {path}")
        return cls(n, counts)


def merge_all(multisets: Sequence[MeasurementMultiset]) -> MeasurementMultiset:
    if not multisets:
        raise EmptyMultisetError("nothing to merge")
    out = multisets[0]
    for m in multisets[1:]:
        out = out.merge(m)
    return out
