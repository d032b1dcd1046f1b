"""Counted multisets of measurement outcomes, and the package's CSV table format."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .gf2 import BitVec


class EmptyMultisetError(ValueError):
    """Operation needs at least one counted outcome."""


def write_table(path: str | Path, header: Mapping[str, object], columns: Sequence[str],
                rows: Iterable[Sequence[object]]) -> None:
    """Write one `# key=value` line per header entry, the column line, then
    one line of comma-separated fields per row. A field with a comma, or a
    line with a line break, raises ValueError before anything is written."""
    lines = [f"# {key}={value}" for key, value in header.items()]
    for row in (columns, *rows):
        fields = [str(v) for v in row]
        if any("," in f for f in fields):
            raise ValueError(f"a field of the row {fields!r} holds a comma")
        lines.append(",".join(fields))
    for line in lines:
        if line.splitlines() != [line]:
            raise ValueError(f"the line {line!r} has a line break")
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path: str | Path, columns: Sequence[str]) -> Tuple[Optional[int], List[list]]:
    """The bitstring length (None without rows) and the rows of a
    `write_table` file with the column line `columns` and MSB-first
    bitstrings of one length in its first column, read as ints."""
    lines = [t for t in map(str.strip, Path(path).read_text().splitlines()) if t and t[0] != "#"]
    if lines and lines[0] != ",".join(columns):
        raise ValueError(f"{path} has the column line {lines[0]!r}, not {','.join(columns)!r}")
    n, rows = None, []
    for line in lines[1:]:
        row = line.split(",")
        if len(row) != len(columns):
            raise ValueError(f"row {line!r} of {path} has {len(row)} fields, not {len(columns)}")
        if row[0].strip("01"):
            raise ValueError(f"{row[0]!r} in {path} is not a bitstring")
        n = len(row[0]) if n is None else n
        if len(row[0]) != n:
            raise ValueError(f"inconsistent sample length in {path}: {row[0]!r} after {n} bits")
        row[0] = int(row[0] or "0", 2)
        rows.append(row)
    return n, rows


def count_outcomes(outcomes: np.ndarray) -> Dict[int, int]:
    """Outcome -> count over an array of outcomes, outcomes ascending."""
    values, cnt = np.unique(outcomes, return_counts=True)
    return dict(zip(values.tolist(), cnt.tolist()))


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
    def from_outcomes(cls, n: int, outcomes: np.ndarray | Sequence[int]) -> "MeasurementMultiset":
        return cls(n, count_outcomes(np.asarray(outcomes)))

    def merge(self, other: "MeasurementMultiset") -> "MeasurementMultiset":
        if other.n != self.n:
            raise ValueError(f"outcome length mismatch: {self.n} vs {other.n}")
        merged = dict(self.counts)
        for o, c in other.counts.items():
            merged[o] = merged.get(o, 0) + c
        return MeasurementMultiset(self.n, merged)

    def shifted(self, v: int) -> "MeasurementMultiset":
        """The multiset {q ^ v : q in self}, in the same key order; an
        outcome moved out of [0, 2^n) raises ValueError."""
        return MeasurementMultiset(self.n, {o ^ v: c for o, c in self.counts.items()})

    def outcomes_array(self) -> np.ndarray:
        """Expand to one entry per counted shot, outcomes ascending."""
        keys = np.array(sorted(self.counts), dtype=np.int64)
        reps = np.array([self.counts[int(k)] for k in keys], dtype=np.int64)
        return np.repeat(keys, reps)

    def to_csv(self, path: str | Path, header: Mapping[str, object] | None = None) -> None:
        """Write the table of `outcome,count` rows, outcome as an MSB-first bitstring."""
        if not self.counts:  # n is written only through the rows
            raise EmptyMultisetError("cannot write an empty multiset: its CSV would have no rows")
        write_table(path, header or {}, ("outcome", "count"),
                    ((BitVec(self.n, o), c) for o, c in sorted(self.counts.items())))

    @classmethod
    def from_csv(cls, path: str | Path) -> "MeasurementMultiset":
        n, rows = read_table(path, ("outcome", "count"))
        if n is None:
            raise EmptyMultisetError(f"no outcomes in {path}")
        counts: Dict[int, int] = {}
        for o, c in rows:
            if not (c.isascii() and c.isdecimal()):  # int() also takes "+3", "1_0" and " 3"
                raise ValueError(f"row '{BitVec(n, o)},{c}' of {path}: the count is not 0-9 digits")
            counts[o] = counts.get(o, 0) + int(c)
        return cls(n, counts)


def merge_all(multisets: Sequence[MeasurementMultiset]) -> MeasurementMultiset:
    if not multisets:
        raise EmptyMultisetError("nothing to merge")
    out = multisets[0]
    for m in multisets[1:]:
        out = out.merge(m)
    return out
