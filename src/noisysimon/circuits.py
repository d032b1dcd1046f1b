"""Gate-list circuits over {H, X, CNOT} with measured-wire semantics.

A circuit measures the wires listed in ``measured``; outcome bit k of a
measurement is the value of wire ``measured[k]``, so outcomes are integers
whose bit k corresponds to coordinate k of the logical result vector.
Optional per-wire ``labels`` carry logical names ("x0", "y2") or physical
qubit ids through transformations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

from .simon import SimonFunction

H = "h"
X = "x"
CNOT = "cnot"


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    control: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in (H, X, CNOT):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == CNOT:
            if self.control is None:
                raise ValueError("cnot needs a control")
            if self.control == self.target:
                raise ValueError("cnot control and target must differ")
        elif self.control is not None:
            raise ValueError(f"{self.kind} takes no control")

    @property
    def qubits(self) -> Tuple[int, ...]:
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)

    @property
    def arity(self) -> int:
        return 2 if self.kind == CNOT else 1


@dataclass(frozen=True)
class Circuit:
    width: int
    gates: Tuple[Gate, ...] = ()
    measured: Tuple[int, ...] = ()
    labels: Optional[Tuple[object, ...]] = None

    def __post_init__(self) -> None:
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.width:
                    raise ValueError(f"gate wire {q} outside width {self.width}")
        if len(set(self.measured)) != len(self.measured):
            raise ValueError("measured wires must be distinct")
        for q in self.measured:
            if not 0 <= q < self.width:
                raise ValueError(f"measured wire {q} outside width {self.width}")
        if self.labels is not None and len(self.labels) != self.width:
            raise ValueError("labels must cover every wire")

    def label_of(self, wire: int):
        return self.labels[wire] if self.labels is not None else wire

    def gate_counts(self) -> Tuple[int, int]:
        """(one-qubit, two-qubit) gate counts."""
        g1 = sum(1 for g in self.gates if g.arity == 1)
        return g1, len(self.gates) - g1

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps({
            "width": self.width,
            "gates": [
                {"kind": g.kind, "target": g.target}
                if g.control is None
                else {"kind": g.kind, "control": g.control, "target": g.target}
                for g in self.gates
            ],
            "measured": list(self.measured),
            "labels": list(self.labels) if self.labels is not None else None,
        }, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        """Parse the text that `to_json` returns."""
        d = json.loads(text)
        labels = d.get("labels")
        return cls(
            d["width"],
            tuple(Gate(g["kind"], g["target"], g.get("control")) for g in d["gates"]),
            tuple(d["measured"]),
            tuple(labels) if labels is not None else None,
        )


def simon_wire_labels(n: int) -> Tuple[str, ...]:
    return tuple(f"x{j}" for j in range(n)) + tuple(f"y{j}" for j in range(n))


def build_simon_circuit(f: SimonFunction) -> Circuit:
    """Period-finding circuit on 2n wires.

    Hadamards on the input register, the function embedding as n copy-CNOTs
    plus one CNOT from wire i per set period bit, Hadamards again, and the
    input register measured. Wire j is x_j and wire n+j is y_j.
    """
    n = f.n
    gates = [Gate(H, j) for j in range(n)]
    gates += [Gate(CNOT, n + j, control=j) for j in range(n)]
    gates += [Gate(CNOT, n + j, control=f.i) for j in range(n) if f.s[j]]
    gates += [Gate(H, j) for j in range(n)]
    return Circuit(
        width=2 * n,
        gates=tuple(gates),
        measured=tuple(range(n)),
        labels=simon_wire_labels(n),
    )


def append_measurement_flips(circuit: Circuit) -> Circuit:
    """Append an X to every measured wire (the flipped-readout variant)."""
    extra = tuple(Gate(X, q) for q in circuit.measured)
    return replace(circuit, gates=circuit.gates + extra)
