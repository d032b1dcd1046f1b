"""Statevector simulation of H/X/CNOT circuits: the test oracle.

The library takes outcome distributions from the affine support
(`noisysimon.statevector`); the 2^width amplitude kernels here are the
independent reference the tests check it against, and the real-valued
kernels are in turn checked byte for byte against a complex-amplitude form in
`test_hot_path_oracles.py`.

Basis-state convention: amplitude index i encodes wire q in bit q of i, so
index arithmetic matches the bit-vector convention used everywhere else.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from noisysimon import CapacityError
from noisysimon.circuits import CNOT, Circuit, Gate, H, X

MAX_WIDTH = 28

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def zero_state(width: int, dtype=np.complex128) -> np.ndarray:
    if width > MAX_WIDTH:
        raise CapacityError(f"width {width} exceeds the {MAX_WIDTH}-qubit limit")
    state = np.zeros(1 << width, dtype=dtype)
    state[0] = 1.0
    return state


def _axis(width: int, qubit: int) -> int:
    return width - 1 - qubit


# The gate kernels below view the state as (high bits, qubit, low bits) and
# keep its dtype, so real states stay real.


def apply_h(state: np.ndarray, qubit: int, width: int) -> np.ndarray:
    psi = state.reshape(-1, 2, 1 << qubit)
    out = np.empty_like(psi)
    np.add(psi[:, 0], psi[:, 1], out=out[:, 0])
    np.subtract(psi[:, 0], psi[:, 1], out=out[:, 1])
    out *= _SQRT2_INV
    return out.reshape(-1)


def apply_x(state: np.ndarray, qubit: int, width: int) -> np.ndarray:
    return state.reshape(-1, 2, 1 << qubit)[:, ::-1].reshape(-1)


def apply_z(state: np.ndarray, qubit: int, width: int) -> np.ndarray:
    psi = state.reshape([2] * width).copy()
    idx = [slice(None)] * width
    idx[_axis(width, qubit)] = 1
    psi[tuple(idx)] *= -1.0
    return psi.reshape(-1)


def apply_y(state: np.ndarray, qubit: int, width: int) -> np.ndarray:
    psi = np.moveaxis(state.reshape([2] * width), _axis(width, qubit), 0)
    out = np.empty(psi.shape, np.result_type(psi.dtype, np.complex64))
    out[0] = -1j * psi[1]
    out[1] = 1j * psi[0]
    return np.moveaxis(out, 0, _axis(width, qubit)).reshape(-1)


def apply_cnot(state: np.ndarray, control: int, target: int, width: int) -> np.ndarray:
    hi, lo = max(control, target), min(control, target)
    psi = state.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    out = psi.copy()
    if control == hi:
        out[:, 1, :, 0], out[:, 1, :, 1] = psi[:, 1, :, 1], psi[:, 1, :, 0]
    else:
        out[:, 0, :, 1], out[:, 1, :, 1] = psi[:, 1, :, 1], psi[:, 0, :, 1]
    return out.reshape(-1)


PAULI_I, PAULI_X, PAULI_Y, PAULI_Z = 0, 1, 2, 3

_PAULI_FNS = {PAULI_X: apply_x, PAULI_Y: apply_y, PAULI_Z: apply_z}


def apply_pauli(state: np.ndarray, code: int, qubit: int, width: int) -> np.ndarray:
    if code == PAULI_I:
        return state
    return _PAULI_FNS[code](state, qubit, width)


def apply_gate(state: np.ndarray, gate: Gate, width: int) -> np.ndarray:
    if gate.kind == H:
        return apply_h(state, gate.target, width)
    if gate.kind == X:
        return apply_x(state, gate.target, width)
    if gate.kind == CNOT:
        return apply_cnot(state, gate.control, gate.target, width)
    raise ValueError(f"unknown gate {gate.kind!r}")


def run_statevector(circuit: Circuit) -> np.ndarray:
    """Final state from |0...0>; real, because H, X and CNOT keep it real."""
    state = zero_state(circuit.width, np.float64)
    for gate in circuit.gates:
        state = apply_gate(state, gate, circuit.width)
    return state


def measured_marginal(state: np.ndarray, measured: Tuple[int, ...], width: int) -> np.ndarray:
    """Born-rule distribution over outcomes; bit k of the outcome is wire measured[k]."""
    probs = state.real**2
    if np.iscomplexobj(state):
        probs += state.imag**2
    probs = probs.reshape([2] * width)
    keep = [_axis(width, q) for q in measured]
    other = tuple(a for a in range(width) if a not in set(keep))
    if other:
        probs = probs.sum(axis=other)
    if not measured:
        return probs.reshape(1)
    sorted_keep = sorted(keep)
    pos = {a: i for i, a in enumerate(sorted_keep)}
    perm = [pos[_axis(width, q)] for q in reversed(measured)]
    return probs.transpose(perm).reshape(-1)


def statevector_distribution(circuit: Circuit) -> np.ndarray:
    """Outcome distribution of the measured wires from the final statevector."""
    state = run_statevector(circuit)
    return measured_marginal(state, circuit.measured, circuit.width)
