"""Exact outcome distributions of H/X/CNOT circuits from their affine support.

H, X and CNOT are Clifford gates, so a circuit of them started from |0...0>
prepares a stabilizer state, and the outcomes of its m measured wires are
uniform on an affine subspace c + V of F_2^m. The support is found in the
Heisenberg picture (Aaronson-Gottesman, quant-ph/0406196): Z on each
measured wire is pulled back through the gates to a signed Pauli, and a
product of rows with no X part left is a Z-string with expectation +-1 on
|0...0>, i.e. a parity <u, outcome> fixed by its sign. Those u span V's
orthogonal complement and their signs fix c. This takes a few int operations
per gate instead of 2^width amplitudes.

Outcome bit k is the value of wire measured[k], as everywhere else.
"""

from __future__ import annotations

import numpy as np

from .circuits import CNOT, Circuit, H, X
from .gf2 import MAX_DENSE_BITS, CapacityError, check_dense, solve_ints


def pauli_frames(circuit: Circuit):
    """Z on each measured wire conjugated back through the gates.

    Row k is (-1)^sign_k X^x_k Z^z_k, kept bit-parallel while the gates are
    walked in reverse: x[w] and z[w] hold bit k when row k has an X / Z on
    wire w, and bit k of `sign` is row k's sign. Returns (frames, rows).
    frames[g] = (x, z), an int64 array of shape (2, width), is taken right
    after gate g: a Pauli injected there on wire w flips outcome bit k iff it
    anticommutes with row k, so X flips the bits of z[w], Z those of x[w] and
    Y both. rows are the rows at the start of the circuit as (x part, z part,
    sign), the parts as wire bitmasks.
    """
    x = [0] * circuit.width
    z = [0] * circuit.width
    for k, q in enumerate(circuit.measured):
        z[q] |= 1 << k
    sign = 0
    frames = []
    for g in reversed(circuit.gates):
        frames.append(x + z)
        a = g.target
        if g.kind == H:
            sign ^= x[a] & z[a]
            x[a], z[a] = z[a], x[a]
        elif g.kind == X:
            sign ^= z[a]
        elif g.kind == CNOT:
            x[a] ^= x[g.control]
            z[g.control] ^= z[a]
    frames = np.array(frames[::-1], dtype=np.int64).reshape(len(frames), 2, circuit.width)
    rows = []
    for k in range(len(circuit.measured)):
        xr = sum(((x[w] >> k) & 1) << w for w in range(circuit.width))
        zr = sum(((z[w] >> k) & 1) << w for w in range(circuit.width))
        rows.append((xr, zr, (sign >> k) & 1))
    return frames, rows


def output_support(circuit: Circuit) -> np.ndarray:
    """The outcomes of the measured wires with nonzero probability, ascending.

    Each is equally likely, and their number is a power of two, at most
    2^MAX_DENSE_BITS; CapacityError is raised for larger supports.
    """
    return frames_and_support(circuit)[1]


def frames_and_support(circuit: Circuit):
    """(`pauli_frames(circuit)[0]`, `output_support(circuit)`) from one walk."""
    frames, rows = pauli_frames(circuit)
    m = len(circuit.measured)
    # Eliminate the X parts. Each row also carries u, the set of measured
    # wires whose Z-product it is, and multiplies as
    # X^x1 Z^z1 . X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2).
    pivots = []  # (lowest X bit, row)
    fixed = []  # u | sign << m for every u whose product has no X part
    for k, (xr, zr, s) in enumerate(rows):
        u = 1 << k
        for low, (px, pz, ps, pu) in pivots:
            if xr & low:
                s ^= ps ^ ((pz & xr).bit_count() & 1)
                xr, zr, u = xr ^ px, zr ^ pz, u ^ pu
        if xr:
            pivots.append((xr & -xr, (xr, zr, s, u)))
        else:
            fixed.append(u | s << m)
    # <u, outcome> = sign for each fixed u: the support is c + span(free).
    c, free = solve_ints(fixed, m)
    if len(free) > MAX_DENSE_BITS:
        raise CapacityError(
            f"{len(free)} free outcome bits exceed the {MAX_DENSE_BITS}-bit support limit"
        )
    support = np.array([c], dtype=np.int64)
    for v in free:
        support = np.concatenate([support, support ^ v])
    support.sort()
    return frames, support


def exact_output_distribution(circuit: Circuit) -> np.ndarray:
    """Exact outcome distribution of the measured wires: 1/K on the K
    outcomes of the support, 0 elsewhere (a dense array of 2^m entries)."""
    check_dense(len(circuit.measured))
    support = output_support(circuit)
    dist = np.zeros(1 << len(circuit.measured))
    dist[support] = 1.0 / support.size
    return dist


def circuits_equivalent(a: Circuit, b: Circuit, tol: float = 1e-9) -> bool:
    """True iff the measured-outcome distributions are equal, i.e. (both being
    uniform on their supports) iff the supports are; `tol` is not used."""
    if len(a.measured) != len(b.measured):
        raise ValueError(
            f"incompatible measurement arity: {len(a.measured)} vs {len(b.measured)}"
        )
    return bool(np.array_equal(output_support(a), output_support(b)))
