"""Synthetic hardware noise: depolarizing gates, crosstalk, biased readout.

The model, per Monte-Carlo shot:

* every gate independently depolarizes its operand wire(s) with probability
  eps1 (one-qubit) or eps2 (two-qubit), realized as a uniform Pauli injection;
* every two-qubit gate additionally depolarizes each *other* wire with
  probability ``crosstalk`` (drive-line disturbance), which is what makes the
  error rate climb as circuits grow even though the decisive wires stay put;
* each measured bit finally flips with a per-qubit asymmetric probability
  p01 (reading a 0 as 1) or p10 (reading a 1 as 0); p10 > p01 gives the
  ground-state bias.

Because H/X/CNOT are Clifford, an injected Pauli propagates to the end of the
circuit as a Pauli, and only its X component can change measured outcomes.
Each shot therefore samples the noiseless outcome distribution XOR-shifted by
the propagated fault mask, which the sampler exploits instead of simulating
each trajectory. The noiseless outcomes are uniform on the circuit's affine
support (`statevector.output_support`), so a shot's noiseless outcome is
support[floor(u * K)] for one uniform u and the support's size K, a power of
two: the same outcome a binary search of u in the exact CDF would give. Width
is not capped, but the support is materialised (at most 2^24 outcomes).

The masks are accumulated in batch, as in a Pauli-frame simulator (Gidney,
arXiv:2103.02202): a (gate, wire, Pauli) -> mask table is built once per
circuit, and all fault events of a source are looked up in it and XORed into
their shots with one `np.bitwise_xor.at`. The table is read off the same
pull-back that gives the support (`statevector.pauli_frames`): a Pauli flips
outcome bit k iff it anticommutes with Z on wire measured[k] pulled back to
where it is injected, so this module knows no gate kinds. The random draws
keep fixed shapes and a fixed order, and XOR accumulation is order-free, so a
seed's outcomes do not depend on how the masks are accumulated.

Each (shots, cols) field of uniforms, a fault source's or a single stream
like the readout flips of one bit, is drawn in blocks of whole rows into one
reused buffer of DRAW_BLOCK doubles (`_split_field`), and a fault field
keeps only its hits. Blocks of a row-major field are the same doubles in the
same order, so the outcomes and the generator's final state are those of one
(shots, cols) draw, while the transient memory is O(shots + DRAW_BLOCK)
rather than O(shots x gates). A field of SPLIT_FIELD doubles or more is
drawn in two halves on two threads, the second from a generator advanced
past the first: the same doubles, and the same final generator state.

Independent calls, such as the smoothing table's, are drawn in two halves
(`sample_noisy_batch`), even jobs on the calling thread and odd ones on a
helper that `_both` starts, joins and re-raises, as for a field; each thread
counts a draw before its next. A job's generators are seeded from its own
seed alone, so it draws the same outcomes on either thread. A single
8,192-shot call splits no field and starts no thread.
"""

from __future__ import annotations

import importlib.resources
import json
import numbers
import threading
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .circuits import Circuit
from .multiset import MeasurementMultiset, count_outcomes
from .statevector import frames_and_support

# Doubles per block of uniforms (512 KiB), and the fewest doubles of a field
# drawn in two halves on two threads; see `_split_field`.
DRAW_BLOCK = 1 << 16
SPLIT_FIELD = 1 << 18


@dataclass(frozen=True)
class NoiseParams:
    """Dimensionless error probabilities; `readout[q] = (p01, p10)` per qubit."""

    eps1: float = 0.0
    eps2: float = 0.0
    crosstalk: float = 0.0
    readout: Tuple[Tuple[float, float], ...] = ()
    default_p01: float = 0.0
    default_p10: float = 0.0

    def __post_init__(self) -> None:
        for pair in self.readout:
            if len(pair) != 2:
                raise ValueError(f"malformed readout entry {list(pair)}: not a (p01, p10) pair")
        rates = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "readout"]
        rates += [(f"readout[{q}][{j}]", p) for q, pair in enumerate(self.readout)
                  for j, p in enumerate(pair)]
        for name, p in rates:
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValueError(f"noise rate {name} is {p!r}, not a number")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")

    @classmethod
    def from_dict(cls, d: dict) -> "NoiseParams":
        """Parameters from their JSON object; absent rates are 0, eps2
        defaults to ten times eps1 once the given rates are checked, and a key
        that names no parameter is an error (a misspelt rate would otherwise
        read as 0)."""
        if not isinstance(d, dict):
            raise ValueError(f"malformed noise parameters: a {type(d).__name__}, not a JSON object")
        names = [f.name for f in fields(cls)]
        unknown = [key for key in d if key not in names]
        if unknown:
            raise ValueError(f"unknown noise parameters {unknown}; the known ones are {names}")
        try:
            readout = tuple(map(tuple, d.get("readout", ())))
        except TypeError as exc:
            raise ValueError(f"malformed noise parameters: {exc}") from exc
        params = cls(**{**d, "readout": readout})
        return params if "eps2" in d else replace(params, eps2=10.0 * params.eps1)

    @classmethod
    def from_json(cls, path: str | Path) -> "NoiseParams":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from exc

    def readout_for(self, label) -> Tuple[float, float]:
        if isinstance(label, int) and 0 <= label < len(self.readout):
            return self.readout[label]
        return (self.default_p01, self.default_p10)


def default_noise() -> NoiseParams:
    """Calibration shipped with the package (see data/default_noise.json)."""
    return NoiseParams.from_json(importlib.resources.files("noisysimon.data") / "default_noise.json")


def _both(first, second) -> tuple:
    """(first(), second()), `second` run on a helper thread; the helper is
    joined before either's error is re-raised on the calling thread."""
    out, errors = [], []

    def helper():
        try:
            out.append(second())
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        low = first()
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return low, out[0]


def _split_field(rng: np.random.Generator, rows: int, cols: int, buf: np.ndarray, step) -> list:
    """[step(start, u)] over the blocks of `rng.random((rows, cols))` in row
    order, u flat and holding as many whole rows from row `start` as fit in
    its buffer, at least one; `buf` holds max(DRAW_BLOCK, 2 * cols) doubles.
    A large field's rows [mid, rows) are drawn on a helper thread into the
    second half of `buf`, from a copy of `rng` advanced past rows [0, mid);
    `rng` takes its end state, bar the `integers` half-word `advance` clears."""
    def run(g, lo, hi, buf):
        per = max(1, buf.size // cols)
        return [step(start, g.random(out=buf[: min(per, hi - start) * cols]))
                for start in range(lo, hi, per)]

    if rows * cols < SPLIT_FIELD:
        return run(rng, 0, rows, buf)
    mid, half = rows // 2, buf.size // 2
    state, twin = rng.bit_generator.state, type(rng.bit_generator)()
    twin.state = state
    low, high = _both(
        lambda: run(rng, 0, mid, buf[:half]),
        lambda: run(np.random.Generator(twin.advance(mid * cols)), mid, rows, buf[half:]))
    rng.bit_generator.state = {**twin.state, "has_uint32": state["has_uint32"],
                               "uinteger": state["uinteger"]}
    return low + high


def _hits(rng: np.random.Generator, shots: int, cols: int, p, buf: np.ndarray) -> np.ndarray:
    """Flat indices (shot * cols + col) of the uniforms below `p` (a scalar
    or one rate per column) in the (shots, cols) field of `_split_field`."""
    if cols == 0:
        return np.zeros(0, dtype=np.intp)
    return np.concatenate(_split_field(
        rng, shots, cols, buf,
        lambda start, u: np.flatnonzero(u.reshape(-1, cols) < p) + start * cols))


def _sample_chunk(
    circuit: Circuit,
    noise: NoiseParams,
    shots: int,
    rng: np.random.Generator,
    frames: np.ndarray,
    support: np.ndarray,
) -> np.ndarray:
    """`shots` outcomes; `frames, support` are `frames_and_support(circuit)`."""
    gates = circuit.gates
    width = circuit.width
    measured = circuit.measured

    # Per-shot fault masks over the outcome bits (bit k is wire measured[k]).
    masks = np.zeros(shots, dtype=np.int64)
    buf = np.empty(max(DRAW_BLOCK, 2 * len(gates), 2 * width))
    if gates and (noise.eps1 > 0 or noise.eps2 > 0 or noise.crosstalk > 0):
        # table[g, w, p]: the outcome bits Pauli p on wire w right after gate
        # g flips (I none, X those of z[w], Y those of x[w] ^ z[w], Z x[w])
        x, z = frames[:, 0], frames[:, 1]
        table = np.stack([np.zeros_like(x), z, x ^ z, x], axis=-1)
        err = np.array([noise.eps2 if g.arity == 2 else noise.eps1 for g in gates])
        shot_idx, gate_idx = np.divmod(_hits(rng, shots, len(gates), err, buf), len(gates))
        if shot_idx.size:
            codes = rng.integers(0, 4, size=(shot_idx.size, 2))
            # qubits[0] is a CNOT's control; for a one-qubit gate it is the
            # target again, and the second Pauli is set to I (code 0)
            target, control, arity = np.array([(g.target, g.qubits[0], g.arity) for g in gates]).T
            codes[:, 1] *= arity[gate_idx] == 2
            m = table[gate_idx, target[gate_idx], codes[:, 0]]
            m ^= table[gate_idx, control[gate_idx], codes[:, 1]]
            np.bitwise_xor.at(masks, shot_idx, m)
        if noise.crosstalk > 0:
            for gi, g in enumerate(gates):
                if g.arity != 2:
                    continue
                others = np.array([w for w in range(width) if w not in g.qubits], dtype=np.intp)
                hits = _hits(rng, shots, others.size, noise.crosstalk, buf)
                if not hits.size:
                    continue
                s_idx, w_idx = np.divmod(hits, others.size)
                ct_codes = rng.integers(0, 4, size=s_idx.size)
                np.bitwise_xor.at(masks, s_idx, table[gi, others[w_idx], ct_codes])

    # The noiseless outcomes are XORed into the masks in place, block by
    # block. u * K is exact (K is a power of two), so the index is floor(u * K).
    outcomes = masks

    def add_noiseless(start, u):
        u *= support.size
        outcomes[start : start + u.size] ^= support[u.astype(np.intp)]
    _split_field(rng, shots, 1, buf, add_noiseless)

    # Asymmetric readout flips, one stream per outcome bit, drawn whatever the
    # rates so that the stream layout does not depend on them.
    for k, q in enumerate(measured):
        flip_prob = np.array(noise.readout_for(circuit.label_of(q)))  # (p01, p10)

        def flip(start, u):
            block = outcomes[start : start + u.size]
            block[u < flip_prob[(block >> k) & 1]] ^= 1 << k
        _split_field(rng, shots, 1, buf, flip)
    return outcomes


def _draw(circuit: Circuit, seed: int, noise: NoiseParams, shots: int) -> MeasurementMultiset:
    """`sample_noisy`'s multiset, drawn from one generator seeded by (seed, 0)
    and counted by the thread that draws it."""
    rng = np.random.default_rng([int(seed), 0])
    outcomes = _sample_chunk(circuit, noise, shots, rng, *frames_and_support(circuit))
    return MeasurementMultiset(len(circuit.measured), count_outcomes(outcomes))


def sample_noisy_batch(jobs: Sequence[Tuple[Circuit, int]], noise: NoiseParams,
                       shots: int) -> List[MeasurementMultiset]:
    """[sample_noisy(circuit, noise, shots, seed) for circuit, seed in jobs],
    in two halves: the calling thread draws jobs 0, 2, 4, ... and one helper
    thread jobs 1, 3, 5, ..., each counting its own draws. A failed draw
    stops the other half before its next draw. A single job starts no thread."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if len(jobs) < 2:
        return [_draw(*job, noise, shots) for job in jobs]
    failed = []

    def half(part):
        try:
            return [_draw(*job, noise, shots) for job in part if not failed]
        except BaseException:
            failed.append(True)  # the other half starts no further draw
            raise

    out = [None] * len(jobs)
    out[::2], out[1::2] = _both(lambda: half(jobs[::2]), lambda: half(jobs[1::2]))
    return out


def sample_noisy(circuit: Circuit, noise: NoiseParams, shots: int,
                 seed: int) -> MeasurementMultiset:
    """Monte-Carlo sampling of the circuit under the synthetic noise model,
    deterministic for each seed."""
    return sample_noisy_batch([(circuit, seed)], noise, shots)[0]
