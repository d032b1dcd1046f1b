"""Post-processing that reshapes biased measurements toward the two-level model.

Three techniques:

* Permutation: spread the shots over many minimum-norm configurations so
  per-qubit quality differences average out; the circuit norm (and hence the
  error rate) is preserved.
* Double-Flip: rerun with an X appended to every measured wire, shift the
  outcomes by the all-ones vector, and pool with the plain run; inverts the
  ground-state readout bias at the price of n extra gates.
* Hamming: purely classical - pool the multiset with its shift by the
  highest-weight v orthogonal to the period, which preserves orthogonality
  (hence the error-rate estimate) exactly.

Both classical moves are `MeasurementMultiset.shifted`, the translate
{q ^ v} of a multiset.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .circuits import Circuit, append_measurement_flips
from .gf2 import BitVec
from .multiset import MeasurementMultiset, merge_all
from .noise import NoiseParams, sample_noisy_batch
from .simon import SimonFunction
from .transpile import (
    Configuration,
    TopologyGraph,
    circuit_norm,
    search_min_configuration,
)


def choose_hamming_vector(s: BitVec) -> BitVec:
    """The highest-weight vector orthogonal to s: all-ones if s has even
    weight, otherwise all-ones without the lowest set bit of s."""
    ones = (1 << s.n) - 1
    return BitVec(s.n, ones ^ (s.value & -s.value) if s.value.bit_count() & 1 else ones)


def hamming_smooth(m: MeasurementMultiset, v: BitVec) -> MeasurementMultiset:
    """Pool m with {q ^ v : q in m}; the total exactly doubles."""
    if v.n != m.n:
        raise ValueError(f"shift length {v.n} != outcome length {m.n}")
    return m.merge(m.shifted(v.value))


def double_flip(
    circuit: Circuit,
    noise: NoiseParams,
    shots: int,
    seed: int,
) -> MeasurementMultiset:
    """Pool a plain run of the compiled circuit with a flipped-readout run
    (outcomes re-complemented), deterministic for each seed."""
    return double_flip_each([circuit], noise, shots, [seed])[0]


def double_flip_each(circuits: Sequence[Circuit], noise: NoiseParams, shots: int,
                     seeds: Sequence[int]) -> List[MeasurementMultiset]:
    """[double_flip(c, noise, shots, seed) for c, seed in zip(circuits, seeds)],
    the plain and flipped runs of all circuits drawn in one batch."""
    if len(circuits) != len(seeds):
        raise ValueError(f"{len(circuits)} circuits but {len(seeds)} seeds")
    jobs = []
    for c, seed in zip(circuits, seeds):
        jobs += [(c, seed), (append_measurement_flips(c), seed + 1)]
    runs = iter(sample_noisy_batch(jobs, noise, shots))  # plain, flipped, plain, ...
    return [plain.merge(refl.shifted((1 << len(c.measured)) - 1))
            for c, plain, refl in zip(circuits, runs, runs)]


def permutation_configurations(
    f: SimonFunction,
    graph: TopologyGraph,
    count: int,
    rng: np.random.Generator,
    base: Configuration,
) -> List[Configuration]:
    """Norm-preserving reshuffles of the minimum-norm configuration `base`.

    Both moves come from the period s. When s has exactly two set bits, the
    circuit treats their x wires alike, and each draw flips a coin to swap
    them. Each draw then applies a random permutation to the (x_j, y_j) pairs
    with s_j = 0, which the circuit also treats alike, relabeling which
    logical pair sits on which physical pair of qubits. `graph` is not read:
    a relabelling of `base` keeps its wires on the same device edges.
    """
    assign = base.as_dict()
    ones = [j for j in range(f.n) if f.s[j]]
    idx = [j for j in range(f.n) if not f.s[j]]
    out = []
    for _ in range(count):
        new = dict(assign)
        if len(ones) == 2 and rng.integers(0, 2) == 1:
            a, b = ones
            new[f"x{a}"], new[f"x{b}"] = assign[f"x{b}"], assign[f"x{a}"]
        for j, pj in zip(idx, rng.permutation(idx)):
            new[f"x{j}"] = assign[f"x{int(pj)}"]
            new[f"y{j}"] = assign[f"y{int(pj)}"]
        out.append(Configuration.from_dict(new))
    return out


def permutation_smooth(
    f: SimonFunction,
    graph: TopologyGraph,
    circuits: Sequence[Circuit],
    shots_per_config: int,
    noise: NoiseParams,
    seed: int,
) -> MeasurementMultiset:
    """Run every compiled configuration and pool the (logically ordered)
    outcomes, deterministic for each seed.

    Rejects circuits that do not attain the minimal circuit norm, since those
    would change the error rate they are supposed to preserve.
    """
    _, min_cn = search_min_configuration(f, graph)
    for k, circ in enumerate(circuits):
        cn = circuit_norm(circ)
        if cn.value != min_cn.value:
            raise ValueError(
                f"configuration {k} has norm {cn.value}, not the minimum {min_cn.value}"
            )
    jobs = [(c, seed + k) for k, c in enumerate(circuits)]
    return merge_all(sample_noisy_batch(jobs, noise, shots_per_config))
