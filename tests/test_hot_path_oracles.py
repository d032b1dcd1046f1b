"""The hot paths against plain reference implementations kept here.

`reference_sample_chunk` is the sampler as a loop over single fault events,
with the fault masks propagated as Python ints; the library's table-driven
sampler must return the same outcomes and leave its generator in the same
state, also with its draw block shrunk below a row and with every field
drawn in two halves on two threads. `reference_embeddings` is the placement
search without the forward check; the library's search must emit the same
embeddings in the same order, and networkx's VF2 matcher must count as many.
`reference_echelon` and `reference_solve_full_rank` are the eliminations with
a separate back-substitution pass; the library's forward form must find the
same pivots and span, `solve_ints` and `solve_unique` the same solution (and
none for an inconsistent system), and the nullspace must span exactly the
brute-force nullspace. `reference_free_solution` and `reference_nullspace`
pick, from the brute-force solution set, the vectors that `solve_ints` and
`nullspace_ints` must return exactly (free coordinates 0, or one free
coordinate set, in ascending order), since `lsn.sample_many` consumes the
basis in order.
`reference_exact_distribution` is the complex-amplitude statevector (moved
axes, complex128 from |0...0>); the real-valued kernels of the statevector
oracle (`statevector_oracle.py`) must give byte-identical outcome
distributions, and the library's distribution, taken from the affine
support, must be exactly 1/K on the oracle's support of K outcomes and 0
elsewhere. The sampler reference draws its noiseless outcomes by a binary
search of the oracle's float CDF, against the library's draw from the support.
`reference_cancel_adjacent` is the pair cancellation with a rescan per gate;
the library's one-pass form must return the same list. `route` and
`peephole_optimize` must keep the oracle's distribution of random circuits,
and the rewriting must not raise the norm.
`classical_period_per_distance` is the optimal classical period finder with
one score update per new distance; the library's batched updates must give
the same ledgers, period and cost. `classical_period_reference` restates it
as a full rescan per round (compared in `test_solvers.py`).
`reference_draws` draws each index set of the pooled solvers with its own
`integers` call; `_draws`, rewound when a solve stops mid-block, must give
the same sets and failures and leave the generator in the same state,
whether the solve succeeds, reaches `max_loops`, exhausts its pool, or its
verifier or a drawn sample raises. `reference_majority_verifier` takes the
held-out mismatch rate as a numpy mean; the bitsliced verifier must make the
same decision for every candidate, also at a mismatch count exactly at the
threshold.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

import math
import sys
import threading
from contextlib import closing
from typing import Callable, List, Optional, Tuple

from noisysimon import noise as noise_module
from noisysimon.circuits import (
    CNOT,
    Circuit,
    Gate,
    H,
    X,
    append_measurement_flips,
    build_simon_circuit,
)
from noisysimon.gf2 import (BitVec, DimensionError, _echelon, nullspace_ints, parity, solve_ints,
                            solve_unique)
from noisysimon.noise import NoiseParams, _sample_chunk, _split_field
from noisysimon.reductions import LpnSample, SolveFailure
from noisysimon.simon import SimonFunction
from noisysimon.smoothing import permutation_configurations
from noisysimon.solvers import (
    CostReport,
    QueryLedger,
    SamplePool,
    _draws,
    _schedule,
    classical_period,
    majority_verifier,
    pooled_gauss_lpn,
    pooled_lsn,
)
from noisysimon.statevector import exact_output_distribution, frames_and_support, output_support
from noisysimon.transpile import (
    Configuration,
    TopologyGraph,
    _cancel_adjacent,
    _embeddings,
    _interaction_edges,
    _label_key,
    circuit_norm,
    compile_simon_circuit,
    peephole_optimize,
    route,
    search_min_configuration,
)
from statevector_oracle import statevector_distribution

# ---------------------------------------------------------------------------
# Sampler


def reference_fault_masks(circuit):
    """fx[g][w] / fzx[g][w]: end-of-circuit X-mask of an X / Z injected on
    wire w right after gate g."""
    fx = [1 << w for w in range(circuit.width)]
    fzx = [0] * circuit.width
    fx_slots, fzx_slots = [], []
    for g in reversed(circuit.gates):
        fx_slots.append(list(fx))
        fzx_slots.append(list(fzx))
        if g.kind == H:
            fx[g.target], fzx[g.target] = fzx[g.target], fx[g.target]
        elif g.kind == CNOT:
            fx[g.control] ^= fx[g.target]
            fzx[g.target] ^= fzx[g.control]
    fx_slots.reverse()
    fzx_slots.reverse()
    return fx_slots, fzx_slots


def reference_mask(code, fx, fzx):
    return {0: 0, 1: fx, 2: fx ^ fzx, 3: fzx}[code]


def reference_sample_chunk(circuit, noise, shots, rng):
    gates, width, measured = circuit.gates, circuit.width, circuit.measured
    cdf = np.cumsum(statevector_distribution(circuit))
    cdf[-1] = 1.0
    masks = np.zeros(shots, dtype=np.int64)
    if gates and (noise.eps1 > 0 or noise.eps2 > 0 or noise.crosstalk > 0):
        fx, fzx = reference_fault_masks(circuit)
        err = np.array([noise.eps2 if g.arity == 2 else noise.eps1 for g in gates])
        hit = rng.random((shots, len(gates))) < err
        shot_idx, gate_idx = np.nonzero(hit)
        if shot_idx.size:
            codes = rng.integers(0, 4, size=(shot_idx.size, 2))
            for k in range(shot_idx.size):
                s, gi = int(shot_idx[k]), int(gate_idx[k])
                g = gates[gi]
                m = reference_mask(int(codes[k, 0]), fx[gi][g.target], fzx[gi][g.target])
                if g.arity == 2:
                    m ^= reference_mask(int(codes[k, 1]), fx[gi][g.control], fzx[gi][g.control])
                masks[s] ^= m
        if noise.crosstalk > 0:
            for gi, g in enumerate(gates):
                if g.arity != 2:
                    continue
                others = [w for w in range(width) if w not in g.qubits]
                if not others:
                    continue
                hit_ct = rng.random((shots, len(others))) < noise.crosstalk
                s_idx, w_idx = np.nonzero(hit_ct)
                if not s_idx.size:
                    continue
                ct_codes = rng.integers(0, 4, size=s_idx.size)
                for k in range(s_idx.size):
                    w = others[int(w_idx[k])]
                    m = reference_mask(int(ct_codes[k]), fx[gi][w], fzx[gi][w])
                    masks[int(s_idx[k])] ^= m
    out_masks = np.zeros(shots, dtype=np.int64)
    for k, q in enumerate(measured):
        out_masks |= ((masks >> q) & 1) << k
    outcomes = np.searchsorted(cdf, rng.random(shots), side="right").astype(np.int64)
    outcomes ^= out_masks
    for k, q in enumerate(measured):
        p01, p10 = noise.readout_for(circuit.label_of(q))
        if p01 == 0.0 and p10 == 0.0:
            rng.random(shots)
            continue
        bits = (outcomes >> k) & 1
        flips = rng.random(shots) < np.where(bits == 1, p10, p01)
        outcomes ^= flips.astype(np.int64) << k
    return outcomes


@st.composite
def circuits(draw, max_width=8):
    width = draw(st.integers(1, max_width))
    wire = st.integers(0, width - 1)
    one_qubit = st.builds(Gate, st.sampled_from([H, X]), wire)
    pairs = st.tuples(wire, wire).filter(lambda p: p[0] != p[1])
    gate = one_qubit if width == 1 else st.one_of(
        one_qubit, pairs.map(lambda p: Gate(CNOT, p[1], control=p[0]))
    )
    gates = draw(st.lists(gate, max_size=24))
    measured = draw(st.permutations(range(width)))[: draw(st.integers(1, width))]
    return Circuit(width, tuple(gates), tuple(measured))


rate = st.sampled_from([0.0, 0.0, 0.01, 0.2, 1.0])
readout_pair = st.one_of(st.just((0.0, 0.0)), st.tuples(rate, rate))
noise_params = st.builds(
    NoiseParams,
    eps1=rate,
    eps2=rate,
    crosstalk=rate,
    readout=st.lists(readout_pair, max_size=8).map(tuple),
    default_p01=rate,
    default_p10=rate,
)


def sample_both(circuit, noise, shots, seed, **patches):
    """(fast, slow) sampler outcomes and generator states at one seed; the
    fast sampler runs with the noise module's constants in `patches`."""
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(noise_module, name, value)
        fast = _sample_chunk(circuit, noise, shots, fast_rng, *frames_and_support(circuit))
    slow = reference_sample_chunk(circuit, noise, shots, slow_rng)
    return (fast, fast_rng.bit_generator.state), (slow, slow_rng.bit_generator.state)


@settings(max_examples=300, deadline=None)
@given(circuits(), noise_params, st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_sampler_matches_per_event_reference(circuit, noise, shots, seed):
    (fast, fast_state), (slow, slow_state) = sample_both(circuit, noise, shots, seed)
    assert fast.dtype == slow.dtype and np.array_equal(fast, slow)
    assert fast_state == slow_state


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(circuits(max_width=2), circuits()),
    noise_params,
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.integers(1, 100),
)
def test_sampler_matches_reference_across_draw_blocks(circuit, noise, shots, seed, block):
    """Blocks of uniforms smaller than a row, and ones that do not divide
    the shots, draw the same stream as one (shots, cols) field."""
    (fast, fast_state), (slow, slow_state) = sample_both(
        circuit, noise, shots, seed, DRAW_BLOCK=block)
    assert fast.dtype == slow.dtype and np.array_equal(fast, slow)
    assert fast_state == slow_state


# a width-2 CNOT leaves its crosstalk field with no columns
@example(Circuit(2, (Gate(H, 0), Gate(CNOT, 1, control=0)), (0, 1)),
         NoiseParams(eps1=1.0, eps2=1.0, crosstalk=1.0, default_p01=1.0), 5, 0, 1, 1)
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(circuits(max_width=2), circuits()),
    noise_params,
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
    st.integers(1, 400),
    st.integers(1, 100),
)
def test_sampler_matches_reference_across_split_fields(circuit, noise, shots, seed, split, block):
    """Fields split into two halves drawn on two threads, down to one row
    per half and with odd row counts, draw the same stream as one field."""
    (fast, fast_state), (slow, slow_state) = sample_both(
        circuit, noise, shots, seed, SPLIT_FIELD=split, DRAW_BLOCK=block)
    assert fast.dtype == slow.dtype and np.array_equal(fast, slow)
    assert fast_state == slow_state


def test_split_field_starts_after_pending_half_word(compiled, noise, monkeypatch):
    """An odd number of crosstalk codes leaves half of a 64-bit draw pending
    for the next `integers` call; a split field keeps it pending."""
    pending = []
    split = noise_module._split_field

    def recording(rng, *args):
        pending.append(rng.bit_generator.state["has_uint32"])
        return split(rng, *args)

    monkeypatch.setattr(noise_module, "_split_field", recording)
    (fast, fast_state), (slow, slow_state) = sample_both(
        compiled[4][3], noise, 301, 3, SPLIT_FIELD=1)
    assert 1 in pending
    assert np.array_equal(fast, slow) and fast_state == slow_state


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 400), st.integers(1, 50),
       st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_split_field_draws_one_field(rows, cols, split, block, codes, seed):
    """The blocks are the doubles of one (rows, cols) draw in row order, and
    the generator ends in that draw's state, its pending half-word included."""
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    fast_rng.integers(0, 4, size=codes)
    slow_rng.integers(0, 4, size=codes)
    buf = np.empty(max(block, 2 * cols))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise_module, "SPLIT_FIELD", split)
        blocks = _split_field(fast_rng, rows, cols, buf, lambda start, u: (start, u.copy()))
    starts = [start for start, _ in blocks]
    assert starts == sorted(starts) and starts[0] == 0
    want = slow_rng.random((rows, cols)).ravel()
    assert np.array_equal(np.concatenate([u for _, u in blocks]), want)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    assert np.array_equal(fast_rng.integers(0, 4, size=5), slow_rng.integers(0, 4, size=5))


def test_sampler_split_at_real_threshold_matches_unsplit(compiled, noise):
    """One n=7 call of 2^18 shots, whose fields are split at SPLIT_FIELD,
    gives the outcomes and end state of the same call with no field split."""
    _, _, _, circ = compiled[7]
    runs = []
    for split in (noise_module.SPLIT_FIELD, math.inf):
        rng = np.random.default_rng(20260808)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(noise_module, "SPLIT_FIELD", split)
            out = _sample_chunk(circ, noise, 1 << 18, rng, *frames_and_support(circ))
        runs.append((out, rng.bit_generator.state))
    (split_out, split_state), (whole_out, whole_state) = runs
    assert np.array_equal(split_out, whole_out) and split_state == whole_state


# ---------------------------------------------------------------------------
# Exact distribution


_SQRT2_INV = 1.0 / math.sqrt(2.0)


def _axis(width, qubit):
    return width - 1 - qubit


def reference_apply_h(state, qubit, width):
    psi = np.moveaxis(state.reshape([2] * width), _axis(width, qubit), 0)
    out = np.empty_like(psi)
    out[0] = (psi[0] + psi[1]) * _SQRT2_INV
    out[1] = (psi[0] - psi[1]) * _SQRT2_INV
    return np.moveaxis(out, 0, _axis(width, qubit)).reshape(-1)


def reference_apply_x(state, qubit, width):
    psi = state.reshape([2] * width)
    return np.flip(psi, axis=_axis(width, qubit)).reshape(-1)


def reference_apply_cnot(state, control, target, width):
    psi = state.reshape([2] * width).copy()
    axc = _axis(width, control)
    axt = _axis(width, target)
    idx = [slice(None)] * width
    idx[axc] = 1
    sub = psi[tuple(idx)]
    flip_ax = axt - 1 if axt > axc else axt
    psi[tuple(idx)] = np.flip(sub, axis=flip_ax)
    return psi.reshape(-1)


def reference_measured_marginal(state, measured, width):
    probs = (state.real**2 + state.imag**2).reshape([2] * width)
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


def reference_exact_distribution(circuit):
    width = circuit.width
    state = np.zeros(1 << width, dtype=np.complex128)
    state[0] = 1.0
    for g in circuit.gates:
        if g.kind == H:
            state = reference_apply_h(state, g.target, width)
        elif g.kind == X:
            state = reference_apply_x(state, g.target, width)
        else:
            state = reference_apply_cnot(state, g.control, g.target, width)
    return reference_measured_marginal(state, circuit.measured, width)


def assert_uniform_on_oracle_support(circuit, oracle):
    """The library's distribution is exactly 1/K on the K outcomes the oracle
    gives nonzero probability (at least 1/2^m each) and exactly 0 elsewhere."""
    got = exact_output_distribution(circuit)
    support = np.flatnonzero(oracle > 0.5 / oracle.size)
    k = support.size
    assert k & (k - 1) == 0 and np.allclose(oracle[support], 1.0 / k, rtol=0, atol=1e-12)
    want = np.zeros(oracle.size)
    want[support] = 1.0 / k
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.array_equal(output_support(circuit), support)


@settings(max_examples=300, deadline=None)
@given(circuits(max_width=10))
def test_exact_distribution_matches_complex_reference(circuit):
    got = statevector_distribution(circuit)
    assert got.dtype == np.float64
    assert got.tobytes() == reference_exact_distribution(circuit).tobytes()


@settings(max_examples=300, deadline=None)
@given(circuits(max_width=10))
def test_exact_distribution_uniform_on_oracle_support(circuit):
    assert_uniform_on_oracle_support(circuit, statevector_distribution(circuit))


def test_exact_distribution_matches_complex_reference_on_compiled_circuits(graph):
    for n in range(2, 8):
        f = SimonFunction.default(n)
        base, _ = search_min_configuration(f, graph)
        configs = permutation_configurations(f, graph, 50, np.random.default_rng(n), base=base)
        for cfg in configs:
            circ = compile_simon_circuit(f, graph, cfg)
            for c in (circ, append_measurement_flips(circ)):
                oracle = statevector_distribution(c)
                assert oracle.tobytes() == reference_exact_distribution(c).tobytes()
                assert_uniform_on_oracle_support(c, oracle)


# ---------------------------------------------------------------------------
# Peephole rewriting and routing


def reference_cancel_adjacent(gates):
    """R1 + R2 to fixpoint, rescanning the rest of the list for every gate."""
    changed = True
    while changed:
        changed = False
        removed = [False] * len(gates)
        for i, g in enumerate(gates):
            if removed[i] or g.kind not in (CNOT, H):
                continue
            qs = set(g.qubits)
            for j in range(i + 1, len(gates)):
                if removed[j] or not (qs & set(gates[j].qubits)):
                    continue
                if gates[j] == g:
                    removed[i] = removed[j] = True
                    changed = True
                break
        if changed:
            gates = [g for k, g in enumerate(gates) if not removed[k]]
    return gates


@settings(max_examples=400, deadline=None)
@given(circuits(max_width=4))
def test_cancel_adjacent_matches_rescan_reference(circuit):
    # narrow circuits, so that gates meet and cancel often
    gates = list(circuit.gates)
    assert _cancel_adjacent(list(gates)) == reference_cancel_adjacent(gates)


@settings(max_examples=150, deadline=None)
@given(circuit=circuits(), data=st.data())
def test_route_and_peephole_preserve_distribution(graph, circuit, data):
    placement = data.draw(st.permutations(range(graph.n)))[: circuit.width]
    config = Configuration.from_dict(dict(enumerate(placement)))
    want = statevector_distribution(circuit)
    optimized = peephole_optimize(circuit)
    assert circuit_norm(optimized).value <= circuit_norm(circuit).value
    assert np.allclose(statevector_distribution(optimized), want, rtol=0, atol=1e-12)
    routed = route(circuit, graph, config)
    assert np.allclose(statevector_distribution(routed), want, rtol=0, atol=1e-12)
    compiled = peephole_optimize(routed)
    assert circuit_norm(compiled).value <= circuit_norm(routed).value
    assert np.allclose(statevector_distribution(compiled), want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Placement search


def reference_embeddings(nodes, edges, graph):
    """Plain backtracking over candidates in ascending vertex order."""
    adj = graph.adjacency()
    neighbors_of = {
        node: [other for e in edges for other in e if node in e and other != node]
        for node in nodes
    }
    assign, used = {}, set()

    def backtrack(k):
        if k == len(nodes):
            yield dict(assign)
            return
        node = nodes[k]
        placed = [assign[m] for m in neighbors_of[node] if m in assign]
        if placed:
            cands = set(adj[placed[0]])
            for p in placed[1:]:
                cands &= set(adj[p])
            candidates = sorted(cands - used)
        else:
            candidates = [v for v in range(graph.n) if v not in used]
        for v in candidates:
            assign[node] = v
            used.add(v)
            yield from backtrack(k + 1)
            used.discard(v)
            del assign[node]

    yield from backtrack(0)


def vf2_count(nodes, edges, graph):
    device = nx.Graph()
    device.add_nodes_from(range(graph.n))
    device.add_edges_from(graph.edges)
    pattern = nx.Graph()
    pattern.add_nodes_from(nodes)
    pattern.add_edges_from(edges)
    return sum(1 for _ in GraphMatcher(device, pattern).subgraph_monomorphisms_iter())


def simon_pattern(n):
    logical = peephole_optimize(build_simon_circuit(SimonFunction.default(n)))
    nodes = sorted((logical.label_of(w) for w in range(logical.width)), key=_label_key)
    return nodes, _interaction_edges(logical)


def test_embeddings_count_matches_vf2_on_device(graph):
    # n=5 has 452,448 embeddings; networkx needs about half a minute for them,
    # so the full count is checked up to n=4 and n=5 by its prefix below
    for n in range(2, 5):
        nodes, edges = simon_pattern(n)
        assert sum(1 for _ in _embeddings(nodes, edges, graph)) == vf2_count(nodes, edges, graph)


def test_embeddings_sequence_matches_unpruned_search_on_device(graph):
    # prefixes from n=5 on: n=5 alone has 452,448 embeddings
    for n, limit in ((2, None), (3, None), (4, None), (5, 20_000), (6, 20_000), (7, 5_000)):
        nodes, edges = simon_pattern(n)
        fast = list(itertools.islice(_embeddings(nodes, edges, graph), limit))
        slow = list(itertools.islice(reference_embeddings(nodes, edges, graph), limit))
        assert fast == slow and fast


def random_device(rng, low, high, density):
    n_dev = int(rng.integers(low, high))
    dev_edges = [e for e in itertools.combinations(range(n_dev), 2) if rng.random() < density]
    return TopologyGraph.from_edges(n_dev, dev_edges)


def assert_embeddings_match_references(nodes, edges, graph):
    fast = list(_embeddings(nodes, edges, graph))
    assert fast == list(reference_embeddings(nodes, edges, graph))
    assert len(fast) == vf2_count(nodes, edges, graph)


def test_embeddings_match_references_on_random_graphs():
    rng = np.random.default_rng(20260808)
    for _ in range(60):
        graph = random_device(rng, 3, 9, 0.45)
        k = int(rng.integers(1, min(graph.n, 5) + 1))
        nodes = [f"p{i}" for i in range(k)]
        edges = frozenset(
            (a, b) for a, b in itertools.combinations(nodes, 2) if rng.random() < 0.5
        )
        assert_embeddings_match_references(nodes, edges, graph)


def test_embeddings_match_references_with_competing_pendants():
    # Pendant nodes hung on the same placed nodes compete for the free
    # vertices around them; this is where distinct choices matter and a
    # per-node check is not enough.
    rng = np.random.default_rng(20260809)
    for _ in range(60):
        graph = random_device(rng, 5, 10, 0.35)
        k = int(rng.integers(3, min(graph.n, 7) + 1))
        hubs = int(rng.integers(1, 3))
        nodes = [f"p{i}" for i in range(k)]
        edges = {(nodes[0], nodes[1])} if hubs == 2 else set()
        for leaf in nodes[hubs:]:
            for hub in nodes[:hubs]:
                if hub == nodes[0] or rng.random() < 0.5:
                    edges.add((hub, leaf))
        assert_embeddings_match_references(nodes, frozenset(edges), graph)


# ---------------------------------------------------------------------------
# Elimination over F_2


def reference_echelon(values, n):
    """Row echelon basis with deterministic pivoting, lowest bit index first."""
    basis = []  # basis[k] has pivot at pivots[k]
    pivots = []
    for v in values:
        for piv, row in zip(pivots, basis):
            if (v >> piv) & 1:
                v ^= row
        if v:
            piv = (v & -v).bit_length() - 1
            # insert keeping pivots sorted ascending
            k = 0
            while k < len(pivots) and pivots[k] < piv:
                k += 1
            pivots.insert(k, piv)
            basis.insert(k, v)
    # back-substitute so each pivot column is cleared in the other rows
    for k in range(len(basis)):
        for j in range(len(basis)):
            if j != k and (basis[j] >> pivots[k]) & 1:
                basis[j] ^= basis[k]
    return basis


def span_of(rows):
    span = {0}
    for v in rows:
        span |= {u ^ v for u in span}
    return span


@st.composite
def row_sets(draw):
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))


@settings(max_examples=400, deadline=None)
@given(row_sets())
def test_echelon_and_nullspace_match_references(case):
    n, values = case
    rows, ref = _echelon(values, n), reference_echelon(values, n)
    pivots = [row & -row for row in rows]
    assert len(set(pivots)) == len(pivots)
    assert all(not row & bit for k, bit in enumerate(pivots) for row in rows[k + 1:])
    assert span_of(rows) == span_of(ref)
    assert set(pivots) == {row & -row for row in ref}
    null = nullspace_ints(values, n)
    span = span_of(null)
    assert len(span) == 1 << len(null)
    assert span == {
        x for x in range(1 << n) if all(bin(x & v).count("1") % 2 == 0 for v in values)
    }


def parity_int(v):
    return bin(v).count("1") % 2


def free_columns(values, n):
    """The columns, ascending, that carry no pivot of `reference_echelon`."""
    pivots = {(row & -row).bit_length() - 1 for row in reference_echelon(values, n)}
    return [j for j in range(n) if j not in pivots]


def reference_nullspace(values, n):
    """For each free column in ascending order, the one nullspace vector
    with that column set and the other free columns clear, by brute force."""
    free = sum(1 << j for j in free_columns(values, n))
    null = [x for x in range(1 << n) if all(not parity_int(x & v) for v in values)]
    return [next(x for x in null if x & free == 1 << j) for j in free_columns(values, n)]


def reference_free_solution(rows, labels, n):
    """The solution of <a_i, x> = b_i whose free coordinates are all 0, or
    None if there is none, by brute force."""
    free = sum(1 << j for j in free_columns(rows, n))
    sols = [x for x in range(1 << n) if not x & free
            and all(parity_int(a & x) == b for a, b in zip(rows, labels))]
    assert len(sols) <= 1
    return sols[0] if sols else None


@settings(max_examples=400, deadline=None)
@given(row_sets())
@example((3, [0b011]))
@example((4, [0b0110, 0b0110, 0]))
def test_nullspace_basis_is_pinned_in_value_and_order(case):
    n, values = case
    assert nullspace_ints(values, n) == reference_nullspace(values, n)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 1)), max_size=n + 3),
    st.sampled_from(["as drawn", "repeat with the other label", "label-only row"]),
)))
@example((3, [(0b011, 1), (0b110, 0)], "as drawn"))  # consistent, rank-deficient
@example((3, [(0b011, 1), (0b110, 0), (0b101, 0)], "as drawn"))  # rank 2, inconsistent
@example((2, [(0b01, 1), (0b10, 0), (0b11, 1), (0b01, 1)], "as drawn"))  # overdetermined
def test_solve_ints_solution_is_pinned(case):
    n, pairs, variant = case
    if variant == "repeat with the other label" and pairs:
        pairs = pairs + [(pairs[0][0], pairs[0][1] ^ 1)]
    packed = [a | b << n for a, b in pairs] + ([1 << n] if variant == "label-only row" else [])
    rows = [a for a, _ in pairs] + ([0] if variant == "label-only row" else [])
    labels = [b for _, b in pairs] + ([1] if variant == "label-only row" else [])
    x, null = solve_ints(packed, n)
    assert x == reference_free_solution(rows, labels, n)
    assert null == reference_nullspace(rows, n)


def reference_solve_full_rank(rows, labels, n):
    """Solve <a_i, s> = b_i over F_2; None if the a_i do not determine s."""
    aug = [(a << 1) | (b & 1) for a, b in zip(rows, labels)]
    # Gaussian elimination on the label-augmented representation.
    pivots = []
    reduced = []
    for v in aug:
        for piv, row in zip(pivots, reduced):
            if (v >> (piv + 1)) & 1:
                v ^= row
        if v >> 1:
            piv = ((v >> 1) & -(v >> 1)).bit_length() - 1
            k = 0
            while k < len(pivots) and pivots[k] < piv:
                k += 1
            pivots.insert(k, piv)
            reduced.insert(k, v)
    if len(pivots) != n:
        return None
    for k in range(len(reduced)):
        for j in range(len(reduced)):
            if j != k and (reduced[j] >> (pivots[k] + 1)) & 1:
                reduced[j] ^= reduced[k]
    s = 0
    for piv, row in zip(pivots, reduced):
        s |= (row & 1) << piv
    return s


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
), st.integers(0, 2**32 - 1))
def test_solve_full_rank_matches_reference(case, label_bits):
    n, rows = case
    labels = [(label_bits >> i) & 1 for i in range(n)]
    packed = [a | b << n for a, b in zip(rows, labels)]
    s, null = solve_ints(packed, n)
    full_rank = s is not None and not null
    assert (s if full_rank else None) == reference_solve_full_rank(rows, labels, n)
    # Repeating an equation with the other label, or adding 0 = 1, leaves
    # no solution.
    assert solve_ints(packed + [rows[0] | (labels[0] ^ 1) << n], n)[0] is None
    assert solve_ints(packed + [1 << n], n)[0] is None


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n + 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["as drawn", "zero row", "label-only row", "repeat with the other label"]),
)))
@example((0, [], 0, "as drawn"))
@example((0, [0], 1, "as drawn"))
@example((3, [0b001, 0b010, 0b100, 0], 0b101, "as drawn"))
def test_solve_unique_matches_full_rank_reference(case):
    n, rows, label_bits, variant = case
    labels = [(label_bits >> i) & 1 for i in range(len(rows))]
    if variant == "zero row":
        rows, labels = rows + [0], labels + [0]
    elif variant == "label-only row":
        rows, labels = rows + [0], labels + [1]
    elif variant == "repeat with the other label" and rows:
        rows, labels = rows + rows[:1], labels + [labels[0] ^ 1]
    packed = [a | b << n for a, b in zip(rows, labels)]
    s = reference_solve_full_rank(rows, labels, n)
    consistent = s is not None and all(parity_int(a & s) == b for a, b in zip(rows, labels))
    assert solve_unique(packed, n) == (s if consistent else None)
    x, null = solve_ints(packed, n)
    assert solve_unique(packed, n) == (x if not null else None)


# ---------------------------------------------------------------------------
# Optimal classical period finding


def classical_period_reference(f: SimonFunction) -> Tuple[BitVec, CostReport]:
    """Brute-force restatement of the same procedure (per-round full rescan);
    cross-checks the incremental bookkeeping for small n."""
    n = f.n
    size = 1 << n
    points = [0]
    values = {f.eval_int(0): 0}
    distances = {0}
    loops = 0
    while len(distances) < size - 1:
        best_x, best_score = None, -1
        for x in range(size):
            if x in points:
                continue
            score = sum(1 for d in distances if (x ^ d) not in points)
            if score > best_score:
                best_x, best_score = x, score
        x = best_x
        loops += 1
        fx = f.eval_int(x)
        if fx in values:
            return BitVec(n, x ^ values[fx]), CostReport(loops, loops + 1)
        values[fx] = x
        points.append(x)
        for p in points:
            distances.add(x ^ p)
    (s,) = set(range(size)) - distances
    return BitVec(n, s), CostReport(loops, loops + 1)


def classical_period_per_distance(
    f: SimonFunction,
    ledger_hook: Optional[Callable[[QueryLedger], None]] = None,
) -> Tuple[BitVec, CostReport]:
    """The incremental procedure with one score update per new distance."""
    n = f.n
    size = 1 << n
    c = np.zeros(size, dtype=np.int64)
    in_p = np.zeros(size, dtype=bool)
    in_d = np.zeros(size, dtype=bool)
    points: List[int] = []
    distances: List[int] = []
    seen = {}

    def add_point(x: int) -> None:
        in_p[x] = True
        if distances:
            c[np.bitwise_xor(np.array(distances, dtype=np.int64), x)] += 1
        points.append(x)

    def add_distance(d: int) -> None:
        in_d[d] = True
        if points:
            c[np.bitwise_xor(np.array(points, dtype=np.int64), d)] += 1
        distances.append(d)

    seen[f.eval_int(0)] = 0
    add_point(0)
    add_distance(0)
    loops = 0
    queries = 1
    while len(distances) < size - 1:
        scores = np.where(in_p, np.iinfo(np.int64).max, c)
        x = int(np.argmin(scores))
        loops += 1
        queries += 1
        fx = f.eval_int(x)
        if fx in seen:
            s = x ^ seen[fx]
            if ledger_hook is not None:
                ledger_hook(QueryLedger(tuple(points), tuple(distances)))
            return BitVec(n, s), CostReport(loops, queries)
        seen[fx] = x
        add_point(x)
        arr = np.bitwise_xor(np.array(points, dtype=np.int64), x)
        for d in arr.tolist():
            if not in_d[d]:
                add_distance(d)
        if ledger_hook is not None:
            ledger_hook(QueryLedger(tuple(points), tuple(distances)))
    s = int(np.flatnonzero(~in_d)[0])
    return BitVec(n, s), CostReport(loops, queries)


def test_classical_period_ledgers_match_per_distance_updates():
    """The cached schedules give the same ledgers whichever calls extend them:
    in ascending s, then from cleared caches in descending s."""
    for descending in (False, True):
        if descending:
            _schedule.cache_clear()
        for n in range(1, 7):
            periods = range(1, 1 << n)
            for sv in reversed(periods) if descending else periods:
                f = SimonFunction.from_period(BitVec(n, sv))
                fast, slow = [], []
                got = classical_period(f, ledger_hook=fast.append)
                want = classical_period_per_distance(f, ledger_hook=slow.append)
                assert got == want and fast == slow
                assert all(type(v) is int for led in fast for v in led.points + led.distances)


def test_one_call_extends_the_schedule_only_as_far_as_it_walks():
    _schedule.cache_clear()
    _, cost = classical_period(SimonFunction.from_period(BitVec(16, 3)))
    assert len(_schedule(16).order) == cost.loop_count + 1


def test_threads_extending_one_cold_schedule_match_the_oracle():
    """Four threads walk and extend a cold n=9 schedule at once, each in its
    own order of s after the deepest walks, switching every microsecond."""
    n = 9
    fs = {sv: SimonFunction.from_period(BitVec(n, sv)) for sv in range(1, 1 << n)}
    want = {sv: classical_period_per_distance(f) for sv, f in fs.items()}
    deepest = sorted(fs, key=lambda sv: -want[sv][1].loop_count)

    def walk(k, got, start):
        order = deepest[:8] + np.random.default_rng(k).permutation(deepest[8:]).tolist()
        start.wait()
        for sv in order:
            got[sv] = classical_period(fs[sv])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            _schedule.cache_clear()
            got, start = [{} for _ in range(4)], threading.Barrier(4)
            threads = [threading.Thread(target=walk, args=(4 * trial + k, got[k], start))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# Pooled solvers


def reference_draw_distinct(rng: np.random.Generator, pool_size: int, k: int) -> List[int]:
    while True:
        idx = rng.integers(0, pool_size, size=k).tolist()
        if len(set(idx)) == k:
            return idx


# The single draws end after 4 draws and the blocks after 12, 28 and 60.
BLOCK_EDGES = (1, 4, 5, 12, 13, 28, 29, 60, 61)

class Stop(Exception):
    pass


def reference_draws(rng, size, k, max_loops, what):
    """(loop, index set) for a pool of more than k samples, one call per
    draw, until max_loops draws or, in a pool of fewer than max_loops sets of
    k, until every set has been drawn; then the pooled solvers' failure."""
    total, seen = math.comb(size, k), set()
    for loop in range(1, max_loops + 1):
        idx = reference_draw_distinct(rng, size, k)
        yield loop, idx
        seen.add(tuple(sorted(idx)))
        if len(seen) == total < max_loops:
            raise SolveFailure(f"a pool of {size} allows {total} draws of {k}, all drawn "
                               f"within {loop} loops: no verified {what}")
    raise SolveFailure(f"no verified {what} within {max_loops} loops")


def draw_outcome(draws, stop):
    """The (loop, index set) pairs a draw generator gives until its caller
    stops at loop `stop`, then the failure text if it ended first."""
    got = []
    with closing(draws):
        try:
            for loop, idx in draws:
                got.append((loop, list(idx)))
                if loop == stop:
                    break
        except SolveFailure as exc:
            got.append(str(exc))
    return got


def assert_draws_match_one_call_per_draw(seed, size, k, max_loops, stop):
    """`_draws`, stopped at loop `stop` or ended by its own failure, gives the
    sets and failure of one call per draw and leaves the generator as it would."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = draw_outcome(_draws(rng, size, k, k, max_loops, "period"), stop)
    want = draw_outcome(reference_draws(ref, size, k, max_loops, "period"), stop)
    assert got == want, (max_loops, stop)
    assert rng.bit_generator.state == ref.bit_generator.state, (max_loops, stop)
    assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)
    return got


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.one_of(st.integers(1, 3), st.just(None)),
       st.one_of(st.sampled_from(BLOCK_EDGES), st.integers(0, 70)), st.integers(1, 70),
       st.integers(0, 2**32 - 1))
@example(k=7, extra=None, max_loops=1000, stop=61, seed=0)
@example(k=3, extra=1, max_loops=29, stop=29, seed=1)
def test_draws_match_one_call_per_draw(k, extra, max_loops, stop, seed):
    """However the caller stops, or max_loops or an exhausted pool of k +
    extra (else 16,384) samples ends the draws, they match one call per draw."""
    size = 16384 if extra is None else k + extra
    assert_draws_match_one_call_per_draw(seed, size, k, max_loops, stop)


@pytest.mark.parametrize("max_loops", BLOCK_EDGES + (65, 1000))
@pytest.mark.parametrize("size, k", [(16384, 6), (8, 7)])
def test_draws_match_at_every_stop_past_the_third_block(size, k, max_loops):
    """Every stop from 1 to 65 loops, at each block edge of max_loops; from
    max_loops 12 on, some runs draw all 8 sets of 7 of the pool of 8."""
    ends = [assert_draws_match_one_call_per_draw(stop, size, k, max_loops, stop)[-1]
            for stop in range(1, 66)]
    exhausted = any("allows 8 draws of 7" in str(end) for end in ends)
    assert exhausted == (size == 8 and max_loops >= 12)


def reference_pooled_gauss(pool, verifier, rng, max_loops):
    """`pooled_gauss_lpn`'s loop over a pool larger than n, one call per draw."""
    n = pool[0].a.n
    for loops, idx in reference_draws(rng, len(pool), n, max_loops, "secret"):
        s, null = solve_ints([pool[i].a.value | pool[i].b << n for i in idx], n)
        if s is not None and not null and s != 0 and verifier(BitVec(n, s)):
            return BitVec(n, s), CostReport(loops, loops)


def gauss_outcome(solve, pool, seed, max_loops, accept_at, raise_at):
    """What one solve leaves when its verifier accepts its accept_at-th
    candidate and raises at its raise_at-th: the result or error, the
    candidates seen and the generator's state."""
    rng, seen = np.random.default_rng(seed), []

    def verifier(cand):
        seen.append(cand.value)
        if len(seen) == raise_at:
            raise Stop(len(seen))
        return len(seen) == accept_at

    try:
        result = solve(pool, verifier, rng, max_loops)
    except (SolveFailure, Stop) as exc:
        result = repr(exc)
    return result, seen, rng.bit_generator.state


@st.composite
def small_gauss_pools(draw):
    """n + 1 to n + 3 samples of a-rank n: most draws of n hold a repeat, and
    a pool has at most C(n + 3, n) <= 56 sets of n, so long solves draw them all."""
    n = draw(st.integers(2, 5))
    values = [1 << j for j in range(n)] + draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    values = draw(st.permutations(values))
    return [LpnSample(BitVec(n, v), draw(st.integers(0, 1))) for v in values]


@settings(max_examples=200, deadline=None)
@given(small_gauss_pools(), st.integers(1, 70), st.integers(1, 70), st.integers(1, 70),
       st.integers(0, 2**32 - 1))
def test_pooled_gauss_stops_leave_the_generator_as_one_call_per_draw(
        pool, max_loops, accept_at, raise_at, seed):
    """Success, max_loops and a verifier that raises mid-block each leave the
    same result, candidates and generator state as one call per draw."""
    args = (pool, seed, max_loops, accept_at, raise_at)
    assert gauss_outcome(pooled_gauss_lpn, *args) == gauss_outcome(reference_pooled_gauss, *args)


@pytest.mark.parametrize("bad", [
    (LpnSample(BitVec(5, 1), 0), DimensionError, "has length 5, not n=4"),
    (LpnSample(BitVec(4, 1), 2), ValueError, "has label 2, not 0 or 1"),
])
@pytest.mark.parametrize("loop", [5, 6, 12, 13, 20, 28, 29, 45, 61])
def test_pooled_gauss_malformed_sample_drawn_mid_block_leaves_one_call_per_draw(loop, bad):
    """A malformed sample first drawn at loop 5 or later, so from a block of
    8 or more draws, raises its error and leaves the generator as one call
    per draw would."""
    sample, error, message = bad
    size, seed = 512, loop
    ref = np.random.default_rng(seed)
    sets = [set(reference_draw_distinct(ref, size, 4)) for _ in range(loop)]
    i = max(sets[-1].difference(*sets[:-1]))  # first drawn at `loop` (not 0: pool[0] sets n)
    pool = [LpnSample(BitVec(4, v % 16), v & 1) for v in range(size)]
    pool[i] = sample
    rng = np.random.default_rng(seed)
    with pytest.raises(error, match=f"pool sample {i} {message}"):
        pooled_gauss_lpn(pool, lambda cand: False, rng, 1000)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("max_loops", BLOCK_EDGES + (70, 1000))
def test_pooled_lsn_at_max_loops_leaves_the_generator_as_one_call_per_draw(max_loops):
    """A pool spanning the complement of 0110 never yields the period 0011:
    it fails at max_loops or, at 1000, once all 56 sets of 3 have been drawn."""
    f = SimonFunction.default(4)
    values = [v for v in range(16) if bin(v & 0b0110).count("1") % 2 == 0]
    rng, ref = np.random.default_rng(max_loops), np.random.default_rng(max_loops)
    with pytest.raises(SolveFailure) as got:
        pooled_lsn(f, SamplePool.from_ints(4, values), rng, max_loops)
    with pytest.raises(SolveFailure) as want:
        for _ in reference_draws(ref, len(values), 3, max_loops, "period"):
            pass
    assert str(got.value) == str(want.value)
    assert ("allows 56 draws of 3" in str(got.value)) == (max_loops == 1000)
    assert rng.bit_generator.state == ref.bit_generator.state


def reference_majority_verifier(heldout, tau):
    """The held-out mismatch rate as a numpy mean over int64 arrays."""
    a_vals = np.array([smp.a.value for smp in heldout], dtype=np.int64)
    b_vals = np.array([smp.b for smp in heldout], dtype=np.int64)
    threshold = (tau + 0.5) / 2.0

    def verify(cand: BitVec) -> bool:
        mism = (parity(a_vals & cand.value) ^ b_vals).mean()
        return bool(mism < threshold)

    return verify


@st.composite
def heldout_sets(draw):
    n = draw(st.integers(0, 8))
    size = draw(st.integers(1, 200))
    a = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size))
    b = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    return n, [LpnSample(BitVec(n, x), y) for x, y in zip(a, b)]


@settings(max_examples=300, deadline=None)
@given(heldout_sets(), st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True)))
def test_bitsliced_verifier_matches_numpy_mean(case, tau):
    n, heldout = case
    got, want = majority_verifier(heldout, tau), reference_majority_verifier(heldout, tau)
    for s in range(1 << n):
        assert got(BitVec(n, s)) == want(BitVec(n, s))


def test_bitsliced_verifier_matches_numpy_mean_at_the_threshold():
    """At tau = 0.3 the threshold is 0.4, and 0 has 2 mismatches in 5."""
    heldout = [LpnSample(BitVec(3, a), b) for a, b in ((1, 1), (2, 0), (3, 1), (4, 0), (5, 0))]
    mism = [sum(bin(smp.a.value & s).count("1") % 2 != smp.b for smp in heldout)
            for s in range(8)]
    assert mism[0] == 2
    for tau in (0.3, 0.0):
        got, want = majority_verifier(heldout, tau), reference_majority_verifier(heldout, tau)
        decisions = [got(BitVec(3, s)) for s in range(8)]
        assert decisions == [want(BitVec(3, s)) for s in range(8)]
        assert decisions == [m / 5 < (tau + 0.5) / 2 for m in mism]
