"""Topology-aware compilation: routing, peephole rewriting, and placement search.

The cost model weighs a two-qubit gate like ten one-qubit gates, so the
optimizer's job is almost entirely about avoiding swaps and shaving
Hadamards. Rewriting happens in a deterministic pass loop:

  R1  adjacent identical CNOT pairs cancel
  R2  adjacent H-H pairs cancel
  R3  per target wire, speculatively rewrite every CNOT onto a reversed
      control through the H-conjugation identity; keep the rewrite only if
      cancellation strictly lowers the circuit norm
  R4  gates with no causal path to a measured wire are dropped
  R5  wires left without gates (and unmeasured) are removed

R3 is the "control bit change": H(a) H(b) CNOT(a->b) H(a) H(b) equals
CNOT(b->a). Applying it jointly to all CNOTs sharing a target is what lets
the input-register Hadamards collapse into a single Hadamard on the shared
target wire.
"""

from __future__ import annotations

import collections
import functools
import importlib.resources
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from .circuits import CNOT, Circuit, Gate, H, X, build_simon_circuit, simon_wire_labels
from .gf2 import CapacityError
from .simon import SimonFunction


# Placements the routed fallback of the configuration search compiles at
# most. A routed compile takes under a millisecond (the 2,520 placements of a
# 7-vertex star at n=3 take 1.6 s on a 2-vCPU VM), so it ends in seconds.
ROUTED_SEARCH_LIMIT = 5_000


class RoutingError(ValueError):
    """Required qubits are not connected on the device graph."""


# ---------------------------------------------------------------------------
# Topology


@dataclass(frozen=True)
class TopologyGraph:
    n: int
    edges: FrozenSet[Tuple[int, int]]

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"vertex count {self.n!r} is not a non-negative integer")
        for u, v in self.edges:
            if not all(isinstance(w, int) and not isinstance(w, bool) for w in (u, v)):
                raise ValueError(f"edge ({u},{v}) has a vertex that is not an integer")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) outside vertex range")

    @classmethod
    def from_edges(cls, n: int, edges) -> "TopologyGraph":
        edges = [tuple(e) for e in edges]
        for e in edges:
            if len(e) != 2:
                raise ValueError(f"malformed edge {list(e)}: not a pair (u, v)")
        return cls(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    @classmethod
    def from_json(cls, path: str | Path) -> "TopologyGraph":
        """The graph from its JSON form {"vertices": n, "edges": [[u, v], ...]}."""
        try:
            d = json.loads(Path(path).read_text())
            return cls.from_edges(d["vertices"], d["edges"])
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from exc
        except (KeyError, TypeError) as exc:
            raise ValueError(f'malformed topology (needs "vertices" and "edges"): {exc}') from exc

    def to_json(self, path: str | Path | None = None) -> str:
        text = json.dumps({"vertices": self.n, "edges": sorted(map(list, self.edges))})
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {v: [] for v in range(self.n)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
        return adj

    def are_adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def shortest_path(self, u: int, v: int) -> List[int]:
        """Lexicographically smallest shortest path from u to v."""
        adj = self.adjacency()
        dist = {v: 0}
        frontier = [v]
        while frontier:
            nxt = []
            for w in frontier:
                for x in adj[w]:
                    if x not in dist:
                        dist[x] = dist[w] + 1
                        nxt.append(x)
            frontier = nxt
        if u not in dist:
            raise RoutingError(f"vertices {u} and {v} are disconnected")
        path = [u]
        cur = u
        while cur != v:
            cur = min(x for x in adj[cur] if dist.get(x, -1) == dist[cur] - 1)
            path.append(cur)
        return path


def melbourne_topology() -> TopologyGraph:
    """The 15-qubit two-row device graph used by all shipped experiments."""
    return TopologyGraph.from_json(importlib.resources.files("noisysimon.data") / "melbourne.json")


# ---------------------------------------------------------------------------
# Circuit norm


@dataclass(frozen=True)
class CircuitNorm:
    g1: int
    g2: int

    @property
    def value(self) -> int:
        return self.g1 + 10 * self.g2


def _norm_of(gates: Sequence[Gate]) -> CircuitNorm:
    g2 = sum(1 for g in gates if g.arity == 2)
    return CircuitNorm(len(gates) - g2, g2)


def circuit_norm(circuit: Circuit) -> CircuitNorm:
    return _norm_of(circuit.gates)


# ---------------------------------------------------------------------------
# Configuration


def _label_key(label) -> Tuple[str, int, str]:
    text = str(label)
    head, tail = text[:1], text[1:]
    if tail.isdecimal():  # isdigit() also takes digits int() rejects, like "²"
        return (head, int(tail), text)  # the text tells "x1" from "x01"
    return (head, -1, text)


@dataclass(frozen=True)
class Configuration:
    """Injective assignment of logical wire labels to physical vertices."""

    items: Tuple[Tuple[str, int], ...]

    def __post_init__(self) -> None:
        vertices = [v for _, v in self.items]
        if len(set(vertices)) != len(vertices):
            raise ValueError("configuration must be injective")

    @classmethod
    def from_dict(cls, assign: Dict[str, int]) -> "Configuration":
        return cls(tuple(sorted(assign.items(), key=lambda kv: _label_key(kv[0]))))

    @classmethod
    def naive(cls, n: int) -> "Configuration":
        """x_j on vertex j, y_j on vertex n+j."""
        labels = simon_wire_labels(n)
        return cls.from_dict({lab: i for i, lab in enumerate(labels)})

    def as_dict(self) -> Dict[str, int]:
        return dict(self.items)


# ---------------------------------------------------------------------------
# Routing


def _swap_gates(a: int, b: int) -> List[Gate]:
    return [Gate(CNOT, b, control=a), Gate(CNOT, a, control=b), Gate(CNOT, b, control=a)]


def route(circuit: Circuit, graph: TopologyGraph, config: Configuration) -> Circuit:
    """Map wires onto the device and insert swap chains for non-adjacent CNOTs.

    Each swap costs three CNOTs and moves the target wire one step along the
    lexicographically smallest shortest path toward the control. The mapping
    evolves as swaps execute; the measured list reports the final physical
    home of each logical measured wire, so the outcome semantics are
    unchanged.
    """
    assign = config.as_dict()
    pos: List[int] = []  # wire -> vertex
    occ = [-1] * graph.n  # vertex -> wire, or -1
    for w in range(circuit.width):
        lab = circuit.label_of(w)
        if lab not in assign:
            raise ValueError(f"configuration is missing wire {lab!r}")
        v = assign[lab]
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex {v} outside the device")
        if occ[v] >= 0:
            raise ValueError(f"vertex {v} assigned twice")
        pos.append(v)
        occ[v] = w

    out: List[Gate] = []
    for g in circuit.gates:
        if g.arity == 2 and not graph.are_adjacent(pos[g.control], pos[g.target]):
            path = graph.shortest_path(pos[g.control], pos[g.target])
            for k in range(len(path) - 1, 1, -1):
                a, b = path[k - 1], path[k]
                out.extend(_swap_gates(a, b))
                occ[a], occ[b] = occ[b], occ[a]
                for v in (a, b):
                    if occ[v] >= 0:
                        pos[occ[v]] = v
        out.append(Gate(g.kind, pos[g.target], None if g.control is None else pos[g.control]))

    measured = tuple(pos[m] for m in circuit.measured)
    return Circuit(graph.n, tuple(out), measured, labels=tuple(range(graph.n)))


# ---------------------------------------------------------------------------
# Peephole rewriting


def _cancel_adjacent(gates: List[Gate]) -> List[Gate]:
    """R1 + R2 to fixpoint: drop pairs of identical CNOTs or H gates that are
    adjacent on every wire they touch.

    Each round cancels gate i with the first later gate not yet removed in
    the round that touches any of its wires, if the two are equal. That gate
    is the nearest of gate i's per-wire next gates, so a round is one pass
    over the list: a gate removed earlier in the round is the partner of an
    earlier gate, and gate i would sit between the two on a wire they share.
    """
    changed = True
    while changed:
        changed = False
        end = len(gates)
        qubits = [g.qubits for g in gates]
        after: Dict[Tuple[int, int], int] = {}  # (i, q) -> next gate on wire q, or end
        last: Dict[int, int] = {}
        for i in range(end - 1, -1, -1):
            for q in qubits[i]:
                after[i, q] = last.get(q, end)
                last[q] = i
        removed = [False] * end
        for i, g in enumerate(gates):
            if removed[i] or g.kind == X:
                continue
            j = min(after[i, q] for q in qubits[i])
            if j < end and gates[j] == g:
                removed[i] = removed[j] = True
                changed = True
        if changed:
            gates = [g for k, g in enumerate(gates) if not removed[k]]
    return gates


def _expand_control_change(gates: Sequence[Gate], group: set) -> List[Gate]:
    out: List[Gate] = []
    for k, g in enumerate(gates):
        if k in group:
            c, t = g.control, g.target
            out += [Gate(H, c), Gate(H, t), Gate(CNOT, c, control=t), Gate(H, c), Gate(H, t)]
        else:
            out.append(g)
    return out


def _control_change(gates: List[Gate], width: int) -> List[Gate]:
    """R3: per target wire, flip all CNOTs onto the shared wire as control if
    the Hadamard bookkeeping strictly pays off."""
    for t in range(width):
        group = {k for k, g in enumerate(gates) if g.kind == CNOT and g.target == t}
        if not group:
            continue
        candidate = _cancel_adjacent(_expand_control_change(gates, group))
        if _norm_of(candidate).value < _norm_of(gates).value:
            gates = candidate
    return gates


def _live_sweep(gates: List[Gate], measured: Tuple[int, ...]) -> List[Gate]:
    """R4: keep only gates with a causal path to a measured wire."""
    live = set(measured)
    kept: List[Gate] = []
    for g in reversed(gates):
        qs = set(g.qubits)
        if qs & live:
            live |= qs
            kept.append(g)
    kept.reverse()
    return kept


def _compact(circuit: Circuit) -> Circuit:
    """R5: drop wires that carry no gates and are not measured."""
    used = set(circuit.measured)
    for g in circuit.gates:
        used.update(g.qubits)
    if len(used) == circuit.width:
        return circuit
    order = sorted(used)
    remap = {old: new for new, old in enumerate(order)}
    gates = tuple(
        Gate(g.kind, remap[g.target], None if g.control is None else remap[g.control])
        for g in circuit.gates
    )
    measured = tuple(remap[m] for m in circuit.measured)
    labels = None
    if circuit.labels is not None:
        labels = tuple(circuit.labels[old] for old in order)
    return Circuit(len(order), gates, measured, labels)


def peephole_optimize(circuit: Circuit) -> Circuit:
    """Run R1..R4 to fixpoint, then remove empty wires."""
    gates = list(circuit.gates)
    while True:
        before = list(gates)
        gates = _cancel_adjacent(gates)
        gates = _control_change(gates, circuit.width)
        gates = _live_sweep(gates, circuit.measured)
        if gates == before:
            break
    return _compact(replace(circuit, gates=tuple(gates)))


# ---------------------------------------------------------------------------
# Configuration search


def _interaction_edges(circuit: Circuit) -> FrozenSet[Tuple[str, str]]:
    edges = set()
    for g in circuit.gates:
        if g.arity == 2:
            a, b = circuit.label_of(g.control), circuit.label_of(g.target)
            edges.add((min(a, b, key=_label_key), max(a, b, key=_label_key)))
    return frozenset(edges)


def _matching_exceeds_cover(edges: FrozenSet[Tuple[str, str]], graph: TopologyGraph) -> bool:
    """True only if no embedding of the interaction edges into the device exists.

    An embedding sends disjoint interaction edges to disjoint device edges,
    and no set of disjoint device edges outnumbers a vertex cover of the
    device. So a greedy matching of the interaction edges larger than a
    greedy vertex cover of the device rules every embedding out; on a star
    device (cover: the centre) this ends a search the forward check of
    `_embeddings` would walk to its last leaf.
    """
    matched: set = set()
    for a, b in sorted(edges):
        if a not in matched and b not in matched:
            matched |= {a, b}
    left, cover = set(graph.edges), 0
    while left:
        degree = collections.Counter(v for e in left for v in e)
        hub = max(degree, key=degree.__getitem__)
        left = {e for e in left if hub not in e}
        cover += 1
    return len(matched) // 2 > cover


def _embeddings(
    nodes: List[str],
    edges: FrozenSet[Tuple[str, str]],
    graph: TopologyGraph,
) -> Iterator[Dict[str, int]]:
    """All injective node->vertex maps sending every edge to a device edge,
    enumerated lexicographically in the fixed node order.

    Forward check: right after a node is placed, every unplaced node with a
    placed interaction neighbour must keep a free vertex adjacent to all its
    placed neighbours, or the branch is dropped. Candidate sets only shrink
    as nodes are placed, so a dropped branch holds no embedding; candidates
    are still tried in ascending vertex order, so the embeddings come out in
    the same order as without the check. Vertex sets are int bitmasks.
    """
    adj = [sum(1 << u for u in nbrs) for _, nbrs in sorted(graph.adjacency().items())]
    index = {node: k for k, node in enumerate(nodes)}
    neighbors = [
        [index[other] for e in edges for other in e if node in e and other != node]
        for node in nodes
    ]
    # frontier[k]: unplaced nodes with a neighbour among nodes 0..k
    frontier = [
        [m for m in range(k + 1, len(nodes)) if any(j <= k for j in neighbors[m])]
        for k in range(len(nodes))
    ]
    place = [-1] * len(nodes)

    def free_common(k: int, used: int) -> int:
        """Free vertices adjacent to every placed neighbour of node k."""
        mask = ~used & ((1 << graph.n) - 1)
        for m in neighbors[k]:
            if place[m] >= 0:
                mask &= adj[place[m]]
        return mask

    def backtrack(k: int, used: int) -> Iterator[Dict[str, int]]:
        if k == len(nodes):
            yield {node: place[j] for j, node in enumerate(nodes)}
            return
        candidates = free_common(k, used)
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            place[k] = bit.bit_length() - 1
            if all(free_common(m, used | bit) for m in frontier[k]):
                yield from backtrack(k + 1, used | bit)
        place[k] = -1

    yield from backtrack(0, 0)


def _fill_free_vertices(
    partial: Dict[str, int], all_labels: Sequence[str], graph: TopologyGraph
) -> Configuration:
    used = set(partial.values())
    free = [v for v in range(graph.n) if v not in used]
    assign = dict(partial)
    for lab in sorted(all_labels, key=_label_key):
        if lab not in assign:
            assign[lab] = free.pop(0)
    return Configuration.from_dict(assign)


@functools.lru_cache(maxsize=64)
def _optimized_logical(f: SimonFunction) -> Circuit:
    """The optimized logical circuit of f, built once per distinct f (both
    are frozen, so callers can share the result)."""
    return peephole_optimize(build_simon_circuit(f))


def compile_simon_circuit(
    f: SimonFunction, graph: TopologyGraph, config: Configuration
) -> Circuit:
    """Build, optimize and place+route the period-finding circuit, and
    re-optimize it if the route inserted swaps.

    Optimizing before layout keeps the router away from wires the rewriter
    is about to delete anyway (the redundant copy of the control wire). A
    swap-free route only renames the wires of the optimized logical circuit,
    which is at the R1-R4 fixpoint: R1, R2 and R4 ignore wire names, and R3
    accepts no target group there, so it accepts none after the renaming
    either. A swap adds 3 CNOTs and routing drops no gate, so the route is
    swap-free iff it kept the gate count.
    """
    logical = _optimized_logical(f)
    routed = route(logical, graph, config)
    if len(routed.gates) == len(logical.gates):
        return _compact(routed)
    return peephole_optimize(routed)


def _search(
    f: SimonFunction, graph: TopologyGraph, limit: int
) -> Tuple[List[Configuration], CircuitNorm]:
    if 2 * f.n > graph.n:
        raise CapacityError(f"need {2 * f.n} wires but the device has {graph.n}")
    logical = _optimized_logical(f)
    nodes = sorted((logical.label_of(w) for w in range(logical.width)), key=_label_key)
    edges = _interaction_edges(logical)
    all_labels = simon_wire_labels(f.n)

    configs: List[Configuration] = []
    embeddings = () if _matching_exceeds_cover(edges, graph) else _embeddings(nodes, edges, graph)
    for emb in embeddings:
        configs.append(_fill_free_vertices(emb, all_labels, graph))
        if len(configs) >= limit:
            break

    if configs:  # swap-free, so each compiles to `logical` with renamed wires
        return configs, circuit_norm(logical)

    # No swap-free placement exists: fall back to exhaustive routed search,
    # if it is small enough to end in seconds.
    count = math.perm(graph.n, len(nodes))
    if count > ROUTED_SEARCH_LIMIT:
        raise CapacityError(
            f"no swap-free placement, and the routed search over {count:,} placements "
            f"exceeds the limit of {ROUTED_SEARCH_LIMIT:,}"
        )
    configs = [_fill_free_vertices(dict(zip(nodes, placement)), all_labels, graph)
               for placement in itertools.permutations(range(graph.n), len(nodes))]
    norms = [circuit_norm(compile_simon_circuit(f, graph, cfg)) for cfg in configs]
    best = min(range(len(configs)), key=lambda k: norms[k].value)  # the first minimum
    return [configs[best]], norms[best]


@functools.lru_cache(maxsize=64)
def search_min_configuration(
    f: SimonFunction, graph: TopologyGraph
) -> Tuple[Configuration, CircuitNorm]:
    """A configuration whose routed+optimized circuit attains the minimum norm,
    searched once per distinct (f, graph) (both are frozen, the result is
    immutable)."""
    configs, cn = _search(f, graph, limit=1)
    return configs[0], cn


def enumerate_min_configurations(
    f: SimonFunction, graph: TopologyGraph, limit: int
) -> List[Configuration]:
    """Up to `limit` distinct configurations attaining the minimal norm."""
    configs, _ = _search(f, graph, limit=limit)
    return configs
