import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisysimon.transpile as transpile
from noisysimon.circuits import CNOT, Circuit, Gate, H, build_simon_circuit, simon_wire_labels
from noisysimon.gf2 import BitVec
from noisysimon.multiset import MeasurementMultiset
from noisysimon.simon import SimonFunction
from noisysimon.smoothing import permutation_configurations
from noisysimon.statevector import circuits_equivalent
from noisysimon.transpile import (
    CapacityError,
    Configuration,
    RoutingError,
    TopologyGraph,
    circuit_norm,
    compile_simon_circuit,
    enumerate_min_configurations,
    melbourne_topology,
    peephole_optimize,
    route,
    search_min_configuration,
    _fill_free_vertices,
)

TABLE_CN = {2: 21, 3: 33, 4: 45, 5: 57, 6: 69, 7: 81}


def test_circuit_norm_examples():
    q1 = build_simon_circuit(SimonFunction.default(3))
    assert circuit_norm(q1).value == 56
    assert circuit_norm(Circuit(2)).value == 0
    cn = circuit_norm(q1)
    assert (cn.g1, cn.g2) == (6, 5)


def test_route_naive_layout_reproduces_206(graph):
    q1 = build_simon_circuit(SimonFunction.default(3))
    q2 = route(q1, graph, Configuration.naive(3))
    cn = circuit_norm(q2)
    assert cn.value == 206
    assert (cn.g1, cn.g2) == (6, 20)
    assert circuits_equivalent(q1, q2, 1e-9)


def test_route_adjacent_cnot_unchanged(graph):
    c = Circuit(2, (Gate(CNOT, 1, control=0),), (0,), labels=("a", "b"))
    routed = route(c, graph, Configuration.from_dict({"a": 0, "b": 1}))
    assert [g.kind for g in routed.gates] == [CNOT]
    assert routed.gates[0].control == 0 and routed.gates[0].target == 1


def test_route_swap_insertion_along_path():
    path_graph = TopologyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    c = Circuit(2, (Gate(CNOT, 1, control=0),), (0,), labels=("a", "b"))
    routed = route(c, path_graph, Configuration.from_dict({"a": 1, "b": 3}))
    kinds = [g.kind for g in routed.gates]
    assert kinds == [CNOT] * 4  # one swap (3 cnots) + the gate itself
    assert routed.gates[-1].control == 1 and routed.gates[-1].target == 2


def test_route_disconnected_raises():
    broken = TopologyGraph.from_edges(4, [(0, 1), (2, 3)])
    c = Circuit(2, (Gate(CNOT, 1, control=0),), (0,), labels=("a", "b"))
    with pytest.raises(RoutingError):
        route(c, broken, Configuration.from_dict({"a": 0, "b": 3}))


def test_peephole_cancels_cnot_pair():
    pair = Circuit(2, (Gate(CNOT, 1, control=0),) * 2, ())
    out = peephole_optimize(pair)
    assert out.gates == ()


def test_peephole_optimizes_logical_circuit_to_published_norms():
    for n, want in TABLE_CN.items():
        opt = peephole_optimize(build_simon_circuit(SimonFunction.default(n)))
        assert circuit_norm(opt).value == want
        g1, g2 = opt.gate_counts()
        assert (g1, g2) == (2 * n - 3, n)


def test_peephole_is_idempotent_fixed_point():
    opt = peephole_optimize(build_simon_circuit(SimonFunction.default(4)))
    again = peephole_optimize(opt)
    assert again.gates == opt.gates


def test_peephole_never_increases_norm_random_circuits():
    rng = np.random.default_rng(3)
    for _ in range(30):
        width = int(rng.integers(2, 6))
        gates = []
        for _ in range(int(rng.integers(0, 25))):
            if rng.random() < 0.5:
                gates.append(Gate(H, int(rng.integers(0, width))))
            else:
                c = int(rng.integers(0, width))
                t = (c + 1 + int(rng.integers(0, width - 1))) % width
                gates.append(Gate(CNOT, t, control=c))
        measured = tuple(sorted(rng.choice(width, size=int(rng.integers(1, width + 1)), replace=False).tolist()))
        circ = Circuit(width, tuple(gates), measured)
        opt = peephole_optimize(circ)
        assert circuit_norm(opt).value <= circuit_norm(circ).value
        assert circuits_equivalent(circ, opt, 1e-9)


def test_staged_circuit_optimizes_to_33(graph):
    """The hand-staged placement: one redundant cnot pair on wires 2-3, a
    control change on the shared wire 1, and a final norm of 33 realized by
    cnots on {0,1}, {1,2}, {4,5}."""
    f = SimonFunction.default(3)
    cfg = Configuration.from_dict({"x1": 0, "y1": 1, "x0": 2, "y0": 3, "x2": 4, "y2": 5})
    q3 = route(build_simon_circuit(f), graph, cfg)
    assert circuit_norm(q3).value == 56  # swap-free placement of the raw circuit
    pair = [g for g in q3.gates if g.kind == CNOT and {g.control, g.target} == {2, 3}]
    assert len(pair) == 2
    q4 = peephole_optimize(q3)
    assert circuit_norm(q4).value == 33
    phys = {frozenset((q4.labels[g.control], q4.labels[g.target])) for g in q4.gates if g.kind == CNOT}
    assert phys == {frozenset((0, 1)), frozenset((1, 2)), frozenset((4, 5))}
    assert circuits_equivalent(build_simon_circuit(f), q4, 1e-9)


def test_search_reproduces_min_norm_table(graph):
    for n, want in TABLE_CN.items():
        f = SimonFunction.default(n)
        cfg, cn = search_min_configuration(f, graph)
        assert cn.value == want
        circ = compile_simon_circuit(f, graph, cfg)
        assert circuit_norm(circ).value == want
        assert circuits_equivalent(build_simon_circuit(f), circ, 1e-9)


def test_norm_follows_linear_law(graph):
    for n, want in TABLE_CN.items():
        assert want == 12 * n - 3


def test_minimum_not_unique_for_n3(graph):
    f = SimonFunction.default(3)
    configs = enumerate_min_configurations(f, graph, limit=5000)
    assert len(configs) >= 2
    live = [
        {k: v for k, v in c.as_dict().items() if k != "y0"} for c in configs
    ]
    assert {"y1": 0, "x0": 1, "x2": 8, "y2": 9, "x1": 14} in live
    assert {"y1": 5, "x0": 4, "x1": 6, "y2": 8, "x2": 9} in live


def test_enumerated_configs_all_attain_minimum(graph):
    f = SimonFunction.default(4)
    configs = enumerate_min_configurations(f, graph, limit=40)
    assert len(configs) == 40
    for cfg in configs[:10]:
        assert circuit_norm(compile_simon_circuit(f, graph, cfg)).value == TABLE_CN[4]
    assert len({c.items for c in configs}) == 40


def test_logical_circuit_is_optimized_once_per_function(graph, monkeypatch):
    calls = []

    def counting(circuit):
        calls.append(circuit)
        return peephole_optimize(circuit)

    monkeypatch.setattr(transpile, "peephole_optimize", counting)
    transpile._optimized_logical.cache_clear()
    try:
        f = SimonFunction.default(5)
        cfg = Configuration.naive(5)
        first = compile_simon_circuit(f, graph, cfg)
        for _ in range(49):
            assert compile_simon_circuit(f, graph, cfg) == first
        assert len(calls) == 51  # one logical optimization, then one per routed circuit
        twin = SimonFunction(5, BitVec(5, 0b11), 0)
        assert twin is not f and twin == f
        compile_simon_circuit(twin, graph, cfg)
        assert len(calls) == 52
        assert transpile._optimized_logical.cache_info().currsize == 1
    finally:
        transpile._optimized_logical.cache_clear()


def test_search_limit_one_is_singleton(graph):
    f = SimonFunction.default(3)
    assert len(enumerate_min_configurations(f, graph, limit=1)) == 1


def test_brute_force_confirms_n2_minimum(graph):
    """Exhaustive placement of the three live wires agrees with the search."""
    f = SimonFunction.default(2)
    logical = peephole_optimize(build_simon_circuit(f))
    labels = tuple(logical.label_of(w) for w in range(logical.width))
    best = None
    for placement in itertools.permutations(range(graph.n), len(labels)):
        cfg = _fill_free_vertices(dict(zip(labels, placement)), ("x0", "x1", "y0", "y1"), graph)
        cn = circuit_norm(peephole_optimize(route(logical, graph, cfg))).value
        best = cn if best is None else min(best, cn)
    assert best == TABLE_CN[2]


def test_routed_full_circuit_with_distant_spare_wire_still_optimal(graph):
    """Routing the raw circuit with the spare wire far away: the swap chains
    it drags in are dead weight and the rewriter removes them."""
    f = SimonFunction.default(3)
    cfg = Configuration.from_dict(
        {"y1": 0, "x0": 1, "y0": 6, "x2": 8, "y2": 9, "x1": 14}
    )
    routed = route(build_simon_circuit(f), graph, cfg)
    opt = peephole_optimize(routed)
    assert circuit_norm(opt).value == 33
    assert circuits_equivalent(build_simon_circuit(f), opt, 1e-9)


def test_route_and_optimize_preserve_distribution_for_fixtures(graph):
    for n in (2, 3, 4, 5):
        f = SimonFunction.default(n)
        q1 = build_simon_circuit(f)
        routed = route(q1, graph, Configuration.naive(n))
        assert circuits_equivalent(q1, routed, 1e-9)
        assert circuits_equivalent(q1, peephole_optimize(routed), 1e-9)


def test_topology_json_round_trip(tmp_path, graph):
    path = tmp_path / "topo.json"
    graph.to_json(path)
    back = TopologyGraph.from_json(path)
    assert back == graph


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration.from_dict({"x0": 1, "x1": 1})


def _route_two_wires(labels, assign):
    route(Circuit(2, (), (0, 1), labels), TopologyGraph.from_edges(3, [(0, 1), (1, 2)]),
          Configuration.from_dict(assign))


@pytest.mark.parametrize("make, message", [
    (lambda: Gate("y", 0), "unknown gate kind 'y'"),
    (lambda: Gate(CNOT, 0), "cnot needs a control"),
    (lambda: Gate(CNOT, 1, control=1), "control and target must differ"),
    (lambda: Gate(H, 0, control=1), "h takes no control"),
    (lambda: Circuit(2, (Gate(H, 2),)), "gate wire 2 outside width 2"),
    (lambda: Circuit(2, (), (1, 1)), "measured wires must be distinct"),
    (lambda: Circuit(2, (), (2,)), "measured wire 2 outside width 2"),
    (lambda: Circuit(2, (), (), ("a",)), "labels must cover every wire"),
    (lambda: MeasurementMultiset(2, {4: 1}), "outcome 4 out of range for n=2"),
    (lambda: MeasurementMultiset(2, {1: -1}), "negative count for outcome 1"),
    (lambda: MeasurementMultiset(2, {1: 1}).merge(MeasurementMultiset(3, {1: 1})),
     "outcome length mismatch: 2 vs 3"),
    (lambda: TopologyGraph.from_edges(3, [(1, 1)]), "self-loop at vertex 1"),
    (lambda: TopologyGraph.from_edges(3, [(0, 3)]), r"edge \(0,3\) outside vertex range"),
    (lambda: _route_two_wires(("a", "b"), {"a": 0}), "configuration is missing wire 'b'"),
    (lambda: _route_two_wires(("a", "b"), {"a": 0, "b": 3}), "vertex 3 outside the device"),
    (lambda: _route_two_wires(("a", "a"), {"a": 0}), "vertex 0 assigned twice"),
])
def test_constructors_and_route_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_melbourne_shape():
    g = melbourne_topology()
    assert g.n == 15
    assert len(g.edges) == 20
    for u, v in [(0, 1), (0, 14), (6, 8), (13, 14), (5, 9)]:
        assert g.are_adjacent(u, v)
    assert not g.are_adjacent(1, 6)


def star(vertices):
    return TopologyGraph.from_edges(vertices, [(0, i) for i in range(1, vertices)])


def test_star_device_search_ends_in_seconds():
    """A star has no swap-free placement for n >= 3: the centre cannot serve
    both the x0-y1-x1 path and the (x2, y2) pair. The routed fallback then
    searches every placement while there are few, and refuses at once when
    there are too many (360,360 on a 15-vertex star)."""
    f = SimonFunction.default(3)
    start = time.perf_counter()
    cfg, cn = search_min_configuration(f, star(6))  # 720 placements
    circ = compile_simon_circuit(f, star(6), cfg)
    assert circuit_norm(circ) == cn and cn.value > TABLE_CN[3]
    assert circuits_equivalent(build_simon_circuit(f), circ, 1e-9)
    with pytest.raises(CapacityError, match="360,360 placements"):
        search_min_configuration(f, star(15))
    assert search_min_configuration(SimonFunction.default(2), star(15))[1].value == TABLE_CN[2]
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("n", range(3, 8))
def test_star15_search_refuses_under_a_second(n):
    """Pendants competing for the centre: no disjoint pair of interaction
    edges fits on a star, so the search refuses before it walks the tree."""
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="no swap-free placement"):
        search_min_configuration(SimonFunction.default(n), star(15))
    assert time.perf_counter() - start < 1.0


def _route_then_peephole(f, graph, config):
    return peephole_optimize(route(transpile._optimized_logical(f), graph, config))


def test_compile_equals_peephole_of_the_route(graph):
    """A swap-free route is only compacted, a routed one is rewritten again;
    both give the circuit the full peephole of the route gives."""
    rng = np.random.default_rng(14)
    for n in range(2, 8):
        f = SimonFunction.default(n)
        cfg, _ = search_min_configuration(f, graph)
        configs = ([cfg] + permutation_configurations(f, graph, 50, rng, base=cfg)
                   + enumerate_min_configurations(f, graph, limit=50))
        for c in configs:
            assert compile_simon_circuit(f, graph, c) == _route_then_peephole(f, graph, c)
    f = SimonFunction.default(3)
    naive = compile_simon_circuit(f, graph, Configuration.naive(3))  # has swaps
    assert naive == _route_then_peephole(f, graph, Configuration.naive(3))
    assert circuit_norm(naive).value == 303
    cfg, _ = search_min_configuration(f, star(6))  # the routed search fallback
    logical = transpile._optimized_logical(f)
    assert len(route(logical, star(6), cfg).gates) > len(logical.gates)
    assert compile_simon_circuit(f, star(6), cfg) == _route_then_peephole(f, star(6), cfg)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compile_equals_peephole_of_the_route_on_random_graphs(data):
    n = data.draw(st.integers(1, 4))
    f = SimonFunction.from_period(BitVec(n, data.draw(st.integers(1, (1 << n) - 1))))
    vertices = data.draw(st.integers(2 * n, 2 * n + 3))
    vertex = st.integers(0, vertices - 1)
    edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, vertices)]  # a spanning tree
    edges += data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                max_size=vertices))
    placement = data.draw(st.permutations(range(vertices)))
    assign = dict(zip(simon_wire_labels(n), placement))
    logical = transpile._optimized_logical(f)
    if data.draw(st.booleans()):  # add the edges that make the placement swap-free
        edges += [(assign[a], assign[b]) for a, b in transpile._interaction_edges(logical)]
    graph = TopologyGraph.from_edges(vertices, edges)
    config = Configuration.from_dict(assign)
    assert compile_simon_circuit(f, graph, config) == _route_then_peephole(f, graph, config)
