import numpy as np
import pytest

from noisysimon.circuits import append_measurement_flips
from noisysimon.gf2 import BitVec, CapacityError
from noisysimon.lsn import LsnParams, estimate_tau, model_distribution, sample_many
from noisysimon.multiset import MeasurementMultiset
from noisysimon.noise import NoiseParams, sample_noisy
from noisysimon.simon import SimonFunction
from noisysimon.smoothing import (
    choose_hamming_vector,
    double_flip,
    hamming_smooth,
    permutation_configurations,
    permutation_smooth,
)
from noisysimon.statevector import exact_output_distribution
from noisysimon.stats import kl_divergence, quality_report
from noisysimon.transpile import (Configuration, circuit_norm, compile_simon_circuit,
                                  search_min_configuration)


def hamming_vector_candidates(n: int) -> list[BitVec]:
    """The n+1 vectors of weight at least n-1, highest weight first:
    all-ones, then all-ones without bit j for j = 0..n-1."""
    ones = (1 << n) - 1
    return [BitVec(n, ones)] + [BitVec(n, ones ^ (1 << j)) for j in range(n)]


def test_some_candidate_is_orthogonal_for_every_period():
    """The closed form is the first orthogonal candidate, so the one of highest weight."""
    for n in range(1, 13):
        candidates = hamming_vector_candidates(n)
        for sv in range(1, 1 << n):
            s = BitVec(n, sv)
            assert any(v.inner(s) == 0 for v in candidates)
            v = choose_hamming_vector(s)
            assert v.inner(s) == 0 and v.value.bit_count() >= n - 1
            assert v == next(c for c in candidates if c.inner(s) == 0)


def test_hamming_smooth_examples():
    m = MeasurementMultiset(2, {0b00: 5, 0b10: 3})
    out = hamming_smooth(m, BitVec.from_string("11"))
    assert out.counts == {0b00: 5, 0b10: 3, 0b11: 5, 0b01: 3}
    doubled = hamming_smooth(m, BitVec(2, 0))
    assert doubled.counts == {0b00: 10, 0b10: 6}
    assert out.total == 2 * m.total


def test_hamming_smooth_preserves_tau_exactly():
    params = LsnParams(5, 0.2, BitVec.from_string("00011"))
    rng = np.random.default_rng(0)
    m = MeasurementMultiset.from_outcomes(params.n, sample_many(params, 5000, rng))
    v = choose_hamming_vector(params.s)
    assert estimate_tau(hamming_smooth(m, v), params.s) == estimate_tau(m, params.s)


def test_permutation_single_config_equals_plain_run(graph, noise, compiled):
    f, cfg, _, circ = compiled[3]
    merged = permutation_smooth(f, graph, [circ], 2048, noise, seed=17)
    plain = sample_noisy(circ, noise, 2048, seed=17)
    assert merged.counts == plain.counts


def test_permutation_rejects_non_minimal_config(graph, noise):
    f = SimonFunction.default(3)
    with pytest.raises(ValueError):
        naive = compile_simon_circuit(f, graph, Configuration.naive(3))
        permutation_smooth(f, graph, [naive], 128, noise, seed=0)


def test_permutation_merge_total(graph, noise, compiled):
    f, cfg, _, _ = compiled[2]
    rng = np.random.default_rng(1)
    cfgs = permutation_configurations(f, graph, 5, rng, base=cfg)
    merged = permutation_smooth(f, graph, [compile_simon_circuit(f, graph, c) for c in cfgs], 300, noise, seed=3)
    assert merged.total == 5 * 300


def test_permutation_configs_preserve_norm_and_vary(graph, compiled):
    f, cfg, cn, _ = compiled[5]
    rng = np.random.default_rng(2)
    cfgs = permutation_configurations(f, graph, 24, rng, base=cfg)
    assert len({c.items for c in cfgs}) > 1
    for c in cfgs[:6]:
        assert circuit_norm(compile_simon_circuit(f, graph, c)).value == cn.value


def _fixed_wire_permutation_configurations(f, count, rng, base):
    """Reference reshuffles on fixed wires: a coin swaps x0 and x1, and a
    permutation moves the pairs 2..n-1. These are the moves of the default
    function (s = 0b11, i = 0), and of no other period."""
    assign = base.as_dict()
    out = []
    for _ in range(count):
        new = dict(assign)
        if rng.integers(0, 2) == 1:
            new["x0"], new["x1"] = assign["x1"], assign["x0"]
        idx = list(range(2, f.n))
        perm = list(rng.permutation(idx)) if idx else []
        for j, pj in zip(idx, perm):
            new[f"x{j}"] = assign[f"x{int(pj)}"]
            new[f"y{j}"] = assign[f"y{int(pj)}"]
        out.append(Configuration.from_dict(new))
    return out


@pytest.mark.parametrize("seed", [0, 7, 20260808])
def test_default_function_reshuffles_match_the_fixed_wire_rule(graph, compiled, seed):
    for n in range(2, 8):
        f, cfg, _, _ = compiled[n]
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        cfgs = permutation_configurations(f, graph, 20, rng, base=cfg)
        assert cfgs == _fixed_wire_permutation_configurations(f, 20, ref, cfg)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_permutation_configs_keep_the_minimum_norm_for_every_period(graph):
    """Every period at n = 2..6 with a minimum placement the search can
    find: each reshuffle compiles to the minimum norm."""
    checked = 0
    for n in range(2, 7):
        for sv in range(1, 1 << n):
            f = SimonFunction.from_period(BitVec(n, sv))
            try:
                cfg, cn = search_min_configuration(f, graph)
            except CapacityError:
                continue
            rng = np.random.default_rng([n, sv])
            for c in permutation_configurations(f, graph, 12, rng, base=cfg):
                norm = circuit_norm(compile_simon_circuit(f, graph, c)).value
                assert norm == cn.value, (n, f.s, c)
            checked += 1
    assert checked > 100


def test_permutation_narrows_equal_weight_gaps(graph, noise, compiled):
    """Per-qubit readout differences show up as frequency gaps between
    outcomes of the same weight; averaging over configurations shrinks them."""
    f, cfg, _, circ = compiled[5]
    raw = sample_noisy(circ, noise, 16384, seed=23)
    rng = np.random.default_rng(23)
    cfgs = permutation_configurations(f, graph, 16, rng, base=cfg)
    merged = permutation_smooth(f, graph, [compile_simon_circuit(f, graph, c) for c in cfgs], 1024, noise, seed=23)

    def max_gap_within_weight_classes(m):
        freqs = {o: c / m.total for o, c in m.counts.items()}
        worst = 0.0
        support = [y for y in range(1 << f.n) if bin(y & f.s.value).count("1") % 2 == 0]
        by_weight = {}
        for y in support:
            by_weight.setdefault(bin(y).count("1"), []).append(freqs.get(y, 0.0))
        for vals in by_weight.values():
            if len(vals) > 1:
                worst = max(worst, max(vals) - min(vals))
        return worst

    assert max_gap_within_weight_classes(merged) < max_gap_within_weight_classes(raw)


def test_double_flip_noiseless_matches_exact_distribution(graph, compiled):
    f, cfg, _, circ = compiled[3]
    df = double_flip(circ, NoiseParams(), 4096, seed=29)
    assert df.total == 2 * 4096
    dist = exact_output_distribution(circ)
    emp = np.zeros(dist.size)
    for o, c in df.counts.items():
        emp[o] = c / df.total
    assert np.max(np.abs(emp - dist)) < 0.02
    assert set(df.counts) <= {y for y in range(8) if dist[y] > 0}


def test_flipped_run_inverts_the_bias(graph, noise, compiled):
    f, cfg, _, circ = compiled[5]
    dist = exact_output_distribution(circ)
    noiseless_weight = sum(bin(o).count("1") * p for o, p in enumerate(dist))
    flipped = append_measurement_flips(circ)
    m = sample_noisy(flipped, noise, 8192, seed=31)
    recomplemented = m.shifted((1 << f.n) - 1)
    weight = sum(bin(o).count("1") * c for o, c in recomplemented.counts.items()) / m.total
    assert weight > noiseless_weight


def test_double_flip_costs_n_extra_gates(graph, compiled):
    for n in (2, 4, 6):
        f, cfg, cn, circ = compiled[n]
        flipped = append_measurement_flips(circ)
        assert circuit_norm(flipped).value == cn.value + n


def test_double_flip_raises_tau(graph, noise, compiled):
    """The extra flip gates cost error: the structural gap is only about
    eps1, so resolving it needs enough shots to push sampling noise below."""
    f, cfg, _, circ = compiled[5]
    raw = sample_noisy(circ, noise, 131072, seed=37)
    df = double_flip(circ, noise, 131072, seed=37)
    assert estimate_tau(df, f.s) > estimate_tau(raw, f.s)


def test_kl_decreases_under_hamming_and_permutation_hamming(graph, noise, compiled):
    params_tau = 0.1
    for n in range(2, 8):
        f, cfg, _, circ = compiled[n]
        raw = sample_noisy(circ, noise, 8192, seed=20260808)
        v = choose_hamming_vector(f.s)
        ham = hamming_smooth(raw, v)
        rng = np.random.default_rng(41 + n)
        cfgs = permutation_configurations(f, graph, 16, rng, base=cfg)
        perm = permutation_smooth(f, graph, [compile_simon_circuit(f, graph, c) for c in cfgs], 2048, noise, seed=1000 + n)
        ph = hamming_smooth(perm, v)
        params = LsnParams(n, params_tau, f.s)
        q_raw = quality_report(raw, params)
        q_ham = quality_report(ham, params)
        q_ph = quality_report(ph, params)
        assert q_ham.kl < q_raw.kl
        assert q_ph.kl < q_raw.kl
        assert q_ham.tau == q_raw.tau


def test_model_perfect_input_is_not_degraded():
    """On data already drawn from the model, the classical technique leaves
    the divergence at the sampling floor instead of adding structure."""
    params = LsnParams(5, 0.11, BitVec.from_string("00011"))
    rng = np.random.default_rng(43)
    m = MeasurementMultiset.from_outcomes(params.n, sample_many(params, 100_000, rng))
    v = choose_hamming_vector(params.s)
    model = model_distribution(params)

    def kl_of(ms):
        emp = np.zeros(1 << params.n)
        for o, c in ms.counts.items():
            emp[o] = c / ms.total
        return kl_divergence(model, emp)

    before = kl_of(m)
    after = kl_of(hamming_smooth(m, v))
    # bootstrap spread of the before-KL at this sample size
    boots = []
    outcomes = m.outcomes_array()
    for _ in range(30):
        pick = rng.choice(outcomes.size, size=outcomes.size, replace=True)
        boots.append(kl_of(MeasurementMultiset.from_outcomes(params.n, outcomes[pick])))
    spread = max(boots) - min(boots)
    assert after <= before + spread
