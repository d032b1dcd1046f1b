import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisysimon import noise as noise_module
from noisysimon import statevector
from noisysimon.circuits import (
    CNOT,
    Circuit,
    Gate,
    H,
    X,
    append_measurement_flips,
    build_simon_circuit,
)
from noisysimon.gf2 import MAX_DENSE_BITS, BitVec
from noisysimon.lsn import estimate_tau
from noisysimon.multiset import MeasurementMultiset
from noisysimon.noise import NoiseParams, sample_noisy, sample_noisy_batch
from noisysimon.simon import SimonFunction
from noisysimon import CapacityError
from noisysimon.statevector import (
    circuits_equivalent,
    exact_output_distribution,
    pauli_frames,
)
from statevector_oracle import (
    PAULI_Y,
    apply_cnot,
    apply_gate,
    apply_h,
    apply_pauli,
    measured_marginal,
    run_statevector,
    zero_state,
)


def random_state(width, rng):
    v = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    return v / np.linalg.norm(v)


def test_gate_self_inverses_on_random_states():
    rng = np.random.default_rng(0)
    for _ in range(20):
        width = int(rng.integers(2, 6))
        state = random_state(width, rng)
        q = int(rng.integers(0, width))
        assert np.allclose(apply_h(apply_h(state, q, width), q, width), state, atol=1e-12)
        c = int(rng.integers(0, width))
        t = (c + 1 + int(rng.integers(0, width - 1))) % width
        twice = apply_cnot(apply_cnot(state, c, t, width), c, t, width)
        assert np.allclose(twice, state, atol=1e-12)


def test_norm_preserved_by_every_gate():
    rng = np.random.default_rng(1)
    state = random_state(4, rng)
    for gate in (Gate(H, 2), Gate(X, 0), Gate(CNOT, 3, control=1)):
        state = apply_gate(state, gate, 4)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_control_bit_change_identity():
    """Conjugating a CNOT by Hadamards on both wires reverses its direction."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        state = random_state(2, rng)
        lhs = state
        for q in (0, 1):
            lhs = apply_h(lhs, q, 2)
        lhs = apply_cnot(lhs, 0, 1, 2)
        for q in (0, 1):
            lhs = apply_h(lhs, q, 2)
        rhs = apply_cnot(state, 1, 0, 2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_simon_distribution_uniform_on_orthogonal_subspace():
    for n in range(2, 8):
        f = SimonFunction.default(n)
        dist = exact_output_distribution(build_simon_circuit(f))
        expected = np.zeros(1 << n)
        for y in range(1 << n):
            if bin(y & f.s.value).count("1") % 2 == 0:
                expected[y] = 1.0 / (1 << (n - 1))
        assert np.max(np.abs(dist - expected)) < 1e-10


def test_single_hadamard_and_empty_circuit():
    single = Circuit(1, (Gate(H, 0),), (0,))
    assert np.allclose(exact_output_distribution(single), [0.5, 0.5])
    empty = Circuit(3, (), (0, 1, 2))
    dist = exact_output_distribution(empty)
    assert dist[0] == 1.0 and np.all(dist[1:] == 0.0)


def test_sampling_is_not_limited_by_width():
    """Sampling takes the support, not 2^width amplitudes: 40 wires are fine."""
    circ = Circuit(40, (Gate(H, 39), Gate(CNOT, 0, control=39), Gate(X, 20)), (0, 39, 20))
    assert exact_output_distribution(circ).tolist() == [0, 0, 0, 0, 0.5, 0, 0, 0.5]
    m = sample_noisy(circ, NoiseParams(), 4096, seed=7)
    assert set(m.counts) == {0b100, 0b111} and m.total == 4096


def test_support_capacity_error():
    """A support too large to materialise fails at once with CapacityError."""
    wires = MAX_DENSE_BITS + 1
    circ = Circuit(wires, tuple(Gate(H, q) for q in range(wires)), tuple(range(wires)))
    with pytest.raises(CapacityError, match="support limit"):
        sample_noisy(circ, NoiseParams(), 16, seed=0)


def test_capacity_error():
    with pytest.raises(CapacityError):
        zero_state(29)


def test_circuits_equivalent():
    c = build_simon_circuit(SimonFunction.default(3))
    assert circuits_equivalent(c, c, 1e-12)
    h_then = Circuit(1, (Gate(H, 0),), (0,))
    x_then = Circuit(1, (Gate(X, 0),), (0,))
    assert not circuits_equivalent(h_then, x_then, 1e-9)
    with pytest.raises(ValueError):
        circuits_equivalent(h_then, Circuit(2, (), (0, 1)))


def test_statevector_norm_after_simon_circuit():
    state = run_statevector(build_simon_circuit(SimonFunction.default(5)))
    assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_pauli_y_on_real_statevector_matches_complex_state():
    circ = build_simon_circuit(SimonFunction.default(3))
    real = run_statevector(circ)
    assert real.dtype == np.float64
    for q in range(circ.width):
        got = apply_pauli(real, PAULI_Y, q, circ.width)
        want = apply_pauli(real.astype(np.complex128), PAULI_Y, q, circ.width)
        assert got.dtype == np.complex128
        assert np.array_equal(got, want)


def test_noiseless_sampling_matches_exact_distribution(compiled):
    for n in (2, 5, 7):
        _, _, _, circ = compiled[n]
        dist = exact_output_distribution(circ)
        m = sample_noisy(circ, NoiseParams(), 8192, seed=13)
        emp = np.zeros(dist.size)
        for o, c in m.counts.items():
            emp[o] = c / m.total
        # per-outcome deviation inside 0.02; the summed half-L1 metric has
        # expectation ~0.035 at n=7 with 8192 shots, so bound it at 0.05
        assert np.max(np.abs(emp - dist)) < 0.02
        assert 0.5 * np.abs(emp - dist).sum() < 0.05


def test_sampling_deterministic_for_each_seed(compiled):
    _, _, _, circ = compiled[4]
    noise = NoiseParams.from_dict({"eps1": 0.003, "crosstalk": 0.004,
                                  "default_p01": 0.01, "default_p10": 0.05})
    a = sample_noisy(circ, noise, 4096, seed=99)
    b = sample_noisy(circ, noise, 4096, seed=99)
    assert a.counts == b.counts
    assert a.total == 4096


def test_one_pauli_walk_per_sample_call(compiled, noise, monkeypatch):
    walks = []
    walk = statevector.pauli_frames

    def counting(circuit):
        walks.append(circuit)
        return walk(circuit)

    monkeypatch.setattr(statevector, "pauli_frames", counting)
    monkeypatch.setattr(noise_module, "pauli_frames", counting, raising=False)
    _, _, _, circ = compiled[4]
    assert sample_noisy(circ, noise, 4096, seed=99).total == 4096
    assert walks == [circ]


def test_sampler_memory_does_not_grow_with_shots_times_gates(compiled, noise):
    """The fault fields are drawn in blocks: one n=7 call of 2^18 shots
    (18 gates, 7 CNOTs with 11 other wires each) stays within 20 MiB traced,
    though its (shots, gates) field of doubles alone would take 36 MiB."""
    _, _, _, circ = compiled[7]
    sample_noisy(circ, noise, 64, seed=1)
    tracemalloc.start()
    try:
        sample_noisy(circ, noise, 1 << 18, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_large_fields_split_and_small_calls_stay_on_one_thread(compiled, noise, monkeypatch):
    """An n=7 call of 2^18 shots draws its fields on helper threads; a single
    8,192-shot call (its largest field holds 8,192 x 18 doubles) starts none.
    The smoothing table's 8,192-shot calls are drawn two at a time by
    `sample_noisy_batch`, which is tested on its own."""
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    _, _, _, circ = compiled[7]
    sample_noisy(circ, noise, 8192, seed=1)
    assert started == []
    sample_noisy(circ, noise, 1 << 18, seed=1)
    assert started


def test_split_field_joins_its_helper_and_reraises(monkeypatch):
    monkeypatch.setattr(noise_module, "SPLIT_FIELD", 1)
    rng = np.random.default_rng(0)
    buf = np.empty(6)  # one row of 3 per block in each half
    before = threading.active_count()
    assert len(noise_module._split_field(rng, 9, 3, buf, lambda start, u: start)) == 9
    assert threading.active_count() == before

    def fail_from(row):
        def step(start, u):
            if start >= row:
                raise RuntimeError(f"row {start}")
        return step

    for row in (4, 0):  # the helper's half (rows 4..8) fails, then both halves
        with pytest.raises(RuntimeError, match="row"):
            noise_module._split_field(rng, 9, 3, buf, fail_from(row))
        assert threading.active_count() == before


# (n, flipped) of the property test's circuits: compiled, or with an X
# appended to every measured wire; widths 4 to 14
BATCH_CIRCUITS = [(n, flipped) for n in (2, 3, 5, 7) for flipped in (False, True)]


def _batch_circuit(compiled, n, flipped):
    circ = compiled[n][3]
    return append_measurement_flips(circ) if flipped else circ


@settings(max_examples=25, deadline=None)
@given(
    jobs=st.lists(st.tuples(st.sampled_from(BATCH_CIRCUITS), st.integers(0, 2**32)),
                  min_size=1, max_size=5),
    shots=st.sampled_from([1, 3, 7, 129, 8192]),
    ideal=st.booleans(),
)
@example(jobs=[((7, False), 1)], shots=8192, ideal=False)
@example(jobs=[((7, False), 1), ((7, True), 2), ((5, False), 3)], shots=8192, ideal=False)
@example(jobs=[((2, True), 5), ((7, False), 5), ((3, False), 6), ((3, True), 0)], shots=1,
         ideal=True)
def test_batch_draws_what_each_call_draws(compiled, noise, jobs, shots, ideal):
    model = NoiseParams() if ideal else noise
    jobs = [(_batch_circuit(compiled, *key), seed) for key, seed in jobs]
    expected = [sample_noisy(c, model, shots, seed=seed) for c, seed in jobs]
    assert sample_noisy_batch(jobs, model, shots) == expected


def test_batch_starts_one_helper_and_a_single_job_none(compiled, noise, monkeypatch):
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    circ = compiled[5][3]
    sample_noisy_batch([(circ, 1)], noise, 64)
    assert started == []
    sample_noisy_batch([(circ, k) for k in range(5)], noise, 64)
    assert len(started) == 1


@pytest.mark.parametrize("bad", range(4))  # jobs 0 and 2 run on the calling thread
def test_batch_reraises_a_jobs_error_and_joins_its_helper(compiled, noise, monkeypatch, bad):
    wires = MAX_DENSE_BITS + 1
    wide = Circuit(wires, tuple(Gate(H, q) for q in range(wires)), tuple(range(wires)))
    jobs = [(compiled[3][3], k) for k in range(4)]
    before = threading.active_count()
    with pytest.raises(CapacityError, match="support limit"):
        sample_noisy_batch(jobs[:bad] + [(wide, 0)] + jobs[bad + 1:], noise, 64)
    assert threading.active_count() == before

    error, draw = RuntimeError("job failed"), noise_module._draw

    def failing(circuit, seed, *args):
        if seed == bad:
            raise error
        return draw(circuit, seed, *args)

    monkeypatch.setattr(noise_module, "_draw", failing)
    with pytest.raises(RuntimeError) as raised:
        sample_noisy_batch(jobs, noise, 64)
    assert raised.value is error
    assert threading.active_count() == before


@pytest.mark.parametrize("bad", range(4))  # jobs 0 and 2 run on the calling thread
def test_batch_stops_the_other_half_after_a_failed_draw(compiled, noise, monkeypatch, bad):
    """Each job's draw starts once the job before it has ended, so the two
    halves keep pace. When job `bad` fails, the other half ends the draw it
    has under way and starts no other: at most bad + 2 draws in all."""
    jobs = [(compiled[3][3], k) for k in range(8)]
    ended = [threading.Event() for _ in jobs]
    calls, draw = [], noise_module._draw

    def paced(circuit, seed, *args):
        calls.append(seed)
        try:
            assert seed == 0 or ended[seed - 1].wait(timeout=10)
            if seed == bad:
                raise RuntimeError("job failed")
            return draw(circuit, seed, *args)
        finally:
            ended[seed].set()

    monkeypatch.setattr(noise_module, "_draw", paced)
    with pytest.raises(RuntimeError, match="job failed"):
        sample_noisy_batch(jobs, noise, 64)
    assert len(calls) <= bad + 2


def test_batch_holds_no_outcomes_waiting_to_be_counted(compiled, noise):
    """Each thread counts a draw before it starts the next, so a batch of 8
    jobs peaks at about two single calls drawn at once: within half an
    outcome array (2^16 int64) of twice a single call's peak."""
    circ, shots = compiled[3][3], 1 << 16
    peaks = []
    for run in (lambda: sample_noisy(circ, noise, shots, seed=1),
                lambda: sample_noisy_batch([(circ, k) for k in range(8)], noise, shots)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    single, batch = peaks
    assert batch <= 2 * single + 4 * shots


def test_concurrent_batches_under_fast_thread_switching(compiled, noise):
    """Three threads run batches at once (six threads on two cores) with a
    1 us switch interval; every batch equals its jobs drawn one by one."""
    jobs = [(compiled[n][3], 10 * n + k) for n in (2, 3, 4) for k in range(3)]
    expected = [sample_noisy(c, noise, 17, seed=seed) for c, seed in jobs]
    results, interval = [], sys.getswitchinterval()

    def run():
        for _ in range(5):
            results.append(sample_noisy_batch(jobs, noise, 17) == expected)

    threads = [threading.Thread(target=run) for _ in range(3)]
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 15


def test_batch_checks_shots_before_any_draw(compiled, noise):
    jobs = [(compiled[3][3], k) for k in range(4)]
    before = threading.active_count()
    with pytest.raises(ValueError, match="shots must be >= 1"):
        sample_noisy_batch(jobs, noise, 0)
    assert threading.active_count() == before


def test_readout_bias_lowers_mean_weight(compiled):
    _, _, _, circ = compiled[5]
    dist = exact_output_distribution(circ)
    noiseless_weight = sum(bin(o).count("1") * p for o, p in enumerate(dist))
    biased = NoiseParams.from_dict({"eps1": 0.002, "default_p01": 0.004, "default_p10": 0.09})
    m = sample_noisy(circ, biased, 8192, seed=21)
    measured_weight = sum(bin(o).count("1") * c for o, c in m.counts.items()) / m.total
    assert measured_weight < noiseless_weight


def test_error_rate_grows_with_dimension(compiled, noise):
    taus = []
    for n in range(2, 8):
        f, _, _, circ = compiled[n]
        m = sample_noisy(circ, noise, 32768, seed=20260808)
        taus.append(estimate_tau(m, f.s))
    assert all(a <= b for a, b in zip(taus, taus[1:]))
    assert taus[-1] > taus[0]


def test_optimized_circuit_equivalent_to_built(compiled):
    for n in (2, 3, 5):
        f, _, _, circ = compiled[n]
        assert circuits_equivalent(build_simon_circuit(f), circ, 1e-9)


def test_multiset_csv_round_trip(tmp_path, compiled):
    _, _, _, circ = compiled[3]
    m = sample_noisy(circ, NoiseParams(), 512, seed=5)
    path = tmp_path / "m.csv"
    m.to_csv(path, header={"seed": "5"})
    back = MeasurementMultiset.from_csv(path)
    assert back.counts == m.counts and back.n == m.n


def test_fault_propagation_matches_explicit_trajectories(compiled):
    """A Pauli injected right after a gate flips the outcome bits it
    anticommutes with in the pulled-back Z rows; check every injection site
    against a statevector run with the fault applied in place."""
    _, _, _, circ = compiled[3]
    base = exact_output_distribution(circ)
    frames, _ = pauli_frames(circ)
    for g_idx in range(len(circ.gates)):
        for wire in range(circ.width):
            x, z = (int(v) for v in frames[g_idx, :, wire])
            for code in (1, 2, 3):
                state = zero_state(circ.width)
                for k, gate in enumerate(circ.gates):
                    state = apply_gate(state, gate, circ.width)
                    if k == g_idx:
                        state = apply_pauli(state, code, wire, circ.width)
                slow = measured_marginal(state, circ.measured, circ.width)
                out_mask = {1: z, 2: x ^ z, 3: x}[code]
                fast = base[np.arange(base.size) ^ out_mask]
                assert np.max(np.abs(slow - fast)) < 1e-12


def test_sampling_logical_circuit_uses_default_readout():
    circ = build_simon_circuit(SimonFunction.default(2))  # labels are wire names
    noise = NoiseParams(default_p01=0.0, default_p10=0.5)
    m = sample_noisy(circ, noise, 20000, seed=3)
    ones = sum(bin(o).count("1") * c for o, c in m.counts.items()) / (2 * m.total)
    assert 0.2 < ones < 0.3  # half the noiseless ones flipped to zero


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(eps1=1.5)
    with pytest.raises(ValueError):
        NoiseParams(readout=((0.1, -0.2),))
    for bad in ([0.1], {"eps1": "high"}, {"readout": [[0.1]]}, {"readout": [0.1]}):
        with pytest.raises(ValueError):
            NoiseParams.from_dict(bad)
    assert NoiseParams.from_dict({"eps1": 0.002}) == NoiseParams(eps1=0.002, eps2=0.02)


def test_estimate_tau_examples():
    m = MeasurementMultiset(3, {0b000: 4, 0b011: 4})
    assert estimate_tau(m, BitVec.from_string("011")) == 0.0
    m2 = MeasurementMultiset(3, {0b000: 8192 - 819, 0b001: 819})
    assert abs(estimate_tau(m2, BitVec.from_string("011")) - 819 / 8192) < 1e-15


def test_circuit_json_round_trip_text_and_file(tmp_path, compiled):
    circ = compiled[7][3]
    text = circ.to_json(tmp_path / "c.json")
    assert len(text) > 255  # longer than a file name may be
    assert Circuit.from_json(text) == circ
    assert Circuit.from_json((tmp_path / "c.json").read_text()) == circ
    circ.to_json(str(tmp_path / "d.json"))
    assert Circuit.from_json((tmp_path / "d.json").read_text()) == circ
