import csv
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import noisysimon
from noisysimon import cli, smoothing, transpile
from noisysimon import noise as noise_module
from noisysimon.circuits import build_simon_circuit
from noisysimon.cli import TECHNIQUES, main
from noisysimon.multiset import MeasurementMultiset
from noisysimon.reductions import SolveFailure
from noisysimon.simon import SimonFunction
from noisysimon.statevector import circuits_equivalent


def read_rows(path):
    with open(path) as fh:
        filtered = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(filtered))


def read_header(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.startswith("# "):
            break
        key, value = line[2:].split("=", 1)
        out[key] = value
    return out


def test_transpile_report(tmp_path):
    assert main(["--out-dir", str(tmp_path), "transpile-report"]) == 0
    rows = read_rows(tmp_path / "transpile_report.csv")
    assert [int(r["cn"]) for r in rows] == [21, 33, 45, 57, 69, 81]
    for n in range(2, 8):
        d = json.loads((tmp_path / f"circuit_n{n}.json").read_text())
        kinds = [g["kind"] for g in d["gates"]]
        assert kinds.count("h") == 2 * n - 3
        assert kinds.count("cnot") == n
        assert len(d["measured"]) == n
    header = read_header(tmp_path / "transpile_report.csv")
    assert {"seed", "version", "config"} <= set(header)


def test_measure_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--out-dir", str(a), "measure", "--n", "3", "--shots", "1024"]) == 0
    assert main(["--out-dir", str(b), "measure", "--n", "3", "--shots", "1024"]) == 0
    assert (a / "measure_n3.csv").read_bytes() == (b / "measure_n3.csv").read_bytes()
    m = MeasurementMultiset.from_csv(a / "measure_n3.csv")
    assert m.total == 1024


def test_measure_naive_configuration_routes_through_swap_chains(tmp_path):
    assert main(["--out-dir", str(tmp_path), "measure", "--n", "3", "--config", "naive",
                 "--shots", "1000"]) == 0
    assert MeasurementMultiset.from_csv(tmp_path / "measure_n3.csv").total == 1000
    f, graph = SimonFunction.default(3), transpile.melbourne_topology()
    naive = transpile.compile_simon_circuit(f, graph, transpile.Configuration.naive(3))
    assert transpile.circuit_norm(naive).value == 303
    assert transpile.search_min_configuration(f, graph)[1].value == 33
    assert circuits_equivalent(build_simon_circuit(f), naive, 1e-9)


def test_noiseless_measure_has_near_zero_divergence(tmp_path):
    noise_file = tmp_path / "ideal.json"
    noise_file.write_text(json.dumps({"eps1": 0, "eps2": 0, "crosstalk": 0,
                                      "default_p01": 0, "default_p10": 0, "readout": []}))
    assert main(["--out-dir", str(tmp_path), "--noise", str(noise_file),
                 "smooth", "--n", "4", "--technique", "none", "--shots", "8192"]) == 0
    rows = read_rows(tmp_path / "quality_n4.csv")
    assert len(rows) == 1
    assert float(rows[0]["tau"]) == 0.0
    assert float(rows[0]["KL"]) < 0.005


def test_smooth_all_produces_quality_table(tmp_path):
    assert main(["--out-dir", str(tmp_path), "smooth", "--n", "5",
                 "--shots", "2048", "--configs", "12"]) == 0
    rows = read_rows(tmp_path / "quality_n5.csv")
    techniques = [r["technique"] for r in rows]
    assert techniques == ["none", "permutation", "double-flip",
                          "permutation/double-flip", "hamming", "permutation/hamming"]
    by_tech = {r["technique"]: r for r in rows}
    assert float(by_tech["permutation/hamming"]["KL"]) < float(by_tech["hamming"]["KL"])
    assert float(by_tech["hamming"]["KL"]) < float(by_tech["none"]["KL"])
    assert float(by_tech["hamming"]["tau"]) == float(by_tech["none"]["tau"])
    # the double-flip error-rate increase is ~eps1, below sampling noise at
    # these shot counts; the high-shot check lives in test_smoothing
    assert 0.05 < float(by_tech["double-flip"]["tau"]) < 0.2
    for tech in techniques:
        slug = tech.replace("/", "-")
        assert (tmp_path / f"smooth_{slug}_n5.csv").exists()


# sha256 of `smooth --n 5 --shots 2048 --configs 12` at the default seed, from
# the implementation that sampled every row on its own.
SMOOTH_ALL_N5 = {
    "quality_n5.csv": "58648c6e053cbfe3307ff67e8caa92151852dd3dc2e1635569cfe4231c34544c",
    "smooth_double-flip_n5.csv": "ac26affd8a9f72db218cde5a9354fb952b61c3700f6873076a0e1d430c07a9ea",
    "smooth_hamming_n5.csv": "cc45a60197d47ee65e8d7a5ae19b88c7d1539a21b5aa5dcda4c112460d1fe025",
    "smooth_none_n5.csv": "77dd801302360b0ad9287143d3dee1c594b4bd00443b972fbf6f41dfc08cff69",
    "smooth_permutation-double-flip_n5.csv":
        "ce3982eae67628d627852123bd00355daca148beb9ffb3a9ccb592ac15832714",
    "smooth_permutation-hamming_n5.csv":
        "83a5ad817057b119631bec60bb6b26c37dfdcabc4519b87040f40531dfc2b726",
    "smooth_permutation_n5.csv": "0967469947c6d78da9e708a587652174843d12f7551b491f203aa1932aab5c5a",
}


def _without_config(text):
    return [line for line in text.splitlines() if not line.startswith("# config=")]


def test_smooth_all_matches_single_technique_runs(tmp_path):
    opts = ["smooth", "--n", "5", "--shots", "2048", "--configs", "12"]
    assert main(["--out-dir", str(tmp_path / "all")] + opts) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "all").iterdir()}
    assert written == SMOOTH_ALL_N5
    quality = []
    for tech in TECHNIQUES:
        one = tmp_path / tech.replace("/", "-")
        assert main(["--out-dir", str(one)] + opts + ["--technique", tech]) == 0
        name = f"smooth_{tech.replace('/', '-')}_n5.csv"
        # the option hash differs (--technique); every other byte is the same
        assert (_without_config((one / name).read_text())
                == _without_config((tmp_path / "all" / name).read_text()))
        quality += _without_config((one / "quality_n5.csv").read_text())[-1:]
    assert quality == _without_config((tmp_path / "all" / "quality_n5.csv").read_text())[-6:]


def test_smooth_all_samples_each_base_multiset_once(tmp_path, monkeypatch):
    calls = {"sample": 0, "compile": 0, "search": 0}
    lock = threading.Lock()  # sampler draws also run on the batch's helper thread

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # every draw, whether through sample_noisy or a batch, is one _draw call
    monkeypatch.setattr(noise_module, "_draw", counted("sample", noise_module._draw))
    # smoothing takes compiled circuits, so only the CLI compiles
    assert not hasattr(smoothing, "compile_simon_circuit")
    monkeypatch.setattr(cli, "compile_simon_circuit", counted("compile", cli.compile_simon_circuit))
    monkeypatch.setattr(transpile, "_search", counted("search", transpile._search))
    transpile.search_min_configuration.cache_clear()
    try:
        assert main(["--out-dir", str(tmp_path), "smooth", "--n", "5", "--shots", "2048"]) == 0
    finally:
        transpile.search_min_configuration.cache_clear()
    # none 1 + permutation 50 + double-flip 2 + permutation/double-flip 100;
    # the two Hamming rows shift the none and permutation multisets, and the
    # double-flip rows reuse the 1 + 50 compiled circuits; permutation_smooth
    # reads the minimum norm off the search cmd_smooth made
    assert calls == {"sample": 153, "compile": 51, "search": 1}


def test_smooth_all_optimizes_only_the_logical_circuit(tmp_path, monkeypatch):
    """Every placement of the smoothing table is swap-free, so each compile
    renames the wires of the optimized logical circuit: the rewriter runs
    once, on the logical circuit, and not once per placement."""
    calls = []
    original = transpile.peephole_optimize

    def counting(circuit):
        calls.append(circuit)
        return original(circuit)

    monkeypatch.setattr(transpile, "peephole_optimize", counting)
    caches = (transpile._optimized_logical, transpile.search_min_configuration)
    for cache in caches:
        cache.cache_clear()
    try:
        assert main(["--out-dir", str(tmp_path), "smooth", "--n", "7", "--technique", "all"]) == 0
    finally:
        for cache in caches:
            cache.cache_clear()
    assert calls == [build_simon_circuit(SimonFunction.default(7))]


def test_workers_option_is_rejected(tmp_path, capsys):
    """The sampler has one stream per seed, so there is no stream layout to pick."""
    with pytest.raises(SystemExit) as info:
        main(["--out-dir", str(tmp_path), "--workers=2", "measure", "--n", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --workers=2" in capsys.readouterr().err
    assert not (tmp_path / "measure_n2.csv").exists()


def test_stats_command(tmp_path):
    assert main(["--out-dir", str(tmp_path), "measure", "--n", "3", "--shots", "2048"]) == 0
    assert main(["--out-dir", str(tmp_path), "stats",
                 "--multiset", str(tmp_path / "measure_n3.csv"), "--label", "raw"]) == 0
    rows = read_rows(tmp_path / "stats.csv")
    assert rows[0]["technique"] == "raw"
    assert 0.0 <= float(rows[0]["tau"]) <= 0.3


def test_stats_row_at_a_measured_tau_above_one_half(tmp_path, capsys):
    multiset = tmp_path / "m.csv"
    MeasurementMultiset(2, {0b00: 40, 0b11: 5, 0b01: 30, 0b10: 25}).to_csv(multiset)
    assert main(["--out-dir", str(tmp_path), "stats", "--multiset", str(multiset)]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert lines[-2:] == ["technique,KL,K,tau", "stored,0.304759,0.175000,0.550000"]


def test_crossover_small(tmp_path):
    assert main(["--out-dir", str(tmp_path), "crossover", "--trials", "200"]) == 0
    rows = read_rows(tmp_path / "crossover.csv")
    assert [int(r["n"]) for r in rows] == [2, 3, 4, 5, 6, 7]
    p4 = float(rows[2]["period_log2_loops"])
    q4 = float(rows[2]["pooled_lsn_log2_loops"])
    p5 = float(rows[3]["period_log2_loops"])
    q5 = float(rows[3]["pooled_lsn_log2_loops"])
    assert p4 < q4 and q5 < p5  # crossover between n=4 and n=5


def test_reduction_check_exact_and_statistical(tmp_path):
    assert main(["--out-dir", str(tmp_path), "reduction-check", "--n", "3", "--tau", "0.1"]) == 0
    rows = read_rows(tmp_path / "reduction_check.csv")
    assert all(r["verdict"] == "PASS" for r in rows)
    assert main(["--out-dir", str(tmp_path), "reduction-check", "--n", "16",
                 "--tau", "0.1", "--samples", "40000"]) == 0


@pytest.mark.parametrize("n, statistics", [
    (5, ["0.8369", "0.9305"]),
    (9, ["0.4022", "0.5265"]),
    (16, ["0.5978", "0.2873"]),
])
def test_reduction_check_p_values_at_the_default_seed(tmp_path, n, statistics):
    """The chi-square p-values the command writes at the default seed and
    sample count, as computed with one parity pass per projected coordinate."""
    assert main(["--out-dir", str(tmp_path), "reduction-check", "--n", str(n)]) == 0
    rows = read_rows(tmp_path / "reduction_check.csv")
    assert [r["statistic"] for r in rows] == statistics


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_reduction_check_chi_square_below_nine_bits(tmp_path, n):
    """Projections use min(8, n - 1) coordinates, so 4 < n < 9 runs too."""
    rc = main(["--out-dir", str(tmp_path), "reduction-check", "--n", str(n),
               "--samples", "20000"])
    rows = read_rows(tmp_path / "reduction_check.csv")
    assert [r["mode"] for r in rows] == ["chi-square", "chi-square"]
    assert rc == (0 if all(r["verdict"] == "PASS" for r in rows) else 1)


def test_solve_commands(tmp_path):
    for algo in ("period", "pooled-lsn", "pooled-gauss"):
        rc = main(["--out-dir", str(tmp_path), "solve", "--algorithm", algo,
                   "--n", "6", "--tau", "0.1", "--pool-size", "2048"])
        assert rc == 0
        rows = read_rows(tmp_path / "solve.csv")
        assert rows[0]["verified"] == "True"
        assert rows[0]["period"] == "000011"


@pytest.mark.parametrize("seed", range(1, 9))
def test_pooled_gauss_verifies_the_period_at_a_high_error_rate(tmp_path, seed):
    """At tau = 0.4 the held-out set grows to heldout_size(7, 0.4) = 1801
    samples, so the majority verifier tells the period from the rest."""
    assert main(["--out-dir", str(tmp_path), "--seed", str(seed), "solve",
                 "--algorithm", "pooled-gauss", "--n", "7", "--tau", "0.4"]) == 0
    assert read_rows(tmp_path / "solve.csv")[0]["verified"] == "True"


def test_custom_topology_flag(tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({
        "vertices": 6,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5], [1, 4]],
    }))
    assert main(["--out-dir", str(tmp_path), "--topology", str(topo),
                 "transpile-report", "--n-min", "2", "--n-max", "2"]) == 0
    rows = read_rows(tmp_path / "transpile_report.csv")
    assert int(rows[0]["cn"]) == 21


def test_bad_input_gives_one_line_error(tmp_path, capsys):
    bad_noise = tmp_path / "bad.json"
    bad_noise.write_text('{"eps1": 0.01,')
    not_json = tmp_path / "topology.txt"
    not_json.write_text("0-1 1-2\n")
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [2, 3]]}))
    star = tmp_path / "star.json"
    star.write_text(json.dumps({"vertices": 15, "edges": [[0, i] for i in range(1, 15)]}))
    no_edges = tmp_path / "no_edges.json"
    no_edges.write_text("{}")
    self_loop = tmp_path / "self_loop.json"
    self_loop.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [2, 2]]}))
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [0, 5]]}))
    short_readout = tmp_path / "short_readout.json"
    short_readout.write_text(json.dumps({"eps1": 0.001, "readout": [[0.1]]}))
    short_edge = tmp_path / "short_edge.json"
    short_edge.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [0]]}))
    long_edge = tmp_path / "long_edge.json"
    long_edge.write_text(json.dumps({"vertices": 4, "edges": [[0, 1, 2]]}))
    half_vertex = tmp_path / "half_vertex.json"
    half_vertex.write_text(json.dumps({"vertices": 15, "edges": [[0.5, 1], [1, 2]]}))
    bool_vertex = tmp_path / "bool_vertex.json"
    bool_vertex.write_text(json.dumps({"vertices": 15, "edges": [[0, 1], [True, 2]]}))
    bool_count = tmp_path / "bool_count.json"
    bool_count.write_text(json.dumps({"vertices": True, "edges": []}))
    unknown_key = tmp_path / "unknown_key.json"
    unknown_key.write_text(json.dumps({"eps1": 0.01, "bogus": 3}))
    noise_list = tmp_path / "noise_list.json"
    noise_list.write_text(json.dumps([1, 2]))
    bool_rate = tmp_path / "bool_rate.json"
    bool_rate.write_text(json.dumps({"default_p01": True}))
    text_rate = tmp_path / "text_rate.json"
    text_rate.write_text(json.dumps({"eps1": "0.1"}))
    text_readout = tmp_path / "text_readout.json"
    text_readout.write_text(json.dumps({"readout": [[0.1, "x"]]}))
    multiset = tmp_path / "m.csv"
    MeasurementMultiset(3, {o: 90 if o in (0, 3, 4, 7) else 10 for o in range(8)}).to_csv(multiset)
    cases = [
        (["--topology", str(star), "transpile-report", "--n-min", "3", "--n-max", "3"],
         "no swap-free placement"),
        (["--topology", str(split), "measure", "--n", "2"], "are disconnected"),
        (["measure", "--n", "7", "--shots", "0"], "shots must be >= 1"),
        (["measure", "--n", "8"], "need 16 wires but the device has 15"),
        (["--noise", str(bad_noise), "measure", "--n", "2"],
         f"{bad_noise} is not JSON: Expecting property name"),
        (["--topology", str(not_json), "measure", "--n", "2"], f"{not_json} is not JSON: "),
        (["transpile-report", "--n-min", "5", "--n-max", "3"], "--n-min 5 exceeds --n-max 3"),
        (["solve", "--algorithm", "period", "--n", "40"],
         "n=40 exceeds the 24-bit classical period limit"),
        (["--noise", str(tmp_path / "missing.json"), "measure", "--n", "2"], "No such file"),
        (["--topology", str(no_edges), "measure", "--n", "2"], "malformed topology"),
        (["crossover", "--trials", "0"], "--trials must be >= 1"),
        (["reduction-check", "--n", "6", "--samples", "5"], "it needs at least 1600"),
        (["reduction-check", "--n", "6", "--samples", "0"], "it needs at least 1600"),
        (["--topology", str(self_loop), "measure", "--n", "2"], "self-loop at vertex 2"),
        (["--topology", str(outside), "measure", "--n", "2"], "edge (0,5) outside vertex range"),
        (["smooth", "--n", "3", "--technique", "permutation", "--configs", "0"],
         "--configs must be >= 1"),
        (["smooth", "--n", "3", "--technique", "permutation/double-flip", "--configs", "0"],
         "--configs must be >= 1"),
        (["solve", "--algorithm", "pooled-gauss", "--n", "3", "--pool-size", "128"],
         "--pool-size must be >= 131"),
        (["solve", "--algorithm", "pooled-gauss", "--n", "7", "--tau", "0.4", "--pool-size",
          "1807"], "--pool-size must be >= 1808 for pooled-gauss at n=7"),
        (["solve", "--algorithm", "pooled-lsn", "--n", "5", "--pool-size", "0"],
         "--pool-size must be >= 4 for pooled-lsn at n=5"),
        (["crossover", "--pool-size", "0"], "--pool-size must be >= 6 for crossover"),
        (["crossover", "--pool-size", "5"], "--pool-size must be >= 6 for crossover"),
        (["stats", "--multiset", str(multiset), "--label", "a,b"], "holds a comma"),
        (["stats", "--multiset", str(multiset), "--label", "a\nb"], "has a line break"),
        (["--noise", str(short_readout), "measure", "--n", "2"],
         "malformed readout entry [0.1]: not a (p01, p10) pair"),
        (["--topology", str(short_edge), "measure", "--n", "2"], "malformed edge [0]"),
        (["--topology", str(long_edge), "measure", "--n", "2"], "malformed edge [0, 1, 2]"),
        (["reduction-check", "--n", "0"], "--n must be >= 1"),
        (["reduction-check", "--n", "-3"], "--n must be >= 1"),
        (["--topology", str(half_vertex), "measure", "--n", "2"],
         "edge (0.5,1) has a vertex that is not an integer"),
        (["--topology", str(half_vertex), "transpile-report", "--n-max", "2"],
         "edge (0.5,1) has a vertex that is not an integer"),
        (["--topology", str(bool_vertex), "measure", "--n", "2"],
         "edge (True,2) has a vertex that is not an integer"),
        (["--topology", str(bool_count), "measure", "--n", "2"],
         "vertex count True is not a non-negative integer"),
        (["--noise", str(unknown_key), "measure", "--n", "2"], "unknown noise parameters ['bogus']"),
        (["--noise", str(noise_list), "measure", "--n", "2"],
         "malformed noise parameters: a list, not a JSON object"),
        (["--noise", str(bool_rate), "measure", "--n", "2"],
         "noise rate default_p01 is True, not a number"),
        (["--noise", str(text_rate), "measure", "--n", "2"], "noise rate eps1 is '0.1', not a number"),
        (["--noise", str(text_readout), "measure", "--n", "2"],
         "noise rate readout[0][1] is 'x', not a number"),
    ]
    for argv, message in cases:
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("noisysimon: error: ") and message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "stats.csv").exists()
    assert not (tmp_path / "transpile_report.csv").exists()
    assert not (tmp_path / "solve.csv").exists()
    assert main(["--out-dir", str(tmp_path), "smooth", "--n", "3", "--technique", "none",
                 "--configs", "0"]) == 0


def test_solver_failure_gives_one_line_error_and_status_1(tmp_path, capsys, monkeypatch):
    def give_up(*args, **kwargs):
        raise SolveFailure("no verified period within 1000000 loops")

    monkeypatch.setattr(cli, "pooled_lsn", give_up)
    assert main(["--out-dir", str(tmp_path), "solve", "--algorithm", "pooled-lsn",
                 "--n", "4", "--tau", "0.3", "--pool-size", "3"]) == 1
    err = capsys.readouterr().err
    assert err == "noisysimon: error: no verified period within 1000000 loops\n"
    assert not (tmp_path / "solve.csv").exists()


@pytest.mark.parametrize("argv, pool, loops", [
    (["--seed", "5", "solve", "--algorithm", "pooled-lsn", "--n", "7", "--pool-size", "7"],
     "a pool of 7 allows 7 draws of 6", 14),
    (["--seed", "7", "solve", "--algorithm", "pooled-lsn", "--n", "7", "--pool-size", "7"],
     "a pool of 7 allows 7 draws of 6", 13),
    (["crossover", "--trials", "1", "--pool-size", "6", "--taus"] + ["0.1"] * 6,
     "a pool of 6 allows 6 draws of 5", 11),
])
def test_exhausted_small_pool_ends_in_status_1(tmp_path, capsys, argv, pool, loops):
    """Once every distinct draw of a small pool has failed, the solve ends
    instead of redrawing them for all 1,000,000 loops."""
    assert main(["--out-dir", str(tmp_path)] + argv) == 1
    err = capsys.readouterr().err
    assert err == (f"noisysimon: error: {pool}, all drawn within {loops} loops: "
                   "no verified period\n")
    assert not list(tmp_path.iterdir())


def test_pool_too_small_for_distinct_draws_ends_at_once(tmp_path, capsys):
    """A draw of 19 distinct samples from a pool of 20 takes about 2.2e6
    tries; at --seed 2 the pool has full rank, so the solve is refused
    before any draw instead of running for hours."""
    argv = ["--out-dir", str(tmp_path), "--seed", "2", "solve", "--algorithm", "pooled-lsn",
            "--n", "20", "--pool-size", "20"]
    status = []
    worker = threading.Thread(target=lambda: status.append(main(argv)), daemon=True)
    worker.start()
    worker.join(1.0)
    assert status == [1]
    err = capsys.readouterr().err
    assert err == ("noisysimon: error: a draw of 19 distinct samples from a pool of 20 takes "
                   "2.15e+06 tries on average, above 65536: no verified period\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 64.0 GiB for an array with shape (8589934592,)"),
     "Unable to allocate 64.0 GiB for an array with shape (8589934592,)"),
    (MemoryError(), "MemoryError"),
])
def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch, exc, message):
    """A MemoryError, here raised by the sampler in place of numpy's failed
    allocation of 2^33 shots, ends in a one-line error and exit status 2."""
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "sample_noisy", no_memory)
    assert main(["--out-dir", str(tmp_path), "measure", "--n", "2",
                 "--shots", "8589934592"]) == 2
    assert capsys.readouterr().err == f"noisysimon: error: {message}\n"
    assert not (tmp_path / "measure_n2.csv").exists()


def test_sparse_multiset_is_a_one_line_error(tmp_path, capsys):
    """At n=7 16 shots cannot cover the 128 outcomes the model supports."""
    assert main(["--out-dir", str(tmp_path), "smooth", "--n", "7", "--shots", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("noisysimon: error: KL is infinite: ") and err.count("\n") == 1
    assert "--shots" in err
    assert main(["--out-dir", str(tmp_path), "measure", "--n", "7", "--shots", "16"]) == 0
    capsys.readouterr()
    assert main(["--out-dir", str(tmp_path), "stats",
                 "--multiset", str(tmp_path / "measure_n7.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("noisysimon: error: KL is infinite: ") and err.count("\n") == 1


def test_inputs_too_wide_for_their_arrays_are_one_line_errors(tmp_path, capsys):
    """The quality report's distributions are dense 2^n arrays, and solver
    samples are packed into int64: both refuse a wider n before any array is
    made. n=63 is the widest pool either pooled solver takes."""
    wide = tmp_path / "wide.csv"
    MeasurementMultiset(35, {3: 5}).to_csv(wide)
    cases = [
        (["stats", "--multiset", str(wide)], "n=35 exceeds the 24-bit dense distribution limit"),
        (["solve", "--algorithm", "pooled-lsn", "--n", "64"],
         "n=64 exceeds the 63-bit int64 sample packing"),
        (["solve", "--algorithm", "pooled-lsn", "--n", "70"], "n=70 exceeds the 63-bit"),
        (["solve", "--algorithm", "pooled-gauss", "--n", "64"], "n=64 exceeds the 63-bit"),
    ]
    for argv, message in cases:
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("noisysimon: error: ") and message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "stats.csv").exists()
    assert not (tmp_path / "solve.csv").exists()
    for algorithm in ("pooled-lsn", "pooled-gauss"):
        assert main(["--out-dir", str(tmp_path), "solve", "--algorithm", algorithm,
                     "--n", "63", "--tau", "0"]) == 0
        assert read_rows(tmp_path / "solve.csv")[0]["verified"] == "True"


def test_import_loads_no_scipy_networkx_or_hypothesis():
    """Every command starts with this import; scipy.stats alone took about 1 s of it."""
    code = ("import sys, noisysimon, noisysimon.cli; "
            "print(' '.join(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'networkx', 'hypothesis')))")
    src = str(Path(noisysimon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == []


def test_no_module_imports_a_private_name_of_a_sibling():
    """Underscore names stay inside their module (dunders such as __version__
    aside); a helper that two modules share is public."""
    import ast

    package = Path(noisysimon.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "noisysimon"
            ):
                found += [f"{path.name}: {node.module}.{alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []


def test_seeds_and_the_permutation_base_are_required():
    """No sampler or smoothing path draws from an unseeded generator, and the
    permutation reshuffles start from a configuration the caller searched."""
    import inspect

    required = [(noise_module.sample_noisy, "seed"), (smoothing.double_flip, "seed"),
                (smoothing.permutation_smooth, "seed"),
                (smoothing.permutation_configurations, "base")]
    for fn, name in required:
        assert inspect.signature(fn).parameters[name].default is inspect.Parameter.empty, fn


def test_classical_modules_import_no_circuit_layer():
    """The F2, sample, statistics and solver modules, and every package module
    they import in turn, import none of the circuit, simulation, noise,
    compiler or smoothing modules."""
    import ast

    package = Path(noisysimon.__file__).resolve().parent
    imports = {}  # module -> the package modules it imports (all imports are relative)
    for path in package.glob("*.py"):
        imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imports[path.stem] |= {node.module} if node.module else {a.name for a in node.names}
    circuit_layer = {"circuits", "statevector", "noise", "transpile", "smoothing"}
    for module in ("gf2", "simon", "multiset", "lsn", "stats", "reductions", "solvers"):
        reached, todo = set(), [module]
        while todo:
            for dep in imports.get(todo.pop(), set()) - reached:
                reached.add(dep)
                todo.append(dep)
        assert not reached & circuit_layer, (module, sorted(reached & circuit_layer))


def test_ci_runs_draw_the_same_property_examples_every_time():
    from hypothesis import settings

    assert settings.get_profile("ci").derandomize
    assert settings.default.derandomize == bool(os.environ.get("CI"))
