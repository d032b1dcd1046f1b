import csv
import json
from pathlib import Path

from noisysimon.cli import TECHNIQUES, main
from noisysimon.multiset import MeasurementMultiset


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


def test_smooth_honours_workers_in_every_row(tmp_path):
    for workers in (1, 2):
        assert main(["--out-dir", str(tmp_path / f"w{workers}"), "--workers", str(workers),
                     "smooth", "--n", "3", "--shots", "512", "--configs", "4"]) == 0
    for tech in TECHNIQUES:
        slug = tech.replace("/", "-")
        one, two = (MeasurementMultiset.from_csv(tmp_path / w / f"smooth_{slug}_n3.csv")
                    for w in ("w1", "w2"))
        assert one.total == two.total
        assert one.counts != two.counts, tech


def test_stats_command(tmp_path):
    assert main(["--out-dir", str(tmp_path), "measure", "--n", "3", "--shots", "2048"]) == 0
    assert main(["--out-dir", str(tmp_path), "stats",
                 "--multiset", str(tmp_path / "measure_n3.csv"), "--label", "raw"]) == 0
    rows = read_rows(tmp_path / "stats.csv")
    assert rows[0]["technique"] == "raw"
    assert 0.0 <= float(rows[0]["tau"]) <= 0.3


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


def test_solve_commands(tmp_path):
    for algo in ("period", "pooled-lsn", "pooled-gauss"):
        rc = main(["--out-dir", str(tmp_path), "solve", "--algorithm", algo,
                   "--n", "6", "--tau", "0.1", "--pool-size", "2048"])
        assert rc == 0
        rows = read_rows(tmp_path / "solve.csv")
        assert rows[0]["verified"] == "True"
        assert rows[0]["period"] == "000011"


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
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"vertices": 4, "edges": [[0, 1], [2, 3]]}))
    cases = [
        (["--topology", str(split), "measure", "--n", "2"], "are disconnected"),
        (["measure", "--n", "7", "--shots", "0"], "shots must be >= 1"),
        (["measure", "--n", "8"], "need 16 wires but the device has 15"),
        (["--noise", str(bad_noise), "measure", "--n", "2"], "Expecting property name"),
        (["--noise", str(tmp_path / "missing.json"), "measure", "--n", "2"], "No such file"),
    ]
    for argv, message in cases:
        assert main(["--out-dir", str(tmp_path)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("noisysimon: error: ") and message in err
        assert err.count("\n") == 1
