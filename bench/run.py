"""Benchmark of the noisysimon pipeline, end to end and per layer.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload smooth-table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke      # every workload once, every metric by name

One run measures one workload (see workloads.py) at one seed in this process,
single-threaded and closed-loop. It runs whole passes over the workload's ops
for about `--seconds` seconds (at least one pass; with `--trace 1`, half the
time untraced and half traced, at least two traced passes).

* `--trace 0` prints the end-to-end metrics of BENCHMARK.json: the median
  set-up time of fresh processes, the median pass time, op latency at the
  median and at the highest percentile with at least ten ops beyond it, work
  per second (noisy shots on the sampling workloads, solver calls on
  `solvers`) and the process's peak resident memory. Times are in reference
  seconds (see hostspeed.py): wall time scaled by the host's CPU speed,
  sampled between ops, so that the drift of a shared host does not read as
  a change of the program. The wall-time figures are printed beside them.
* `--trace 1` runs untraced passes, then at least two passes with spans around
  every call into each layer, and prints the per-layer metrics: calls, self
  time (wall) and counts per layer, plus the tracing overhead (traced minus
  untraced wall pass time). Counts must repeat exactly between traced passes.

Every pass's outputs are checked: paper anchors at any seed, equality with the
run's first pass, and golden digests (golden.json) at the default seed. A
failed check fails its op; any failed op makes the run exit with 1. Details,
the run manifest and the spans go to .bench_out/.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in set-up probes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import array  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("smooth-table", "measure-shots", "solvers")  # as in workloads.py
SETUP_PROBES = 5
TAIL_CAP = 0.99  # highest percentile reported as op_tail_ms
DEFAULT_SEED = 20260808  # as workloads.DEFAULT_SEED, which needs numpy to import


def _load_package() -> None:
    if not (ROOT / "src" / "noisysimon" / "__init__.py").is_file():
        sys.exit(f"bench: no noisysimon package under {ROOT / 'src'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))


def probe_setup(workload: str, seed: int) -> tuple:
    """(reference, wall) seconds for a fresh process to import noisysimon and
    build the inputs; host speed is sampled just before and just after."""
    import hostspeed

    before = hostspeed.kernel_s()
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload](seed, OUT / workload)
    wall = time.perf_counter() - t0
    after = hostspeed.kernel_s()
    return wall * hostspeed.REF_KERNEL_S * 2 / (before + after), wall


def _fresh_setup_s(workload: str, seed: int) -> tuple:
    cmd = [sys.executable, str(Path(__file__)), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    ref, wall = done.stdout.split()[-2:]
    return float(ref), float(wall)


def _p50(xs):
    xs = sorted(xs)
    return xs[math.ceil(0.5 * len(xs)) - 1]


def _tail(xs):
    """(value, percentile, samples beyond) at the highest nearest-rank
    percentile with at least ten samples beyond it, but at most p99.

    The samples are the per-op latencies of `_per_op`. With 20 samples or
    fewer (smooth-table's 6 ops, measure-shots' 12) that percentile would not
    lie above the median, so the maximum is reported instead. Above p99 the
    op latencies of this benchmark on a shared 2-vCPU VM are set by
    scheduler stalls of 2-5 ms (measured with the garbage collector off), so
    a higher percentile would measure the host rather than the program.
    """
    xs = sorted(xs)
    if len(xs) <= 20:
        return xs[-1], 100.0, 0
    rank = min(len(xs) - 10, math.ceil(TAIL_CAP * len(xs)))
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs) - rank


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class Checker:
    """Anchors, equality with the first pass, and golden digests at the default seed."""

    def __init__(self, wl, seed: int) -> None:
        self.wl = wl
        self.first = None
        self.golden = None
        golden_file = HERE / "golden.json"
        if seed == DEFAULT_SEED and golden_file.is_file():
            self.golden = json.loads(golden_file.read_text())[wl.name]

    def check(self, p) -> dict:
        digests = {g: _digest(outs) for g, outs in sorted(p.outputs.items())}
        self.wl.anchors(p)
        for g, d in digests.items():
            if self.first is not None and self.first.get(g) != d:
                p.fail(g, None, "output differs from the first pass at this seed")
            if self.golden is not None and self.golden.get(g) != d:
                p.fail(g, None, "output differs from the golden digest")
        if self.first is None:
            self.first = digests
        return digests


def manifest(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "noisysimon").rglob("*")):
        if path.suffix in (".py", ".json"):
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "git_commit": commit, "src_sha256": src.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _more(t_begin: float, done: int, budget: float, least: int) -> bool:
    """Whether another pass fits in `budget` seconds, at the mean pass time so far."""
    elapsed = time.perf_counter() - t_begin
    return done < least or elapsed + elapsed / done <= budget


def measure(workload: str, seed: int, seconds: int, trace: int, probes: int) -> dict:
    import hostspeed
    import workloads

    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, out)
    setup = [_fresh_setup_s(workload, seed) for _ in range(probes)]
    checker = Checker(wl, seed)
    budget = seconds / 2 if trace else seconds  # the untraced passes' share
    passes, messages = [], []

    def finish(p):
        p.digests = checker.check(p)
        messages.extend(p.messages)
        passes.append(p)
        p.release()  # so that the heap, and the collector's work, do not grow with passes
        gc.collect()  # each pass starts from the same heap, outside the timing

    clock = hostspeed.HostClock()
    t_begin = time.perf_counter()
    while _more(t_begin, len(passes), budget, 1):
        p = workloads.Pass(clock)
        p.t0 = clock.sample()
        wl.run(p)
        p.t1 = time.perf_counter()
        clock.sample()
        p.wall_s = p.t1 - p.t0 - clock.sampling_s(p.t0, p.t1)
        finish(p)
    untraced = list(passes)
    for p in untraced:  # once every sample is in, for the windows of hostspeed
        p.run_s = clock.reference_s(p.t0, p.t1)
        p.ref_latencies = array.array("d", (clock.reference_s(a, a + d)
                                            for a, d in zip(p.op_starts, p.latencies)))
    host_kernel_ms = 1e3 * statistics.median(clock.values)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup, "untraced": untraced, "rss_mb": rss_mb,
              "host_kernel_ms": host_kernel_ms,
              "work_per_pass": wl.work_per_pass, "messages": messages}
    if trace:
        import spans

        tracer = spans.Tracer()
        ranges = []
        tracer.install()
        t_begin = time.perf_counter()
        try:
            while _more(t_begin, len(ranges), seconds - budget, 2):
                p = workloads.Pass()
                first = len(tracer.start)
                root, _ = tracer.root(lambda: wl.run(p))
                ranges.append((first, len(tracer.start)))
                p.run_s = p.wall_s = tracer.end[root] - tracer.start[root]
                tracer.active = False  # checks are not traced
                finish(p)
                tracer.active = True
        finally:
            tracer.uninstall()
        result.update(tracer=tracer, ranges=ranges, traced=passes[len(untraced):])
    result["passes"] = passes
    return result


def _per_op(series) -> list:
    """Latency of each op of a pass: its median over the passes.

    Every pass at one seed runs the same ops on the same inputs, so this
    keeps what makes one op slower than another (its size, its loop count)
    and drops what hit one pass only (a collector pause, a stall of the host).
    """
    return [statistics.median(xs) for xs in zip(*series)]


def end_to_end(r: dict) -> tuple:
    untraced = r["untraced"]
    run_s = statistics.median(p.run_s for p in untraced)
    latencies = _per_op(p.ref_latencies for p in untraced)
    tail, pct, beyond = _tail(latencies)
    values = {
        "setup_s": statistics.median(ref for ref, _ in r["setup_s"]),
        "run_s": run_s,
        "op_p50_ms": 1e3 * _p50(latencies),
        "op_tail_ms": 1e3 * tail,
        "work_per_s": r["work_per_pass"] / run_s,
        "peak_rss_mb": r["rss_mb"],
    }
    info = {"op_tail_percentile": pct, "op_tail_beyond": beyond, "ops": len(latencies),
            "passes": len(untraced), "fail_ratio": _fail_ratio(untraced)}
    # The same statistics of the wall times, for comparison (not gated).
    wall = _per_op(p.latencies for p in untraced)
    info["host_kernel_ms"] = r["host_kernel_ms"]  # reference: hostspeed.REF_KERNEL_S
    info["wall"] = {
        "setup_s": statistics.median(w for _, w in r["setup_s"]),
        "run_s": statistics.median(p.wall_s for p in untraced),
        "op_p50_ms": 1e3 * _p50(wall),
        "op_tail_ms": 1e3 * _tail(wall)[0],
    }
    return values, info


def _fail_ratio(passes) -> float:
    return sum(p.failed for p in passes) / max(1, sum(p.attempted for p in passes))


# Per-layer metrics whose value is a counter of another span, or derived.
_ALIASES = {
    "transpile.norm_sum": ("transpile.compile", "norm_sum"),
    "statevector.amplitude_bytes_computed": ("statevector.exact", "amplitude_bytes_computed"),
    "noise.shots": ("noise.sample", "shots"),
    "noise.draws_computed": ("noise.sample", "draws_computed"),
    "multiset.distinct_outcomes": ("multiset.from_outcomes", "distinct_outcomes"),
    "trace.spans": ("driver", "spans"),
}
# (metric, span, tag, scale): mean inclusive time of one call, the named
# entries later changes can claim against.
_PER_CALL = [
    ("transpile.search.n7.mean_ms", "transpile.search", "n7", 1e3),
    ("noise.sample.n7_8192shots.mean_ms", "noise.sample", "n7_8192shots", 1e3),
    ("noise.sample.n7_262144shots.mean_ms", "noise.sample", "n7_262144shots", 1e3),
    ("solvers.pooled_lsn.n7.mean_us", "solvers.pooled_lsn", "n7", 1e6),
    ("solvers.classical_period.n7.mean_us", "solvers.classical_period", "n7", 1e6),
]


def per_layer(r: dict, names) -> tuple:
    """Layer metrics from the traced passes, and the exact-count self-check."""
    tracer, ranges = r["tracer"], r["ranges"]
    sums = [tracer.summarize(a, b) for a, b in ranges]
    counts = [{span: {k: v for k, v in e.items() if k not in ("incl_s", "busy_s")}
               for span, e in s.items()} for s in sums]
    problems = [f"counts of traced pass {i} differ from pass 0"
                for i, c in enumerate(counts) if c != counts[0]]
    s0 = sums[0]
    traced_s = statistics.median(p.run_s for p in r["traced"])
    untraced_s = statistics.median(p.wall_s for p in r["untraced"])
    lsn = s0["solvers.pooled_lsn"]
    values = {
        "noise.shots_per_call": s0["noise.sample"].get("shots", 0) / max(1, s0["noise.sample"]["calls"]),
        "lsn.tau_hat": s0["lsn.estimate_tau"].get("tau_sum", 0.0) / max(1, s0["lsn.estimate_tau"]["calls"]),
        "solvers.pooled_lsn.verified_ratio": lsn.get("queries", 0) / max(1, lsn.get("loops", 0)),
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.accounted_ratio": sum(e["busy_s"] for e in s0.values()) / r["traced"][0].run_s,
    }
    first, end = ranges[0][0], ranges[-1][1]
    for metric, span, tag, scale in _PER_CALL:
        values[metric] = scale * tracer.mean_duration(span, tag, first, end)
    for name in names:
        if name in values:
            continue
        span, field = _ALIASES.get(name, name.rpartition(".")[::2])
        if field == "busy_s":
            values[name] = statistics.median(s[span]["busy_s"] for s in sums)
        elif field == "calls":
            values[name] = s0[span]["calls"]
        else:
            values[name] = s0[span].get(field, 0)
    if s0["simon.verify"]["calls"] != lsn.get("queries", 0):
        problems.append("simon.verify calls differ from the pooled_lsn queries")
    if abs(values["trace.accounted_ratio"] - 1.0) > 1e-6:
        problems.append("self times do not add up to the traced pass time")
    return values, problems


def run(workload: str, seed: int, seconds: int, trace: int, probes: int = SETUP_PROBES):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = measure(workload, seed, seconds, trace, probes)
    e2e, info = end_to_end(r)
    layers, problems = per_layer(r, [m["name"] for m in spec["per_layer"]]) if trace else ({}, [])
    passes = r["passes"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not problems
    detail = {
        "manifest": manifest(workload, seed, seconds, trace),
        "correct": correct, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "end_to_end_info": info, "per_layer": layers,
        "setup_samples_s": r["setup_s"],
        "pass_run_s": [p.run_s for p in passes],
        "pass_wall_s": [p.wall_s for p in passes],
        "digests": passes[0].digests,
        "problems": problems + r["messages"][:50],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if trace:
        r["tracer"].write(OUT / f"{stem}-spans.json")
    for msg in detail["problems"]:
        print(f"bench: {msg}", file=sys.stderr)
    section = "per_layer" if trace else "end_to_end"
    values = layers if trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    return spec, detail, {"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}


def smoke() -> int:
    """Each workload once at the default seed, traced; prints every metric."""
    ok = True
    for workload in WORKLOADS:
        spec, detail, line = run(workload, DEFAULT_SEED, 1, 1, probes=1)
        ok &= line["correct"]
        info = detail["end_to_end_info"]
        print(f"== {workload}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} fail_ratio={info['fail_ratio']}")
        for section, values in (("end_to_end", detail["end_to_end"]),
                                ("per_layer", detail["per_layer"])):
            for m in spec[section]:
                print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
        print(f"  op_tail_ms is p{info['op_tail_percentile']:.2f} of {info['ops']} ops, "
              f"{info['op_tail_beyond']} beyond it")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads, all metrics")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_package()
    if args.probe_setup:
        print(*probe_setup(args.workload, args.seed))
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    spec, detail, line = run(args.workload, args.seed, args.seconds, args.trace)
    info = detail["end_to_end_info"]
    print("manifest " + json.dumps(detail["manifest"], sort_keys=True))
    print(f"op_tail_ms is p{info['op_tail_percentile']:.2f} of {info['ops']} ops "
          f"({info['op_tail_beyond']} beyond it) in {info['passes']} passes; "
          f"fail_ratio {info['fail_ratio']}")
    print("wall times " + json.dumps(info["wall"], sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
