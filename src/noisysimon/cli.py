"""Command-line harness reproducing the experiment tables with fixed seeds.

Every command writes CSV (tables) or JSON (circuits, configurations) under
--out-dir, with a comment header recording seed, version, and a hash of the
effective options, so reruns are byte-identical and auditable. Commands
compose through files only.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import __version__
from .circuits import build_simon_circuit
from .gf2 import BitVec
from .lsn import LsnParams, estimate_tau, model_distribution, sample_many
from .multiset import MeasurementMultiset, merge_all, write_table
from .noise import NoiseParams, default_noise, sample_noisy
from .reductions import (
    LpnSample,
    SolveFailure,
    chi_square_check,
    lpn_model_distribution,
    lsn_samples_to_lpn,
    transformed_lpn_distribution,
    transformed_lsn_distribution,
)
from .simon import SimonFunction
from .smoothing import (
    choose_hamming_vector,
    double_flip,
    double_flip_each,
    hamming_smooth,
    permutation_configurations,
    permutation_smooth,
)
from .solvers import (
    SamplePool,
    classical_period,
    heldout_size,
    pooled_gauss_lpn,
    pooled_lsn,
    majority_verifier,
)
from .stats import quality_report
from .statevector import circuits_equivalent
from .transpile import (
    Configuration,
    TopologyGraph,
    compile_simon_circuit,
    melbourne_topology,
    search_min_configuration,
)

FIG9_TAUS = {2: 0.09347, 3: 0.09479, 4: 0.09546, 5: 0.10954, 6: 0.11602, 7: 0.12398}

TECHNIQUES = (
    "none",
    "permutation",
    "double-flip",
    "permutation/double-flip",
    "hamming",
    "permutation/hamming",
)


def _config_hash(options: dict) -> str:
    blob = json.dumps(options, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _header(args, extra: Optional[dict] = None) -> dict:
    opts = {k: v for k, v in vars(args).items() if k not in ("func", "out_dir")}
    # The sampler's one stream layout, once a --workers option; hashing it
    # keeps every config hash that earlier runs wrote.
    opts["workers"] = 1
    header = {
        "seed": args.seed,
        "version": __version__,
        "config": _config_hash(opts),
    }
    if extra:
        header.update(extra)
    return header


def _write_csv(path: Path, header: dict, columns: List[str], rows: List[List]) -> None:
    write_table(path, header, columns, rows)
    print(f"wrote {path}")


def _topology(args) -> TopologyGraph:
    if args.topology:
        return TopologyGraph.from_json(args.topology)
    return melbourne_topology()


def _noise(args) -> NoiseParams:
    if args.noise:
        return NoiseParams.from_json(args.noise)
    return default_noise()


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands


def cmd_transpile_report(args) -> int:
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    graph = _topology(args)
    out = _out_dir(args)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        f = SimonFunction.default(n)
        cfg, cn = search_min_configuration(f, graph)
        circ = compile_simon_circuit(f, graph, cfg)
        if not circuits_equivalent(build_simon_circuit(f), circ, 1e-9):
            raise AssertionError(f"optimized circuit for n={n} is not equivalent")
        circ.to_json(out / f"circuit_n{n}.json")
        rows.append([n, cn.value, json.dumps(cfg.as_dict()).replace(",", ";")])
    _write_csv(out / "transpile_report.csv", _header(args), ["n", "cn", "configuration"], rows)
    return 0


def cmd_measure(args) -> int:
    graph = _topology(args)
    noise = _noise(args)
    out = _out_dir(args)
    f = SimonFunction.default(args.n)
    if args.config == "naive":
        cfg = Configuration.naive(args.n)
    else:
        cfg, _ = search_min_configuration(f, graph)
    m = sample_noisy(compile_simon_circuit(f, graph, cfg), noise, args.shots, seed=args.seed)
    m.to_csv(out / f"measure_n{args.n}.csv", header=_header(args, {"tau_hat": estimate_tau(m, f.s)}))
    print(f"wrote {out / f'measure_n{args.n}.csv'}")
    return 0


def _smoothed(args, graph, noise, cfg) -> Dict[str, Callable[[], MeasurementMultiset]]:
    """Technique name -> the function making its multiset, from the
    minimum-norm configuration `cfg`.

    The permutation configurations, their compiled circuits and the raw and
    permuted multisets are made at most once, and the Hamming rows shift the
    latter two, so `--technique all` compiles each configuration once and
    samples each of those multisets once.
    """
    f = SimonFunction.default(args.n)
    v = choose_hamming_vector(f.s)
    seed, shots = args.seed, args.shots

    @functools.cache
    def configs():
        rng = np.random.default_rng([seed, 1])
        return permutation_configurations(f, graph, args.configs, rng, base=cfg)

    @functools.cache
    def circuit():
        return compile_simon_circuit(f, graph, cfg)

    @functools.cache
    def circuits():
        return [compile_simon_circuit(f, graph, c) for c in configs()]

    @functools.cache
    def raw():
        return sample_noisy(circuit(), noise, shots, seed=seed)

    @functools.cache
    def permuted():
        return permutation_smooth(f, graph, circuits(), shots, noise, seed=seed)

    def permuted_double_flip():
        seeds = [seed + 91 * k for k in range(len(circuits()))]
        return merge_all(double_flip_each(circuits(), noise, shots, seeds))

    return {
        "none": raw,
        "permutation": permuted,
        "double-flip": lambda: double_flip(circuit(), noise, shots, seed=seed),
        "permutation/double-flip": permuted_double_flip,
        "hamming": lambda: hamming_smooth(raw(), v),
        "permutation/hamming": lambda: hamming_smooth(permuted(), v),
    }


def cmd_smooth(args) -> int:
    graph = _topology(args)
    noise = _noise(args)
    out = _out_dir(args)
    f = SimonFunction.default(args.n)
    params = LsnParams(args.n, 0.1, f.s)
    techniques = list(TECHNIQUES) if args.technique == "all" else [args.technique]
    if args.configs < 1 and any(t.startswith("permutation") for t in techniques):
        raise ValueError("--configs must be >= 1 for the permutation techniques")
    cfg, _ = search_min_configuration(f, graph)
    smoothed = _smoothed(args, graph, noise, cfg)
    rows = []
    for tech in techniques:
        m = smoothed[tech]()
        slug = tech.replace("/", "-")
        m.to_csv(out / f"smooth_{slug}_n{args.n}.csv", header=_header(args, {"technique": tech}))
        q = quality_report(m, params)
        rows.append([tech, f"{q.kl:.6f}", f"{q.kolmogorov:.6f}", f"{q.tau:.6f}"])
    _write_csv(out / f"quality_n{args.n}.csv", _header(args), ["technique", "KL", "K", "tau"], rows)
    return 0


def cmd_stats(args) -> int:
    out = _out_dir(args)
    m = MeasurementMultiset.from_csv(args.multiset)
    s = BitVec.from_string(args.s) if args.s else SimonFunction.default(m.n).s
    q = quality_report(m, LsnParams(m.n, 0.1, s))
    _write_csv(
        out / "stats.csv",
        _header(args),
        ["technique", "KL", "K", "tau"],
        [[args.label, f"{q.kl:.6f}", f"{q.kolmogorov:.6f}", f"{q.tau:.6f}"]],
    )
    return 0


def cmd_crossover(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.pool_size < 6:  # pooled_lsn draws n - 1 distinct samples, n up to 7
        raise ValueError("--pool-size must be >= 6 for crossover")
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for n in range(2, 8):
        tau = args.taus[n - 2] if args.taus else FIG9_TAUS[n]
        f = SimonFunction.default(n)
        pool = SamplePool.from_ints(n, sample_many(LsnParams(n, tau, f.s), args.pool_size, rng))
        total_p = 0
        for _ in range(args.trials):
            sv = int(rng.integers(1, 1 << n))
            _, cost = classical_period(SimonFunction.from_period(BitVec(n, sv)))
            total_p += cost.loop_count
        total_q = 0
        for _ in range(args.trials):
            s, cost = pooled_lsn(f, pool, rng)
            assert s == f.s
            total_q += cost.loop_count
        rows.append(
            [
                n,
                f"{tau:.5f}",
                f"{math.log2(total_p / args.trials):.5f}",
                f"{math.log2(total_q / args.trials):.5f}",
                args.trials,
                args.seed,
            ]
        )
    _write_csv(
        out / "crossover.csv",
        _header(args),
        ["n", "tau", "period_log2_loops", "pooled_lsn_log2_loops", "trials", "seed"],
        rows,
    )
    return 0


def cmd_reduction_check(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be >= 1")
    out = _out_dir(args)
    rows = []
    s = BitVec(args.n, 0b11) if args.n >= 2 else BitVec(1, 1)
    params = LsnParams(args.n, args.tau, s)
    if args.n <= 4:
        zs = [z for z in (BitVec(args.n, zv) for zv in range(1 << args.n)) if z.inner(s) == 1]
        target, back = lpn_model_distribution(params), model_distribution(params)
        worst_fwd = max(np.max(np.abs(transformed_lpn_distribution(params, z) - target)) for z in zs)
        worst_bwd = max(np.max(np.abs(transformed_lsn_distribution(params, z) - back)) for z in zs)
        rows.append(["to-parity", "exact", f"{worst_fwd:.3e}", "1e-12", "PASS" if worst_fwd < 1e-12 else "FAIL"])
        rows.append(["to-subspace", "exact", f"{worst_bwd:.3e}", "1e-12", "PASS" if worst_bwd < 1e-12 else "FAIL"])
    else:
        rng = np.random.default_rng(args.seed)
        zv = 0
        while BitVec(args.n, zv).inner(s) != 1:
            zv = int(rng.integers(0, 1 << args.n))
        p_values = chi_square_check(params, BitVec(args.n, zv), args.samples, rng)
        for direction, p in zip(("to-parity", "to-subspace"), p_values):
            rows.append([direction, "chi-square", f"{p:.4f}", "p>0.01", "PASS" if p > 0.01 else "FAIL"])
    _write_csv(
        out / "reduction_check.csv",
        _header(args),
        ["direction", "mode", "statistic", "threshold", "verdict"],
        rows,
    )
    return 0 if all(r[-1] == "PASS" for r in rows) else 1


def cmd_solve(args) -> int:
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    n, tau = args.n, args.tau
    f = SimonFunction.default(n)

    if args.algorithm == "period":
        s, cost = classical_period(f)
    elif args.algorithm == "pooled-lsn":
        if args.pool_size < n - 1:
            raise ValueError(f"--pool-size must be >= {n - 1} for pooled-lsn at n={n}")
        pool_params = LsnParams(n, tau, f.s)
        pool = SamplePool.from_ints(n, sample_many(pool_params, args.pool_size, rng))
        s, cost = pooled_lsn(f, pool, rng)
    elif args.algorithm == "pooled-gauss":
        held_out = heldout_size(n, tau)
        if args.pool_size < held_out + n:
            raise ValueError(f"--pool-size must be >= {held_out + n} for pooled-gauss at n={n}")
        ys = sample_many(LsnParams(n, tau, f.s), args.pool_size, rng)
        zv = 0
        while BitVec(n, zv).inner(f.s) != 1:
            zv = int(rng.integers(0, 1 << n))
        a, b = lsn_samples_to_lpn(ys, BitVec(n, zv), rng)
        samples = [LpnSample(BitVec(n, av), bv) for av, bv in zip(a.tolist(), b.tolist())]
        held = samples[:held_out]
        body = samples[len(held):]
        s, cost = pooled_gauss_lpn(body, majority_verifier(held, tau), rng)
    else:
        raise ValueError(args.algorithm)
    ok = f.verify_period(s) and s.value != 0
    _write_csv(
        out / "solve.csv",
        _header(args),
        ["algorithm", "n", "tau", "period", "loops", "verified"],
        [[args.algorithm, n, tau, str(s), cost.loop_count, ok]],
    )
    print(f"{args.algorithm}: period {s} in {cost.loop_count} loops (verified={ok})")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisysimon",
        description="Noisy quantum period finding: simulation, smoothing, and solvers.",
    )
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--topology", default=None, help="topology JSON (default: bundled device)")
    parser.add_argument("--noise", default=None, help="noise JSON (default: bundled calibration)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transpile-report", help="minimum circuit-norm table and circuits")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=7)
    p.set_defaults(func=cmd_transpile_report)

    p = sub.add_parser("measure", help="noisy measurement multiset for one dimension")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--config", choices=["search", "naive"], default="search")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("smooth", help="smoothed multisets plus a quality table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--technique", choices=list(TECHNIQUES) + ["all"], default="all")
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--configs", type=int, default=50, help="configurations for permutation smoothing")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("stats", help="quality row for a stored multiset CSV")
    p.add_argument("--multiset", required=True)
    p.add_argument("--s", default=None, help="period bitstring (default: two lowest bits set)")
    p.add_argument("--label", default="stored")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("crossover", help="loop-count curves of both solvers, n=2..7")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--pool-size", type=int, default=16384)
    p.add_argument("--taus", type=float, nargs=6, default=None)
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("reduction-check", help="distribution equality of the two transforms")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=cmd_reduction_check)

    p = sub.add_parser("solve", help="run one solver end to end")
    p.add_argument("--algorithm", choices=["period", "pooled-lsn", "pooled-gauss"], required=True)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--pool-size", type=int, default=4096)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; bad input ends in a one-line error and exit status 2,
    a solver that gives up (`SolveFailure`) in one with exit status 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, SolveFailure) as exc:
        print(f"noisysimon: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SolveFailure) else 2


if __name__ == "__main__":
    sys.exit(main())
