"""Spans around every call into the noisysimon layers, installed from outside.

The package is not edited: `Tracer.install()` replaces each traced function
under every name it is bound to in the `noisysimon` modules (the defining
module, the package namespace and every module that imported it), and each
traced method on its class, by a wrapper that records a span.
`Tracer.uninstall()` puts the originals back and checks that none of the
wrappers is left behind.

A span is (id, parent id, name, start, end); spans live in flat arrays in
memory and are written out once, at the end of a run. A span's self time is
its duration minus the durations of its direct children, so the self times of
all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _noise_draws(a, circuit) -> int:
    """Uniform draws the sampler makes for `a` (computed from input sizes).

    Per shot: one per gate slot when any gate or crosstalk error is enabled,
    one per (two-qubit gate, other wire) crosstalk slot when crosstalk is
    enabled, one for the noiseless outcome and one per measured bit for the
    readout. The Pauli codes drawn per fault event are not included, because
    their number is random.
    """
    noise, shots = a["noise"], a["shots"]
    per_shot = 1 + len(circuit.measured)
    if circuit.gates and (noise.eps1 > 0 or noise.eps2 > 0 or noise.crosstalk > 0):
        per_shot += len(circuit.gates)
    if noise.crosstalk > 0:
        per_shot += sum(circuit.width - 2 for g in circuit.gates if g.arity == 2)
    return shots * per_shot


# Counters per traced function: (bound arguments, result) -> {counter: amount}.
def _count_compile(a, circ):
    g1, g2 = circ.gate_counts()
    return {"norm_sum": g1 + 10 * g2}


def _count_exact(a, dist):
    c = a["circuit"]
    return {"amplitude_bytes_computed": 16 * (1 << c.width) * len(c.gates)}


def _count_sample(a, m):
    return {"shots": a["shots"], "draws_computed": _noise_draws(a, a["circuit"])}


def _count_loops(a, res):
    return {"loops": res[1].loop_count}


def _count_lsn(a, res):
    return {"loops": res[1].loop_count, "queries": res[1].queries}


# (module, attribute or Class.method, span name, counter, tag of the call)
LAYERS: List[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("transpile", "search_min_configuration", "transpile.search", None, lambda a: f"n{a['f'].n}"),
    ("transpile", "enumerate_min_configurations", "transpile.search", None, None),
    ("transpile", "compile_simon_circuit", "transpile.compile", _count_compile, None),
    ("transpile", "peephole_optimize", "transpile.peephole", None, None),
    ("transpile", "route", "transpile.route", None, None),
    ("circuits", "build_simon_circuit", "circuits.build", None, None),
    ("circuits", "append_measurement_flips", "circuits.build", None, None),
    ("statevector", "exact_output_distribution", "statevector.exact", _count_exact, None),
    ("statevector", "circuits_equivalent", "statevector.equiv", None, None),
    ("noise", "sample_noisy", "noise.sample", _count_sample,
     lambda a: f"n{len(a['circuit'].measured)}_{a['shots']}shots"),
    ("multiset", "MeasurementMultiset.merge", "multiset.merge", None, None),
    ("multiset", "MeasurementMultiset.from_outcomes", "multiset.from_outcomes",
     lambda a, m: {"distinct_outcomes": len(m.counts)}, None),
    ("multiset", "MeasurementMultiset.to_csv", "multiset.csv", None, None),
    ("multiset", "MeasurementMultiset.from_csv", "multiset.csv", None, None),
    ("smoothing", "hamming_smooth", "smoothing.hamming", None, None),
    ("smoothing", "double_flip", "smoothing.double_flip", None, None),
    ("smoothing", "permutation_smooth", "smoothing.permutation", None, None),
    ("smoothing", "permutation_configurations", "smoothing.configs", None, None),
    ("lsn", "sample_many", "lsn.sample_many", lambda a, r: {"samples": a["count"]}, None),
    ("lsn", "estimate_tau", "lsn.estimate_tau", lambda a, t: {"tau_sum": t}, None),
    ("stats", "quality_report", "stats.quality", None, None),
    ("solvers", "classical_period", "solvers.classical_period", _count_loops,
     lambda a: f"n{a['f'].n}"),
    ("solvers", "pooled_lsn", "solvers.pooled_lsn", _count_lsn, lambda a: f"n{a['f'].n}"),
    ("solvers", "pooled_gauss_lpn", "solvers.pooled_gauss", _count_loops, None),
    ("solvers", "SamplePool.from_vectors", "solvers.pool_build", None, None),
    ("solvers", "majority_verifier", "solvers.pool_build", None, None),
    ("gf2", "rank_ints", "gf2.rank", None, None),
    ("gf2", "nullspace_ints", "gf2.nullspace", None, None),
    ("reductions", "lsn_sample_to_lpn", "reductions.to_lpn", None, None),
    ("simon", "SimonFunction.verify_period", "simon.verify", None, None),
    ("cli", "main", "cli", None, None),
]

ROOT = "driver"


class Tracer:
    """Records spans while installed and active; a no-op pass-through otherwise."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT]
        self.tags: List[str] = [""]
        self.parent = array.array("q")
        self.name = array.array("i")
        self.tag = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: Dict[int, Dict[str, float]] = {}
        self.stack: List[int] = []
        self.active = False
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int, tag_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_id)
        self.tag.append(tag_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def _intern(self, table: List[str], value: str) -> int:
        try:
            return table.index(value)
        except ValueError:
            table.append(value)
            return len(table) - 1

    def root(self, body: Callable[[], object]) -> Tuple[int, object]:
        """Run `body` under a root span; returns (span id, body's result)."""
        sid = self._open(0, 0)
        self.start[sid] = time.perf_counter()
        try:
            return sid, body()
        finally:
            self.end[sid] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn: Callable, span: str, counter, tagger) -> Callable:
        name_id = self._intern(self.names, span)
        sig = inspect.signature(fn) if (counter or tagger) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bound = None
            tag_id = 0
            if tagger is not None:
                bound = sig.bind(*args, **kwargs).arguments
                tag_id = tracer._intern(tracer.tags, tagger(bound))
            sid = tracer._open(name_id, tag_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                tracer.start[sid] = t0
                tracer.stack.pop()
            if counter is not None:
                if bound is None:
                    bound = sig.bind(*args, **kwargs).arguments
                tracer.counts[sid] = counter(bound, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "noisysimon" or k.startswith("noisysimon.")]
        for mod_name, attr, span, counter, tagger in LAYERS:
            home = sys.modules[f"noisysimon.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, span, counter, tagger))
                else:
                    wrapped = self._wrap(raw, span, counter, tagger)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, span, counter, tagger)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        leftover = [f"{owner.__name__}.{key}" for owner, key, original in self._patches
                    if vars(owner)[key] is not original]
        self._patches.clear()
        if leftover:
            raise RuntimeError(f"traced functions not restored: {leftover}")

    # -- reading -----------------------------------------------------------

    def summarize(self, root_id: int, end_id: int) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive time, self time and summed counters,
        over the spans root_id..end_id-1 (one root and its descendants)."""
        sl = slice(root_id, end_id)
        parent = np.frombuffer(self.parent, dtype=np.int64)[sl]
        name = np.frombuffer(self.name, dtype=np.int32)[sl]
        dur = (np.frombuffer(self.end, dtype=np.float64)[sl]
               - np.frombuffer(self.start, dtype=np.float64)[sl])
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent] - root_id, dur[has_parent])
        busy = dur - child
        out: Dict[str, Dict[str, float]] = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            calls = int(sel.sum())
            out[label] = {"calls": calls, "incl_s": float(dur[sel].sum()),
                          "busy_s": float(busy[sel].sum())}
        for sid, counts in self.counts.items():
            if root_id <= sid < end_id:
                entry = out[self.names[self.name[sid]]]
                for key, amount in counts.items():
                    entry[key] = entry.get(key, 0) + amount
        out[ROOT]["spans"] = dur.size
        return out

    def mean_duration(self, span: str, tag: str, first: int, end: int) -> float:
        """Mean inclusive duration (s) of spans with this name and tag; 0 if none."""
        if span not in self.names or tag not in self.tags:
            return 0.0
        sl = slice(first, end)
        sel = ((np.frombuffer(self.name, dtype=np.int32)[sl] == self.names.index(span))
               & (np.frombuffer(self.tag, dtype=np.int32)[sl] == self.tags.index(tag)))
        if not sel.any():
            return 0.0
        dur = (np.frombuffer(self.end, dtype=np.float64)[sl]
               - np.frombuffer(self.start, dtype=np.float64)[sl])
        return float(dur[sel].mean())

    def write(self, path) -> None:
        """All spans as columns; times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "tags": self.tags,
            "columns": ["id", "parent", "name", "tag", "start_us", "end_us"],
            "spans": [
                [i, p, n, g, round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3)]
                for i, (p, n, g, s, e) in enumerate(
                    zip(self.parent, self.name, self.tag, self.start, self.end))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
