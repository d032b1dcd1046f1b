"""The benchmark under `bench/` binds package names; check them here, so that a
removed or renamed name fails the tests rather than the benchmark run."""

import ast
import threading
from pathlib import Path

import noisysimon
from noisysimon import cli, smoothing

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _attributes_read(path: Path, module: str):
    tree = ast.parse(path.read_text())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == module}


def test_bench_tracer_installs_and_workloads_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    try:
        tracer.install()  # looks up every traced function of spans.LAYERS
    finally:
        tracer.uninstall()  # raises if a traced function was not put back
    workloads = BENCH / "workloads.py"
    for module, owner in (("ns", noisysimon), ("cli", cli)):
        names = _attributes_read(workloads, module)
        assert names, module
        missing = sorted(name for name in names if not hasattr(owner, name))
        assert not missing, f"bench/workloads.py reads {module}.{missing}, which do not exist"


def test_batched_draws_enter_traced_functions_on_the_calling_thread_only(
        monkeypatch, compiled, noise):
    """`spans.Tracer` keeps one span stack for all threads, so the helper
    thread of `sample_noisy_batch` may enter none of the traced functions."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    threads = []

    class ThreadRecording(spans.Tracer):
        def _open(self, name_id, tag_id):
            threads.append(threading.current_thread())
            return super()._open(name_id, tag_id)

    tracer = ThreadRecording()
    circuits = [compiled[n][3] for n in (3, 4, 4)]
    tracer.install()
    try:
        tracer.root(lambda: smoothing.double_flip_each(circuits, noise, 512, [1, 2, 3]))
    finally:
        tracer.uninstall()
    # the root, 3 append_measurement_flips and 3 merge spans: each draw is
    # counted by the thread that drew it, through no traced function
    assert len(threads) == 7
    assert set(threads) == {threading.current_thread()}
