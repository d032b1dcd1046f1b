"""The benchmark under `bench/` binds package names; check them here, so that a
removed or renamed name fails the tests rather than the benchmark run."""

import ast
from pathlib import Path

import noisysimon
from noisysimon import cli

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
