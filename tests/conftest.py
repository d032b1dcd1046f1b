import os

import pytest
from hypothesis import settings

from noisysimon import (
    SimonFunction,
    compile_simon_circuit,
    default_noise,
    melbourne_topology,
    search_min_configuration,
)

# CI sets CI: there the property tests draw the same examples on every run,
# so a job cannot fail by chance; local runs keep drawing fresh ones.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def graph():
    return melbourne_topology()


@pytest.fixture(scope="session")
def noise():
    return default_noise()


@pytest.fixture(scope="session")
def compiled(graph):
    """(function, min configuration, norm, optimized circuit) per n."""
    out = {}
    for n in range(2, 8):
        f = SimonFunction.default(n)
        cfg, cn = search_min_configuration(f, graph)
        out[n] = (f, cfg, cn, compile_simon_circuit(f, graph, cfg))
    return out
