"""Noisy quantum period finding, end to end.

Simulates the period-finding circuit for the two-to-one function family
f(x) = x + x_i*s, compiles it onto a 15-qubit device graph with a weighted
gate-count objective, samples it under a synthetic hardware noise model,
smooths the measured distributions toward the two-level error model, maps
samples to and from the noisy-parity problem, and recovers periods with an
optimal classical searcher and pooled linear-algebra solvers.
"""

__version__ = "0.1.0"

from .gf2 import BitVec, CapacityError, DimensionError, orthogonal_basis
from .simon import SimonFunction
from .circuits import Circuit, Gate, build_simon_circuit, append_measurement_flips
from .statevector import circuits_equivalent, exact_output_distribution
from .noise import NoiseParams, default_noise, sample_noisy, sample_noisy_batch
from .multiset import EmptyMultisetError, MeasurementMultiset, merge_all
from .transpile import (
    Configuration,
    CircuitNorm,
    RoutingError,
    TopologyGraph,
    circuit_norm,
    compile_simon_circuit,
    enumerate_min_configurations,
    melbourne_topology,
    peephole_optimize,
    route,
    search_min_configuration,
)
from .lsn import LsnParams, estimate_tau, model_distribution, sample_many
from .smoothing import (
    choose_hamming_vector,
    double_flip,
    double_flip_each,
    hamming_smooth,
    permutation_configurations,
    permutation_smooth,
)
from .stats import (
    DivergenceError,
    QualityReport,
    chi_square_gof,
    empirical_distribution,
    kl_divergence,
    kolmogorov_distance,
    quality_report,
)
from .reductions import (
    LpnSample,
    SolveFailure,
    lpn_sample_to_lsn,
    lpn_samples_from_csv,
    lpn_samples_to_csv,
    lsn_sample_to_lpn,
    lsn_samples_to_lpn,
    solve_lpn_via_lsn,
    solve_lsn_via_lpn,
)
from .solvers import (
    CostReport,
    QueryLedger,
    SamplePool,
    classical_period,
    expected_pooled_gauss_loops,
    expected_pooled_lsn_loops,
    heldout_size,
    majority_verifier,
    pooled_gauss_lpn,
    pooled_lsn,
    runtime_exponent_pooled,
    runtime_exponent_wellpooled,
)
