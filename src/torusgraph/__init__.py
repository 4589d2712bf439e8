"""Random distance graphs on the 2-D discrete torus.

Samples graphs whose edge probabilities decay with torus distance
(optionally modulated by i.i.d. vertex weights), measures largest
connected components, and evaluates the limit constants predicted for
the sub- and supercritical regimes, together with branching-process
oracles for cross-checks.
"""

from .geometry import TorusConfig, torus_distance, ring_size, ring_vertices, continuous_rho, kernel
from .model import (
    WeightSpec,
    ModelConfig,
    Graph,
    edge_probability,
    lambda_of_c,
    c_of_lambda,
    lambda_N,
    sample_graph,
    sample_graph_reference,
)
from .components import (
    ComponentSummary,
    ExplorationTrace,
    largest_component,
    explore_component,
    component_decomposition,
)
from .theory import (
    TheoryReport,
    subcritical_constant,
    supercritical_beta,
    critical_parameter,
    weighted_beta_profile,
    theorem3_constants,
    tilt_moments,
    build_report,
)
from .branching import (
    EXCEEDED,
    borel_tail,
    simulate_poisson_gw,
    poisson_gw_progeny_batch,
    size_biased,
    simulate_B1,
    simulate_B2,
    binomial_poisson_tv,
)
from .errors import RegimeError, AssumptionError, ParameterError

__all__ = [
    "TorusConfig",
    "torus_distance",
    "ring_size",
    "ring_vertices",
    "continuous_rho",
    "kernel",
    "WeightSpec",
    "ModelConfig",
    "Graph",
    "edge_probability",
    "lambda_of_c",
    "c_of_lambda",
    "lambda_N",
    "sample_graph",
    "sample_graph_reference",
    "ComponentSummary",
    "ExplorationTrace",
    "largest_component",
    "explore_component",
    "component_decomposition",
    "TheoryReport",
    "subcritical_constant",
    "supercritical_beta",
    "critical_parameter",
    "weighted_beta_profile",
    "theorem3_constants",
    "tilt_moments",
    "build_report",
    "EXCEEDED",
    "borel_tail",
    "simulate_poisson_gw",
    "poisson_gw_progeny_batch",
    "size_biased",
    "simulate_B1",
    "simulate_B2",
    "binomial_poisson_tv",
    "RegimeError",
    "AssumptionError",
    "ParameterError",
]

__version__ = "0.1.0"
