"""Leader-following consensus under communication noise: simulation and verification."""

from .topology import (
    Digraph, LaplacianPartition, build_digraph, has_spanning_tree,
    laplacian_partition, random_digraph, random_spanning_tree_digraph,
)
from .matrices import Spectrum, eigenvalues, is_hurwitz
from .plant import PlantModel, build_plant, leader_closed_loop
from .gains import GainProfile, RateConstants, make_profile, rate_constants
from .sde import NoiseModel, Trajectory, simulate_full, simulate_reduced
from .moments import evolve_moments, oracle_rate_check
from .rates import (
    envelope_check, filter_response, fit_power_law, jordan_transition,
    monte_carlo_moments, transition_bound_check,
)
from .series import MomentSeries
from .scenario import SimScenario, load_preset, load_scenario
from .verify import CheckResult, VerifyReport, run_battery

__version__ = "0.1.0"

__all__ = [
    "Digraph", "LaplacianPartition", "build_digraph", "has_spanning_tree",
    "laplacian_partition", "random_digraph", "random_spanning_tree_digraph",
    "Spectrum", "eigenvalues", "is_hurwitz",
    "PlantModel", "build_plant", "leader_closed_loop",
    "GainProfile", "RateConstants", "make_profile", "rate_constants",
    "NoiseModel", "Trajectory", "simulate_full", "simulate_reduced",
    "evolve_moments", "oracle_rate_check",
    "envelope_check", "filter_response", "fit_power_law", "jordan_transition",
    "monte_carlo_moments", "transition_bound_check",
    "MomentSeries", "SimScenario", "load_preset", "load_scenario",
    "CheckResult", "VerifyReport", "run_battery",
    "__version__",
]
