"""Critical distributed-PV adoption scenario search on radial feeders.

Library layout:

- ``feeder``: network data model, file I/O, synthetic generation, partitioning
- ``adoption``: agent-based PV adoption simulator producing binary scenarios
- ``powerflow``: backward/forward-sweep solver, stress and violation objectives
- ``pareto``: one dominance kernel and the front builder
- ``surrogate``: Gaussian processes with an ARD categorical (Hamming) kernel
- ``search``: the Bayesian-optimization search loop and brute-force oracle
- ``cli``: command-line entry point and run artifacts
"""

from gridcrit.feeder import (
    Bus,
    BusPartition,
    Feeder,
    Line,
    fallback_partition,
    generate_synthetic_feeder,
    load_feeder,
    save_feeder,
)
from gridcrit.adoption import (
    DiffusionParams,
    Scenario,
    adoption_probability,
    simulate_batch,
    simulate_scenario,
)
from gridcrit.powerflow import (
    PowerFlowResult,
    ViolationConfig,
    compute_stress,
    solve_power_flow,
    violation_map,
)
from gridcrit.pareto import dominates, is_critical, pareto_set
from gridcrit.surrogate import (
    GPSurrogate,
    JointPosterior,
    KernelParams,
    adopter_relevance,
    fit_hyperparameters,
    sample_joint,
)
from gridcrit.search import (
    SearchConfig,
    SearchResult,
    brute_force_oracle,
    run_search,
)

__version__ = "0.1.0"
